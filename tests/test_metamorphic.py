"""Metamorphic relations of the closed loop: a changed scenario whose log follows
from the original's.

Rigid motion. Every lane vertex and agent position of a scenario is rotated by
`ANGLE` about the origin and then moved by `SHIFT`, and every agent heading
turned by `ANGLE`. The curved roads of `tests/conftest.py` have no lights or
crosswalks, so this moves all of their geometry. 3.0 rad carries the lane
headings of `arc_left_overtake_r140` across +-pi. Under every planner the
moved drive must log the same discrete columns (`log_digest.is_discrete`, and
`t`) and the same `events.json`. Its poses, mapped back, and its
rotation-invariant continuous columns (speed, accelerations, V and mu) must
agree with the original's within `TOL`.
"""
from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from conftest import CURVED, timed_run
from cormp.baselines import PLANNERS, make_planner
from cormp.config import PlannerConfig
from cormp.scenario import load_scenario
from cormp.simulator import CSV_COLUMNS, run
from log_digest import is_discrete

ANGLE = 3.0                 # rad
SHIFT = (-5000.0, 7000.0)   # m
TOL = 1e-6
COS, SIN = math.cos(ANGLE), math.sin(ANGLE)

DISCRETE = ["t"] + [c for c in CSV_COLUMNS if is_discrete(c)]
INVARIANT = ["ego_speed", "ego_accel_lon", "ego_accel_lat"] + [
    c for c in CSV_COLUMNS if c.startswith(("V_", "mu_"))]


def moved(doc: dict) -> dict:
    """`doc` rotated by `ANGLE` about the origin, then moved by `SHIFT`."""
    assert not doc.get("lights") and not doc.get("crosswalks")
    doc = copy.deepcopy(doc)

    def move(x: float, y: float) -> list:
        return [COS * x - SIN * y + SHIFT[0], SIN * x + COS * y + SHIFT[1]]

    for lane in doc["lanes"]:
        lane["centerline"] = [move(x, y) for x, y in lane["centerline"]]
    for agent in doc["agents"]:
        agent["position"] = move(*agent["position"])
        agent["heading"] = math.remainder(agent["heading"] + ANGLE, math.tau)
    return doc


def columns(log, names: list) -> np.ndarray:
    """(rows, names) floats of `log`, nan where a cell is empty."""
    return np.array([[row.get(c) for c in names] for row in log.rows], dtype=float)


@pytest.mark.parametrize("planner", list(PLANNERS))
@pytest.mark.parametrize("name", sorted(CURVED))
def test_rigid_motion_moves_the_log_with_the_road(name, planner):
    _, want, _ = timed_run(name, planner)
    scenario = load_scenario(moved(CURVED[name]))
    cfg = PlannerConfig()
    got = run(scenario, make_planner(planner, cfg, scenario.profile), cfg)

    assert len(got.rows) == len(want.rows)
    assert [[row.get(c) for c in DISCRETE] for row in got.rows] == \
        [[row.get(c) for c in DISCRETE] for row in want.rows]
    assert got.events_json() == want.events_json()

    x, y, heading = columns(got, ["ego_x", "ego_y", "ego_heading"]).T
    dx, dy = x - SHIFT[0], y - SHIFT[1]
    back = np.column_stack([COS * dx + SIN * dy, -SIN * dx + COS * dy])
    np.testing.assert_allclose(back, columns(want, ["ego_x", "ego_y"]), rtol=0.0, atol=TOL)
    turned = np.remainder(heading - ANGLE - columns(want, ["ego_heading"])[:, 0] + math.pi,
                          math.tau) - math.pi
    np.testing.assert_allclose(turned, 0.0, rtol=0.0, atol=TOL)
    # a V absent from one log (nan) must be absent from the other
    np.testing.assert_allclose(columns(got, INVARIANT), columns(want, INVARIANT),
                               rtol=0.0, atol=TOL)
