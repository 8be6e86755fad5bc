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

Road users that cannot matter. Listing a shipped scenario's agents in
another order (the non-ego ones shuffled, the ego last), or adding a static
obstacle `FAR` m to the ego's left, off every lane, must leave `log.csv` and
`events.json` byte-identical under every planner.
"""
from __future__ import annotations

import copy
import csv
import json
import math
import random

import numpy as np
import pytest

from conftest import CURVED, SCENARIO_DIR, SHIPPED, timed_run
from cormp.baselines import PLANNERS, make_planner
from cormp.config import PlannerConfig
from cormp.scenario import load_scenario
from cormp.simulator import CSV_COLUMNS, run
from log_digest import diff_logs, is_discrete

ANGLE = 3.0                 # rad
SHIFT = (-5000.0, 7000.0)   # m
TOL = 1e-6
COS, SIN = math.cos(ANGLE), math.sin(ANGLE)

FAR = 28000.0              # m

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


def shipped(name: str) -> dict:
    with open(SCENARIO_DIR / f"{name}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def reordered(doc: dict) -> dict:
    """`doc` with its non-ego agents shuffled and the ego listed last."""
    doc = copy.deepcopy(doc)
    ego = [a for a in doc["agents"] if a["kind"] == "ego"]
    others = [a for a in doc["agents"] if a["kind"] != "ego"]
    random.Random(7).shuffle(others)
    if len(others) > 1 and [a["id"] for a in others] == \
            [a["id"] for a in doc["agents"] if a["kind"] != "ego"]:
        others.reverse()
    doc["agents"] = others + ego
    return doc


def with_far_obstacle(doc: dict) -> dict:
    """`doc` plus a standing car `FAR` m to the ego's left, off every lane."""
    doc = copy.deepcopy(doc)
    ego = next(a for a in doc["agents"] if a["kind"] == "ego")
    x, y = ego["position"]
    doc["agents"].append({"id": "far_obstacle", "kind": "obstacle",
                          "position": [x - FAR * math.sin(ego["heading"]),
                                       y + FAR * math.cos(ego["heading"])],
                          "heading": ego["heading"], "speed": 0.0,
                          "length": 4.5, "width": 1.8})
    return doc


# the ego-only scenarios have no agent order to change
REORDERED = [name for name in SHIPPED
             if [a["id"] for a in reordered(shipped(name))["agents"]]
             != [a["id"] for a in shipped(name)["agents"]]]


def assert_same_artifacts(doc: dict, name: str, planner: str) -> None:
    _, want, _ = timed_run(name, planner)
    scenario = load_scenario(doc)
    cfg = PlannerConfig()
    got = run(scenario, make_planner(planner, cfg, scenario.profile), cfg)
    got_csv, want_csv = got.to_csv(), want.to_csv()
    same = got_csv == want_csv   # a diff of two whole logs would take minutes
    assert same, diff_logs(*(list(csv.reader(text.splitlines())) for text in (got_csv, want_csv)))
    assert json.dumps(got.events_json(), indent=2) == json.dumps(want.events_json(), indent=2)


@pytest.mark.parametrize("planner", list(PLANNERS))
@pytest.mark.parametrize("name", REORDERED)
def test_agent_order_leaves_the_log_unchanged(name, planner):
    assert_same_artifacts(reordered(shipped(name)), name, planner)


@pytest.mark.parametrize("planner", list(PLANNERS))
@pytest.mark.parametrize("name", SHIPPED)
def test_a_far_obstacle_leaves_the_log_unchanged(name, planner):
    assert_same_artifacts(with_far_obstacle(shipped(name)), name, planner)
