"""Workload inputs: the scenario documents each workload drives.

Every workload is a list of ``Drive`` records built from the workload seed
alone, so the same seed gives the same inputs. The documents are plain
dicts in the format of ``scenarios/*.json`` and go through the program's own
``load_scenario``.
"""
from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("dense_highway", "urban_rules", "curved_roads")

DENSE_VARIANTS = 6          # 6 drives x 20 decisions = 120 distinct plan calls;
DENSE_DURATION_S = 10.0     # more, shorter variants average out what one seed draws
DENSE_DX_M = 8.0            # position jitter of every other vehicle, along its lane
DENSE_DV_MPS = 1.5          # speed jitter of every other vehicle

CURVE_POINTS = 60           # centerline points per lane
CURVE_LANE_LENGTH_M = 420.0
CURVE_LEFT_ARCS = 4
CURVE_DURATION_S = 8.5      # 6 drives x 17 decisions = 102 distinct plan calls
CURVE_LEFT_RADII = (120.0, 200.0)   # seeded radius range of the left-hand arcs
CURVE_SLOW_SPEEDS = (6.0, 10.0)     # seeded speed range of the slow vehicle
# Right-hand arcs: cor-mp crosses the solid edge line on these every time
# (ROADMAP item 2), so their inputs are fixed and their drives are counted
# as failed on every seed.
CURVE_RIGHT_RADII = (140.0, 190.0)
CURVE_RIGHT_SLOW_SPEED = 8.0


@dataclass
class Drive:
    name: str
    doc: dict            # scenario document, as load_scenario reads it
    expect_fail: str | None = None   # named program fault this drive shows


def _shipped(root: Path, name: str) -> dict:
    with open(root / "scenarios" / f"{name}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """One uniform draw from each of n equal strata of [lo, hi], in random order.

    The variants of one seed then cover the whole range evenly, so what a
    workload costs moves less from seed to seed than with n free draws.
    """
    width = (hi - lo) / n
    draws = [lo + (k + rng.random()) * width for k in range(n)]
    rng.shuffle(draws)
    return draws


def dense_highway(root: Path, seed: int) -> list:
    """Seeded variants of ``busy_highway``: every other vehicle moved and re-timed.

    Each variant drives the first 10 s of the 20 s scenario. Each vehicle's
    shifts over the variants are stratified (see ``_strata``).
    """
    base = _shipped(root, "busy_highway")
    rng = random.Random(f"dense_highway/{seed}")
    shifts = {a["id"]: (_strata(rng, -DENSE_DX_M, DENSE_DX_M, DENSE_VARIANTS),
                        _strata(rng, -DENSE_DV_MPS, DENSE_DV_MPS, DENSE_VARIANTS))
              for a in base["agents"] if a["kind"] != "ego"}
    drives = []
    for k in range(DENSE_VARIANTS):
        doc = copy.deepcopy(base)
        doc["name"] = f"busy_highway_s{seed}_v{k}"
        doc["duration_s"] = DENSE_DURATION_S
        for agent in doc["agents"]:
            if agent["kind"] == "ego":
                continue
            dx, dv = shifts[agent["id"]]
            x, y = agent["position"]
            agent["position"] = [x + dx[k], y]
            agent["speed"] = agent["speed"] + dv[k]
        drives.append(Drive(doc["name"], doc))
    return drives


def urban_rules(root: Path, seed: int) -> list:
    """The shipped scenarios other than ``busy_highway``, unchanged.

    The seed only shuffles the order in which a round replays them.
    """
    names = sorted(p.stem for p in (root / "scenarios").glob("*.json")
                   if p.stem != "busy_highway")
    random.Random(f"urban_rules/{seed}").shuffle(names)
    return [Drive(n, _shipped(root, n)) for n in names]


def _arc(radius: float, turn: int, offset: float) -> list:
    """Centerline of a lane `offset` m left of a reference arc.

    The reference arc starts at the origin heading +x and turns left
    (turn=+1) or right (turn=-1) with the given radius.
    """
    r = radius - turn * offset          # left of a left turn is the inside
    cx, cy = 0.0, turn * radius
    sweep = CURVE_LANE_LENGTH_M / radius
    pts = []
    for i in range(CURVE_POINTS):
        a = -turn * math.pi / 2.0 + turn * sweep * i / (CURVE_POINTS - 1)
        pts.append([cx + r * math.cos(a), cy + r * math.sin(a)])
    return pts


def curved_doc(name: str, radius: float, turn: int, slow_speed: float) -> dict:
    """Two-lane arc: the ego in the right lane, a slow vehicle ahead on the left."""
    width = 3.5
    right = _arc(radius, turn, 0.0)
    left = _arc(radius, turn, width)

    def pose(line, i):
        (x0, y0), (x1, y1) = line[i], line[i + 1]
        return [x0, y0], math.atan2(y1 - y0, x1 - x0)

    ego_pos, ego_h = pose(right, 2)
    slow_pos, slow_h = pose(left, 9)
    return {
        "name": name,
        "duration_s": CURVE_DURATION_S,
        "profile": "regular",
        "apriori_lane": "right",
        "lanes": [
            {"id": "right", "centerline": right, "width": width, "speed_limit": 13.89,
             "left_neighbor": "left", "left_boundary": "dashed", "right_boundary": "solid"},
            {"id": "left", "centerline": left, "width": width, "speed_limit": 13.89,
             "right_neighbor": "right", "left_boundary": "solid", "right_boundary": "dashed"},
        ],
        "agents": [
            {"id": "ego", "kind": "ego", "position": ego_pos, "heading": ego_h,
             "speed": 13.89, "length": 4.5, "width": 1.8, "mass": 1500.0, "lane": "right"},
            {"id": "slow", "kind": "vehicle", "position": slow_pos, "heading": slow_h,
             "speed": slow_speed, "length": 4.5, "width": 1.8, "lane": "left",
             "behavior": {"type": "lane_follow"}},
        ],
    }


def curved_roads(root: Path, seed: int) -> list:
    """Four seeded left-hand arcs and two fixed right-hand arcs.

    On a left-hand arc the ego's lane is the outer one; on a right-hand arc
    it is the inner one, whose solid edge cor-mp crosses. Tighter arcs cost
    more per plan, so the left-hand radii and speeds are stratified.
    """
    rng = random.Random(f"curved_roads/{seed}")
    radii = _strata(rng, *CURVE_LEFT_RADII, CURVE_LEFT_ARCS)
    speeds = _strata(rng, *CURVE_SLOW_SPEEDS, CURVE_LEFT_ARCS)
    drives = []
    for k in range(CURVE_LEFT_ARCS):
        name = f"arc_left_s{seed}_v{k}"
        drives.append(Drive(name, curved_doc(name, radii[k], +1, speeds[k])))
    for radius in CURVE_RIGHT_RADII:
        name = f"arc_right_r{radius:.0f}"
        drives.append(Drive(name, curved_doc(name, radius, -1, CURVE_RIGHT_SLOW_SPEED),
                            expect_fail="solid_boundary"))
    return drives


def make(workload: str, root: Path, seed: int) -> list:
    if workload == "dense_highway":
        return dense_highway(root, seed)
    if workload == "urban_rules":
        return urban_rules(root, seed)
    if workload == "curved_roads":
        return curved_roads(root, seed)
    raise ValueError(f"unknown workload {workload!r} (expected one of {WORKLOADS})")
