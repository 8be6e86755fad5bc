"""Shared fixtures: cache closed-loop runs across tests."""
from __future__ import annotations

import math
import pathlib
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

import cormp.planner
from cormp.baselines import make_planner
from cormp.bezier import CandidateBlock, LanePath, TimedTrajectory
from cormp.config import PlannerConfig
from cormp.identification import RULES, Maneuver, ManeuverCandidate, PredictionBlock
from cormp.scenario import AgentState, Polyline, Scenario, load_scenario
from cormp.simulator import SimLog, run

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
SHIPPED = sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))

# Property tests run a fixed example sequence with no per-example deadline,
# so the suite is deterministic; each test sets its own max_examples.
settings.register_profile("cormp", derandomize=True, deadline=None)
settings.load_profile("cormp")


@pytest.fixture(scope="session")
def scenario_dir() -> pathlib.Path:
    return SCENARIO_DIR


def arc_centerline(radius: float, turn: int, offset: float = 0.0,
                   n_points: int = 60, length: float = 420.0) -> list:
    """Centerline `offset` m left of a reference arc of `length` m.

    The reference arc starts at the origin heading +x and turns left
    (turn=+1) or right (turn=-1) with the given radius.
    """
    r = radius - turn * offset
    sweep = length / radius
    pts = []
    for i in range(n_points):
        a = turn * (sweep * i / (n_points - 1) - math.pi / 2.0)
        pts.append([r * math.cos(a), turn * radius + r * math.sin(a)])
    return pts


def curved_road(radius: float, turn: int, lead_lane: str, lead_speed: float,
                duration: float) -> dict:
    """Two-lane arc with solid edge lines: the ego at 13.89 m/s in the right
    lane, a vehicle ahead in `lead_lane` at `lead_speed`."""
    lines = {"right": arc_centerline(radius, turn), "left": arc_centerline(radius, turn, 3.5)}

    def pose(lane: str, i: int) -> tuple:
        (x0, y0), (x1, y1) = lines[lane][i], lines[lane][i + 1]
        return [x0, y0], math.atan2(y1 - y0, x1 - x0)

    ego_pos, ego_h = pose("right", 2)
    lead_pos, lead_h = pose(lead_lane, 9)
    return {
        "name": f"arc_{'left' if turn > 0 else 'right'}_r{radius:.0f}",
        "duration_s": duration,
        "apriori_lane": "right",
        "lanes": [
            {"id": "right", "centerline": lines["right"], "width": 3.5, "speed_limit": 13.89,
             "left_neighbor": "left", "left_boundary": "dashed", "right_boundary": "solid"},
            {"id": "left", "centerline": lines["left"], "width": 3.5, "speed_limit": 13.89,
             "right_neighbor": "right", "left_boundary": "solid", "right_boundary": "dashed"},
        ],
        "agents": [
            {"id": "ego", "kind": "ego", "position": ego_pos, "heading": ego_h,
             "speed": 13.89, "length": 4.5, "width": 1.8, "lane": "right"},
            {"id": "lead", "kind": "vehicle", "position": lead_pos, "heading": lead_h,
             "speed": lead_speed, "length": 4.5, "width": 1.8, "lane": lead_lane},
        ],
    }


# Curved roads for the clean sweep, kept out of scenarios/ (whose files are the
# shipped set): the ego in the inner lane of a right-hand arc, and an overtake
# of a slow lead in the ego's own lane on a left-hand arc.
CURVED = {
    "arc_right_r140": curved_road(140.0, -1, "left", 8.0, 8.5),
    "arc_left_overtake_r140": curved_road(140.0, +1, "right", 6.0, 20.0),
}


def lit_arc(n_points: int) -> dict:
    """Two-lane left-hand arc of radius 150 m over 420 m, its centerlines of
    `n_points` vertices, with a light on each lane, a crosswalk over both and
    traffic: the ego at 13.89 m/s on the outer lane 80 m before its red
    light, 10 vehicles past that light at 11 m/s and 10 on the inner lane at
    12 m/s, and 4 walkers that cross both lanes from the outside, one after
    the other, as the ego nears the crosswalk."""
    radius, width = 150.0, 3.5
    lines = {"right": arc_centerline(radius, 1, n_points=n_points),
             "left": arc_centerline(radius, 1, width, n_points=n_points)}

    def pose(offset: float, s: float) -> tuple:
        """Position `offset` m left of the outer centerline at its arc position
        s, and the heading along it."""
        a = s / radius - math.pi / 2.0
        r = radius - offset
        return [r * math.cos(a), radius + r * math.sin(a)], a + math.pi / 2.0

    def car(name: str, lane: str, s: float, speed: float) -> dict:
        position, heading = pose(width if lane == "left" else 0.0, s)
        return {"id": name, "kind": "ego" if name == "ego" else "vehicle",
                "position": position, "heading": heading, "speed": speed,
                "length": 4.5, "width": 1.8, "lane": lane}

    def walker(k: int) -> dict:
        position, heading = pose(-4.0, 201.5)
        return {"id": f"walker{k}", "kind": "pedestrian", "position": position,
                "heading": heading + math.pi / 2.0, "speed": 0.0, "length": 0.6, "width": 0.6,
                "behavior": {"type": "cross", "start_time": 6.0 + 1.5 * k, "speed": 1.4,
                             "distance": 12.0}}

    return {
        "name": f"lit_arc_{n_points}",
        "duration_s": 15.0,
        "apriori_lane": "right",
        "lanes": [
            {"id": "right", "centerline": lines["right"], "width": width, "speed_limit": 13.89,
             "left_neighbor": "left", "left_boundary": "dashed", "right_boundary": "solid"},
            {"id": "left", "centerline": lines["left"], "width": width, "speed_limit": 13.89,
             "right_neighbor": "right", "left_boundary": "solid", "right_boundary": "dashed"},
        ],
        "agents": [car("ego", "right", 30.0, 13.89)]
        + [car(f"slow{k}", "right", 130.0 + 25.0 * k, 11.0) for k in range(10)]
        + [car(f"fast{k}", "left", 5.0 + 30.0 * k, 12.0) for k in range(10)]
        + [walker(k) for k in range(4)],
        "lights": [
            {"lane": "right", "stop_line_s": 110.0, "schedule": [["red", 6.0], ["green", 30.0]]},
            {"lane": "left", "stop_line_s": 250.0, "schedule": [["green", 4.0], ["red", 30.0]]},
        ],
        "crosswalks": [{"lanes": ["right", "left"], "span": [200.0, 203.0]}],
    }


# Lit arcs at two lane resolutions, kept out of the clean sweep and the
# digests: the rule checks' cost must not grow with the vertex count.
LIT_ARCS = {f"lit_arc_{n}": lit_arc(n) for n in (60, 1000)}


def load(name: str) -> Scenario:
    if name in CURVED:
        return load_scenario(CURVED[name])
    if name in LIT_ARCS:
        return load_scenario(LIT_ARCS[name])
    return load_scenario(str(SCENARIO_DIR / f"{name}.json"))


# Closed-loop runs are the expensive part of the suite; identical
# (scenario, planner, profile) runs are deterministic, so share them.
_RUN_CACHE: dict = {}


def timed_run(name: str, planner_id: str = "cor-mp",
              profile: str | None = None) -> tuple[Scenario, SimLog, float]:
    key = (name, planner_id, profile)
    if key not in _RUN_CACHE:
        sc = load(name)
        cfg = PlannerConfig()
        planner = make_planner(planner_id, cfg, profile or sc.profile)
        t0 = time.perf_counter()
        log = run(sc, planner, cfg)
        elapsed = time.perf_counter() - t0
        _RUN_CACHE[key] = (sc, log, elapsed)
    return _RUN_CACHE[key]


def along(line: Polyline) -> LanePath:
    """`line` itself from its start, and on past its end, without offset."""
    return LanePath(line, 0.0, 0.0, 0.0, line.length)


def resting(x: float, y: float, heading: float, dt: float, n: int) -> TimedTrajectory:
    """`n` samples `dt` apart of a body at rest at (x, y), facing `heading`."""
    return TimedTrajectory(dt, np.arange(n) * dt, np.full(n, x), np.full(n, y),
                           np.full(n, heading), *np.zeros((3, n)))


def prediction_block(*rows, steps: int = 41) -> PredictionBlock:
    """A `PredictionBlock` of (kind, trajectory, length, width) rows.

    The trajectories share one length, which becomes the block's T; with no
    rows the block has `steps` samples per (absent) row.
    """
    agents = [AgentState(f"obj{k}", kind, 0.0, 0.0, 0.0, 0.0, length, width, 0.0)
              for k, (kind, _, length, width) in enumerate(rows)]
    return PredictionBlock(agents, [(traj.x, traj.y, traj.heading, traj.speed)
                                    for _, traj, _, _ in rows],
                           len(rows[0][1]) if rows else steps)


def stacked(trajectories: list) -> CandidateBlock:
    """A `CandidateBlock` whose row c is `trajectories[c]`, a shorter one
    padded with its last sample; its s row is NaN, as a trajectory carries
    no arc position."""
    lengths = np.array([len(traj) for traj in trajectories])
    rows = np.full((8, len(trajectories), lengths.max()), np.nan)
    for c, traj in enumerate(trajectories):
        n = len(traj)
        rows[:7, c, :n] = (traj.t, traj.x, traj.y, traj.heading, traj.speed,
                           traj.a_lon, traj.a_lat)
        rows[:7, c, n:] = rows[:7, c, n - 1:n]
    return CandidateBlock(rows, np.arange(rows.shape[2]) < lengths[:, None], trajectories[0].dt)


def assert_row_is_its_lone_block(block, row: int) -> None:
    """Row `row` of a `CandidateBlock` is `stacked([block[row]])`, bitwise:
    every array over the trajectory's own samples, then its last sample
    repeated to the block's width, and `valid` marking exactly its own."""
    alone = stacked([block[row]])
    n = len(block[row])
    for name in ("t", "x", "y", "heading", "speed", "a_lon", "a_lat"):
        got, want = getattr(block, name)[row], getattr(alone, name)[0]
        assert np.array_equal(got[:n], want), (row, name)
        assert np.array_equal(got[n:], np.full(len(got) - n, want[-1])), (row, name)
    assert np.array_equal(block.valid[row], np.arange(block.x.shape[1]) < n)


@pytest.fixture
def weigh(monkeypatch):
    """`plan_tick`'s weighting and choice over given resource values.

    `weigh(values, weights, maneuvers)` plans with one feasible candidate per
    (6,) row of `values`, named by `maneuvers` in order (by default the
    `Maneuver` order), and returns the `Decision`. Enumeration, the filter and
    the assessment are stubbed to give exactly those candidates and rows.
    """
    plan: dict = {}
    monkeypatch.setattr(cormp.planner, "enumerate_candidates", lambda ctx: (
        stacked([resting(0.0, 0.0, 0.0, 0.1, 2)] * len(plan["values"])),
        [ManeuverCandidate(m, None, r) for r, m in enumerate(plan["maneuvers"])]))
    monkeypatch.setattr(cormp.planner, "feasibility_filter", lambda ctx, block, candidates: (
        np.zeros((len(candidates), len(RULES)), dtype=bool), np.full(len(candidates), math.inf),
        [None] * len(candidates)))
    monkeypatch.setattr(cormp.planner, "assess_candidates", lambda ctx, block, rows, held: (
        plan["values"], np.full(plan["values"].shape, 3)))
    ctx = SimpleNamespace(sim_time=0.0, config=PlannerConfig())

    def plan_on(values, weights: dict, maneuvers: tuple = tuple(Maneuver)):
        plan["values"] = np.asarray(values, dtype=float)
        plan["maneuvers"] = maneuvers[:len(plan["values"])]
        return cormp.planner.plan_tick(ctx, weights=weights)

    return plan_on
