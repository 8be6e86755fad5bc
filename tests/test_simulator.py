import csv
import dataclasses
import io

import numpy as np
import pytest

from conftest import load, timed_run
from cormp.baselines import make_planner
from cormp.bezier import TimedTrajectory
from cormp.config import PlannerConfig
from cormp.identification import Maneuver
from cormp.metrics import compute_metrics
from cormp.planner import PlanResult
from cormp.scenario import Polyline, TrafficLight, load_scenario
from cormp.simulator import CSV_COLUMNS, SimLog, SimWorld, run

FROZEN_COLUMNS = (
    ["t", "ego_x", "ego_y", "ego_heading", "ego_speed", "ego_accel_lon",
     "ego_accel_lat", "ego_lane", "maneuver", "committed", "fallback"]
    + [f"V_{m}" for m in ("change_lane_left", "change_lane_right",
                          "keep_lane_accelerate", "keep_lane_same_speed",
                          "keep_lane_decelerate", "stop")]
    + [f"feasible_{m}" for m in ("change_lane_left", "change_lane_right",
                                 "keep_lane_accelerate", "keep_lane_same_speed",
                                 "keep_lane_decelerate", "stop")]
    + [f"mu_{r}" for r in ("safety", "comfort", "objective", "apriori_lane",
                           "energy", "crowdedness")]
    + [f"state_{r}" for r in ("safety", "comfort", "objective", "apriori_lane",
                              "energy", "crowdedness")]
    + ["events"]
)


def test_csv_columns_are_frozen():
    # SCHEMA.md documents this exact order; downstream parsers rely on it
    assert CSV_COLUMNS == FROZEN_COLUMNS
    assert len(CSV_COLUMNS) == 36


class ScriptedPlanner:
    """Planner stub that replays a closed-form trajectory.

    x(t), y(t) are global functions of time so every replanned segment lines
    up exactly with the previous one.
    """

    name = "scripted"
    profile = "regular"

    def __init__(self, x_of_t, y_of_t, speed, dt=0.1, n=11):
        self.x_of_t = x_of_t
        self.y_of_t = y_of_t
        self.speed = speed
        self.dt = dt
        self.n = n

    def reset(self):
        pass

    def plan(self, scenario, sim_time):
        t = sim_time + np.arange(self.n) * self.dt
        zeros = np.zeros(self.n)
        traj = TimedTrajectory(self.dt, np.arange(self.n) * self.dt,
                               np.array([self.x_of_t(tk) for tk in t]),
                               np.array([self.y_of_t(tk) for tk in t]),
                               zeros.copy(), np.full(self.n, self.speed),
                               zeros.copy(), zeros.copy())
        return PlanResult(traj, Maneuver.KEEP_LANE_SAME_SPEED)


def cruiser(speed, x0=15.0):
    return ScriptedPlanner(lambda t: x0 + speed * t, lambda t: 0.0, speed)


def lane_doc(duration=3.0, limit=13.89, ego_speed=10.0, ego_x=15.0,
             others=(), lights=(), left_boundary="solid"):
    doc = {
        "duration_s": duration, "apriori_lane": "main",
        "lanes": [{"id": "main", "centerline": [[0.0, 0.0], [600.0, 0.0]],
                   "width": 3.5, "speed_limit": limit,
                   "left_boundary": left_boundary, "right_boundary": "solid"}],
        "agents": [{"id": "ego", "kind": "ego", "position": [ego_x, 0.0],
                    "heading": 0.0, "speed": ego_speed, "length": 4.5,
                    "width": 1.8, "lane": "main"}] + list(others),
    }
    if lights:
        doc["lights"] = list(lights)
    return load_scenario(doc)


def rule_events(log, rule):
    return [e for e in log.events
            if e.type == "rule_violation" and e.detail.get("rule") == rule]


# ---------------------------------------------------------------- kinematics


def test_constant_speed_advances_one_meter_per_tick():
    log = run(lane_doc(duration=1.0), cruiser(10.0))
    xs = log.column("ego_x").astype(float)
    assert len(xs) == 10
    assert np.allclose(np.diff(xs), 1.0, atol=1e-9)
    assert log.column("maneuver")[0] == "keep_lane_same_speed"


def test_tick_count_and_epoch_bookkeeping():
    log = run(lane_doc(duration=2.0), cruiser(10.0))
    assert len(log.rows) == 20
    assert len(log.epoch_speeds) == len(log.latencies_ms) + 1
    assert log.scenario_name == "scenario"
    assert log.planner == "scripted"


# ---------------------------------------------------------------- events


def test_driving_through_an_obstacle_is_one_collision_episode():
    block = {"id": "block", "kind": "obstacle", "position": [40.0, 0.0],
             "heading": 0.0, "speed": 0.0, "length": 4.5, "width": 1.8}
    log = run(lane_doc(duration=6.0, others=[block]), cruiser(10.0))
    assert log.count_events("collision") == 1
    assert log.events_json()[0]["agent"] == "block"
    # the contact lasts many ticks but only the onset is logged
    touching = [row for row in log.rows if "collision" in row["events"]]
    assert len(touching) == 1


def test_speeding_is_reported_once_per_excursion():
    log = run(lane_doc(duration=3.0, limit=13.89), cruiser(20.0))
    assert len(rule_events(log, "speed")) == 1


def test_driving_at_the_limit_is_clean():
    log = run(lane_doc(duration=3.0, limit=13.89), cruiser(13.89))
    assert log.count_events("rule_violation") == 0
    assert log.count_events("collision") == 0


def test_crossing_a_solid_boundary_is_a_violation():
    # room before the edge is width/2 - ego_width/2 = 0.85 m
    swerver = ScriptedPlanner(lambda t: 15.0 + 5.0 * t,
                              lambda t: min(1.2, 0.6 * t), 5.0)
    log = run(lane_doc(duration=4.0), swerver)
    events = rule_events(log, "solid_boundary")
    assert len(events) == 1
    assert events[0].detail["lane"] == "main"


def test_crossing_the_stop_line_on_red_is_a_violation():
    light = {"lane": "main", "stop_line_s": 150.0, "schedule": [["red", 1000.0]]}
    log = run(lane_doc(duration=3.0, ego_x=140.0, lights=[light]), cruiser(10.0, x0=140.0))
    assert len(rule_events(log, "red_light")) == 1


def test_violation_checks_reuse_the_lane_update_projection(monkeypatch):
    # after a pose update the ego's lane and a light on it are checked on the
    # (s, lateral) the lane update projected; only another lane's light projects
    sc = lane_doc()
    side = dataclasses.replace(sc.lanes["main"], id="side",
                               centerline=Polyline([[0.0, -3.5], [600.0, -3.5]]))
    sc = dataclasses.replace(sc, lanes={**sc.lanes, "side": side},
                             lights=[TrafficLight(lane, 150.0, [("red", 1000.0)], 0.0, 0.0)
                                     for lane in ("main", "side")])
    world = SimWorld(sc, PlannerConfig())
    world.apply_ego_sample(16.0, 0.3, 0.0, 10.0)
    projected = []
    project = Polyline.project
    monkeypatch.setattr(Polyline, "project",
                        lambda self, p: projected.append(self) or project(self, p))
    lanes = world.scenario.lanes
    assert world.detect_violations() == []
    assert projected == [lanes["side"].centerline]
    world.ego.x = 17.0                   # moved without a lane update: projects anew
    projected.clear()
    assert world.detect_violations() == []
    assert projected == [lanes["main"].centerline, lanes["side"].centerline]
    assert world._prev_front_s[0] == 17.0 + 4.5 / 2.0


def test_crossing_the_stop_line_on_green_is_clean():
    light = {"lane": "main", "stop_line_s": 150.0,
             "schedule": [["red", 1.0], ["green", 1000.0]]}
    log = run(lane_doc(duration=3.0, ego_x=138.0, lights=[light]), cruiser(5.0, x0=138.0))
    assert len(rule_events(log, "red_light")) == 0


def test_planner_fallback_is_logged():
    block = {"id": "block", "kind": "obstacle", "position": [27.0, 0.0],
             "heading": 0.0, "speed": 0.0, "length": 4.5, "width": 1.8}
    sc = lane_doc(duration=2.0, ego_speed=13.89, others=[block])
    log = run(sc, make_planner("cor-mp", PlannerConfig(), "regular"))
    assert log.count_events("fallback_stop") >= 1
    assert int(log.rows[0]["fallback"]) == 1


# ---------------------------------------------------------------- lane change


def test_lane_change_events_bracket_the_lane_column():
    _, log, _ = timed_run("highway")
    started = [e for e in log.events if e.type == "lane_change_started"]
    completed = [e for e in log.events if e.type == "lane_change_completed"]
    assert started and len(completed) == len(started)
    lanes = set(log.column("ego_lane"))
    assert {"right", "left"} <= lanes
    for ev in started:
        assert ev.detail["maneuver"] in ("change_lane_left", "change_lane_right")


def test_back_to_back_lane_changes_are_logged_separately():
    # cor-mp overtakes the static obstacle: left at 2.5 s, straight back right at
    # 7.5 s, each change a full 5 s trajectory
    sc, log, _ = timed_run("overtake_static")
    lc = [(e.t, e.type, e.detail["maneuver"]) for e in log.events
          if e.type.startswith("lane_change_")]
    assert lc == [
        (pytest.approx(2.5), "lane_change_started", "change_lane_left"),
        (pytest.approx(7.5), "lane_change_completed", "change_lane_left"),
        (pytest.approx(7.5), "lane_change_started", "change_lane_right"),
        (pytest.approx(12.5), "lane_change_completed", "change_lane_right"),
    ]
    m = compute_metrics(log, sc)
    assert (m.lane_changes_left, m.lane_changes_right) == (1, 1)


class LaneChangeScript(ScriptedPlanner):
    """A cruiser whose plan calls report the scripted (maneuver, committed,
    aborted) results in turn."""

    def __init__(self, script):
        super().__init__(lambda t: 15.0 + 10.0 * t, lambda t: 0.0, 10.0)
        self.script = script
        self.reset()

    def reset(self):
        self.calls = iter(self.script)

    def plan(self, scenario, sim_time):
        maneuver, committed, aborted = next(self.calls)
        return PlanResult(super().plan(scenario, sim_time).trajectory, maneuver,
                          committed=committed, aborted=aborted)


def lane_change_events(log) -> list:
    return [(e["t"], e["type"], e.get("maneuver")) for e in log.events_json()]


def test_each_result_but_a_committed_replay_closes_the_open_lane_change():
    left, right = Maneuver.CHANGE_LANE_LEFT, Maneuver.CHANGE_LANE_RIGHT
    script = [(left, False, False), (left, True, False),
              (Maneuver.KEEP_LANE_DECELERATE, False, True),
              (right, False, False), (Maneuver.KEEP_LANE_SAME_SPEED, False, False)]
    log = run(lane_doc(duration=2.5), LaneChangeScript(script))
    assert lane_change_events(log) == [
        (0.0, "lane_change_started", "change_lane_left"),
        (1.0, "lane_change_aborted", "change_lane_left"),
        (pytest.approx(1.5), "lane_change_started", "change_lane_right"),
        (2.0, "lane_change_completed", "change_lane_right"),
    ]
    # a change still open when the run ends completes at its end
    log = run(lane_doc(duration=1.0), LaneChangeScript(script[:2]))
    assert lane_change_events(log) == [
        (0.0, "lane_change_started", "change_lane_left"),
        (1.0, "lane_change_completed", "change_lane_left"),
    ]


@pytest.mark.parametrize("planner_id", ["cor-mp", "mobil", "utility"])
def test_red_light_on_the_neighbour_lane_is_not_a_violation(planner_id):
    # the light stands on the right lane only; the ego keeps to the left lane,
    # whose centreline lies one lane width from the right one's
    sc = load_scenario({
        "duration_s": 10.0, "apriori_lane": "left",
        "lanes": [{"id": "right", "centerline": [[0.0, 0.0], [600.0, 0.0]], "width": 3.5,
                   "speed_limit": 13.89, "left_neighbor": "left",
                   "left_boundary": "dashed", "right_boundary": "solid"},
                  {"id": "left", "centerline": [[0.0, 3.5], [600.0, 3.5]], "width": 3.5,
                   "speed_limit": 13.89, "right_neighbor": "right",
                   "left_boundary": "solid", "right_boundary": "dashed"}],
        "agents": [{"id": "ego", "kind": "ego", "position": [15.0, 3.5], "heading": 0.0,
                    "speed": 10.0, "length": 4.5, "width": 1.8, "lane": "left"}],
        "lights": [{"lane": "right", "stop_line_s": 100.0, "schedule": [["red", 1000.0]]}],
    })
    cfg = PlannerConfig()
    log = run(sc, make_planner(planner_id, cfg, sc.profile), cfg)
    assert set(log.column("ego_lane")) == {"left"}
    assert len(rule_events(log, "red_light")) == 0


def test_red_light_run_has_no_red_light_events():
    _, log, _ = timed_run("red_light")
    assert len(rule_events(log, "red_light")) == 0


# ---------------------------------------------------------------- log format


def test_runs_are_deterministic_in_process():
    sc = load("empty_road")
    cfg = PlannerConfig()
    a = run(sc, make_planner("cor-mp", cfg, "regular"), cfg)
    b = run(sc, make_planner("cor-mp", cfg, "regular"), cfg)
    assert a.to_csv() == b.to_csv()
    assert a.events_json() == b.events_json()


def test_a_planner_reused_after_a_run_that_ends_committed_logs_as_a_fresh_one():
    # cut at 8 s, the run ends inside the right change committed at 7.5 s; a
    # warm-up plan at t = 0 on that commitment would sample it from the start
    sc = dataclasses.replace(load("overtake_static"), duration_s=8.0)
    cfg = PlannerConfig()
    planner = make_planner("cor-mp", cfg, sc.profile)
    first = run(sc, planner, cfg)
    assert first.events_json()[-2:] == [
        {"t": 7.5, "type": "lane_change_started", "maneuver": "change_lane_right"},
        {"t": 8.0, "type": "lane_change_completed", "maneuver": "change_lane_right"}]
    commitment = planner.state.commitment
    assert (commitment.maneuver, commitment.target, commitment.expiry) == (
        Maneuver.CHANGE_LANE_RIGHT, "right", 12.5)
    again = run(sc, planner, cfg)
    fresh = run(sc, make_planner("cor-mp", cfg, sc.profile), cfg)
    assert again.to_csv() == fresh.to_csv() == first.to_csv()
    assert again.events_json() == fresh.events_json()


def test_csv_round_trips_through_a_parser():
    _, log, _ = timed_run("red_light")
    reader = csv.reader(io.StringIO(log.to_csv()))
    header = next(reader)
    assert header == CSV_COLUMNS
    rows = list(reader)
    assert len(rows) == len(log.rows)
    x_col = CSV_COLUMNS.index("ego_x")
    for parsed, row in zip(rows, log.rows):
        assert float(parsed[x_col]) == row["ego_x"]  # repr() is lossless
        assert len(parsed) == len(CSV_COLUMNS)


def test_empty_cells_for_undecided_columns():
    log = run(lane_doc(duration=1.0), cruiser(10.0))
    line = log.to_csv().splitlines()[1]
    cells = next(csv.reader(io.StringIO(line)))
    mu_idx = CSV_COLUMNS.index("mu_safety")
    assert cells[mu_idx] == ""  # scripted stub publishes no assessments
