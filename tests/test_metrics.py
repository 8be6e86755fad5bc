import csv
import io
import random

import numpy as np
import pytest

from conftest import load, timed_run
from cormp.metrics import compute_metrics, invested_energy_kj
from cormp.simulator import DECISION_COLUMNS, SimEvent, SimLog, Tick


def minimal_scenario():
    return load("empty_road")


def mk_tick(t, speed, maneuver, decision):
    """A tick with only the fields the metrics read."""
    return Tick(t, 0.0, 0.0, 0.0, speed, 0.0, 0.0, "lane", maneuver, 0, 0, "", decision)


def mk_log(speeds, dt=0.1, events=(), maneuver="keep_lane_same_speed",
           epoch_speeds=(), states=None, latencies=()):
    # with `states`, every tick follows one decision holding them
    decisions = [] if states is None else [tuple(states.get(c) for c in DECISION_COLUMNS)]
    ticks = [mk_tick(k * dt, float(v), maneuver, None if states is None else 0)
             for k, v in enumerate(speeds)]
    return SimLog(scenario_name="synthetic", planner="test", profile="regular",
                  dt=dt, ticks=ticks, decisions=decisions, events=list(events),
                  latencies_ms=list(latencies),
                  epoch_speeds=list(epoch_speeds))


# ---------------------------------------------------------------- averages


def test_constant_speed_metrics():
    log = mk_log([10.0] * 100)
    m = compute_metrics(log, minimal_scenario())
    assert m.avg_speed_mps == pytest.approx(10.0, abs=1e-12)
    assert m.avg_accel_mps2 == pytest.approx(0.0, abs=1e-12)
    assert m.distance_m == pytest.approx(100.0, abs=1e-9)


def test_ramp_then_hold_average_acceleration():
    # 0 -> 10 m/s over 10 s, then 10 s at 10: mean accel is 10 / 20 = 0.5
    dt = 0.1
    ramp = np.arange(0.0, 10.0, dt * 1.0)  # 0, 0.1, ... 9.9 (100 samples)
    hold = np.full(101, 10.0)
    log = mk_log(np.concatenate([ramp, hold]), dt=dt)
    m = compute_metrics(log, minimal_scenario())
    assert m.avg_accel_mps2 == pytest.approx(0.5, abs=1e-9)


def test_single_row_has_zero_accel():
    m = compute_metrics(mk_log([7.0]), minimal_scenario())
    assert m.avg_accel_mps2 == 0.0
    assert m.avg_speed_mps == 7.0


# ---------------------------------------------------------------- events


def test_event_counters():
    events = [
        SimEvent(1.0, "collision", {"agent": "a"}),
        SimEvent(2.0, "rule_violation", {"rule": "speed"}),
        SimEvent(3.0, "rule_violation", {"rule": "speed"}),
        SimEvent(4.0, "rule_violation", {"rule": "red_light"}),
        SimEvent(5.0, "lane_change_started", {"maneuver": "change_lane_left"}),
        SimEvent(6.0, "lane_change_started", {"maneuver": "change_lane_right"}),
        SimEvent(7.0, "lane_change_started", {"maneuver": "change_lane_left"}),
        SimEvent(8.0, "lane_change_aborted", {"maneuver": "change_lane_left"}),
        SimEvent(9.0, "fallback_stop", {}),
    ]
    m = compute_metrics(mk_log([5.0] * 10, events=events), minimal_scenario())
    assert m.collisions == 1
    assert m.rule_violations == 3
    assert m.violations_by_rule == {"speed": 2, "red_light": 1}
    assert m.lane_changes_left == 2
    assert m.lane_changes_right == 1
    assert m.lane_changes_aborted == 1
    assert m.fallback_stops == 1


# ---------------------------------------------------------------- energy


def test_invested_energy_only_counts_gains():
    # 10 -> 15 costs 18.75 kJ, 15 -> 12 is free, 12 -> 14 costs 3.0 kJ
    assert invested_energy_kj([10.0, 15.0, 12.0, 14.0], 1500.0) \
        == pytest.approx(21.75, abs=1e-9)
    assert invested_energy_kj([], 1500.0) == 0.0
    assert invested_energy_kj([9.0], 1500.0) == 0.0
    assert invested_energy_kj([15.0, 10.0, 5.0], 1500.0) == 0.0


def test_metrics_use_epoch_speeds_and_ego_mass():
    log = mk_log([10.0] * 10, epoch_speeds=[10.0, 15.0])
    m = compute_metrics(log, minimal_scenario())
    assert m.kinetic_energy_kj == pytest.approx(18.75, abs=1e-12)


# ---------------------------------------------------------------- dwell times


def test_state_and_maneuver_dwell_times():
    states = {f"state_{r}": "acquired" for r in
              ("safety", "comfort", "objective", "apriori_lane", "energy",
               "crowdedness")}
    states["state_safety"] = "threatened"
    log = mk_log([5.0] * 50, states=states, maneuver="keep_lane_accelerate")
    m = compute_metrics(log, minimal_scenario())
    assert m.maneuver_time_s == {"keep_lane_accelerate": 5.0}
    assert m.time_in_state_s["safety"]["threatened"] == pytest.approx(5.0)
    assert m.time_in_state_s["safety"]["acquired"] == 0.0
    assert m.time_in_state_s["comfort"]["acquired"] == pytest.approx(5.0)
    total = sum(m.time_in_state_s["comfort"].values())
    assert total == pytest.approx(len(log.rows) * log.dt)


def test_latency_summary():
    log = mk_log([5.0] * 10, latencies=[1.0, 2.0, 3.0, 4.0])
    m = compute_metrics(log, minimal_scenario())
    assert m.latency_ms["median"] == pytest.approx(2.5)
    assert m.latency_ms["max"] == 4.0
    assert m.latency_ms["count"] == 4
    assert compute_metrics(mk_log([5.0]), minimal_scenario()).latency_ms == {}


# ---------------------------------------------------------------- stability


def test_metrics_depend_only_on_time_order():
    sc, log, _ = timed_run("slow_lead")
    m1 = compute_metrics(log, sc)

    shuffled = SimLog(log.scenario_name, log.planner, log.profile, log.dt,
                      ticks=list(log.ticks), decisions=list(log.decisions),
                      events=list(log.events), latencies_ms=list(log.latencies_ms),
                      epoch_speeds=list(log.epoch_speeds))
    random.Random(5).shuffle(shuffled.ticks)
    shuffled.ticks.sort(key=lambda tick: tick.t)
    m2 = compute_metrics(shuffled, sc)
    assert m1.to_dict() == m2.to_dict()


def test_reread_csv_reproduces_row_metrics():
    # everything derived from rows must survive a CSV round trip exactly
    sc, log, _ = timed_run("red_light")
    reader = csv.DictReader(io.StringIO(log.to_csv()))
    ticks, decisions = [], []
    for k, parsed in enumerate(reader):   # each tick its own decision record
        ticks.append(mk_tick(float(parsed["t"]), float(parsed["ego_speed"]),
                             parsed["maneuver"], k))
        decisions.append(tuple(parsed[c] if c.startswith("state_") and parsed[c] else None
                               for c in DECISION_COLUMNS))
    reread = SimLog(log.scenario_name, log.planner, log.profile, log.dt,
                    ticks=ticks, decisions=decisions, events=list(log.events),
                    latencies_ms=list(log.latencies_ms),
                    epoch_speeds=list(log.epoch_speeds))
    m1 = compute_metrics(log, sc)
    m2 = compute_metrics(reread, sc)
    assert m2.avg_speed_mps == m1.avg_speed_mps
    assert m2.avg_accel_mps2 == m1.avg_accel_mps2
    assert m2.distance_m == m1.distance_m
    assert m2.maneuver_time_s == m1.maneuver_time_s
    assert m2.time_in_state_s == m1.time_in_state_s
