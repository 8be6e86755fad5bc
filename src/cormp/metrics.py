"""Run metrics derived from a simulation log."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .resources import RESOURCES, ResourceState
from .scenario import Scenario
from .simulator import SimLog


@dataclass
class Metrics:
    avg_speed_mps: float
    avg_accel_mps2: float
    distance_m: float
    collisions: int
    rule_violations: int
    violations_by_rule: dict
    lane_changes_left: int
    lane_changes_right: int
    lane_changes_aborted: int
    fallback_stops: int
    kinetic_energy_kj: float
    time_in_state_s: dict
    maneuver_time_s: dict
    latency_ms: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def invested_energy_kj(epoch_speeds, mass: float) -> float:
    """Kinetic energy bought across decision epochs, in kJ.

    Speed gains between consecutive planning epochs cost 0.5 m dv^2; speed
    losses are free (braking dissipates, it does not spend fuel here).
    """
    total = 0.0
    v = list(epoch_speeds)
    for a, b in zip(v[:-1], v[1:]):
        if b > a:
            total += 0.5 * mass * (b - a) ** 2 / 1000.0
    return total


def compute_metrics(log: SimLog, scenario: Scenario) -> Metrics:
    speeds = log.column("ego_speed").astype(float)
    dt = log.dt

    avg_speed = float(np.mean(speeds)) if len(speeds) else 0.0
    avg_accel = float(np.mean(np.diff(speeds) / dt)) if len(speeds) > 1 else 0.0
    distance = float(np.sum(speeds) * dt)

    by_rule: dict = {}
    for e in log.events:
        if e.type == "rule_violation":
            rule = e.detail.get("rule", "unknown")
            by_rule[rule] = by_rule.get(rule, 0) + 1

    lc_left = sum(1 for e in log.events if e.type == "lane_change_started"
                  and e.detail.get("maneuver") == "change_lane_left")
    lc_right = sum(1 for e in log.events if e.type == "lane_change_started"
                   and e.detail.get("maneuver") == "change_lane_right")

    time_in_state = {
        res.value: {state.value: 0.0 for state in ResourceState} for res in RESOURCES
    }
    maneuver_time: dict = {}
    for row in log.rows:
        maneuver_time[row["maneuver"]] = maneuver_time.get(row["maneuver"], 0.0) + dt
        for res in RESOURCES:
            state = row.get(f"state_{res.value}")
            if state is not None:
                time_in_state[res.value][state] += dt
    for res_states in time_in_state.values():
        for k in res_states:
            res_states[k] = round(res_states[k], 9)
    for k in maneuver_time:
        maneuver_time[k] = round(maneuver_time[k], 9)

    lat = np.asarray(log.latencies_ms, dtype=float)
    latency = {}
    if len(lat):
        latency = {
            "median": float(np.median(lat)),
            "p99": float(np.percentile(lat, 99)),
            "max": float(np.max(lat)),
            "count": int(len(lat)),
        }

    return Metrics(
        avg_speed_mps=avg_speed,
        avg_accel_mps2=avg_accel,
        distance_m=distance,
        collisions=log.count_events("collision"),
        rule_violations=sum(by_rule.values()),
        violations_by_rule=by_rule,
        lane_changes_left=lc_left,
        lane_changes_right=lc_right,
        lane_changes_aborted=log.count_events("lane_change_aborted"),
        fallback_stops=log.count_events("fallback_stop"),
        kinetic_energy_kj=invested_energy_kj(log.epoch_speeds, scenario.ego.mass),
        time_in_state_s=time_in_state,
        maneuver_time_s=maneuver_time,
        latency_ms=latency,
    )
