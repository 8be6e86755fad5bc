"""The row-dict writers that `SimLog`'s tick and decision records replaced.

Before the records, a run's log kept one dict per tick keyed by
`CSV_COLUMNS`, each carrying its decision's 24 fields, and `log.csv`, the
run metrics and the timeline bands were read from those dicts. The three
functions below are those readers, unchanged but for taking the log as an
argument and for `log.column("ego_speed")` written out as it then read;
they read `log.rows`, which `SimLog` still builds on access.
`tests/test_log_records.py` holds the record writers equal to them.
"""
from __future__ import annotations

import numpy as np

from cormp.metrics import Metrics, invested_energy_kj
from cormp.resources import RESOURCES, ResourceState
from cormp.scenario import Scenario
from cormp.simulator import CSV_COLUMNS


def to_csv(log) -> str:
    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [",".join(CSV_COLUMNS)]
    for row in log.rows:
        lines.append(",".join(cell(row.get(c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def compute_metrics(log, scenario: Scenario) -> Metrics:
    speeds = np.array([row["ego_speed"] for row in log.rows]).astype(float)
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


def _bands(log) -> list:
    """Contiguous (t_start, t_end, maneuver) runs from the log rows."""
    bands = []
    start, current = None, None
    for row in log.rows:
        m = row["maneuver"]
        if m != current:
            if current is not None:
                bands.append((start, row["t"], current))
            start, current = row["t"], m
    if current is not None:
        bands.append((start, len(log.rows) * log.dt, current))
    return bands
