"""Each check of the benchmark catches a fault planted in a real drive's outputs."""
from __future__ import annotations

import csv
import io

import numpy as np
import pytest

import checks
import closed_loop
import workloads
from cormp import PlannerConfig, load_scenario

CFG = PlannerConfig()


def _drive(name: str):
    drives = {d.name: d for d in workloads.urban_rules(closed_loop.ROOT, seed=0)}
    return drives[name]


@pytest.fixture(scope="module", autouse=True)
def _artifacts_to_tmp(tmp_path_factory):
    saved = closed_loop.OUT
    closed_loop.OUT = tmp_path_factory.mktemp("out")
    yield
    closed_loop.OUT = saved


@pytest.fixture(scope="module")
def recorded():
    """Checked replays of two shipped drives: (drive, replay, capture, decision ticks)."""
    out = {}
    for name in ("red_light", "pedestrian_crossing"):
        drive = _drive(name)
        rep, cap = closed_loop.captured_replay(drive, load_scenario(drive.doc), CFG)
        out[name] = (drive, rep, cap, closed_loop.decision_ticks(rep.calls, CFG.dt))
    return out


def _rows(text: str) -> list:
    return checks.parse_csv(text)


def _text(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _check(recorded, name, csv_text=None, cap=None):
    drive, rep, cap0, ticks = recorded[name]
    return checks.check_drive(csv_text or rep.csv_text, rep.events, drive.doc,
                              cap or cap0, ticks)


def test_shipped_drives_pass(recorded):
    for name in recorded:
        assert _check(recorded, name) == []


def test_weights_match_closed_form():
    w = checks.roc_weights("regular")
    assert sum(w.values()) == pytest.approx(1.0)
    assert w["safety"] == pytest.approx((1 + 1 / 2 + 1 / 3 + 1 / 4 + 1 / 5 + 1 / 6) / 6)
    assert w["crowdedness"] == pytest.approx(1 / 36)


def test_tampered_profit_cell_is_caught(recorded):
    _, rep, _, ticks = recorded["red_light"]
    rows = _rows(rep.csv_text)
    row = rows[ticks[3]]
    cell = f"V_{row['maneuver']}"
    row[cell] = repr(float(row[cell]) + 1e-6)
    problems = _check(recorded, "red_light", _text(rows))
    assert any("sum(w*mu)" in p for p in problems)


def test_feasible_profit_above_chosen_is_caught(recorded):
    _, rep, _, ticks = recorded["red_light"]
    rows = _rows(rep.csv_text)
    row = rows[ticks[0]]
    other = next(m for m in ("stop", "keep_lane_decelerate", "keep_lane_same_speed")
                 if m != row["maneuver"])
    row[f"feasible_{other}"] = "1"
    row[f"V_{other}"] = repr(float(row[f"V_{row['maneuver']}"]) + 0.01)
    assert any("above chosen" in p for p in _check(recorded, "red_light", _text(rows)))


def test_mu_outside_unit_interval_is_caught(recorded):
    _, rep, _, ticks = recorded["red_light"]
    rows = _rows(rep.csv_text)
    rows[ticks[1]]["mu_comfort"] = "1.5"
    assert any("outside [0, 1]" in p for p in _check(recorded, "red_light", _text(rows)))


def test_overlapping_rectangles():
    a = checks.corners(0.0, 0.0, 0.0, 2.25, 0.9)
    assert checks.rects_overlap(a, checks.corners(4.0, 1.0, 0.3, 2.25, 0.9))
    assert not checks.rects_overlap(a, checks.corners(4.6, 0.0, 0.0, 2.25, 0.9))
    assert not checks.rects_overlap(a, checks.corners(0.0, 1.85, 0.0, 2.25, 0.9))
    # a diamond whose corner pokes past the box's corner region but not into it
    assert not checks.rects_overlap(a, checks.corners(3.6, 2.2, np.pi / 4, 1.0, 1.0))
    assert checks.rects_overlap(a, checks.corners(3.0, 1.5, np.pi / 4, 1.0, 1.0))


def test_planted_contact_is_caught(recorded):
    _, _, cap, _ = recorded["pedestrian_crossing"]
    poses = cap.poses.copy()
    poses[50, 1] = poses[50, 0] + np.array([1.0, 0.5, 0.2])
    planted = checks.Capture(cap.t, cap.ids, cap.kinds, cap.half, poses)
    problems = _check(recorded, "pedestrian_crossing", cap=planted)
    assert any("ego overlaps" in p for p in problems)


def test_red_light_crossing_is_caught(recorded):
    drive, rep, _, _ = recorded["red_light"]
    rows = _rows(rep.csv_text)
    stop = drive.doc["lights"][0]["stop_line_s"]
    k = next(i for i, r in enumerate(rows) if float(r["t"]) >= 10.0)
    assert float(rows[k - 1]["ego_x"]) + 2.25 < stop   # the real drive waits
    rows[k]["ego_x"] = repr(stop - 1.0)
    problems = _check(recorded, "red_light", _text(rows))
    assert any("red stop line" in p for p in problems)


def test_speeding_is_caught(recorded):
    _, rep, _, _ = recorded["red_light"]
    rows = _rows(rep.csv_text)
    rows[5]["ego_speed"] = repr(13.89 + 0.6)
    assert any("over the" in p for p in _check(recorded, "red_light", _text(rows)))


def test_replay_that_differs_is_caught():
    (state,) = closed_loop.prepare([_drive("overtake_static")], CFG)
    assert state.problems == []
    closed_loop.timed_replay(state, CFG)
    assert state.failed == 0
    closed_loop.timed_replay(state, CFG.replace(accel_keep_lane=0.8))
    assert state.failed == 1
    assert any("differs" in p for p in state.problems)
