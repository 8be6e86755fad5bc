"""The stacked prediction and candidate blocks against per-row references.

Each reference below is the per-road-user loop body the blocks replaced, run
once per candidate and row: time-to-collision over the first min(len, T)
aligned samples, the safety ratio with trajectory samples past T compared to
row sample T-1, and the strided corridor crossing count. The blocks must give
the same numbers for K = 0, 1 and 5 rows, for one candidate (a 41-sample
keep-lane trajectory or a 51-sample lane change against 41-sample rows) and
for six candidates of different lengths stacked together.
"""
import math

import numpy as np
import pytest

from conftest import prediction_block
from cormp.bezier import TimedTrajectory
from cormp.config import PlannerConfig
from cormp.identification import CandidateBlock, time_to_collision
from cormp.kernels import pose_gaps
from cormp.resources import crowdedness_value, safety_value

CFG = PlannerConfig()
EGO_L, EGO_W = 4.5, 1.8
STRIDE = 5  # crowd_sample_stride_s / dt


def trajectory(x, y, v, dt=0.1) -> TimedTrajectory:
    n = len(x)
    heading = np.arctan2(np.gradient(y), np.gradient(x))
    return TimedTrajectory(dt, np.arange(n) * dt, np.asarray(x, float), np.asarray(y, float),
                           heading, np.full(n, float(v)), np.zeros(n), np.zeros(n))


def keep_lane(v=15.0, n=41):
    return trajectory(v * 0.1 * np.arange(n), np.zeros(n), v)


def lane_change(v=15.0, n=51, side=1.0):
    u = np.arange(n) / (n - 1)
    return trajectory(v * 0.1 * np.arange(n), side * 3.5 * (3 * u ** 2 - 2 * u ** 3), v)


def random_rows(rng, k):
    rows = []
    for _ in range(k):
        if rng.uniform() < 0.2:   # a pedestrian crossing the road
            x0, v = rng.uniform(10.0, 60.0), rng.uniform(0.5, 2.0)
            y = -6.0 + v * 0.1 * np.arange(41)
            rows.append(("pedestrian", trajectory(np.full(41, x0), y, v), 0.6, 0.6))
            continue
        x0, v = rng.uniform(-30.0, 80.0), rng.uniform(0.0, 20.0)
        lane_y = rng.choice([0.0, 3.5, 7.0]) + rng.uniform(-0.4, 0.4)
        rows.append(("vehicle", trajectory(x0 + v * 0.1 * np.arange(41), np.full(41, lane_y), v),
                     rng.uniform(3.5, 6.0), rng.uniform(1.6, 2.2)))
    return rows


def ttc_row(traj, row, length, width):
    n = min(len(traj), len(row))
    gaps = pose_gaps(traj.x[:n], traj.y[:n], traj.heading[:n], EGO_L / 2.0, EGO_W / 2.0,
                     row.x[:n], row.y[:n], row.heading[:n], length / 2.0, width / 2.0)
    hits = np.nonzero(gaps <= 0.0)[0]
    if len(hits) == 0:
        return math.inf
    i = int(hits[0])
    if i == 0:
        return 0.0
    g0, g1 = float(gaps[i - 1]), float(gaps[i])
    return float(traj.t[i - 1] + g0 / (g0 - g1) * traj.dt)


def safety_row(traj, row, length, width):
    idx = np.minimum(np.arange(len(traj)), len(row) - 1)
    cos_h, sin_h = np.cos(traj.heading), np.sin(traj.heading)
    dx = row.x[idx] - traj.x
    dy = row.y[idx] - traj.y
    lon = dx * cos_h + dy * sin_h
    lat = -dx * sin_h + dy * cos_h
    lon_gap = np.maximum(np.abs(lon) - (EGO_L + length) / 2.0, 0.0)
    req_lon = traj.speed * CFG.t_headway_s + CFG.d_min_m
    req_lat = (EGO_W + width) / 2.0 + CFG.lateral_clearance_m
    r = np.maximum(lon_gap / req_lon, np.abs(lat) / req_lat)
    return float(np.min(np.clip(r, 0.0, 1.0)))


def corridor_row(traj, row, length, width):
    i, j = slice(None, None, STRIDE), slice(None, None, STRIDE)
    gaps = pose_gaps(traj.x[i, None], traj.y[i, None], traj.heading[i, None],
                     EGO_L / 2.0, EGO_W / 2.0,
                     row.x[None, j], row.y[None, j], row.heading[None, j],
                     length / 2.0, width / 2.0)
    return bool(np.any(gaps <= 0.0))


@pytest.mark.parametrize("k", [0, 1, 5])
@pytest.mark.parametrize("make_ego", [keep_lane, lane_change])
def test_stacked_measures_match_per_row_references(k, make_ego):
    rng = np.random.default_rng(100 + k)
    ego = make_ego()
    seen = set()
    for _ in range(60):
        rows = random_rows(rng, k)
        block = prediction_block(*rows)
        ttc = [ttc_row(ego, r, L, W) for _, r, L, W in rows]
        assert_measures_match(CandidateBlock([ego]), [ego], block, rows)
        seen.update("inf" if t == math.inf else ("zero" if t == 0.0 else "refined")
                    for t in ttc)
    # every TTC rule is exercised once there are rows
    assert seen == (set() if k == 0 else {"inf", "zero", "refined"})


def assert_measures_match(cands, trajectories, block, rows):
    ttc, _ = time_to_collision(cands, block, EGO_L, EGO_W)
    safety = safety_value(cands, block, EGO_L, EGO_W, CFG)
    hits = block.corridor_hits(cands, EGO_L, EGO_W, CFG)
    crowdedness = crowdedness_value(hits, CFG)
    assert ttc.shape == safety.shape == crowdedness.shape == (len(trajectories),)
    assert hits.shape == (len(trajectories), len(rows))
    for c, ego in enumerate(trajectories):
        assert ttc[c] == min([ttc_row(ego, r, L, W) for _, r, L, W in rows], default=math.inf)
        assert safety[c] == min([safety_row(ego, r, L, W) for _, r, L, W in rows], default=1.0)
        row_hits = [corridor_row(ego, r, L, W) for _, r, L, W in rows]
        assert hits[c].tolist() == row_hits
        assert crowdedness[c] == 1.0 - min(sum(row_hits) / float(CFG.crowd_reference_count), 1.0)


def first(traj, n) -> TimedTrajectory:
    return TimedTrajectory(traj.dt, traj.t[:n], traj.x[:n], traj.y[:n], traj.heading[:n],
                           traj.speed[:n], traj.a_lon[:n], traj.a_lat[:n])


def padded(traj, n) -> TimedTrajectory:
    """`traj` with its last sample repeated up to n samples, as a block pads it."""
    idx = np.minimum(np.arange(n), len(traj) - 1)
    return TimedTrajectory(traj.dt, traj.t[idx], traj.x[idx], traj.y[idx], traj.heading[idx],
                           traj.speed[idx], traj.a_lon[idx], traj.a_lat[idx])


def vehicle(x, y, v, heading=0.0):
    row = trajectory(x, np.broadcast_to(float(y), np.shape(x)), v)
    row.heading[:] = heading
    return ("vehicle", row, 4.5, 1.8)


TICKS = np.arange(41)
SHORT = keep_lane(15.0, 23)   # its path runs out at x = 33 m, at t = 2.2 s
CANDIDATES = [lane_change(), lane_change(side=-1.0), keep_lane(15.0), keep_lane(20.0),
              keep_lane(10.0), SHORT]
ALONGSIDE = vehicle(1.5 * TICKS, 0.0, 15.0)   # bumper to bumper from tick 0
# a standing car that the left lane change reaches only after sample 40
PARKED_LEFT = vehicle(np.full(41, 75.0), 3.5, 0.0)
# oncoming at 10 m/s, 3 m past SHORT's last pose at tick 40 and never
# reaching it by tick 22: only SHORT's padding would overlap or cross it
LATE = vehicle(76.0 - TICKS, 0.0, 10.0, heading=math.pi)
BEHIND = vehicle(-30.0 + 2.5 * TICKS, 0.0, 25.0)   # reaches SHORT at tick 26
RIGHT_LANE = vehicle(20.0 + 1.2 * TICKS, -3.5, 12.0)
CROSSING = ("pedestrian", trajectory(np.full(41, 90.0), -6.0 + 0.15 * TICKS, 1.5), 0.6, 0.6)
STACKED_ROWS = {0: [], 1: [ALONGSIDE], 5: [PARKED_LEFT, LATE, BEHIND, RIGHT_LANE, CROSSING]}


@pytest.mark.parametrize("k", [0, 1, 5])
def test_stacked_candidates_match_per_row_references(k):
    rows = STACKED_ROWS[k]
    assert [len(c) for c in CANDIDATES] == [51, 51, 41, 41, 41, 23]
    assert_measures_match(CandidateBlock(CANDIDATES), CANDIDATES, prediction_block(*rows), rows)


def test_stacked_reference_cases_are_reached():
    # a hit at tick 0 for every candidate
    assert all(ttc_row(c, ALONGSIDE[1], 4.5, 1.8) == 0.0 for c in CANDIDATES)
    # the left lane change meets PARKED_LEFT only past T: TTC misses it, the
    # safety ratio sees it through the clamp to row sample T-1
    left, row = CANDIDATES[0], PARKED_LEFT[1]
    assert ttc_row(left, row, 4.5, 1.8) == math.inf
    assert safety_row(left, row, 4.5, 1.8) == 0.0 < safety_row(first(left, 41), row, 4.5, 1.8)
    # SHORT's padding would overlap LATE and BEHIND, and cross LATE's corridor
    pad = padded(SHORT, 51)
    for row in (LATE[1], BEHIND[1]):
        assert ttc_row(SHORT, row, 4.5, 1.8) == math.inf > ttc_row(pad, row, 4.5, 1.8)
        assert safety_row(SHORT, row, 4.5, 1.8) > 0.0 == safety_row(pad, row, 4.5, 1.8)
    assert corridor_row(pad, LATE[1], 4.5, 1.8) and not corridor_row(SHORT, LATE[1], 4.5, 1.8)


def test_lane_change_past_the_rows_compares_to_their_last_sample():
    # a row that stops at the 41st sample: the 51-sample lane change closes
    # in on it after sample 40, which only the clamp to row sample T-1 sees
    ego = lane_change()
    row = trajectory(np.full(41, 75.0), np.full(41, 3.5), 0.0)
    block = prediction_block(("vehicle", row, 4.5, 1.8))
    mu = safety_value(CandidateBlock([ego]), block, EGO_L, EGO_W, CFG)[0]
    assert mu == safety_row(ego, row, 4.5, 1.8)
    assert mu < safety_value(CandidateBlock([first(ego, 41)]), block, EGO_L, EGO_W, CFG)[0]


def test_ttc_names_the_row_whose_contact_comes_first():
    # at 15 m/s the ego's front meets a standing car at 1.02 s and an oncoming
    # one at 1.05 s: both first overlap at the 1.1 s tick, the oncoming one
    # deeper (3.75 m against 1.2 m), and it is listed first
    t = 0.1 * np.arange(41)
    oncoming = ("vehicle", trajectory(83.25 - 60.0 * t, np.zeros(41), 60.0), 4.5, 1.8)
    standing = ("vehicle", trajectory(np.full(41, 19.8), np.zeros(41), 0.0), 4.5, 1.8)
    ttc, who = time_to_collision(CandidateBlock([keep_lane()]),
                                 prediction_block(oncoming, standing), EGO_L, EGO_W)
    assert ttc[0] == pytest.approx(1.02, abs=1e-9) and who.tolist() == [1]
    # two rows overlapping the ego at the first tick: TTC 0, the first of them named
    beside = [("vehicle", trajectory(np.full(41, x), np.zeros(41), 0.0), 4.5, 1.8)
              for x in (3.0, 1.0)]
    ttc, who = time_to_collision(CandidateBlock([keep_lane()]),
                                 prediction_block(standing, *beside), EGO_L, EGO_W)
    assert ttc.tolist() == [0.0] and who.tolist() == [1]
