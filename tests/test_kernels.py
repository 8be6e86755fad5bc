import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load, prediction_block, resting, stacked, timed_run
from cormp import kernels
from cormp.bezier import TimedTrajectory
from cormp.config import PlannerConfig
from cormp.identification import PredictionBlock
from cormp.planner import plan_context, plan_tick
from cormp.simulator import SimWorld
from curve_oracle import CubicBezier, bezier_points


def random_poses(rng, n, spread=20.0):
    x = rng.uniform(-spread, spread, n)
    y = rng.uniform(-spread, spread, n)
    h = rng.uniform(-math.pi, math.pi, n)
    return x, y, h


# ---------------------------------------------------------------- one pair


def test_gap_between_separated_squares():
    # unit squares, centers 3 m apart along x: 2 m of daylight
    gap = kernels.pose_gaps(0.0, 0.0, 0.0, 0.5, 0.5, 3.0, 0.0, 0.0, 0.5, 0.5)
    assert gap == pytest.approx(2.0, abs=1e-12)


def test_gap_nonpositive_when_overlapping():
    assert kernels.pose_gaps(0.0, 0.0, 0.0, 1.0, 1.0, 0.5, 0.0, 0.0, 1.0, 1.0) <= 0.0
    # touching edge to edge
    assert kernels.pose_gaps(0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 0.0, 0.0, 0.5, 0.5) \
        == pytest.approx(0.0, abs=1e-12)


def test_gap_uses_both_footprints_orientations():
    # rotated rectangle reaches further along x than its axis-aligned box
    gap_axis = kernels.pose_gaps(0.0, 0.0, 0.0, 2.0, 0.5, 5.0, 0.0, 0.0, 0.5, 0.5)
    gap_rot = kernels.pose_gaps(0.0, 0.0, math.pi / 2, 2.0, 0.5, 5.0, 0.0, 0.0, 0.5, 0.5)
    assert gap_rot > gap_axis


def test_gap_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ax, ay, ah = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3)
        bx, by, bh = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3)
        g1 = kernels.pose_gaps(ax, ay, ah, 2.0, 1.0, bx, by, bh, 1.5, 0.8)
        g2 = kernels.pose_gaps(bx, by, bh, 1.5, 0.8, ax, ay, ah, 2.0, 1.0)
        assert g1 == pytest.approx(g2, abs=1e-9)


def corners(x, y, h, hl, hw) -> list:
    c, s = math.cos(h), math.sin(h)
    return [(x + c * lx - s * ly, y + s * lx + c * ly)
            for lx, ly in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]


def inside(p, x, y, h, hl, hw) -> bool:
    """p lies in the rectangle, or within 1e-10 m of it (rounding)."""
    dx, dy = p[0] - x, p[1] - y
    c, s = math.cos(h), math.sin(h)
    return abs(dx * c + dy * s) <= hl + 1e-10 and abs(dy * c - dx * s) <= hw + 1e-10


def crosses(p, q, r, t) -> bool:
    """Segment pq properly crosses segment rt."""
    def side(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return side(p, q, r) * side(p, q, t) < 0.0 and side(r, t, p) * side(r, t, q) < 0.0


def polygons_overlap(a, b) -> bool:
    """Two rectangles (x, y, h, hl, hw) overlap: a corner or the center of
    one lies in the other, or two edges cross."""
    ca, cb = corners(*a) + [a[:2]], corners(*b) + [b[:2]]
    if any(inside(p, *b) for p in ca) or any(inside(p, *a) for p in cb):
        return True
    ca, cb = ca[:4], cb[:4]
    return any(crosses(ca[i], ca[i - 1], cb[j], cb[j - 1]) for i in range(4) for j in range(4))


rects = st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0),
                  st.one_of(st.floats(-math.pi, math.pi), st.sampled_from([0.0, math.pi / 2.0])),
                  st.floats(0.1, 5.0), st.floats(0.1, 5.0))


@settings(max_examples=300)
@given(rects, rects)
def test_fused_gap_sign_matches_polygon_overlap(a, b):
    gap = float(kernels.pose_gaps(*a, *b))
    if abs(gap) < 1e-9:
        return  # touching: the sign is down to rounding
    assert (gap <= 0.0) == polygons_overlap(a, b)
    assert gap == pytest.approx(kernels.pose_gaps(*(np.array([v]) for v in a + b))[0],
                                abs=1e-12)


half = st.floats(0.05, 10.0)
angle = st.floats(-math.pi, math.pi)


@st.composite
def pairs_beyond_reach(draw) -> tuple:
    """Two rectangles (x, y, h, hl, hw) whose centers lie beyond
    `kernels.reach2` of each other, by 1e-9 m to 50 m, in any direction and
    at any headings; or with corners facing and diagonals on one line, the
    closest the circumradius discs allow."""
    ahl, ahw, bhl, bhw = (draw(half) for _ in range(4))
    ax, ay, ah = draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4)), draw(angle)
    reach = math.sqrt(kernels.reach2(ahl, ahw, bhl, bhw))
    d = reach + draw(st.one_of(st.sampled_from([1e-9, 1e-6]), st.floats(1e-9, 50.0)))
    if draw(st.booleans()):
        direction, bh = draw(angle), draw(angle)
    else:
        direction = ah + math.atan2(ahw, ahl)
        bh = direction + math.pi - math.atan2(bhw, bhl)
    return ((ax, ay, ah, ahl, ahw),
            (ax + d * math.cos(direction), ay + d * math.sin(direction), bh, bhl, bhw))


@settings(max_examples=300)
@given(pairs_beyond_reach())
def test_rectangles_beyond_reach_never_meet(pair):
    a, b = pair
    dx, dy = b[0] - a[0], b[1] - a[1]
    if dx * dx + dy * dy <= kernels.reach2(a[3], a[4], b[3], b[4]):
        return  # rounding put the centers back within reach
    assert kernels.pose_gaps(*a, *b) > 0.0


# ---------------------------------------------------------------- batch ops


def test_pose_gaps_matches_scalar_loop():
    rng = np.random.default_rng(5)
    n = 64
    ax, ay, ah = random_poses(rng, n)
    bx, by, bh = random_poses(rng, n)
    gaps = kernels.pose_gaps(ax, ay, ah, 2.25, 0.9, bx, by, bh, 2.25, 0.9)
    for i in range(n):
        expect = kernels.pose_gaps(float(ax[i]), float(ay[i]), float(ah[i]), 2.25, 0.9,
                                   float(bx[i]), float(by[i]), float(bh[i]), 2.25, 0.9)
        assert gaps[i] == pytest.approx(expect, abs=1e-12)


def broadcast_hits(block, cands, ego_length, ego_width, cfg):
    """corridor_hits without culling: every strided sample pair in one broadcast."""
    st = max(1, int(round(cfg.crowd_sample_stride_s / cfg.dt)))
    gaps = kernels.pose_gaps(
        cands.x[:, None, ::st, None], cands.y[:, None, ::st, None],
        cands.heading[:, None, ::st, None], ego_length / 2.0, ego_width / 2.0,
        block.x[None, :, None, ::st], block.y[None, :, None, ::st],
        block.heading[None, :, None, ::st],
        block.half_length[None, :, None, None], block.half_width[None, :, None, None],
    )
    gaps = np.where(cands.valid[:, None, ::st, None], gaps, np.inf)
    return np.min(gaps, axis=(2, 3)) <= 0.0


def pose_row(x, y, h) -> TimedTrajectory:
    row = resting(0.0, 0.0, 0.0, 0.1, len(x))
    row.x[:], row.y[:], row.heading[:] = x, y, h
    return row


def test_corridor_hits_match_pairwise_scan():
    # every strided valid sample of each candidate against every strided
    # sample of each row, as a pairwise scan of one-pair gaps, over spreads from
    # crowded to sparse; candidates of different lengths, so the shorter
    # ones carry padding
    cfg = PlannerConfig()
    stride = 5  # crowd_sample_stride_s / dt
    rng = np.random.default_rng(9)
    for spread in (5.0, 20.0, 80.0, 300.0):
        seen = set()
        for _ in range(20):
            lengths = rng.integers(1, 60, size=int(rng.integers(1, 4)))
            egos = [pose_row(*random_poses(rng, n, spread)) for n in lengths]
            rows = [("vehicle", pose_row(*random_poses(rng, 41, spread)),
                     rng.uniform(0.5, 6.0), rng.uniform(0.5, 2.5))
                    for _ in range(int(rng.integers(1, 6)))]
            hits = prediction_block(*rows).corridor_hits(stacked(egos), 4.0, 2.0, cfg)
            brute = [[any(kernels.pose_gaps(ego.x[i], ego.y[i], ego.heading[i], 2.0, 1.0,
                                            row.x[j], row.y[j], row.heading[j], L / 2.0, W / 2.0)
                          <= 0.0
                          for i in range(0, len(ego), stride) for j in range(0, 41, stride))
                      for _, row, L, W in rows] for ego in egos]
            assert hits.tolist() == brute
            seen.update(hits.ravel().tolist())
        assert (True in seen or spread > 80.0) and (False in seen or spread < 20.0)


def test_corridor_hits_keep_pairs_at_the_reach_boundary():
    # corner to corner along the ego's diagonal, centers exactly the sum of
    # the circumradii apart (touching), and that plus the margin (apart)
    cfg = PlannerConfig()
    ra, rb = math.hypot(2.0, 1.0), math.hypot(2.5, 0.8)
    diag = math.atan2(1.0, 2.0)
    h = diag - math.atan2(0.8, 2.5) + math.pi
    rows = [("vehicle", pose_row(np.full(41, d * math.cos(diag)), np.full(41, d * math.sin(diag)),
                                 np.full(41, h)), 5.0, 1.6)
            for d in (ra + rb, ra + rb + kernels.REACH_MARGIN, ra + rb - 1e-3)]
    block = prediction_block(*rows)
    cands = stacked([pose_row(np.zeros(41), np.zeros(41), np.zeros(41))])
    gaps = [kernels.pose_gaps(0.0, 0.0, 0.0, 2.0, 1.0, row.x[0], row.y[0], h, 2.5, 0.8)
            for _, row, _, _ in rows]
    assert abs(gaps[0]) < 1e-12 and gaps[1] > 0.0 > gaps[2]
    hits = block.corridor_hits(cands, 4.0, 2.0, cfg)
    assert hits.tolist() == broadcast_hits(block, cands, 4.0, 2.0, cfg).tolist()
    assert hits[0].tolist()[1:] == [False, True]


def test_corridor_hits_skip_padded_candidate_samples():
    # a car at x = 4.5 m overlaps a pose at x = 2 m but not one at x = 0: the
    # 3-sample candidate's strided samples are 0 (x = 0) and then padding
    # resting at x = 2; the 6-sample one reaches x = 5 at its own sample 5
    cfg = PlannerConfig()
    assert kernels.pose_gaps(2.0, 0.0, 0.0, 2.0, 1.0, 4.5, 0.0, 0.0, 2.0, 1.0) <= 0.0
    assert kernels.pose_gaps(0.0, 0.0, 0.0, 2.0, 1.0, 4.5, 0.0, 0.0, 2.0, 1.0) > 0.0
    cands = stacked([pose_row(np.arange(n) * 1.0, np.zeros(n), np.zeros(n))
                            for n in (3, 6, 51)])
    block = prediction_block(("vehicle", pose_row(np.full(41, 4.5), np.zeros(41),
                                                  np.zeros(41)), 4.0, 2.0))
    hits = block.corridor_hits(cands, 4.0, 2.0, cfg)
    assert hits.tolist() == [[False], [True], [True]]
    assert hits.tolist() == broadcast_hits(block, cands, 4.0, 2.0, cfg).tolist()


@pytest.mark.parametrize("tick", [0, 50])
def test_corridor_hits_match_the_full_broadcast_on_busy_highway(tick, monkeypatch):
    # the real plan at t = tick * dt, with the ego where the closed loop put
    # it: every corridor_hits call (lane-change stretch, crowdedness) returns
    # the (C, K) bools of the unculled broadcast
    _, log, _ = timed_run("busy_highway")
    cfg = PlannerConfig()
    world = SimWorld(load("busy_highway"), cfg)
    for _ in range(tick):
        world.advance_others()
    row = log.rows[tick]
    ego = world.ego
    ego.x, ego.y, ego.heading, ego.speed = (row["ego_x"], row["ego_y"], row["ego_heading"],
                                            row["ego_speed"])
    ego.lane = row["ego_lane"]
    calls = []
    culled = PredictionBlock.corridor_hits

    def record(block, cands, ego_length, ego_width, cfg):
        hits = culled(block, cands, ego_length, ego_width, cfg)
        calls.append((hits, broadcast_hits(block, cands, ego_length, ego_width, cfg)))
        return hits

    monkeypatch.setattr(PredictionBlock, "corridor_hits", record)
    plan_tick(plan_context(world.scenario, cfg, tick * cfg.dt))
    assert len(calls) >= 1 and any(full.any() for _, full in calls)
    for hits, full in calls:
        assert hits.dtype == full.dtype and hits.shape == full.shape
        assert np.array_equal(hits, full)


def test_bezier_points_matches_scalar_evaluation():
    rng = np.random.default_rng(15)
    ctrl = rng.uniform(-10, 10, size=(4, 2))
    curve = CubicBezier(ctrl)
    us = rng.uniform(0.0, 1.0, 33)
    pts = bezier_points(ctrl, us)
    for i, u in enumerate(us):
        assert np.allclose(pts[i], curve.point(float(u)), atol=1e-12)
