import math

import numpy as np
import pytest

from conftest import prediction_block
from cormp import kernels
from cormp.bezier import CubicBezier, TimedTrajectory
from cormp.config import PlannerConfig
from cormp.identification import CandidateBlock


def random_poses(rng, n, spread=20.0):
    x = rng.uniform(-spread, spread, n)
    y = rng.uniform(-spread, spread, n)
    h = rng.uniform(-math.pi, math.pi, n)
    return x, y, h


# ---------------------------------------------------------------- rect_gap


def test_gap_between_separated_squares():
    # unit squares, centers 3 m apart along x: 2 m of daylight
    gap = kernels.rect_gap(0.0, 0.0, 0.0, 0.5, 0.5, 3.0, 0.0, 0.0, 0.5, 0.5)
    assert gap == pytest.approx(2.0, abs=1e-12)


def test_gap_nonpositive_when_overlapping():
    assert kernels.rect_gap(0.0, 0.0, 0.0, 1.0, 1.0, 0.5, 0.0, 0.0, 1.0, 1.0) <= 0.0
    # touching edge to edge
    assert kernels.rect_gap(0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 0.0, 0.0, 0.5, 0.5) \
        == pytest.approx(0.0, abs=1e-12)


def test_gap_uses_both_footprints_orientations():
    # rotated rectangle reaches further along x than its axis-aligned box
    gap_axis = kernels.rect_gap(0.0, 0.0, 0.0, 2.0, 0.5, 5.0, 0.0, 0.0, 0.5, 0.5)
    gap_rot = kernels.rect_gap(0.0, 0.0, math.pi / 2, 2.0, 0.5, 5.0, 0.0, 0.0, 0.5, 0.5)
    assert gap_rot > gap_axis


def test_gap_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ax, ay, ah = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3)
        bx, by, bh = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3)
        g1 = kernels.rect_gap(ax, ay, ah, 2.0, 1.0, bx, by, bh, 1.5, 0.8)
        g2 = kernels.rect_gap(bx, by, bh, 1.5, 0.8, ax, ay, ah, 2.0, 1.0)
        assert g1 == pytest.approx(g2, abs=1e-9)


# ---------------------------------------------------------------- batch ops


def test_pose_gaps_matches_scalar_loop():
    rng = np.random.default_rng(5)
    n = 64
    ax, ay, ah = random_poses(rng, n)
    bx, by, bh = random_poses(rng, n)
    gaps = kernels.pose_gaps(ax, ay, ah, 2.25, 0.9, bx, by, bh, 2.25, 0.9)
    for i in range(n):
        expect = kernels.rect_gap(ax[i], ay[i], ah[i], 2.25, 0.9,
                                  bx[i], by[i], bh[i], 2.25, 0.9)
        assert gaps[i] == pytest.approx(expect, abs=1e-12)


def test_corridor_hits_match_pairwise_scan():
    # every strided sample of the ego corridor against every strided sample
    # of each row, as a pairwise rect_gap scan
    cfg = PlannerConfig()
    stride = 5  # crowd_sample_stride_s / dt
    rng = np.random.default_rng(9)
    for _ in range(20):
        na, k = int(rng.integers(1, 60)), int(rng.integers(1, 6))
        ego = TimedTrajectory.stationary(0.0, 0.0, 0.0, 0.1, na)
        ego.x[:], ego.y[:], ego.heading[:] = random_poses(rng, na)
        rows = []
        for _ in range(k):
            row = TimedTrajectory.stationary(0.0, 0.0, 0.0, 0.1, 41)
            row.x[:], row.y[:], row.heading[:] = random_poses(rng, 41)
            rows.append(("vehicle", row, 4.0, 2.0))
        hits = prediction_block(*rows).corridor_hits(CandidateBlock([ego]), 4.0, 2.0, cfg)[0]
        brute = [
            any(kernels.rect_gap(ego.x[i], ego.y[i], ego.heading[i], 2.0, 1.0,
                                 row.x[j], row.y[j], row.heading[j], 2.0, 1.0) <= 0.0
                for i in range(0, na, stride) for j in range(0, 41, stride))
            for _, row, _, _ in rows
        ]
        assert hits.tolist() == brute


def test_bezier_points_matches_scalar_evaluation():
    rng = np.random.default_rng(15)
    ctrl = rng.uniform(-10, 10, size=(4, 2))
    curve = CubicBezier(ctrl)
    us = rng.uniform(0.0, 1.0, 33)
    pts = kernels.bezier_points(ctrl, us)
    for i, u in enumerate(us):
        assert np.allclose(pts[i], curve.point(float(u)), atol=1e-12)
