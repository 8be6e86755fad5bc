import math

import numpy as np
import pytest

from cormp.bezier import (
    CubicBezier,
    SpeedProfile,
    TimedTrajectory,
    sample_trajectory,
)
from cormp.scenario import Polyline

UNIT_SQUARE = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]


def de_casteljau(ctrl, u):
    """Independent evaluation by repeated linear interpolation."""
    pts = [np.asarray(p, float) for p in ctrl]
    while len(pts) > 1:
        pts = [(1 - u) * a + u * b for a, b in zip(pts[:-1], pts[1:])]
    return pts[0]


def random_curve(rng, scale=10.0) -> CubicBezier:
    return CubicBezier(rng.uniform(-scale, scale, size=(4, 2)))


# ---------------------------------------------------------------- evaluation


def test_endpoints_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = random_curve(rng)
        assert np.array_equal(c.point(0.0), c.ctrl[0])
        assert np.array_equal(c.point(1.0), c.ctrl[3])


def test_collinear_equispaced_is_linear():
    c = CubicBezier([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
    assert np.allclose(c.point(0.5), (1.5, 0.0), atol=1e-12)


def test_unit_square_midpoint():
    c = CubicBezier(UNIT_SQUARE)
    # hand expansion: x = 3(1-u)u^2 + u^3 = 0.5; y = 3(1-u)^2 u + 3(1-u)u^2 = 0.75
    assert np.allclose(c.point(0.5), (0.5, 0.75), atol=1e-12)
    assert np.allclose(c.point(0.5), de_casteljau(UNIT_SQUARE, 0.5), atol=1e-12)


def test_matches_de_casteljau_on_random_curves():
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = random_curve(rng)
        u = rng.uniform()
        assert np.allclose(c.point(u), de_casteljau(c.ctrl, u), atol=1e-9)


def test_parameter_domain_enforced():
    c = CubicBezier(UNIT_SQUARE)
    with pytest.raises(ValueError):
        c.point(1.2)
    with pytest.raises(ValueError):
        c.derivative(-0.1)


# ---------------------------------------------------------------- derivative


def test_derivative_endpoints():
    rng = np.random.default_rng(13)
    for _ in range(20):
        c = random_curve(rng)
        assert np.allclose(c.derivative(0.0), 3.0 * (c.ctrl[1] - c.ctrl[0]), atol=1e-12)
        assert np.allclose(c.derivative(1.0), 3.0 * (c.ctrl[3] - c.ctrl[2]), atol=1e-12)


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(100):
        c = random_curve(rng)
        u = rng.uniform(h, 1.0 - h)
        fd = (c.point(u + h) - c.point(u - h)) / (2.0 * h)
        assert np.allclose(c.derivative(u), fd, atol=1e-6)


def test_straight_curve_has_constant_direction():
    c = CubicBezier([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    for u in np.linspace(0.0, 1.0, 11):
        d = c.derivative(u)
        assert math.atan2(d[1], d[0]) == pytest.approx(math.pi / 4, abs=1e-12)
        assert c.curvature(u) == pytest.approx(0.0, abs=1e-12)


def test_quarter_circle_curvature():
    # the cubic circle approximation holds curvature within about 2% of 1/r
    # across the span (it is a position fit, not a curvature fit)
    r = 50.0
    k = 4.0 / 3.0 * math.tan(math.pi / 8.0)
    c = CubicBezier([(r, 0.0), (r, r * k), (r * k, r), (0.0, r)])
    for u in np.linspace(0.0, 1.0, 9):
        assert abs(c.curvature(u)) == pytest.approx(1.0 / r, abs=0.03 / r)


# ---------------------------------------------------------------- arc length
#
# sample_trajectory runs along a Polyline path; at 1 m/s with a 1 ms tick and
# no horizon, the last sample's time is the path length to within one tick.
# Cubics become paths through `chord_points`, which must keep their length.


def sampled_at_unit_speed(path: Polyline) -> TimedTrajectory:
    return sample_trajectory(path, SpeedProfile(1.0, 0.0), dt=1e-3)


def test_sampled_length_straight_segment():
    traj = sampled_at_unit_speed(Polyline([(0.0, 0.0), (3.0, 0.0)]))
    assert traj.t[-1] == pytest.approx(3.0, abs=2e-3)
    assert traj.path_length() == pytest.approx(traj.t[-1], abs=1e-3)


def test_sampled_length_against_dense_polyline():
    traj = sampled_at_unit_speed(Polyline(CubicBezier(UNIT_SQUARE).chord_points()))
    us = np.linspace(0.0, 1.0, 100_001)
    pts = np.array([de_casteljau(UNIT_SQUARE, u) for u in us])
    oracle = float(np.sum(np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))))
    assert traj.t[-1] == pytest.approx(oracle, abs=2e-3)
    assert traj.path_length() == pytest.approx(traj.t[-1], abs=1e-3)


def test_flat_cubic_becomes_one_chord():
    pts = CubicBezier([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]).chord_points()
    assert np.array_equal(pts, [(0.0, 0.0), (3.0, 0.0)])


# ---------------------------------------------------------------- sampling


def straight(length: float) -> Polyline:
    return Polyline([(0.0, 0.0), (length, 0.0)])


def test_constant_speed_sampling_uniform_spacing():
    traj = sample_trajectory(straight(40.0), SpeedProfile(10.0, 0.0), dt=0.1)
    assert traj.duration == pytest.approx(4.0)
    steps = np.hypot(np.diff(traj.x), np.diff(traj.y))
    assert np.allclose(steps, 1.0, atol=1e-9)
    assert np.allclose(traj.speed, 10.0)
    assert np.allclose(traj.a_lon, 0.0, atol=1e-9)


def test_braking_profile_floors_at_zero():
    # v(t) = 2 - 1.5 t crosses zero at t = 4/3; the vehicle covers v0^2/2a
    traj = sample_trajectory(straight(40.0), SpeedProfile(2.0, -1.5), dt=0.1,
                             horizon=4.0)
    t_stop = 4.0 / 3.0
    for k, t in enumerate(traj.t):
        assert traj.speed[k] == pytest.approx(max(0.0, 2.0 - 1.5 * t), abs=1e-12)
    assert traj.duration == pytest.approx(4.0)
    assert traj.x[-1] - traj.x[0] == pytest.approx(2.0 ** 2 / (2 * 1.5), abs=1e-9)
    resting = traj.t >= t_stop + 0.1
    assert np.allclose(traj.x[resting], traj.x[-1], atol=1e-12)


def test_stopped_profile_without_horizon_is_single_rest():
    traj = sample_trajectory(straight(40.0), SpeedProfile(0.0, 0.0), dt=0.1)
    assert len(traj) == 1
    with_h = sample_trajectory(straight(40.0), SpeedProfile(0.0, 0.0), dt=0.1,
                               horizon=2.0)
    assert len(with_h) == 21
    assert np.allclose(with_h.speed, 0.0)


def test_lateral_acceleration_is_curvature_times_speed_squared():
    r = 50.0
    k = 4.0 / 3.0 * math.tan(math.pi / 8.0)
    arc = CubicBezier([(r, 0.0), (r, r * k), (r * k, r), (0.0, r)])
    pts = arc.chord_points()
    path = Polyline(pts)
    traj = sample_trajectory(path, SpeedProfile(15.0, 0.0), dt=0.1)
    interior = slice(2, len(traj) - 2)
    assert np.allclose(np.abs(traj.a_lat[interior]), 15.0 ** 2 / r, atol=0.05)
    # against the analytic curvature at each sample's curve parameter
    us = np.interp(traj.t * 15.0, path.cum, np.linspace(0.0, 1.0, len(pts)))
    exact = np.array([arc.curvature(float(u)) for u in us]) * 15.0 ** 2
    assert np.allclose(traj.a_lat, exact, rtol=1e-3)


def test_speed_cap_respected():
    traj = sample_trajectory(straight(200.0), SpeedProfile(10.0, 2.0, v_max=14.0),
                             dt=0.1, horizon=4.0)
    assert traj.end_speed == pytest.approx(14.0)
    assert float(np.max(traj.speed)) <= 14.0 + 1e-12


def test_profile_validation():
    with pytest.raises(ValueError):
        SpeedProfile(-1.0, 0.0)
    with pytest.raises(ValueError):
        sample_trajectory(straight(10.0), SpeedProfile(1.0, 0.0), dt=0.0)


# ---------------------------------------------------------------- container


def test_stationary_factory():
    traj = TimedTrajectory.stationary(3.0, 4.0, 0.5, dt=0.1, n=8)
    assert len(traj) == 8
    assert np.allclose(traj.x, 3.0) and np.allclose(traj.y, 4.0)
    assert np.allclose(traj.speed, 0.0)
    assert traj.path_length() == pytest.approx(0.0)


def test_tail_rebases_time():
    traj = sample_trajectory(straight(40.0), SpeedProfile(10.0, 0.0), dt=0.1)
    tail = traj.tail(5)
    assert tail.t[0] == pytest.approx(0.0)
    assert len(tail) == len(traj) - 5
    assert tail.x[0] == pytest.approx(traj.x[5])
