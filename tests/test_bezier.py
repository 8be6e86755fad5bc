import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import along, arc_centerline, assert_row_is_its_lone_block
from cormp import bezier
from cormp.bezier import LanePath, SpeedProfile, TimedTrajectory, sample_trajectory, tick_times
from cormp.identification import lane_path
from cormp.scenario import Lane, Polyline
from curve_oracle import CubicBezier, bezier_points, lane_frame_poses
from resource_oracle import path_length

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
# sample_trajectory runs along a Polyline path; at 1 m/s with a 1 ms tick, the
# sample at time t is t m along it, so the one at the path's length is at its
# end, and the samples up to it trace the path's length.


def sampled_at_unit_speed(path: Polyline, horizon: float) -> TimedTrajectory:
    traj, = sample_trajectory([(along(path), SpeedProfile(1.0, 0.0), horizon)], dt=1e-3)
    return traj


def test_sampled_length_straight_segment():
    traj = sampled_at_unit_speed(Polyline([(0.0, 0.0), (3.0, 0.0)]), 3.0)
    assert (traj.x[-1], traj.y[-1]) == (pytest.approx(3.0, abs=1e-9), 0.0)
    assert path_length(traj) == pytest.approx(traj.t[-1], abs=1e-3)


def test_sampled_length_against_dense_polyline():
    us = np.linspace(0.0, 1.0, 100_001)
    pts = np.array([de_casteljau(UNIT_SQUARE, u) for u in us])
    oracle = float(np.sum(np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))))
    traj = sampled_at_unit_speed(Polyline(bezier_points(np.array(UNIT_SQUARE),
                                                        np.linspace(0.0, 1.0, 129))), oracle)
    # the curve's end, reached at its own arc length
    assert math.hypot(traj.x[-1] - 1.0, traj.y[-1]) <= 2e-3
    assert path_length(traj) == pytest.approx(traj.t[-1], abs=1e-3)


# ---------------------------------------------------------------- sampling


def straight(length: float) -> LanePath:
    return along(Polyline([(0.0, 0.0), (length, 0.0)]))


def test_constant_speed_sampling_uniform_spacing():
    traj, = sample_trajectory([(straight(40.0), SpeedProfile(10.0, 0.0), 4.0)], dt=0.1)
    assert traj.t[-1] - traj.t[0] == pytest.approx(4.0)
    steps = np.hypot(np.diff(traj.x), np.diff(traj.y))
    assert np.allclose(steps, 1.0, atol=1e-9)
    assert np.allclose(traj.speed, 10.0)
    assert np.allclose(traj.a_lon, 0.0, atol=1e-9)


def test_braking_profile_floors_at_zero():
    # v(t) = 2 - 1.5 t crosses zero at t = 4/3; the vehicle covers v0^2/2a
    traj, = sample_trajectory([(straight(40.0), SpeedProfile(2.0, -1.5), 4.0)], dt=0.1)
    t_stop = 4.0 / 3.0
    for k, t in enumerate(traj.t):
        assert traj.speed[k] == pytest.approx(max(0.0, 2.0 - 1.5 * t), abs=1e-12)
    assert traj.t[-1] - traj.t[0] == pytest.approx(4.0)
    assert traj.x[-1] - traj.x[0] == pytest.approx(2.0 ** 2 / (2 * 1.5), abs=1e-9)
    resting = traj.t >= t_stop + 0.1
    assert np.allclose(traj.x[resting], traj.x[-1], atol=1e-12)


def test_stopped_profile_rests_to_the_horizon():
    traj, = sample_trajectory([(straight(40.0), SpeedProfile(0.0, 0.0), 2.0)], dt=0.1)
    assert len(traj) == 21
    assert np.allclose(traj.speed, 0.0)


def test_lateral_acceleration_is_curvature_times_speed_squared():
    r = 50.0
    k = 4.0 / 3.0 * math.tan(math.pi / 8.0)
    arc = CubicBezier([(r, 0.0), (r, r * k), (r * k, r), (0.0, r)])
    pts = bezier_points(arc.ctrl, np.linspace(0.0, 1.0, 513))
    path = Polyline(pts)
    # 5 s at 15 m/s stays on the 78.5 m arc
    traj, = sample_trajectory([(along(path), SpeedProfile(15.0, 0.0), 5.0)], dt=0.1)
    interior = slice(2, len(traj) - 2)
    assert np.allclose(np.abs(traj.a_lat[interior]), 15.0 ** 2 / r, atol=0.05)
    # against the analytic curvature at each sample's curve parameter
    us = np.interp(traj.t * 15.0, path.cum, np.linspace(0.0, 1.0, len(pts)))
    exact = np.array([arc.curvature(float(u)) for u in us]) * 15.0 ** 2
    assert np.allclose(traj.a_lat, exact, rtol=1e-3)


def test_speed_cap_respected():
    traj, = sample_trajectory([(straight(200.0), SpeedProfile(10.0, 2.0, v_max=14.0), 4.0)],
                              dt=0.1)
    assert traj.speed[-1] == pytest.approx(14.0)
    assert float(np.max(traj.speed)) <= 14.0 + 1e-12


def step_distance(v, a, dt, v_max):
    """Exact distance over one tick under v(t) = clip(v + a t, 0, v_max)."""
    if a > 0 and v < v_max:
        t_hit = (v_max - v) / a
        if t_hit < dt:
            ds = v * t_hit + 0.5 * a * t_hit * t_hit + v_max * (dt - t_hit)
            return ds, v_max
        return v * dt + 0.5 * a * dt * dt, v + a * dt
    if a < 0 and v > 0.0:
        t_hit = -v / a
        if t_hit < dt:
            return v * t_hit + 0.5 * a * t_hit * t_hit, 0.0
        return v * dt + 0.5 * a * dt * dt, v + a * dt
    v_now = min(max(v, 0.0), v_max)
    return v_now * dt, v_now


def stepped_samples(profile, dt, horizon):
    """Reference: t, arc length and speed stepped tick by tick. A start above
    v_max is capped at itself: it holds or slows, and never drops to v_max."""
    ts, ss, speeds = [], [], []
    v, v_max = profile.v0, max(profile.v_max, profile.v0)
    s, k = 0.0, 0
    while k * dt <= horizon + 1e-9:
        ts.append(k * dt)
        ss.append(s)
        speeds.append(v)
        ds, v = step_distance(v, profile.accel, dt, v_max)
        s += ds
        k += 1
    return np.array(ts), np.array(ss), np.array(speeds)


@pytest.mark.parametrize("length, profile, dt, horizon", [
    (200.0, SpeedProfile(10.0, 2.0, v_max=13.89), 0.1, 4.0),   # v_max at 1.945 s
    (200.0, SpeedProfile(13.0, 1.5, v_max=13.89), 0.15, 4.0),  # v_max at 0.593 s
    (200.0, SpeedProfile(7.3, -3.0), 0.1, 4.0),                # rest at 2.433 s
    (200.0, SpeedProfile(12.0, -4.0), 0.15, 4.0),              # rest at 3 s, a tick
    (25.0, SpeedProfile(9.0, 1.0), 0.1, 4.0),                  # past the line's end at 2.3 s
    (30.0, SpeedProfile(14.0, 0.0), 0.15, 5.0),                # past the line's end at 2.1 s
    (200.0, SpeedProfile(15.0, 1.0, v_max=13.89), 0.1, 4.0),   # starts over the cap: holds
    (200.0, SpeedProfile(0.0, -2.0), 0.15, 4.0),               # stays at rest
])
def test_sampled_profile_matches_tick_by_tick_stepping(length, profile, dt, horizon):
    path = straight(length)
    traj, = sample_trajectory([(path, profile, horizon)], dt)
    t, s, v = stepped_samples(profile, dt, horizon)
    assert np.array_equal(traj.t, t)
    assert np.array_equal(traj.x, path.line.frames(s)[0])
    assert np.array_equal(traj.speed, v)


def test_profile_validation():
    with pytest.raises(ValueError):
        SpeedProfile(-1.0, 0.0)
    with pytest.raises(ValueError):
        sample_trajectory([(straight(10.0), SpeedProfile(1.0, 0.0), 1.0)], dt=0.0)
    with pytest.raises(ValueError):
        sample_trajectory([(straight(10.0), SpeedProfile(1.0, 0.0), -1.0)], dt=0.1)


# ---------------------------------------------------------------- batches

FIELDS = ("t", "x", "y", "heading", "speed", "a_lon", "a_lat")


def bent_path(length: float) -> Polyline:
    """A path of `length` m: straight, then two bends, with curvature on it."""
    pts = [(0.0, 0.0), (0.3, 0.0), (0.6, 0.05), (0.85, 0.2), (1.0, 0.45)]
    line = Polyline(pts)
    return Polyline(np.asarray(pts) * (length / line.length))


profiles = st.builds(
    SpeedProfile,
    st.one_of(st.sampled_from([0.0, 13.89, 20.0]), st.floats(0.0, 30.0)),
    st.one_of(st.sampled_from([0.0, 1.5, -2.0, -3.0]), st.floats(-6.0, 6.0)),
    st.one_of(st.sampled_from([math.inf, 13.89, 5.0]), st.floats(0.0, 30.0)))


horizons = st.one_of(st.sampled_from([4.0, 5.0, 0.05, 0.0]), st.floats(0.0, 6.0))


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 3), profiles, horizons), min_size=1, max_size=7),
       st.sampled_from([0.1, 0.15, 0.05]),
       st.lists(st.one_of(st.sampled_from([200.0, 20.0]), st.floats(0.5, 150.0)),
                min_size=3, max_size=3))
@example([(0, SpeedProfile(13.89, a, 13.89), 4.0) for a in (1.0, 0.0, -1.0, -2.0)],
         0.1, [60.0, 60.0, 60.0])
@example([(0, p, 4.0) for p in (SpeedProfile(20.0, 1.0, 13.89), SpeedProfile(0.0, 0.0),
                                SpeedProfile(0.0, -2.0), SpeedProfile(7.3, -3.0),
                                SpeedProfile(13.0, 1.5, 13.89))], 0.15, [30.0, 30.0, 30.0])
@example([(0, SpeedProfile(20.0, 0.0, 13.89), 5.0), (1, SpeedProfile(20.0, 0.0), 5.0),
          (0, SpeedProfile(13.89, 0.0, 13.89), 5.0), (3, SpeedProfile(0.0, -2.0), 4.0),
          (2, SpeedProfile(7.3, -3.0), 4.0), (1, SpeedProfile(14.0, 1.0, 13.89), 4.0),
          (3, SpeedProfile(13.0, 1.5, 13.89), 0.0)], 0.1, [60.0, 75.0, 25.0])
def test_batched_sampling_matches_per_profile_calls(rows, dt, lengths):
    # each row of one call is what it is sampled alone: clip kinks between
    # ticks, a = 0, v0 > v_max, standing starts, dt = 0.15, mixed horizons,
    # rows that share a path, a one-segment path among bent ones, and rows
    # that run past their path's end at a different tick per row
    paths = [along(bent_path(length)) for length in lengths] + [straight(30.0)]
    call = [(paths[k], profile, horizon) for k, profile, horizon in rows]
    together = sample_trajectory(call, dt)
    assert len(together) == len(call)
    for row in range(len(call)):   # the returned block's rows, padding included
        assert_row_is_its_lone_block(together, row)
    for (path, profile, horizon), traj in zip(call, together):
        alone, = sample_trajectory([(path, profile, horizon)], dt)
        for name in FIELDS:
            assert np.array_equal(getattr(traj, name), getattr(alone, name)), name
        t, s, v = stepped_samples(profile, dt, horizon)
        assert np.array_equal(traj.t, t)
        assert np.array_equal(traj.speed, v)
        x, y, heading = path.line.frames(s)
        _, kappa = path.line.locate(s)
        assert np.array_equal(traj.x, x) and np.array_equal(traj.y, y)
        assert np.array_equal(traj.heading, heading)
        assert np.array_equal(traj.a_lat, kappa * v * v)


LANES = [Lane("straight", Polyline([(0.0, 0.0), (600.0, 0.0)]), 3.5, 13.89),
         *(Lane(f"arc{turn}", Polyline(arc_centerline(140.0, turn)), 3.5, 13.89)
           for turn in (-1, 1))]
LANE_PROFILES = (SpeedProfile(13.89, 0.0, 13.89), SpeedProfile(8.0, 1.5, 13.89),
                 SpeedProfile(5.0, -3.0), SpeedProfile(0.0))


def lane_paths() -> list:
    """(lane, pose, `lane_path`) from poses beside a straight lane and both
    140 m arcs: at a vertex and between vertices, on the lane, off it and a
    lane's width off it, with heading offsets, and past the straight lane's
    end and far off it; each as a lane change, a short blend, a blend that
    the faster profiles pass and the slower ones do not reach, and a
    keep-lane path."""
    poses = [(LANES[0], (630.0, 0.3, 0.0)), (LANES[0], (100.0, 40.0, 0.0))]
    for lane in LANES:
        line = lane.centerline
        for s in (float(line.cum[min(2, len(line.cum) - 2)]), 37.3):   # a vertex, and between
            x0, y0, h = line.pose_at(s)
            for dy, dh in ((0.0, 0.0), (0.8, 0.05), (-0.4, -0.1), (3.5, 0.0), (-3.5, 0.2)):
                poses.append((lane, (x0 - math.sin(h) * dy, y0 + math.cos(h) * dy, h + dh)))
    out = []
    for lane, pose in poses:
        s0, d0 = lane.centerline.project(pose[:2])
        for blend in (55.56, 3.0, 20.0, 60.0):
            out.append((lane, pose, lane_path(lane, s0, d0, pose[2], blend)))
    return out


def test_lane_path_rows_follow_the_lane_frame_oracle():
    # rows of every lane in one call, in an order that splits each lane's rows
    paths = lane_paths()
    call = [(k, profile) for k in range(len(paths)) for profile in LANE_PROFILES]
    call = [call[i] for i in np.random.default_rng(5).permutation(len(call))]
    block = sample_trajectory([(paths[k][2], profile, 5.0) for k, profile in call], 0.1)
    for row, (k, profile) in enumerate(call):
        lane, pose, path = paths[k]
        traj = block[row]
        assert_row_is_its_lone_block(block, row)
        alone, = sample_trajectory([(path, profile, 5.0)], 0.1)
        for name in FIELDS:
            assert np.array_equal(getattr(traj, name), getattr(alone, name)), (row, name)
        _, x, v = stepped_samples(profile, 0.1, 5.0)
        s = x + path.s0
        want = lane_frame_poses(path, s)
        for got, ref in zip((traj.x, traj.y, traj.heading, traj.a_lat),
                            (*want[:3], want[3] * v * v)):
            assert np.max(np.abs(got - ref)) <= 1e-9, (row, path)
        # it starts along the pose's heading, and at the pose beside a straight lane
        assert abs(traj.heading[0] - pose[2]) <= 1e-9
        if lane is LANES[0]:
            assert math.hypot(traj.x[0] - pose[0], traj.y[0] - pose[1]) <= 1e-9
        # from the join on, exactly on the centerline
        on = x >= path.blend
        cx, cy, ch = path.line.frames(s[on])
        assert np.array_equal(traj.x[on], cx) and np.array_equal(traj.y[on], cy)
        assert np.array_equal(traj.heading[on], ch)
        assert np.array_equal(traj.a_lat[on], path.line.locate(s[on])[1] * v[on] * v[on])


def test_batched_rows_end_at_their_own_horizon_past_the_path():
    # each row runs on past the 10 m line's end, along its end segment
    batch = [(SpeedProfile(5.0, 0.0), 4.0), (SpeedProfile(10.0, 0.0), 3.0),
             (SpeedProfile(20.0, 0.0), 1.5)]
    trajs = sample_trajectory([(straight(10.0), p, h) for p, h in batch], 0.1)
    assert [len(traj) for traj in trajs] == [41, 31, 16]
    assert [traj.x[-1] for traj in trajs] == [20.0, 30.0, 30.0]
    assert all(np.all(traj.y == 0.0) for traj in trajs)


@settings(max_examples=100)
@given(st.lists(st.lists(st.floats(-30.0, 150.0), min_size=7, max_size=7),
                min_size=1, max_size=4),
       st.floats(0.5, 120.0))
def test_frames_on_a_block_match_row_by_row(rows, length):
    path = bent_path(length)
    s = np.array(rows)
    block = (*path.frames(s), path.locate(s)[1])
    for p, row in enumerate(s):
        for got, want in zip(block, (*path.frames(row), path.locate(row)[1])):
            assert np.array_equal(got[p], want)


def test_tick_grid_is_cached_and_read_only():
    t = tick_times(0.1, 4.0)
    assert tick_times(0.1, 4.0) is t
    with pytest.raises(ValueError):
        t[0] = 1.0


def test_speed_tables_are_cached_read_only_and_never_clamped():
    # the same profiles along another path share the table, and sampling
    # along it leaves the table as it was for the first path
    batch = [(SpeedProfile(10.0, 1.0, 12.0), 4.0), (SpeedProfile(20.0, -3.0), 4.0)]
    bezier._speeds_and_arcs.cache_clear()
    fresh = sample_trajectory([(straight(100.0), p, h) for p, h in batch], 0.1)
    sample_trajectory([(along(bent_path(30.0)), p, h) for p, h in batch], 0.1)
    again = sample_trajectory([(straight(100.0), p, h) for p, h in batch], 0.1)
    info = bezier._speeds_and_arcs.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    for name in FIELDS:
        assert np.array_equal(getattr(again, name), getattr(fresh, name)), name
    v, s, a_lon = bezier._speeds_and_arcs(bezier._PROFILE.pack(10.0, 1.0, 12.0), 0.1, 41)
    for table in (v, s, a_lon):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    # a_lon is v stepped tick by tick, over dt
    speeds = v[0].tolist()
    assert a_lon[0].tolist() == [(b - a) / 0.1 for a, b in zip(speeds, speeds[1:])]
    # keyed bit for bit: a speed of -0.0 keeps its sign
    rest, = sample_trajectory([(straight(10.0), SpeedProfile(0.0), 1.0)], 0.1)
    signed, = sample_trajectory([(straight(10.0), SpeedProfile(-0.0), 1.0)], 0.1)
    assert math.copysign(1.0, rest.speed[0]) == -math.copysign(1.0, signed.speed[0]) == 1.0


def test_sampled_arrays_are_read_only():
    path = straight(40.0)
    trajs = sample_trajectory([(path, SpeedProfile(10.0, 0.0), 4.0),
                               (path, SpeedProfile(10.0, -2.0), 4.0)], dt=0.1)
    for traj in trajs:
        for name in FIELDS:
            with pytest.raises(ValueError):
                getattr(traj, name)[0] = 0.0
    for name in FIELDS:   # the block's rows are the same buffers
        with pytest.raises(ValueError):
            getattr(trajs, name)[0, 0] = 0.0

