import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CURVED, assert_row_is_its_lone_block
from cormp import bezier
from cormp.baselines import make_planner
from cormp.bezier import (_CHORD_TOL_M, _MAX_CHORDS, SpeedProfile, TimedTrajectory,
                          sample_trajectory, tick_times)
from cormp.config import PlannerConfig
from cormp.kernels import bezier_curve
from cormp.scenario import Polyline, load_scenario
from cormp.simulator import run
from curve_oracle import CubicBezier, bezier_points, chord_count, lane_cubic
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
# sample_trajectory runs along a Polyline path; at 1 m/s with a 1 ms tick and
# a horizon past its end, the last sample's time is the path length to within
# one tick.
# Cubics become paths through `chord_points`, which must keep their length.


def sampled_at_unit_speed(path: Polyline) -> TimedTrajectory:
    traj, = sample_trajectory([(path, SpeedProfile(1.0, 0.0), 10.0)], dt=1e-3)
    return traj


def test_sampled_length_straight_segment():
    traj = sampled_at_unit_speed(Polyline([(0.0, 0.0), (3.0, 0.0)]))
    assert traj.t[-1] == pytest.approx(3.0, abs=2e-3)
    assert path_length(traj) == pytest.approx(traj.t[-1], abs=1e-3)


def test_sampled_length_against_dense_polyline():
    traj = sampled_at_unit_speed(Polyline(CubicBezier(UNIT_SQUARE).chord_points()))
    us = np.linspace(0.0, 1.0, 100_001)
    pts = np.array([de_casteljau(UNIT_SQUARE, u) for u in us])
    oracle = float(np.sum(np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))))
    assert traj.t[-1] == pytest.approx(oracle, abs=2e-3)
    assert path_length(traj) == pytest.approx(traj.t[-1], abs=1e-3)


def test_flat_cubic_becomes_one_chord():
    pts = CubicBezier([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]).chord_points()
    assert np.array_equal(pts, [(0.0, 0.0), (3.0, 0.0)])


def chord_stray(ctrl: np.ndarray) -> tuple:
    """(chord count, largest distance from the cubic to its chords), the
    cubic evaluated by the oracle 16 times per chord."""
    pts = CubicBezier(ctrl).chord_points()
    n = len(pts) - 1
    u = (np.arange(n)[:, None] + np.linspace(0.0, 1.0, 17)) / n
    curve = bezier_points(ctrl, u.ravel()).reshape(n, 17, 2)
    a, d = pts[:-1, None], (pts[1:] - pts[:-1])[:, None]
    f = np.clip(((curve - a) * d).sum(axis=2) / (d * d).sum(axis=2), 0.0, 1.0)
    return n, float(np.hypot(*(curve - a - f[..., None] * d).T).max())


def lane_change_cubics():
    """Random cubics shaped like lane changes, and the cubics from poses on
    both conftest arcs onto each of their lanes."""
    rng = np.random.default_rng(23)
    for _ in range(200):
        length, lateral = rng.uniform(5.0, 120.0), rng.uniform(-4.0, 4.0)
        h0, h3 = rng.uniform(-0.3, 0.3, size=2)
        p0, p3 = np.zeros(2), np.array([length, lateral])
        yield np.array([p0, p0 + np.array([math.cos(h0), math.sin(h0)]) * length / 3.0,
                        p3 - np.array([math.cos(h3), math.sin(h3)]) * length / 3.0, p3])
    for doc in CURVED.values():
        lanes = load_scenario(doc).lanes
        ego = lanes["right"].centerline
        for s in (5.0, 37.3, 140.0):
            (x, y), h = ego.point_at(s), ego.heading_at(s)
            for lane in lanes.values():
                for blend in (20.0, 55.56, 72.2):
                    yield lane_cubic(lane.centerline, x, y, h, blend)


def test_chords_stay_within_the_stated_tolerance():
    for ctrl in lane_change_cubics():
        n, stray = chord_stray(ctrl)
        assert n == chord_count(ctrl) and n & (n - 1) == 0 and n <= _MAX_CHORDS
        assert n < _MAX_CHORDS and stray <= _CHORD_TOL_M, (ctrl, n, stray)


def test_a_pose_far_off_its_lane_reaches_the_chord_cap():
    # 0.75 max|second difference| / _MAX_CHORDS^2 passes _CHORD_TOL_M at
    # about 140 m: the cap then binds, and the chords stray past the tolerance
    for offset, within in ((40.0, True), (300.0, False)):
        ctrl = np.array([(0.0, offset), (20.0, offset), (40.0, 0.0), (60.0, 0.0)])
        n, stray = chord_stray(ctrl)
        assert n == _MAX_CHORDS
        assert (stray <= _CHORD_TOL_M) == within, stray


def test_closed_loop_chord_counts_each_build_one_basis(monkeypatch):
    counts = []

    def spy(basis, ctrl):
        counts.append(basis.shape[-1] - 1)
        return bezier_curve(basis, ctrl)

    monkeypatch.setattr(bezier, "bezier_curve", spy)
    bezier._chord_basis.cache_clear()
    cfg = PlannerConfig()
    for doc in CURVED.values():
        scenario = load_scenario(doc)
        run(scenario, make_planner("cor-mp", cfg, scenario.profile), cfg)
    assert all(n & (n - 1) == 0 and n <= _MAX_CHORDS for n in counts)
    assert bezier._chord_basis.cache_info().misses == len(set(counts))


# ---------------------------------------------------------------- sampling


def straight(length: float) -> Polyline:
    return Polyline([(0.0, 0.0), (length, 0.0)])


def test_constant_speed_sampling_uniform_spacing():
    traj, = sample_trajectory([(straight(40.0), SpeedProfile(10.0, 0.0), 10.0)], dt=0.1)
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
    pts = arc.chord_points()
    path = Polyline(pts)
    traj, = sample_trajectory([(path, SpeedProfile(15.0, 0.0), 10.0)], dt=0.1)
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


def stepped_samples(length, profile, dt, horizon):
    """Reference: t, arc length and speed stepped tick by tick. A start above
    v_max is capped at itself: it holds or slows, and never drops to v_max."""
    ts, ss, speeds = [], [], []
    v, v_max = profile.v0, max(profile.v_max, profile.v0)
    s, k = 0.0, 0
    while k * dt <= horizon + 1e-9 and s <= length + 1e-9:
        ts.append(k * dt)
        ss.append(min(s, length))
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
    (25.0, SpeedProfile(9.0, 1.0), 0.1, 4.0),                  # path ends at 2.3 s
    (30.0, SpeedProfile(14.0, 0.0), 0.15, 5.0),                # path ends at 2.1 s
    (200.0, SpeedProfile(15.0, 1.0, v_max=13.89), 0.1, 4.0),   # starts over the cap: holds
    (200.0, SpeedProfile(0.0, -2.0), 0.15, 4.0),               # stays at rest
])
def test_sampled_profile_matches_tick_by_tick_stepping(length, profile, dt, horizon):
    path = straight(length)
    traj, = sample_trajectory([(path, profile, horizon)], dt)
    t, s, v = stepped_samples(length, profile, dt, horizon)
    assert np.array_equal(traj.t, t)
    assert np.array_equal(traj.x, path.frames(s)[0])
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
    # rows that share a path, a one-segment path among bent ones, and paths
    # that run out before the horizon at a different tick per row
    paths = [bent_path(length) for length in lengths] + [straight(30.0)]
    call = [(paths[k], profile, horizon) for k, profile, horizon in rows]
    together = sample_trajectory(call, dt)
    assert len(together) == len(call)
    for row in range(len(call)):   # the returned block's rows, padding included
        assert_row_is_its_lone_block(together, row)
    for (path, profile, horizon), traj in zip(call, together):
        alone, = sample_trajectory([(path, profile, horizon)], dt)
        for name in FIELDS:
            assert np.array_equal(getattr(traj, name), getattr(alone, name)), name
        t, s, v = stepped_samples(path.length, profile, dt, horizon)
        assert np.array_equal(traj.t, t)
        assert np.array_equal(traj.speed, v)
        x, y, heading = path.frames(s)
        _, kappa = path.locate(s)
        assert np.array_equal(traj.x, x) and np.array_equal(traj.y, y)
        assert np.array_equal(traj.heading, heading)
        assert np.array_equal(traj.a_lat, kappa * v * v)


def test_batched_rows_end_where_the_path_runs_out():
    batch = [SpeedProfile(v, 0.0) for v in (5.0, 10.0, 20.0)]
    path = straight(30.0)
    trajs = sample_trajectory([(path, profile, 4.0) for profile in batch], 0.1)
    assert [len(traj) for traj in trajs] == [41, 31, 16]
    assert [traj.x[-1] for traj in trajs] == [20.0, 30.0, 30.0]


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
    # a 30 m path clamps the 20 m/s row's arcs; the same profiles along a
    # 100 m path must still see the unclamped table, as if sampled first
    batch = [(SpeedProfile(10.0, 1.0, 12.0), 4.0), (SpeedProfile(20.0, -3.0), 4.0)]
    bezier._speeds_and_arcs.cache_clear()
    fresh = sample_trajectory([(straight(100.0), p, h) for p, h in batch], 0.1)
    short = sample_trajectory([(straight(30.0), p, h) for p, h in batch], 0.1)
    again = sample_trajectory([(straight(100.0), p, h) for p, h in batch], 0.1)
    info = bezier._speeds_and_arcs.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    assert np.count_nonzero(short.valid[1]) < np.count_nonzero(fresh.valid[1])
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


# ---------------------------------------------------------------- container


def test_stationary_factory():
    traj = TimedTrajectory.stationary(3.0, 4.0, 0.5, dt=0.1, n=8)
    assert len(traj) == 8
    assert np.allclose(traj.x, 3.0) and np.allclose(traj.y, 4.0)
    assert np.allclose(traj.speed, 0.0)
    assert path_length(traj) == pytest.approx(0.0)


def test_tail_rebases_time():
    traj, = sample_trajectory([(straight(40.0), SpeedProfile(10.0, 0.0), 4.0)], dt=0.1)
    tail = traj.tail(5)
    assert tail.t[0] == pytest.approx(0.0)
    assert len(tail) == len(traj) - 5
    assert tail.x[0] == pytest.approx(traj.x[5])
