import dataclasses
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import load, prediction_block
from cormp.bezier import SpeedProfile, TimedTrajectory, sample_trajectory
from cormp.config import PROFILES, PlannerConfig
from cormp.identification import (
    CandidateBlock,
    Maneuver,
    enumerate_candidates,
    lane_path,
)
from cormp.planner import CorMpPlanner, plan_context
from cormp.resources import (
    PROFILE_RANKINGS,
    RESOURCES,
    STATES,
    ResourceState,
    ResourceType,
    assess_candidates,
    crowdedness_value,
    kinetic_energy_delta_kj,
    profile_weights,
    rank_order_centroid,
    safety_value,
)
from cormp.scenario import Lane, Polyline
from resource_oracle import (apriori_lane_value, assess_oracle, clamp01, classify_state,
                             comfort_value, energy_value, objective_value)

CFG = PlannerConfig()


def straight_traj(v: float, n: int = 41, dt: float = 0.1, y: float = 0.0,
                  a_lon: float = 0.0, a_lat: float = 0.0) -> TimedTrajectory:
    t = np.arange(n) * dt
    return TimedTrajectory(dt, t, v * t, np.full(n, y), np.zeros(n),
                           np.full(n, float(v)), np.full(n, a_lon),
                           np.full(n, a_lat))


def vehicle_pred(traj: TimedTrajectory) -> tuple:
    """One `prediction_block` row: a 4.5 x 1.8 m vehicle."""
    return ("vehicle", traj, 4.5, 1.8)


# ---------------------------------------------------------------- weights


def roc_oracle(n: int) -> list:
    return [sum(Fraction(1, j) for j in range(k, n + 1)) / n
            for k in range(1, n + 1)]


def test_resources_and_maneuvers_hash_by_identity():
    for member in (*ResourceType, *Maneuver):
        assert hash(member) == object.__hash__(member)


def test_rank_weights_match_exact_rationals():
    ranking = {r: i + 1 for i, r in enumerate(RESOURCES)}
    weights = rank_order_centroid(ranking)
    oracle = roc_oracle(6)
    frozen = [Fraction(49, 120), Fraction(29, 120), Fraction(19, 120),
              Fraction(37, 360), Fraction(11, 180), Fraction(1, 36)]
    assert oracle == frozen
    ordered = [weights[r] for r in RESOURCES]
    for got, want in zip(ordered, oracle):
        assert abs(got - float(want)) < 1e-12
    assert abs(sum(ordered) - 1.0) < 1e-12
    assert all(a > b for a, b in zip(ordered, ordered[1:]))


def test_rank_weights_reject_non_permutations():
    ranking = {r: 1 for r in RESOURCES}
    with pytest.raises(ValueError):
        rank_order_centroid(ranking)


@pytest.mark.parametrize("profile,top", [
    ("regular", ResourceType.SAFETY),
    ("aggressive", ResourceType.OBJECTIVE),
    ("fuel_efficient", ResourceType.ENERGY),
])
def test_profile_tables_put_the_right_resource_first(profile, top):
    weights = profile_weights(profile)
    assert PROFILE_RANKINGS[profile][top] == 1
    assert weights[top] == pytest.approx(49.0 / 120.0, abs=1e-12)
    assert abs(sum(weights.values()) - 1.0) < 1e-12


def test_every_profile_has_a_full_ranking():
    for profile in PROFILES:
        ranking = PROFILE_RANKINGS[profile]
        assert sorted(ranking.values()) == [1, 2, 3, 4, 5, 6]
        assert set(ranking) == set(RESOURCES)


def test_an_unknown_profile_is_rejected():
    with pytest.raises(ValueError, match="unknown profile 'sporty'"):
        profile_weights("sporty")
    with pytest.raises(ValueError, match="unknown profile 'sporty'"):
        CorMpPlanner(CFG, "sporty")


# ---------------------------------------------------------------- energy


def test_kinetic_energy_delta_exact():
    assert kinetic_energy_delta_kj(1500.0, 10.0, 15.0) == 18.75


def test_kinetic_energy_free_when_not_accelerating():
    assert kinetic_energy_delta_kj(1500.0, 12.0, 12.0) == 0.0
    rng = np.random.default_rng(31)
    for _ in range(500):
        v_a = rng.uniform(0.0, 40.0)
        v_b = v_a - rng.uniform(0.0, v_a)
        assert kinetic_energy_delta_kj(rng.uniform(500, 40000), v_a, v_b) == 0.0


def test_energy_value_ratio_and_clamp():
    assert energy_value(10.0, 15.0, 1500.0, 75.0) == pytest.approx(0.75, abs=1e-12)
    assert energy_value(10.0, 10.0, 1500.0, 75.0) == 1.0
    assert energy_value(0.0, 20.0, 1500.0, 75.0) == 0.0  # 300 kJ >= 75 kJ


# ---------------------------------------------------------------- safety


def one_sample(v: float, x: float = 0.0, y: float = 0.0) -> TimedTrajectory:
    return TimedTrajectory(0.1, np.array([0.0]), np.array([x]), np.array([y]),
                           np.array([0.0]), np.array([float(v)]),
                           np.array([0.0]), np.array([0.0]))


def safety(ego: TimedTrajectory, block) -> float:
    return safety_value(CandidateBlock([ego]), block, 4.5, 1.8, CFG)[0]


def test_safety_vacuous_without_objects():
    assert safety(straight_traj(10.0), prediction_block()) == 1.0


def test_safety_boundary_at_required_distance():
    # required bumper gap at 10 m/s: 10*2 + 5 = 25 m; centers 25 + 4.5 apart
    ego = one_sample(10.0)
    pred = vehicle_pred(one_sample(10.0, x=29.5))
    assert safety(ego, prediction_block(pred)) == pytest.approx(1.0)


def test_safety_half_distance_both_axes():
    ego = one_sample(10.0)
    # half the required gap ahead, half the required clearance sideways
    pred = vehicle_pred(one_sample(10.0, x=17.0, y=1.15))
    assert safety(ego, prediction_block(pred)) == pytest.approx(0.5)


def test_safety_zero_on_contact():
    ego = one_sample(10.0)
    pred = vehicle_pred(one_sample(10.0, x=2.0))
    assert safety(ego, prediction_block(pred)) == 0.0


def test_safety_takes_worst_sample():
    ego = straight_traj(10.0)                           # moves 0..40 m
    pred = vehicle_pred(TimedTrajectory.stationary(60.0, 0.0, 0.0, 0.1, 41))
    close = safety(ego, prediction_block(pred))
    far_pred = vehicle_pred(TimedTrajectory.stationary(90.0, 0.0, 0.0, 0.1, 41))
    assert close < safety(ego, prediction_block(far_pred))


# ---------------------------------------------------------------- comfort


def test_comfort_inside_box():
    c = straight_traj(10.0, a_lon=0.5, a_lat=0.2)
    assert comfort_value(c, CFG) == 1.0


def test_comfort_zero_at_axis_maximum():
    c = straight_traj(10.0, a_lon=3.0)
    assert comfort_value(c, CFG) == 0.0


def test_comfort_linear_between_box_and_maximum():
    c = straight_traj(10.0, a_lon=1.95)
    assert comfort_value(c, CFG) == pytest.approx(0.5, abs=1e-9)


def test_comfort_uses_worst_axis():
    c = straight_traj(10.0, a_lon=0.2, a_lat=2.5)
    assert comfort_value(c, CFG) == 0.0


# ---------------------------------------------------------------- objective


def test_objective_full_speed_ratio():
    assert objective_value(straight_traj(10.0), 10.0, 4.0) == 1.0


def test_objective_standstill():
    stop = TimedTrajectory.stationary(0.0, 0.0, 0.0, 0.1, 41)
    assert objective_value(stop, 10.0, 4.0) == 0.0


def test_objective_half_speed():
    assert objective_value(straight_traj(5.0), 10.0, 4.0) \
        == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------- lane hold


def mission_lane() -> Lane:
    return Lane(id="l0", centerline=Polyline([[0.0, 0.0], [200.0, 0.0]]),
                width=3.5, speed_limit=13.89)


def lane_hold(*trajs: TimedTrajectory) -> list:
    return apriori_lane_value(CandidateBlock(list(trajs)).end_xy, mission_lane()).tolist()


def test_apriori_examples():
    held = lane_hold(*(straight_traj(10.0, y=y) for y in (0.0, 3.5, 7.0, -10.0)))
    assert held[0] == 1.0
    assert held[1] == pytest.approx(0.5, abs=1e-12)
    assert held[2:] == [0.0, 0.0]


def test_apriori_uses_final_sample():
    n = 41
    t = np.arange(n) * 0.1
    y = np.linspace(3.5, 0.0, n)  # merging back onto the mission lane
    traj = TimedTrajectory(0.1, t, 10.0 * t, y, np.zeros(n), np.full(n, 10.0),
                           np.zeros(n), np.zeros(n))
    # a shorter row is padded with its last sample, which is its end point
    assert lane_hold(traj, straight_traj(10.0, n=5, y=3.5)) == [1.0, pytest.approx(0.5)]


# ---------------------------------------------------------------- crowding


def crowdedness(ego: TimedTrajectory, block) -> float:
    return crowdedness_value(block.corridor_hits(CandidateBlock([ego]), 4.5, 1.8, CFG), CFG)[0]


def test_crowdedness_counts_crossing_corridors():
    ego = straight_traj(10.0)  # corridor x in [0, 40]
    def block(x):
        return vehicle_pred(TimedTrajectory.stationary(x, 0.0, 0.0, 0.1, 41))
    assert crowdedness(ego, prediction_block()) == 1.0
    two = prediction_block(block(10.0), block(20.0))
    assert crowdedness(ego, two) == pytest.approx(0.6)
    five = prediction_block(*[block(x) for x in (5.0, 10.0, 15.0, 20.0, 25.0)])
    assert crowdedness(ego, five) == 0.0
    aside = prediction_block(vehicle_pred(TimedTrajectory.stationary(10.0, 50.0, 0.0, 0.1, 41)))
    assert crowdedness(ego, aside) == 1.0


# ---------------------------------------------------------------- states


def test_state_thresholds():
    assert classify_state(0.8, CFG, mu_current=0.9) is ResourceState.ACQUIRED
    assert classify_state(0.3, CFG) is ResourceState.THREATENED
    assert classify_state(0.02, CFG) is ResourceState.LOSS
    assert classify_state(0.8, CFG, mu_current=0.3) is ResourceState.DESIRED
    # boundaries: thresholds are lower-inclusive for the better state
    assert classify_state(CFG.theta_loss, CFG) is ResourceState.THREATENED
    assert classify_state(CFG.theta_acquired, CFG) is ResourceState.ACQUIRED


def test_clamp01():
    assert clamp01(-0.5) == 0.0
    assert clamp01(0.25) == 0.25
    assert clamp01(1.5) == 1.0


# ---------------------------------------------------------------- assembly


def test_full_assessment_stays_in_unit_interval():
    ctx = plan_context(load("overtake_static"), PlannerConfig(), 0.0)
    # every candidate with a row of the plan's block: all but the missing right lane's
    block, cands = enumerate_candidates(ctx)
    rows = [c.row for c in cands if c.row is not None]
    assert len(rows) == 5
    values, states = assess_candidates(ctx, block, rows)
    assert values.shape == states.shape == (5, len(RESOURCES))
    assert np.all((0.0 <= values) & (values <= 1.0))
    assert np.issubdtype(states.dtype, np.integer)
    assert set(states.flat) <= set(range(len(STATES)))
    assert all(isinstance(state, ResourceState) for state in STATES)


def test_property_values_clamped_over_random_inputs():
    rng = np.random.default_rng(37)
    for _ in range(200):
        v = rng.uniform(0.0, 30.0)
        c = straight_traj(v, a_lon=rng.uniform(-6, 6), a_lat=rng.uniform(-5, 5))
        assert 0.0 <= comfort_value(c, CFG) <= 1.0
        assert 0.0 <= energy_value(rng.uniform(0, 30), rng.uniform(0, 30), 1500.0, 75.0) <= 1.0
        assert 0.0 <= objective_value(c, rng.uniform(5, 30), 4.0) <= 1.0
        assert 0.0 <= lane_hold(c)[0] <= 1.0


# ---------------------------------------------------------------- array form


@lru_cache(maxsize=1)
def busy_context() -> tuple:
    """`busy_highway` at 0 s and three paths from the ego: its keep-lane path,
    a lane change onto the left lane and a 3 m line that rows run off."""
    ctx = plan_context(load("busy_highway"), PlannerConfig(), 0.0)
    ego, lane = ctx.ego, ctx.lane
    target = ctx.scenario.lanes[lane.left_neighbor]
    s0 = target.centerline.project((ego.x, ego.y))[0]
    return ctx, (Polyline(lane_path(lane, ctx.ego_s, ego.x, ego.y, ego.heading, 60.0, 60.0)),
                 Polyline(lane_path(target, s0, ego.x, ego.y, ego.heading, 70.0, 90.0)),
                 Polyline([[ego.x, ego.y], [ego.x + 3.0, ego.y]]))


speeds = st.one_of(st.sampled_from([0.0, 13.89, 25.0]), st.floats(0.0, 30.0))
assessed_rows = st.lists(st.tuples(
    st.integers(0, 2),
    st.builds(SpeedProfile, speeds,
              st.one_of(st.sampled_from([0.0, 0.9, -2.0, -6.0]), st.floats(-6.0, 4.0)),
              st.one_of(st.sampled_from([math.inf, 13.89, 3.0]), speeds)),
    st.sampled_from([0.0, 0.1, 1.3, 4.0, 5.0])), min_size=1, max_size=8)
picks = st.integers(0, 63)   # indices into the rows, or into the oracle's values


@settings(max_examples=150)
@given(assessed_rows, st.lists(picks, min_size=1, max_size=8),
       st.one_of(st.none(), st.tuples(picks, picks)),
       st.one_of(st.none(), st.lists(st.one_of(picks, st.floats(0.0, 1.0)),
                                     min_size=len(RESOURCES), max_size=len(RESOURCES))),
       st.one_of(st.none(), st.tuples(picks, picks, picks, picks)))
# 1- and 2-sample rows next to full ones; rest, braking to rest, a speed-clipped
# ramp and a row off the 3 m line; both thresholds at values in play, with and
# without held values; rows whose largest |a_lon| and |a_lat| are exactly the
# comfort limit and exactly the maximum
@example([(0, SpeedProfile(0.0, 0.0), 0.0), (0, SpeedProfile(13.89, 0.0), 0.1),
          (0, SpeedProfile(5.0, -6.0), 4.0), (1, SpeedProfile(12.0, 4.0, 13.89), 5.0),
          (2, SpeedProfile(25.0, 0.0), 4.0), (0, SpeedProfile(13.89, 0.9, 13.89), 4.0)],
         [5, 4, 3, 2, 1, 0], (1, 7), None, (1, 2, 1, 2))
@example([(0, SpeedProfile(0.0, 0.0), 0.0), (0, SpeedProfile(13.89, 0.0), 0.1),
          (0, SpeedProfile(5.0, -6.0), 4.0), (1, SpeedProfile(12.0, 4.0, 13.89), 5.0)],
         [0, 1, 2, 3], (2, 11), list(range(len(RESOURCES))), None)
@example([(0, SpeedProfile(12.0, 0.9, 13.89), 4.0), (1, SpeedProfile(13.0, -0.9), 5.0),
          (0, SpeedProfile(10.0, -2.0), 4.0), (1, SpeedProfile(8.0, 4.0), 5.0)],
         [0, 1, 2, 3], None, None, (0, 1, 1, 2))
# rows 1 to 3 of five, read in place, and three of them out of order, copied;
# the longest row, which sets the padding, is not among them
@example([(1, SpeedProfile(13.89, 0.0), 5.0), (0, SpeedProfile(12.0, 4.0, 13.89), 4.0),
          (2, SpeedProfile(5.0, -6.0), 4.0), (0, SpeedProfile(13.89, 0.0), 0.1),
          (0, SpeedProfile(0.0, 0.0), 0.0)], [1, 2, 3], None, None, None)
@example([(1, SpeedProfile(13.89, 0.0), 5.0), (0, SpeedProfile(12.0, 4.0, 13.89), 4.0),
          (2, SpeedProfile(5.0, -6.0), 4.0), (0, SpeedProfile(13.89, 0.0), 0.1),
          (0, SpeedProfile(0.0, 0.0), 0.0)], [3, 1, 4], None, None, None)
def test_assess_candidates_equals_the_per_candidate_oracle_bitwise(rows, idx, thresholds, held,
                                                                  limits):
    ctx, paths = busy_context()
    block = sample_trajectory([(paths[k], profile, h) for k, profile, h in rows], ctx.config.dt)
    picked = list(dict.fromkeys(i % len(rows) for i in idx))
    trajectories = [block[r] for r in picked]
    if limits is not None:   # each axis's comfort limit and maximum at rows' largest |a|
        axes = {}
        for axis, picks_of in (("lon", limits[:2]), ("lat", limits[2:])):
            worst = sorted({float(np.abs(getattr(traj, f"a_{axis}")).max())
                            for traj in trajectories})
            comfort, most = sorted(worst[i % len(worst)] for i in picks_of)
            axes[f"a_{axis}_comfort"] = comfort
            axes[f"a_{axis}_max"] = most if most > comfort else comfort + 1.0
        ctx = dataclasses.replace(ctx, config=ctx.config.replace(**axes))
    values = sorted({v for mu, _ in assess_oracle(ctx, trajectories) for v in mu.values()})
    if thresholds is not None:   # both exactly at values in play
        lo, hi = sorted(values[i % len(values)] for i in thresholds)
        ctx = dataclasses.replace(ctx, config=ctx.config.replace(theta_loss=lo, theta_acquired=hi))
    if held is not None:
        held = np.array([values[v % len(values)] if isinstance(v, int) else v for v in held])
    got, codes = assess_candidates(ctx, block, picked, held)
    want = assess_oracle(ctx, trajectories, held)
    assert got.shape == codes.shape == (len(picked), len(RESOURCES)) and len(want) == len(picked)
    for row, row_codes, (mu, states) in zip(got.tolist(), codes.tolist(), want):
        assert [v.hex() for v in row] == [mu[res].hex() for res in RESOURCES]
        assert [STATES[k] for k in row_codes] == [states[res] for res in RESOURCES]
