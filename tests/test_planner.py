import json
import math

import numpy as np
import pytest

from conftest import SCENARIO_DIR, load, timed_run
from cormp.baselines import MobilPlanner
from cormp.bezier import LanePath, SpeedProfile, TimedTrajectory, sample_trajectory
from cormp.config import PlannerConfig
from cormp.identification import (
    Maneuver,
    PlanContext,
)
from cormp.planner import (
    TIE_ORDER,
    Commitment,
    CorMpPlanner,
    PlannerState,
    decelerate_along,
    decide,
    plan_context,
    plan_tick,
)
from cormp.resources import RESOURCES, STATES, ResourceState, profile_weights
from cormp.scenario import Polyline, load_scenario
from cormp.simulator import run


REGULAR = profile_weights("regular")


# ---------------------------------------------------------------- profit


def test_profit_bounds(weigh):
    profits = weigh([np.ones(6), np.zeros(6)], REGULAR).profits
    assert profits[Maneuver.CHANGE_LANE_LEFT] == pytest.approx(1.0, abs=1e-12)
    assert profits[Maneuver.CHANGE_LANE_RIGHT] == 0.0


def test_profit_single_resource_is_its_weight(weigh):
    # safety alone, the first of `RESOURCES`
    profits = weigh([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]], REGULAR).profits
    assert profits[Maneuver.CHANGE_LANE_LEFT] == pytest.approx(49.0 / 120.0, abs=1e-12)


def test_profit_matches_dot_product_oracle(weigh):
    rng = np.random.default_rng(47)
    for profile in ("regular", "aggressive", "fuel_efficient"):
        weights = profile_weights(profile)
        w_vec = np.array([weights[r] for r in RESOURCES])
        for _ in range(200):
            mu = rng.uniform(0.0, 1.0, 6)
            profit, = weigh([mu], weights).profits.values()
            assert abs(profit - float(w_vec @ mu)) < 1e-12


def test_choice_is_scale_invariant(weigh):
    # a common positive rescaling of every value row scales all profits
    # equally, so the winner cannot move (clamping is bypassed here by
    # feeding raw rows straight to the weighting)
    rng = np.random.default_rng(53)
    maneuvers = list(Maneuver)
    for _ in range(100):
        raw = rng.uniform(0.0, 1.0, (len(maneuvers), 6))
        lam = float(rng.uniform(0.1, 10.0))
        base = weigh(raw, REGULAR).profits
        scaled = weigh(lam * raw, REGULAR).profits
        ranked = sorted(base, key=base.get)
        if base[ranked[-1]] - base[ranked[-2]] < 1e-9:
            continue  # genuine tie, handled by the tie-break tests
        assert max(base, key=base.get) == max(scaled, key=scaled.get)
        for m in maneuvers:
            assert scaled[m] == pytest.approx(lam * base[m], rel=1e-9)


# ---------------------------------------------------------------- decide


def test_decide_takes_the_argmax():
    profits = {Maneuver.CHANGE_LANE_LEFT: 0.7, Maneuver.KEEP_LANE_SAME_SPEED: 0.6}
    maneuver, tie = decide(profits, None, 1e-9)
    assert maneuver is Maneuver.CHANGE_LANE_LEFT
    assert not tie


def test_decide_tie_prefers_the_previous_maneuver():
    profits = {Maneuver.KEEP_LANE_SAME_SPEED: 0.6,
               Maneuver.KEEP_LANE_DECELERATE: 0.6}
    maneuver, tie = decide(profits, Maneuver.KEEP_LANE_DECELERATE, 1e-9)
    assert maneuver is Maneuver.KEEP_LANE_DECELERATE
    assert tie


def test_decide_tie_without_history_uses_fixed_order():
    profits = {m: 0.5 for m in (Maneuver.KEEP_LANE_DECELERATE,
                                Maneuver.KEEP_LANE_SAME_SPEED)}
    maneuver, tie = decide(profits, None, 1e-9)
    assert maneuver is Maneuver.KEEP_LANE_SAME_SPEED  # calmest option first
    assert tie
    assert TIE_ORDER[0] is Maneuver.KEEP_LANE_SAME_SPEED


def test_decide_with_only_a_fallback():
    profits = {Maneuver.STOP: 0.1}
    maneuver, _ = decide(profits, None, 1e-9)
    assert maneuver is Maneuver.STOP


def test_decide_requires_a_feasible_candidate():
    with pytest.raises(ValueError):
        decide({}, None, 1e-9)


# ---------------------------------------------------------------- plan_tick


def empty_road_context() -> PlanContext:
    return plan_context(load("empty_road"), PlannerConfig(), 0.0)


def test_empty_road_below_limit_accelerates():
    decision = plan_tick(empty_road_context())
    assert decision.maneuver is Maneuver.KEEP_LANE_ACCELERATE
    assert not decision.fallback
    assert decision.profits[Maneuver.KEEP_LANE_ACCELERATE] \
        > decision.profits[Maneuver.KEEP_LANE_SAME_SPEED]


def test_plan_tick_scores_only_feasible_candidates():
    ctx = empty_road_context()
    decision = plan_tick(ctx)
    feasible = [c.maneuver for c in decision.candidates if c.feasible]
    assert len(feasible) < len(decision.candidates)
    assert list(decision.profits) == feasible
    assert decision.values.shape == decision.states.shape == (len(feasible), len(RESOURCES))
    assert set(decision.states.flat) <= set(range(len(STATES)))
    weights = profile_weights(ctx.scenario.profile)
    for m, row in zip(feasible, decision.values.tolist()):
        total = 0.0   # the weighted sum in `RESOURCES` order, bitwise
        for res, mu in zip(RESOURCES, row):
            total += weights[res] * mu
        assert decision.profits[m] == total
    assert feasible[decision.chosen] is decision.maneuver


def test_held_values_turn_acquired_states_desired():
    planner = CorMpPlanner(PlannerConfig(), "regular")
    first = planner.plan(load("empty_road"), 0.0).decision
    assert np.array_equal(planner.state.current_values, first.values[first.chosen])
    fresh = plan_tick(empty_road_context())
    held = plan_tick(empty_road_context(), current_values=np.zeros(len(RESOURCES)))
    assert np.array_equal(fresh.values, held.values)
    kept = fresh.values >= PlannerConfig().theta_acquired
    assert kept.any()
    assert {STATES[k] for k in fresh.states[kept]} == {ResourceState.ACQUIRED}
    assert {STATES[k] for k in held.states[kept]} == {ResourceState.DESIRED}
    assert np.array_equal(fresh.states[~kept], held.states[~kept])


# ---------------------------------------------------------------- re-profile


def test_decelerate_along_tracks_the_original_path():
    n = 41
    t = np.arange(n) * 0.1
    traj = TimedTrajectory(0.1, t, 10.0 * t, np.zeros(n), np.zeros(n),
                           np.full(n, 10.0), np.zeros(n), np.zeros(n))
    slowed = decelerate_along(traj, 2.0, 0.1, 4.0)
    assert len(slowed) == n
    # v(t) = 10 - 2t, s(t) = 10t - t^2
    for k in (5, 10, 20, 40):
        tk = 0.1 * k
        assert slowed.speed[k] == pytest.approx(10.0 - 2.0 * tk, abs=1e-9)
        assert slowed.x[k] == pytest.approx(10.0 * tk - tk * tk, abs=1e-9)
    assert np.all(np.abs(slowed.y) < 1e-12)


def test_decelerate_along_reaches_rest_and_stays():
    n = 41
    t = np.arange(n) * 0.1
    traj = TimedTrajectory(0.1, t, 4.0 * t, np.zeros(n), np.zeros(n),
                           np.full(n, 4.0), np.zeros(n), np.zeros(n))
    slowed = decelerate_along(traj, 2.0, 0.1, 4.0)
    assert slowed.speed[-1] == 0.0
    stopped = slowed.t >= 2.0 + 1e-9
    assert np.allclose(slowed.x[stopped], 4.0, atol=1e-9)  # v^2 / 2a


# ---------------------------------------------------------------- closed loop


def straight_lc_trajectory(dt: float = 0.1) -> TimedTrajectory:
    n = 51
    t = np.arange(n) * dt
    return TimedTrajectory(dt, t, 8.0 * t, np.linspace(0.0, 3.5, n),
                           np.zeros(n), np.full(n, 8.0), np.zeros(n),
                           np.zeros(n))


def two_lane_scenario(others=()):
    doc = {
        "name": "lc", "duration_s": 20.0, "apriori_lane": "right",
        "lanes": [
            {"id": "right", "centerline": [[0.0, 0.0], [600.0, 0.0]],
             "width": 3.5, "speed_limit": 13.89, "left_neighbor": "left",
             "left_boundary": "dashed", "right_boundary": "solid"},
            {"id": "left", "centerline": [[0.0, 3.5], [600.0, 3.5]],
             "width": 3.5, "speed_limit": 13.89, "right_neighbor": "right",
             "left_boundary": "solid", "right_boundary": "dashed"},
        ],
        "agents": [
            {"id": "ego", "kind": "ego", "position": [0.0, 0.0], "heading": 0.0,
             "speed": 8.0, "length": 4.5, "width": 1.8, "lane": "right"},
        ] + list(others),
    }
    return load_scenario(doc)


def committed(planner, trajectory=None):
    """`planner` with a left change committed at t = 0 along `trajectory`
    (by default `straight_lc_trajectory`)."""
    trajectory = straight_lc_trajectory() if trajectory is None else trajectory
    planner.state = PlannerState(
        commitment=Commitment(trajectory, Maneuver.CHANGE_LANE_LEFT, 0.0))
    return planner


def test_commitment_replays_the_stored_trajectory():
    planner = committed(CorMpPlanner(PlannerConfig(), "regular"))
    result = planner.plan(two_lane_scenario(), 1.0)
    assert result.committed
    assert not result.aborted
    assert result.maneuver is Maneuver.CHANGE_LANE_LEFT
    assert result.decision is None
    assert result.trajectory.x[0] == pytest.approx(8.0)  # tail from t = 1.0


def test_commitment_expires_at_the_trajectory_end():
    planner = committed(CorMpPlanner(PlannerConfig(), "regular"))
    result = planner.plan(two_lane_scenario(), 5.0)
    assert not result.committed
    assert result.decision is not None
    assert planner.state.commitment is None or result.maneuver in (
        Maneuver.CHANGE_LANE_LEFT, Maneuver.CHANGE_LANE_RIGHT)


def test_commitment_aborts_on_a_sudden_blocker():
    planner = committed(CorMpPlanner(PlannerConfig(), "regular"))
    blocker = {"id": "intruder", "kind": "obstacle", "position": [12.6, 1.4],
               "heading": 0.0, "speed": 0.0, "length": 4.5, "width": 1.8}
    result = planner.plan(two_lane_scenario([blocker]), 1.0)
    assert result.aborted
    assert result.maneuver is Maneuver.KEEP_LANE_DECELERATE
    assert planner.state.commitment is None
    assert result.trajectory.speed[-1] < 8.0
    # braking follows the committed geometry rather than steering back
    assert result.trajectory.y[0] == pytest.approx(0.7, abs=1e-6)


def test_aborting_a_lane_change_begun_at_standstill_rests():
    # a lane change chosen at 0 m/s never moves, so its path has zero length
    standing = TimedTrajectory.stationary(0.0, 0.0, 0.0, 0.1, 51)
    planner = committed(CorMpPlanner(PlannerConfig(), "regular"), standing)
    blocker = {"id": "intruder", "kind": "obstacle", "position": [4.0, 0.0],
               "heading": 0.0, "speed": 0.0, "length": 4.5, "width": 1.8}
    result = planner.plan(two_lane_scenario([blocker]), 1.0)
    assert result.aborted
    assert len(result.trajectory) == 41
    assert np.all(result.trajectory.x == 0.0) and np.all(result.trajectory.speed == 0.0)


def test_standstill_abort_has_the_sampler_tick_count():
    # 4 s is no whole number of 0.15 s ticks; rounding it gave a 28th sample
    cfg = PlannerConfig(dt=0.15)
    standing = TimedTrajectory.stationary(0.0, 0.0, 0.0, cfg.dt, 27)
    rest = decelerate_along(standing, 2.0, cfg.dt, cfg.planning_horizon_s)
    moving, = sample_trajectory([(LanePath.along(Polyline([[0.0, 0.0], [100.0, 0.0]])),
                                  SpeedProfile(5.0, 0.0), cfg.planning_horizon_s)], cfg.dt)
    assert len(rest) == len(moving) == cfg.horizon_steps + 1 == 27
    assert np.all(rest.speed == 0.0)


def test_mobil_shares_the_commitment_replay():
    planner = committed(MobilPlanner(PlannerConfig(), "regular"))
    result = planner.plan(two_lane_scenario(), 1.0)
    assert result.committed
    assert result.trajectory.x[0] == pytest.approx(8.0)
    planner.reset()
    assert planner.state.commitment is None


def test_mobil_expiry_and_reset_both_give_the_empty_state():
    # a 20 m/s lead 30 m ahead on the ego's lane, so MOBIL starts no change
    lead = {"id": "lead", "kind": "vehicle", "position": [30.0, 0.0], "heading": 0.0,
            "speed": 20.0, "length": 4.5, "width": 1.8, "lane": "right"}
    planner = committed(MobilPlanner(PlannerConfig(), "regular"))
    result = planner.plan(two_lane_scenario([lead]), 5.0)
    assert not result.committed and result.maneuver not in (
        Maneuver.CHANGE_LANE_LEFT, Maneuver.CHANGE_LANE_RIGHT)
    assert planner.state == PlannerState()
    committed(planner).reset()
    assert planner.state == PlannerState()


def test_reset_clears_history():
    planner = CorMpPlanner(PlannerConfig(), "regular")
    planner.state = PlannerState(
        Maneuver.STOP, np.ones(len(RESOURCES)),
        Commitment(straight_lc_trajectory(), Maneuver.CHANGE_LANE_LEFT, 0.0))
    planner.reset()
    assert planner.state.previous is None
    assert planner.state.current_values is None
    assert planner.state.commitment is None


def test_a_plan_call_leaves_the_state_it_read_unchanged():
    planner = CorMpPlanner(PlannerConfig(), "regular")
    planner.plan(load("empty_road"), 0.0)
    read = planner.state
    values = read.current_values.copy()
    assert not read.current_values.flags.writeable
    planner.plan(two_lane_scenario(), 0.0)
    assert not np.array_equal(planner.state.current_values, values)
    assert read.previous is Maneuver.KEEP_LANE_ACCELERATE and read.commitment is None
    assert np.array_equal(read.current_values, values)
    # a committed replay reads the state and keeps it
    committed(planner)
    read = planner.state
    assert planner.plan(two_lane_scenario(), 1.0).committed
    assert planner.state is read


def test_a_replay_past_the_commitment_end_decides_afresh():
    planner = committed(CorMpPlanner(PlannerConfig(), "regular"))
    commitment = planner.state.commitment
    assert commitment.remaining(5.0, 0.1) is None
    assert commitment.remaining(5.0, 0.1) is None   # pure: nothing is cleared
    assert planner.state.commitment is commitment
    result = planner.plan(two_lane_scenario(), 6.0)
    assert result.decision is not None and not result.committed
    assert planner.state.previous is result.maneuver
    assert planner.state.commitment is None


def test_a_start_above_the_limit_brakes_instead_of_jumping_to_it():
    # the ego at 20 m/s on a one-lane 13.89 m/s road: every speed profile
    # holds or slows from 20 m/s, so only Stop (2 m/s^2 for 4 s) ends under
    # the limit, and the logged speed falls at that rate instead of snapping
    # to 13.89 m/s in one tick
    doc = {
        "name": "over_the_limit", "duration_s": 3.0, "apriori_lane": "main",
        "lanes": [{"id": "main", "centerline": [[0.0, 0.0], [600.0, 0.0]], "width": 3.5,
                   "speed_limit": 13.89, "left_boundary": "solid", "right_boundary": "solid"}],
        "agents": [{"id": "ego", "kind": "ego", "position": [0.0, 0.0], "heading": 0.0,
                    "speed": 20.0, "length": 4.5, "width": 1.8, "lane": "main"}],
    }
    cfg = PlannerConfig()
    sc = load_scenario(doc)
    decision = plan_tick(plan_context(sc, cfg, 0.0))
    assert [c.maneuver for c in decision.candidates if c.feasible] == [Maneuver.STOP]
    assert not decision.fallback
    log = run(sc, CorMpPlanner(cfg, sc.profile), cfg)
    speeds = np.array([row["ego_speed"] for row in log.rows])
    assert speeds[0] == 20.0 and speeds[-1] < 20.0
    assert np.all(np.abs(np.diff(speeds)) <= cfg.stop_decel_default * cfg.dt + 1e-9)
    assert log.rows[0]["ego_accel_lon"] == pytest.approx(-cfg.stop_decel_default)


# ------------------------------------------ a crossing during a committed change


def planted_crossing(ahead: float, delay: float) -> tuple:
    """(scenario, commit time) of `two_lane_slow_lead` with a 3 m crosswalk
    over both lanes starting `ahead` m past the ego's x at the tick cor-mp
    starts its first lane change, and a pedestrian 9 m left of the right
    centerline in the crosswalk's middle, who crosses 12 m at 1.4 m/s from
    `delay` s after that tick."""
    _, log, _ = timed_run("two_lane_slow_lead")
    start = next(e.t for e in log.events if e.type == "lane_change_started")
    x = next(tick.ego_x for tick in log.ticks if tick.t == start)
    with open(SCENARIO_DIR / "two_lane_slow_lead.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["crosswalks"] = [{"lanes": ["right", "left"], "span": [x + ahead, x + ahead + 3.0]}]
    doc["agents"].append({"id": "walker", "kind": "pedestrian", "position": [x + ahead + 1.5, 9.0],
                          "heading": -math.pi / 2.0, "speed": 0.0, "length": 0.5, "width": 0.5,
                          "behavior": {"type": "cross", "start_time": start + delay,
                                       "speed": 1.4, "distance": 12.0}})
    return load_scenario(doc), start


def cor_mp_drive(sc):
    cfg = PlannerConfig()
    return run(sc, CorMpPlanner(cfg, sc.profile), cfg)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: a committed lane change is replayed with only the "
                          "safety value, so a pedestrian who starts crossing after the commit is hit")
@pytest.mark.parametrize("ahead, delay", [(40.0, 0.5), (50.0, 0.5), (50.0, 1.5)])
def test_a_pedestrian_who_starts_crossing_during_a_committed_change_is_not_hit(ahead, delay):
    # as shipped, each hits the walker during the replay: at 8.5, 9.1 and 9.2 s
    log = cor_mp_drive(planted_crossing(ahead, delay)[0])
    assert [tick.t for tick in log.ticks if tick.committed and "collision" in tick.events] == []


def test_a_committed_change_aborts_for_a_pedestrian_who_starts_crossing_after_it():
    # the one planted case whose replay sees the walker in time: the change
    # starts at the commit tick, aborts 1.5 s later and the drive hits no one
    sc, start = planted_crossing(50.0, 1.0)
    events = [(e.t, e.type) for e in cor_mp_drive(sc).events
              if e.type in ("collision", "lane_change_started", "lane_change_aborted")]
    assert events[:2] == [(start, "lane_change_started"),
                          (pytest.approx(start + 1.5), "lane_change_aborted")]
    assert "collision" not in {kind for _, kind in events}
