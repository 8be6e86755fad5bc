import json
import math

import numpy as np
import pytest

from conftest import SCENARIO_DIR, load, timed_run
from cormp.baselines import MobilPlanner
from cormp.config import PlannerConfig
from cormp.identification import LANE_CHANGES, Maneuver, PlanContext, enumerate_candidates
from cormp.kernels import pose_gaps
from cormp.planner import (
    TIE_ORDER,
    Commitment,
    CorMpPlanner,
    PlannerState,
    decide,
    plan_context,
    plan_tick,
)
from cormp.resources import RESOURCES, STATES, ResourceState, profile_weights, safety_value
from cormp.scenario import load_scenario
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


# ---------------------------------------------------------------- closed loop


def two_lane_scenario(others=(), ego=None, **extra):
    """The ego at 8 m/s at x = 0 on the right lane of a straight two-lane
    road, its left lane bounded by a solid line; `ego` overrides its keys and
    `extra` adds document keys."""
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
             "speed": 8.0, "length": 4.5, "width": 1.8, "lane": "right", **(ego or {})},
        ] + list(others),
        **extra,
    }
    return load_scenario(doc)


# a left change committed at t = 0 from the ego of `two_lane_scenario`: it
# blends over the 40 m the ego covers at 8 m/s in 5 s
LEFT = Commitment(Maneuver.CHANGE_LANE_LEFT, "left", 5.0, 40.0)


def committed(planner):
    """`planner` holding `LEFT`."""
    planner.state = PlannerState(commitment=LEFT)
    return planner


def test_a_committed_change_is_the_plans_own_row_sampled_afresh():
    planner = committed(CorMpPlanner(PlannerConfig(), "regular"))
    result = planner.plan(two_lane_scenario(), 1.0)
    assert result.committed
    assert not result.aborted
    assert result.maneuver is Maneuver.CHANGE_LANE_LEFT
    assert result.decision is None
    assert planner.state.commitment is LEFT
    # from the ego's pose, not from where a stored trajectory would be at 1 s,
    # and bitwise the left change a plan from that pose samples
    traj = result.trajectory
    assert (traj.x[0], traj.y[0], traj.t[0]) == (0.0, 0.0, 0.0)
    assert len(traj) == 51
    assert (traj.y[-1], traj.heading[-1]) == pytest.approx((3.5, 0.0), abs=1e-12)
    ctx = plan_context(two_lane_scenario(), PlannerConfig(), 1.0)
    block, (cand, *_) = enumerate_candidates(ctx)
    assert (cand.maneuver, cand.target_lane, cand.join) == (LEFT.maneuver, "left", 40.0)
    row = block[cand.row]
    for name in ("t", "x", "y", "heading", "speed", "a_lon", "a_lat"):
        assert np.array_equal(getattr(traj, name), getattr(row, name)), name


def test_a_commitment_expires_after_the_lane_change_duration():
    sc, cfg = two_lane_scenario(), PlannerConfig()
    assert LEFT.row(sc, cfg, 4.9) is not None
    assert LEFT.row(sc, cfg, 4.96) is None   # within half a tick of the expiry
    assert LEFT.row(sc, cfg, 5.0) is None
    planner = committed(CorMpPlanner(cfg, "regular"))
    result = planner.plan(sc, 5.0)
    assert not result.committed and not result.aborted
    assert result.decision is not None
    assert planner.state.commitment is None or result.maneuver in LANE_CHANGES


def parked(x: float, y: float) -> dict:
    return {"id": "parked", "kind": "obstacle", "position": [x, y], "heading": 0.0,
            "speed": 0.0, "length": 4.5, "width": 1.8}


def test_commitment_aborts_on_a_sudden_blocker():
    # the committed row runs into the obstacle, so the call drops the
    # commitment and plans afresh from the ego's pose: its result is that
    # plan's decision, and the state is set from it as from any other decision
    planner = committed(CorMpPlanner(PlannerConfig(), "regular"))
    sc = two_lane_scenario([parked(12.6, 1.4)])
    result = planner.plan(sc, 1.0)
    assert result.aborted and not result.committed
    decision = result.decision
    assert decision is not None and result.maneuver is decision.maneuver
    assert result.trajectory is decision.trajectory
    fresh = plan_tick(plan_context(sc, PlannerConfig(), 1.0))
    assert decision.maneuver is fresh.maneuver
    assert np.array_equal(decision.trajectory.x, fresh.trajectory.x)
    assert (result.trajectory.x[0], result.trajectory.y[0]) == (0.0, 0.0)
    assert planner.state.previous is decision.maneuver
    assert np.array_equal(planner.state.current_values, decision.values[decision.chosen])
    assert (planner.state.commitment is not None) == (decision.maneuver in LANE_CHANGES)


@pytest.mark.parametrize("x, y", [(16.0, 1.6), (20.0, 2.0)])
def test_an_aborted_change_keeps_clear_of_the_obstacle_that_aborted_it(x, y):
    # the committed row runs into both, a fresh plan does not
    planner = committed(CorMpPlanner(PlannerConfig(), "regular"))
    result = planner.plan(two_lane_scenario([parked(x, y)]), 1.0)
    assert result.aborted and result.decision is not None
    traj = result.trajectory
    gaps = pose_gaps(traj.x, traj.y, traj.heading, 2.25, 0.9, x, y, 0.0, 2.25, 0.9)
    assert np.all(gaps > 0.0)


def test_a_committed_row_that_breaks_a_rule_aborts_though_it_is_safe():
    # a red light 30 m ahead on the target lane, which the row crosses at
    # 8 m/s: no road user is near, so only the rule columns can see it
    sc = two_lane_scenario(lights=[{"lane": "left", "stop_line_s": 30.0,
                                    "schedule": [["red", 1000.0]]}])
    ctx = plan_context(sc, PlannerConfig(), 1.0)
    block = LEFT.row(sc, PlannerConfig(), 1.0)
    assert safety_value(block, ctx.predictions, 4.5, 1.8, PlannerConfig())[0] == 1.0
    planner = committed(CorMpPlanner(PlannerConfig(), "regular"))
    result = planner.plan(sc, 1.0)
    assert result.aborted and not result.committed
    assert result.maneuver is not Maneuver.CHANGE_LANE_LEFT


def test_mobil_samples_the_same_committed_row_unchecked():
    sc = two_lane_scenario([parked(12.6, 1.4)])
    planner = committed(MobilPlanner(PlannerConfig(), "regular"))
    result = planner.plan(sc, 1.0)
    assert result.committed and result.decision is None
    assert np.array_equal(result.trajectory.y, LEFT.row(sc, PlannerConfig(), 1.0)[0].y)
    planner.reset()
    assert planner.state.commitment is None


def test_mobil_expiry_and_reset_both_give_the_empty_state():
    # a 20 m/s lead 30 m ahead on the ego's lane, so MOBIL starts no change
    lead = {"id": "lead", "kind": "vehicle", "position": [30.0, 0.0], "heading": 0.0,
            "speed": 20.0, "length": 4.5, "width": 1.8, "lane": "right"}
    planner = committed(MobilPlanner(PlannerConfig(), "regular"))
    result = planner.plan(two_lane_scenario([lead]), 5.0)
    assert not result.committed and result.maneuver not in LANE_CHANGES
    assert planner.state == PlannerState()
    committed(planner).reset()
    assert planner.state == PlannerState()


def test_reset_clears_history():
    planner = CorMpPlanner(PlannerConfig(), "regular")
    planner.state = PlannerState(Maneuver.STOP, np.ones(len(RESOURCES)), LEFT)
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
    # a committed row reads the state and keeps it
    committed(planner)
    read = planner.state
    assert planner.plan(two_lane_scenario(), 1.0).committed
    assert planner.state is read


def test_a_call_past_the_commitment_end_decides_afresh():
    planner = committed(CorMpPlanner(PlannerConfig(), "regular"))
    sc = two_lane_scenario()
    assert LEFT.row(sc, PlannerConfig(), 5.0) is None
    assert planner.state.commitment is LEFT   # pure: nothing is cleared
    result = planner.plan(sc, 6.0)
    assert result.decision is not None and not result.committed
    assert planner.state.previous is result.maneuver
    assert planner.state.commitment is None


def test_a_change_into_a_lane_with_a_solid_far_line_stays_committed_once_in_it():
    # the left lane's left line is solid; once the ego is on the left lane, the
    # left change's line is the one it crossed at commit, not that one
    sc = two_lane_scenario(ego={"position": [20.0, 2.0], "lane": "left"})
    planner = committed(CorMpPlanner(PlannerConfig(), "regular"))
    result = planner.plan(sc, 2.5)
    assert result.committed and not result.aborted
    assert planner.state.commitment is LEFT


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


GRID = [(ahead, delay) for ahead in (40.0, 50.0, 60.0) for delay in (0.5, 1.0, 1.5, 2.0)]


def collisions_and_violations(log) -> list:
    return [(tick.t, tick.events) for tick in log.ticks
            if "collision" in tick.events or "rule_violation" in tick.events]


@pytest.mark.parametrize("ahead, delay", GRID)
def test_a_pedestrian_who_starts_crossing_during_a_committed_change_is_not_hit(ahead, delay):
    # README's promise, zero collisions and zero rule violations, on the
    # planted crossing d m ahead of the commit, the walker starting after it:
    # each committed row is judged by every rule and TTC, so a walker who
    # steps out aborts the change
    assert collisions_and_violations(cor_mp_drive(planted_crossing(ahead, delay)[0])) == []


MOBIL_HITS = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "MOBIL's car following skips pedestrians: its change ends at 5.0 s, and it keeps "
    "13.89 m/s into the walker at 8.3 s on an uncommitted tick"))


@pytest.mark.parametrize("ahead, delay", [
    pytest.param(*case, marks=MOBIL_HITS) if case == (60.0, 0.5) else case for case in GRID])
def test_mobil_on_the_planted_crossing_grid(ahead, delay):
    sc = planted_crossing(ahead, delay)[0]
    cfg = PlannerConfig()
    assert collisions_and_violations(run(sc, MobilPlanner(cfg, sc.profile), cfg)) == []


def test_a_committed_change_aborts_for_a_pedestrian_who_starts_crossing_after_it():
    # the change starts at the commit tick and aborts 1.5 s later, as the
    # walker steps out, into a decision of its own
    sc, start = planted_crossing(50.0, 1.0)
    log = cor_mp_drive(sc)
    events = [(e.t, e.type) for e in log.events
              if e.type in ("lane_change_started", "lane_change_aborted")]
    assert events[:2] == [(start, "lane_change_started"),
                          (pytest.approx(start + 1.5), "lane_change_aborted")]
    commit, abort = (next(tick for tick in log.ticks if tick.t == pytest.approx(t))
                     for t, _ in events[:2])
    assert commit.committed == 0 and abort.committed == 0
    assert abort.decision not in (None, commit.decision)
    assert log.decisions[abort.decision] != log.decisions[commit.decision]


class Recording:
    """`planner`, recording each call after the warm-up as (time, ego pose, result)."""

    def __init__(self, planner) -> None:
        self.inner, self.name, self.profile = planner, planner.name, planner.profile
        self.calls = []

    def reset(self) -> None:
        self.inner.reset()
        self.calls = []

    def plan(self, scenario, sim_time):
        ego = scenario.ego
        result = self.inner.plan(scenario, sim_time)
        self.calls.append((sim_time, (ego.x, ego.y, ego.heading), result))
        return result


def recorded_drive(name: str, cfg: PlannerConfig, planner=CorMpPlanner,
                   profile: str | None = None) -> list:
    sc = load(name)
    recording = Recording(planner(cfg, profile or sc.profile))
    run(sc, recording, cfg)
    return recording.calls


@pytest.mark.parametrize("name, changes", [("overtake_static", 2), ("two_lane_slow_lead", 2)])
def test_a_committed_row_is_the_commit_time_path_from_the_ego_pose(name, changes):
    # each committed call samples the change afresh from where the ego is; up
    # to rounding, its row is the commit's trajectory from that time on, over
    # the samples the ego drives before the next call, and it reaches the
    # full lane-change horizon
    cfg = PlannerConfig()
    commits = 0
    for t, (x, y, heading), result in recorded_drive(name, cfg):
        traj = result.trajectory
        if not result.committed:
            start, trajectory = t, traj
            continue
        commits += 1
        assert result.decision is None and result.maneuver in LANE_CHANGES
        assert len(traj) == 51 == round(cfg.lane_change_horizon_s / cfg.dt) + 1
        assert (traj.x[0], traj.y[0], traj.heading[0]) == pytest.approx((x, y, heading),
                                                                         abs=1e-9)
        k, n = round((t - start) / cfg.dt), cfg.replan_steps + 1
        for field in ("x", "y", "heading"):
            assert np.allclose(getattr(traj, field)[:n], getattr(trajectory, field)[k:k + n],
                               rtol=0.0, atol=1e-9), field
    assert commits == 9 * changes   # every 0.5 s from 0.5 to 4.5 s after each commit


@pytest.mark.parametrize("planner, name, profile", [
    (CorMpPlanner, "overtake_static", "aggressive"), (MobilPlanner, "two_lane_slow_lead", None)])
def test_a_lane_change_shorter_than_the_horizon_expires_before_its_join(planner, name, profile):
    # at 3 s a lane change's row spans the 4 s planning horizon, but its
    # commitment expires after 3 s: no call re-samples it at or past its join
    cfg = PlannerConfig(lane_change_duration_s=3.0)
    calls = recorded_drive(name, cfg, planner, profile)
    elapsed = []
    for t, _, result in calls:
        if not result.committed:
            start = t
        else:
            elapsed.append(t - start)
        traj = result.trajectory
        rows = np.array([traj.t, traj.x, traj.y, traj.heading, traj.speed, traj.a_lon, traj.a_lat])
        assert np.isfinite(rows).all() and len(traj) == 41
    assert elapsed and max(elapsed) == pytest.approx(2.5)
