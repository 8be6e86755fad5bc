"""Profit maximization over feasible candidates, with lane-change commitment.

`plan_tick` is pure: snapshot in, ranked decision out. `CorMpPlanner` wraps it
with the small amount of state the closed loop needs: the previous maneuver
(tie-break preference), the previous chosen resource values (state upgrades),
and an in-progress lane change (`LaneChangeCommitment`, shared with the MOBIL
baseline), which is committed until it completes unless its safety resource
collapses, in which case the planner aborts into a deceleration along the
remaining path, sampled like every other trajectory.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bezier import SpeedProfile, TimedTrajectory, sample_trajectory, tick_times
from .config import PlannerConfig
from .identification import (
    LANE_CHANGES,
    CandidateBlock,
    Maneuver,
    PlanContext,
    PredictionBlock,
    enumerate_candidates,
    feasibility_filter,
    interacting_agents,
    predict_oru,
)
from .resources import RESOURCES, assess_candidates, profile_weights, safety_value
from .scenario import Polyline, Scenario

# deterministic preference order when profits tie and the previous maneuver
# is not among the tied set
TIE_ORDER = (
    Maneuver.KEEP_LANE_SAME_SPEED,
    Maneuver.KEEP_LANE_ACCELERATE,
    Maneuver.KEEP_LANE_DECELERATE,
    Maneuver.CHANGE_LANE_LEFT,
    Maneuver.CHANGE_LANE_RIGHT,
    Maneuver.STOP,
)


@dataclass
class Decision:
    t: float
    maneuver: Maneuver
    trajectory: TimedTrajectory
    candidates: list                  # all six ManeuverCandidates
    broken: np.ndarray                # (6, len(RULES)) rule matrix of the candidates
    min_ttc: np.ndarray               # (6,) their footprint TTC
    values: np.ndarray                # (F, 6) resource values of the feasible ones, in order
    states: np.ndarray                # (F, 6) codes into `resources.STATES`
    chosen: int                       # the maneuver's row of `values` and `states`
    profits: dict                     # Maneuver -> float (feasible only)
    tie_break_applied: bool = False

    @property
    def fallback(self) -> bool:
        """Whether Stop was retained as the fallback: a feasible candidate breaks a rule."""
        return bool(self.broken[[c.feasible for c in self.candidates]].any())


def decide(profits: dict, previous: Maneuver | None, tie_eps: float) -> tuple[Maneuver, bool]:
    """Argmax profit over the feasible set, the keys of `profits`, with the
    documented tie-break."""
    if not profits:
        raise ValueError("decide() needs at least one feasible candidate")
    best = max(profits.values())
    tied = [m for m, v in profits.items() if abs(v - best) < tie_eps]
    if len(tied) == 1:
        return tied[0], False
    if previous is not None and previous in tied:
        return previous, True
    for m in TIE_ORDER:
        if m in tied:
            return m, True
    return tied[0], True  # unreachable: TIE_ORDER covers the enum


def plan_tick(ctx: PlanContext, previous: Maneuver | None = None,
              current_values: np.ndarray | None = None,
              weights: dict | None = None) -> Decision:
    """One full planning pass: enumerate, filter, assess, maximize profit."""
    if weights is None:
        weights = profile_weights(ctx.scenario.profile)
    block, candidates = enumerate_candidates(ctx)
    broken, min_ttc = feasibility_filter(ctx, block, candidates)
    feasible = [c for c in candidates if c.feasible]
    values, states = assess_candidates(ctx, block, [c.row for c in feasible], current_values)
    total = 0.0
    for k, res in enumerate(RESOURCES):   # the weighted sum, in `RESOURCES` order
        total = total + weights[res] * values[:, k]
    maneuvers = [c.maneuver for c in feasible]
    profits = dict(zip(maneuvers, total.tolist()))
    maneuver, tie_break = decide(profits, previous, ctx.config.tie_epsilon)
    row = maneuvers.index(maneuver)
    return Decision(
        t=ctx.sim_time,
        maneuver=maneuver,
        trajectory=block[feasible[row].row],
        candidates=candidates,
        broken=broken,
        min_ttc=min_ttc,
        values=values,
        states=states,
        chosen=row,
        profits=profits,
        tie_break_applied=tie_break,
    )


def decelerate_along(traj: TimedTrajectory, decel: float, dt: float,
                     horizon: float) -> TimedTrajectory:
    """Re-profile a trajectory's path with a constant deceleration to rest.

    Positions stay on the polyline through the trajectory's samples; only the
    speed schedule changes. Used for lane-change aborts, where steering back
    would be a second lateral maneuver but slowing down along the committed
    geometry is always available. A trajectory that does not move (a lane
    change begun at standstill) gives a resting one on the `tick_times`
    grid that every sampled trajectory uses; if the path runs out
    before the vehicle stops, the result ends there.
    """
    xy = np.column_stack([traj.x, traj.y])
    moved = np.concatenate([[True], np.any(np.diff(xy, axis=0) != 0.0, axis=1)])
    if np.count_nonzero(moved) < 2:
        return TimedTrajectory.stationary(float(traj.x[0]), float(traj.y[0]),
                                          float(traj.heading[0]), dt,
                                          len(tick_times(dt, horizon)))
    stopping, = sample_trajectory(
        [(Polyline(xy[moved]), SpeedProfile(float(traj.speed[0]), -decel), horizon)], dt)
    return stopping


def plan_context(scenario: Scenario, config: PlannerConfig, sim_time: float) -> PlanContext:
    """Snapshot for one plan call, with the interacting agents' predictions stacked."""
    ego = scenario.ego
    agents = interacting_agents(scenario, ego, config)
    block = PredictionBlock(agents, [predict_oru(a, scenario, config) for a in agents],
                            config.horizon_steps + 1)
    return PlanContext(scenario=scenario, config=config, ego=ego, sim_time=sim_time,
                       predictions=block)


class LaneChangeCommitment:
    """A chosen lane change, replayed from its start time until it completes."""

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.trajectory: TimedTrajectory | None = None
        self.maneuver: Maneuver | None = None
        self.start_time = 0.0

    def start(self, trajectory: TimedTrajectory, maneuver: Maneuver, sim_time: float) -> None:
        self.trajectory = trajectory
        self.maneuver = maneuver
        self.start_time = sim_time

    def remaining(self, sim_time: float, dt: float) -> TimedTrajectory | None:
        """The rest of the committed trajectory; None (and cleared) once it has run out."""
        if self.trajectory is None:
            return None
        idx = int(round((sim_time - self.start_time) / dt))
        if idx >= len(self.trajectory) - 1:
            self.clear()
            return None
        return self.trajectory.tail(idx)


@dataclass
class PlanResult:
    """What the simulator consumes each planning call."""

    trajectory: TimedTrajectory
    maneuver: Maneuver
    decision: Decision | None = None   # None while committed to a lane change
    committed: bool = False
    aborted: bool = False


class CorMpPlanner:
    """Stateful closed-loop wrapper around plan_tick."""

    name = "cor-mp"

    def __init__(self, config: PlannerConfig, profile: str) -> None:
        self.config = config
        self.weights = profile_weights(profile)
        self.profile = profile
        self.previous: Maneuver | None = None
        self.current_values: np.ndarray | None = None
        self.commitment = LaneChangeCommitment()

    def reset(self) -> None:
        self.previous = None
        self.current_values = None
        self.commitment.clear()

    def plan(self, scenario: Scenario, sim_time: float) -> PlanResult:
        cfg = self.config
        ctx = plan_context(scenario, cfg, sim_time)
        remaining = self.commitment.remaining(sim_time, cfg.dt)
        if remaining is not None:
            maneuver = self.commitment.maneuver
            mu_safety = safety_value(CandidateBlock([remaining]), ctx.predictions,
                                     ctx.ego.length, ctx.ego.width, cfg)[0]
            if mu_safety >= cfg.theta_loss:
                return PlanResult(remaining, maneuver, committed=True)
            self.commitment.clear()
            self.previous = Maneuver.KEEP_LANE_DECELERATE
            aborted = decelerate_along(remaining, cfg.stop_decel_default, cfg.dt,
                                       cfg.planning_horizon_s)
            return PlanResult(aborted, Maneuver.KEEP_LANE_DECELERATE, aborted=True)

        decision = plan_tick(ctx, self.previous, self.current_values, self.weights)
        self.previous = decision.maneuver
        self.current_values = decision.values[decision.chosen]
        if decision.maneuver in LANE_CHANGES:
            self.commitment.start(decision.trajectory, decision.maneuver, sim_time)
        return PlanResult(decision.trajectory, decision.maneuver, decision=decision)
