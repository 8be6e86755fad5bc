"""Profit maximization over feasible candidates, with lane-change commitment.

`plan_tick` is pure: snapshot in, ranked decision out. `CorMpPlanner` wraps it
with the small amount of state the closed loop needs, held as one frozen
`PlannerState`: the previous maneuver (tie-break preference), the previous
chosen resource values (state upgrades), and an in-progress lane change (a
`Commitment`, shared with the MOBIL baseline). Until it expires, each call
samples it afresh from the ego's pose and judges that row as a plan judges its
rows; if it fails, the planner drops it and plans afresh, like any other call.
Each plan call reads the state and assigns the next one once; no call changes a state it read.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bezier import CandidateBlock, SpeedProfile, TimedTrajectory, sample_trajectory
from .config import PlannerConfig
from .identification import (
    LANE_CHANGES,
    Maneuver,
    ManeuverCandidate,
    PlanContext,
    PredictionBlock,
    enumerate_candidates,
    feasibility_filter,
    interacting_agents,
    lane_path,
    predict_oru,
)
from .resources import RESOURCES, assess_candidates, profile_weights, safety_value
from .scenario import Scenario

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
    ttc_agent: list                   # (6,) id of the road user setting each TTC, or None
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
    broken, min_ttc, ttc_agent = feasibility_filter(ctx, block, candidates)
    feasible = [c for c in candidates if c.feasible]
    values, states = assess_candidates(ctx, block, [c.row for c in feasible], current_values)
    weight = [weights[res] for res in RESOURCES]
    maneuvers = [c.maneuver for c in feasible]
    profits = {}
    for m, row in zip(maneuvers, values.tolist()):
        total = 0.0
        for w, v in zip(weight, row):   # the weighted sum, in `RESOURCES` order
            total += w * v
        profits[m] = total
    maneuver, tie_break = decide(profits, previous, ctx.config.tie_epsilon)
    row = maneuvers.index(maneuver)
    return Decision(
        t=ctx.sim_time,
        maneuver=maneuver,
        trajectory=block[feasible[row].row],
        candidates=candidates,
        broken=broken,
        min_ttc=min_ttc,
        ttc_agent=ttc_agent,
        values=values,
        states=states,
        chosen=row,
        profits=profits,
        tie_break_applied=tie_break,
    )


def plan_context(scenario: Scenario, config: PlannerConfig, sim_time: float,
                 agents: list | None = None) -> PlanContext:
    """Snapshot for one plan call, with the predictions of `agents` stacked: the
    interacting agents, which a caller that has them already passes in."""
    ego = scenario.ego
    if agents is None:
        agents = interacting_agents(scenario, ego, config)
    block = PredictionBlock(agents, [predict_oru(a, scenario, config) for a in agents],
                            config.horizon_steps + 1)
    return PlanContext(scenario=scenario, config=config, ego=ego, sim_time=sim_time,
                       predictions=block)


@dataclass(frozen=True)
class Commitment:
    """A chosen lane change onto lane `target`, whose path meets its centerline
    at arc position `join`, held until `expiry`: its start plus its duration."""

    maneuver: Maneuver
    target: str
    expiry: float
    join: float

    def row(self, scenario: Scenario, cfg: PlannerConfig, sim_time: float) -> CandidateBlock | None:
        """The change sampled afresh from the ego's pose at its speed over the lane-change
        horizon, as a one-row block; None from half a tick before `expiry` (so before the join)."""
        if sim_time + cfg.dt / 2.0 >= self.expiry:
            return None
        ego, lane = scenario.ego, scenario.lanes[self.target]
        s, d = lane.centerline.project((ego.x, ego.y))
        return sample_trajectory([(lane_path(lane, s, d, ego.heading, self.join - s),
                                   SpeedProfile(ego.speed), cfg.lane_change_horizon_s)], cfg.dt)


@dataclass(frozen=True)
class PlannerState:
    """What a closed-loop planner carries from one plan call to the next."""

    previous: Maneuver | None = None              # the last maneuver, for the tie-break
    current_values: np.ndarray | None = None      # (6,) read-only values it chose
    commitment: Commitment | None = None          # the lane change in progress


@dataclass
class PlanResult:
    """What the simulator consumes each planning call."""

    trajectory: TimedTrajectory
    maneuver: Maneuver
    decision: Decision | None = None   # None on a committed lane change's row
    committed: bool = False            # the row of a commitment that passed its check
    aborted: bool = False              # the decision replaced a commitment that failed it


class CorMpPlanner:
    """Closed-loop wrapper around plan_tick: each call reads `state`, a
    `PlannerState`, and replaces it with the next."""

    name = "cor-mp"

    def __init__(self, config: PlannerConfig, profile: str) -> None:
        self.config = config
        self.weights = profile_weights(profile)
        self.profile = profile
        self.state = PlannerState()

    def reset(self) -> None:
        self.state = PlannerState()

    def plan(self, scenario: Scenario, sim_time: float) -> PlanResult:
        cfg, state, commitment = self.config, self.state, self.state.commitment
        ctx = plan_context(scenario, cfg, sim_time)
        block = commitment and commitment.row(scenario, cfg, sim_time)
        if block is not None:
            cand = ManeuverCandidate(commitment.maneuver, commitment.target, 0)
            feasibility_filter(ctx, block, [cand])
            if cand.feasible and safety_value(block, ctx.predictions, ctx.ego.length,
                                              ctx.ego.width, cfg)[0] >= cfg.theta_loss:
                return PlanResult(block[0], commitment.maneuver, committed=True)

        decision = plan_tick(ctx, state.previous, state.current_values, self.weights)
        held = decision.values[decision.chosen].copy()
        held.flags.writeable = False
        c = next(c for c in decision.candidates if c.maneuver is decision.maneuver)
        commitment = Commitment(c.maneuver, c.target_lane, sim_time + cfg.lane_change_duration_s,
                                c.join) if decision.maneuver in LANE_CHANGES else None
        self.state = PlannerState(decision.maneuver, held, commitment)
        return PlanResult(decision.trajectory, decision.maneuver, decision=decision,
                          aborted=block is not None)
