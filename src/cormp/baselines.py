"""Baseline planners: MOBIL lane changing over IDM, and a flat-utility argmax.

Both expose the same plan(scenario, sim_time) -> PlanResult protocol as the
primary planner so the simulator and CLI treat all three interchangeably.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .config import PlannerConfig
from .identification import Maneuver, enumerate_candidates, interacting_agents
from .planner import Commitment, CorMpPlanner, PlannerState, PlanResult, plan_context
from .resources import ResourceType
from .scenario import AgentState, Lane, Scenario


@dataclass(frozen=True)
class IdmParams:
    a_max: float = 1.5      # m/s^2 comfortable acceleration
    b_comf: float = 2.0     # m/s^2 comfortable braking
    headway_s: float = 1.5
    min_gap_m: float = 2.0
    delta: float = 4.0


@dataclass(frozen=True)
class MobilParams:
    politeness: float = 0.5
    b_safe: float = 4.0     # m/s^2 braking the new follower must not exceed
    accel_threshold: float = 0.1


def idm_accel(v: float, v_desired: float, gap: float | None,
              dv: float = 0.0, p: IdmParams = IdmParams()) -> float:
    """Intelligent Driver Model acceleration.

    gap is bumper-to-bumper distance to the lead (None when the lane is free),
    dv is the closing speed v_ego - v_lead.
    """
    v_desired = max(v_desired, 0.1)
    free = 1.0 - (max(v, 0.0) / v_desired) ** p.delta
    if gap is None:
        return p.a_max * free
    gap = max(gap, 0.1)
    s_star = p.min_gap_m + max(
        0.0, v * p.headway_s + v * dv / (2.0 * math.sqrt(p.a_max * p.b_comf)))
    return p.a_max * (free - (s_star / gap) ** 2)


def find_neighbors(agents: list, lane: Lane, s_ref: float,
                   ref_half_len: float, exclude: str):
    """Nearest lead and follower among `agents` on `lane` around arc position s_ref.

    Returns (lead_agent, lead_gap, follower_agent, follower_gap) with
    bumper-to-bumper gaps; missing neighbors come back as (None, None).
    """
    lead, lead_gap = None, None
    follower, follower_gap = None, None
    for agent in agents:
        if agent.id == exclude or agent.kind == "pedestrian":
            continue
        s, lateral = lane.centerline.project((agent.x, agent.y))
        if abs(lateral) > lane.width / 2.0:
            continue
        if s >= s_ref:
            gap = (s - s_ref) - ref_half_len - agent.length / 2.0
            if lead_gap is None or gap < lead_gap:
                lead, lead_gap = agent, gap
        else:
            gap = (s_ref - s) - ref_half_len - agent.length / 2.0
            if follower_gap is None or gap < follower_gap:
                follower, follower_gap = agent, gap
    return lead, lead_gap, follower, follower_gap


class MobilPlanner:
    """MOBIL gap-acceptance lane changes on top of IDM car following.

    Deliberately ignores traffic lights and crosswalks; it exists to contrast
    rule-aware resource planning against a classic interaction model. It
    sees the road users cor-mp sees: those within `interaction_radius_m` of
    the ego. Its `state` holds only a lane change in progress, whose row it
    samples afresh each call and does not check.
    """

    name = "mobil"

    def __init__(self, config: PlannerConfig, profile: str = "regular",
                 idm: IdmParams = IdmParams(), mobil: MobilParams = MobilParams()) -> None:
        self.config = config
        self.profile = profile
        self.idm = idm
        self.mobil = mobil
        self.state = PlannerState()

    def reset(self) -> None:
        self.state = PlannerState()

    def _change_gain(self, agents: list, ego: AgentState, target: Lane,
                     a_keep: float, relief: float) -> float | None:
        """MOBIL incentive for moving to `target`; None when unsafe.

        `a_keep` (the ego's acceleration on its own lane) and `relief` (the
        change in its old follower's) do not depend on the target lane.
        """
        s_tgt, _ = target.centerline.project((ego.x, ego.y))
        t_lead, t_lead_gap, t_fol, t_fol_gap = find_neighbors(
            agents, target, s_tgt, ego.length / 2.0, ego.id)
        if (t_lead_gap is not None and t_lead_gap <= 0.0) or \
           (t_fol_gap is not None and t_fol_gap <= 0.0):
            return None
        a_fol_new = a_fol_old = 0.0
        if t_fol is not None:
            a_fol_new = idm_accel(t_fol.speed, target.speed_limit, t_fol_gap,
                                  t_fol.speed - ego.speed, self.idm)
            s_fol, _ = target.centerline.project((t_fol.x, t_fol.y))
            f_lead, f_gap, _, _ = find_neighbors(
                agents, target, s_fol, t_fol.length / 2.0, t_fol.id)
            a_fol_old = idm_accel(t_fol.speed, target.speed_limit, f_gap,
                                  t_fol.speed - f_lead.speed if f_lead else 0.0, self.idm)
        if a_fol_new < -self.mobil.b_safe:
            return None
        a_ego_new = idm_accel(ego.speed, target.speed_limit, t_lead_gap,
                              ego.speed - t_lead.speed if t_lead else 0.0, self.idm)
        return (a_ego_new - a_keep) + self.mobil.politeness * ((a_fol_new - a_fol_old) + relief)

    def plan(self, scenario: Scenario, sim_time: float) -> PlanResult:
        cfg, commitment = self.config, self.state.commitment
        block = commitment and commitment.row(scenario, cfg, sim_time)
        if block is not None:
            return PlanResult(block[0], commitment.maneuver, committed=True)

        ego = scenario.ego
        others = interacting_agents(scenario, ego, cfg)
        agents = [ego, *others]
        lane = scenario.lanes[ego.lane]
        line = lane.centerline
        s, _ = line.project((ego.x, ego.y))
        lead, gap, fol, fol_gap = find_neighbors(agents, lane, s, ego.length / 2.0, ego.id)
        a_keep = idm_accel(ego.speed, lane.speed_limit, gap,
                           ego.speed - lead.speed if lead else 0.0, self.idm)
        # the follower the ego leaves behind then follows the ego's lead
        relief = 0.0
        if fol is not None:
            gap_after = None
            if lead is not None:
                s_fol, s_lead = line.project((fol.x, fol.y))[0], line.project((lead.x, lead.y))[0]
                gap_after = (s_lead - s_fol) - fol.length / 2.0 - lead.length / 2.0
            relief = (idm_accel(fol.speed, lane.speed_limit, gap_after,
                                fol.speed - lead.speed if lead else 0.0, self.idm)
                      - idm_accel(fol.speed, lane.speed_limit, fol_gap,
                                  fol.speed - ego.speed, self.idm))

        best_change, best_gain = None, self.mobil.accel_threshold
        for maneuver, neighbor_id, boundary in (
            (Maneuver.CHANGE_LANE_LEFT, lane.left_neighbor, lane.left_boundary),
            (Maneuver.CHANGE_LANE_RIGHT, lane.right_neighbor, lane.right_boundary),
        ):
            if neighbor_id is None or boundary == "solid":
                continue
            gain = self._change_gain(agents, ego, scenario.lanes[neighbor_id], a_keep, relief)
            if gain is not None and gain > best_gain:
                best_change, best_gain = maneuver, gain

        ctx = plan_context(scenario, cfg, sim_time, others)
        if best_change is not None:
            block, (cand,) = enumerate_candidates(ctx, (best_change,), {})
            if cand.row is not None:
                self.state = PlannerState(commitment=Commitment(
                    best_change, cand.target_lane, sim_time + cfg.lane_change_duration_s, cand.join))
                return PlanResult(block[cand.row], best_change)

        self.state = PlannerState()
        accel = min(max(a_keep, -cfg.a_lon_max), cfg.accel_keep_lane)
        if accel > 0.05:
            maneuver = Maneuver.KEEP_LANE_ACCELERATE
        elif accel < -0.05:
            maneuver = Maneuver.KEEP_LANE_DECELERATE
        else:
            maneuver = Maneuver.KEEP_LANE_SAME_SPEED
        block, (cand,) = enumerate_candidates(ctx, (), {maneuver: accel})
        return PlanResult(block[cand.row], maneuver)


class UtilityPlanner(CorMpPlanner):
    """Equal-weight utility over safety, target lane, progress, and comfort.

    Shares the candidate generation, feasibility filter, tie break,
    commitment logic and `PlannerState` of the primary planner; only the
    scoring differs.
    """

    name = "utility"

    UTILITY_WEIGHTS = {
        ResourceType.SAFETY: 0.25,
        ResourceType.COMFORT: 0.25,
        ResourceType.OBJECTIVE: 0.25,
        ResourceType.APRIORI_LANE: 0.25,
        ResourceType.ENERGY: 0.0,
        ResourceType.CROWDEDNESS: 0.0,
    }

    def __init__(self, config: PlannerConfig, profile: str = "regular") -> None:
        super().__init__(config, profile)
        self.weights = dict(self.UTILITY_WEIGHTS)


PLANNERS = {"cor-mp": CorMpPlanner, "mobil": MobilPlanner, "utility": UtilityPlanner}


def make_planner(name: str, config: PlannerConfig, profile: str):
    """The planner `name` names in `PLANNERS`."""
    if name not in PLANNERS:
        raise ValueError(f"unknown planner '{name}' (expected one of {', '.join(PLANNERS)})")
    return PLANNERS[name](config, profile)
