"""Resource model: centroid weights, per-resource value functions, states.

Each candidate maneuver is scored on six resources, every value normalized to
[0, 1]. Profiles rank the resources and the ranks are converted to weights by
the rank-order centroid, so the profit of a candidate is a weighted sum the
planner can compare across maneuvers.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import PlannerConfig
from .identification import CandidateBlock, ManeuverCandidate, PlanContext, PredictionBlock


class ResourceType(Enum):
    SAFETY = "safety"
    COMFORT = "comfort"
    OBJECTIVE = "objective"
    APRIORI_LANE = "apriori_lane"
    ENERGY = "energy"
    CROWDEDNESS = "crowdedness"
    __hash__ = object.__hash__   # identity, as `==` is; Enum's own runs in Python


class ResourceState(Enum):
    DESIRED = "desired"
    ACQUIRED = "acquired"
    THREATENED = "threatened"
    LOSS = "loss"


RESOURCES = tuple(ResourceType)

# profile name -> resource ranking (1 = most important)
PROFILE_RANKINGS = {
    "regular": {
        ResourceType.SAFETY: 1,
        ResourceType.COMFORT: 2,
        ResourceType.OBJECTIVE: 3,
        ResourceType.APRIORI_LANE: 4,
        ResourceType.ENERGY: 5,
        ResourceType.CROWDEDNESS: 6,
    },
    "aggressive": {
        ResourceType.OBJECTIVE: 1,
        ResourceType.SAFETY: 2,
        ResourceType.COMFORT: 3,
        ResourceType.APRIORI_LANE: 4,
        ResourceType.ENERGY: 5,
        ResourceType.CROWDEDNESS: 6,
    },
    "fuel_efficient": {
        ResourceType.ENERGY: 1,
        ResourceType.SAFETY: 2,
        ResourceType.COMFORT: 3,
        ResourceType.APRIORI_LANE: 4,
        ResourceType.OBJECTIVE: 5,
        ResourceType.CROWDEDNESS: 6,
    },
}


def clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def rank_order_centroid(ranking: dict) -> dict:
    """Rank-order-centroid weights: w(k) = (1/n) * sum_{j=k..n} 1/j.

    `ranking` maps each resource to its rank 1..n (a permutation). Weights are
    strictly decreasing in rank and sum to 1.
    """
    n = len(ranking)
    ranks = sorted(ranking.values())
    if ranks != list(range(1, n + 1)):
        raise ValueError(f"ranking must be a permutation of 1..{n}, got {ranks}")
    return {
        res: sum(1.0 / j for j in range(rank, n + 1)) / n
        for res, rank in ranking.items()
    }


def profile_weights(profile: str) -> dict:
    """Resource -> rank-order-centroid weight under a driver profile."""
    if profile not in PROFILE_RANKINGS:
        raise ValueError(f"unknown profile {profile!r}")
    return rank_order_centroid(PROFILE_RANKINGS[profile])


def kinetic_energy_delta_kj(mass_kg: float, v_a: float, v_b: float) -> float:
    """Kinetic energy spent accelerating from v_a to v_b (kJ).

    Deceleration consumes nothing: the delta is zero unless v_b > v_a.
    """
    if v_b <= v_a:
        return 0.0
    dv = v_b - v_a
    return 0.5 * mass_kg * dv * dv / 1000.0


def safety_value(cands: CandidateBlock, block: PredictionBlock,
                 ego_length: float, ego_width: float, cfg: PlannerConfig) -> np.ndarray:
    """(C,) worst clearance ratio of each candidate to any interacting road user.

    Per sample, the object is expressed in the ego frame; the score is the
    better of the longitudinal bumper-gap ratio (required gap grows with ego
    speed) and the lateral center-distance ratio, clamped to [0, 1]. The
    resource value is the minimum over objects and the candidate's samples.
    """
    if len(block) == 0:
        return np.ones(len(cands))
    # samples past the rows' end take their last one
    idx = np.arange(cands.x.shape[1])
    dx = np.take(block.x, idx, axis=1, mode="clip") - cands.x[:, None, :]
    dy = np.take(block.y, idx, axis=1, mode="clip") - cands.y[:, None, :]
    cos_h = np.cos(cands.heading)[:, None, :]
    sin_h = np.sin(cands.heading)[:, None, :]
    lon = dx * cos_h + dy * sin_h
    lat = -dx * sin_h + dy * cos_h
    lon_gap = np.maximum(np.abs(lon) - (ego_length / 2.0 + block.half_length[:, None]), 0.0)
    req_lon = cands.speed[:, None, :] * cfg.t_headway_s + cfg.d_min_m
    req_lat = ego_width / 2.0 + block.half_width + cfg.lateral_clearance_m
    r = np.maximum(lon_gap / req_lon, np.abs(lat) / req_lat[:, None])   # >= 0
    r = np.where(cands.valid[:, None, :], r, np.inf)
    return np.minimum(r.min(axis=(1, 2)), 1.0)


def comfort_value(cand: ManeuverCandidate, cfg: PlannerConfig) -> float:
    """1 inside the comfort box, linear falloff to 0 at the axis maxima."""
    traj = cand.trajectory
    if len(traj) == 0:
        return 1.0

    def axis(acc: np.ndarray, comf: float, amax: float) -> float:
        worst = float(np.max(np.abs(acc)))
        if worst <= comf:
            return 1.0
        return clamp01((amax - worst) / (amax - comf))

    return min(axis(traj.a_lon, cfg.a_lon_comfort, cfg.a_lon_max),
               axis(traj.a_lat, cfg.a_lat_comfort, cfg.a_lat_max))


def objective_value(cand: ManeuverCandidate, speed_limit: float, horizon_s: float) -> float:
    """Distance covered relative to full-speed travel over the horizon."""
    return clamp01(cand.trajectory.path_length() / (speed_limit * horizon_s))


def apriori_lane_value(ends: np.ndarray, apriori_lane) -> np.ndarray:
    """(n,) per (n, 2) end point: 1 on the a-priori lane centerline, 0 two lane widths away."""
    _, lateral = apriori_lane.centerline.project(ends)
    return np.minimum(np.maximum(1.0 - np.abs(lateral) / (2.0 * apriori_lane.width), 0.0), 1.0)


def energy_value(v_begin: float, v_end: float, mass_kg: float, e_ref_kj: float) -> float:
    """1 minus the kinetic energy spent from v_begin to v_end, relative to e_ref_kj."""
    delta = kinetic_energy_delta_kj(mass_kg, v_begin, v_end)
    return 1.0 - clamp01(delta / e_ref_kj)


def crowdedness_value(cands: CandidateBlock, block: PredictionBlock,
                      ego_length: float, ego_width: float, cfg: PlannerConfig) -> np.ndarray:
    """(C,) 1 minus the (normalized) count of corridors crossing each candidate's."""
    if len(block) == 0:
        return np.ones(len(cands))
    count = np.count_nonzero(block.corridor_hits(cands, ego_length, ego_width, cfg), axis=1)
    return 1.0 - np.minimum(np.maximum(count / float(cfg.crowd_reference_count), 0.0), 1.0)


def classify_state(mu: float, cfg: PlannerConfig, mu_current: float | None = None) -> ResourceState:
    """State of a resource given its value (and the currently-held value)."""
    if mu < cfg.theta_loss:
        return ResourceState.LOSS
    if mu < cfg.theta_acquired:
        return ResourceState.THREATENED
    if mu_current is not None and mu_current < cfg.theta_acquired <= mu:
        return ResourceState.DESIRED
    return ResourceState.ACQUIRED


@dataclass
class ResourceAssessment:
    values: dict   # ResourceType -> float in [0, 1]
    states: dict   # ResourceType -> ResourceState


def assess_candidates(ctx: PlanContext, candidates: list, cands: CandidateBlock,
                      current_values: dict | None = None) -> list:
    """All six resources of each candidate.

    `cands` stacks the candidates' trajectories, row i for candidates[i];
    safety, crowdedness and the a-priori lane are one array call each.
    """
    cfg = ctx.config
    ego = ctx.ego
    apriori = ctx.scenario.lanes[ctx.scenario.apriori_lane]
    held = current_values or {}
    safety = safety_value(cands, ctx.predictions, ego.length, ego.width, cfg).tolist()
    crowdedness = crowdedness_value(cands, ctx.predictions, ego.length, ego.width, cfg).tolist()
    lane_hold = apriori_lane_value(cands.end_xy, apriori).tolist()
    out = []
    for cand, mu_safety, mu_crowdedness, mu_lane in zip(candidates, safety, crowdedness,
                                                        lane_hold):
        values = {
            ResourceType.SAFETY: mu_safety,
            ResourceType.COMFORT: comfort_value(cand, cfg),
            ResourceType.OBJECTIVE: objective_value(cand, ctx.lane.speed_limit,
                                                    cfg.planning_horizon_s),
            ResourceType.APRIORI_LANE: mu_lane,
            ResourceType.ENERGY: energy_value(ego.speed, cand.trajectory.end_speed, ego.mass,
                                              cfg.energy_reference_kj(ego.mass)),
            ResourceType.CROWDEDNESS: mu_crowdedness,
        }
        states = {res: classify_state(values[res], cfg, held.get(res)) for res in RESOURCES}
        out.append(ResourceAssessment(values=values, states=states))
    return out
