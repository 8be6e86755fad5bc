"""The resources scored one candidate at a time, for tests.

`assess_oracle` is the per-candidate loop that `resources.assess_candidates`
replaced with array expressions over a plan's block: comfort, objective,
energy and the state of each value are computed on Python floats from the
candidate's own trajectory, and safety, crowdedness and the a-priori lane
from a block stacked from the trajectories alone. `assess_candidates` must
equal it bitwise.
"""
from __future__ import annotations

import numpy as np

from cormp.bezier import CandidateBlock
from cormp.config import PlannerConfig
from cormp.identification import ManeuverCandidate, PlanContext
from cormp.resources import (
    RESOURCES,
    ResourceState,
    ResourceType,
    apriori_lane_value,
    safety_value,
)


def clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


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


def energy_value(v_begin: float, v_end: float, mass_kg: float, e_ref_kj: float) -> float:
    """1 minus the kinetic energy spent from v_begin to v_end, relative to e_ref_kj."""
    dv = v_end - v_begin
    delta = 0.0 if v_end <= v_begin else 0.5 * mass_kg * dv * dv / 1000.0
    return 1.0 - clamp01(delta / e_ref_kj)


def classify_state(mu: float, cfg: PlannerConfig, mu_current: float | None = None) -> ResourceState:
    """State of a resource given its value (and the currently-held value)."""
    if mu < cfg.theta_loss:
        return ResourceState.LOSS
    if mu < cfg.theta_acquired:
        return ResourceState.THREATENED
    if mu_current is not None and mu_current < cfg.theta_acquired <= mu:
        return ResourceState.DESIRED
    return ResourceState.ACQUIRED


def assess_oracle(ctx: PlanContext, candidates: list, current_values: dict | None = None) -> list:
    """(values, states) dicts of each candidate, one candidate at a time."""
    cfg = ctx.config
    ego = ctx.ego
    cands = CandidateBlock([c.trajectory for c in candidates])
    apriori = ctx.scenario.lanes[ctx.scenario.apriori_lane]
    held = current_values or {}
    safety = safety_value(cands, ctx.predictions, ego.length, ego.width, cfg).tolist()
    hits = ctx.predictions.corridor_hits(cands, ego.length, ego.width, cfg)
    crowdedness = [1.0 - clamp01(float(n) / float(cfg.crowd_reference_count))
                   for n in np.count_nonzero(hits, axis=1).tolist()]
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
        out.append((values, states))
    return out
