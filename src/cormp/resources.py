"""Resource model: centroid weights, per-resource value functions, states.

Each candidate maneuver is scored on six resources, every value normalized to
[0, 1]. Profiles rank the resources and the ranks are converted to weights by
the rank-order centroid, so the profit of a candidate is a weighted sum the
planner can compare across maneuvers. `assess_candidates` scores all of a
plan's candidates at once: every value and state is an array expression over
their rows of the plan's `CandidateBlock`.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .config import PlannerConfig
from .identification import CandidateBlock, PlanContext, PredictionBlock


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


def _unit(x: np.ndarray) -> np.ndarray:
    """x clamped to [0, 1]."""
    return np.minimum(np.maximum(x, 0.0), 1.0)


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


def kinetic_energy_delta_kj(mass_kg: float, v_a, v_b):
    """Kinetic energy spent accelerating from v_a to v_b (kJ), elementwise.

    Deceleration consumes nothing: the delta is zero unless v_b > v_a.
    """
    dv = np.maximum(np.subtract(v_b, v_a), 0.0)
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
    dx = block.x.take(idx, axis=1, mode="clip") - cands.x[:, None, :]
    dy = block.y.take(idx, axis=1, mode="clip") - cands.y[:, None, :]
    cos_h = np.cos(cands.heading)[:, None, :]
    sin_h = np.sin(cands.heading)[:, None, :]
    lon = dx * cos_h + dy * sin_h
    lat = dy * cos_h - dx * sin_h   # bitwise -dx sin + dy cos
    lon_gap = np.maximum(np.abs(lon) - (ego_length / 2.0 + block.half_length[:, None]), 0.0)
    req_lon = cands.speed[:, None, :] * cfg.t_headway_s + cfg.d_min_m
    req_lat = ego_width / 2.0 + block.half_width + cfg.lateral_clearance_m
    r = np.maximum(lon_gap / req_lon, np.abs(lat) / req_lat[:, None])   # >= 0
    worst = np.minimum.reduce(r, axis=(1, 2), where=cands.valid[:, None, :], initial=np.inf)
    return np.minimum(worst, 1.0)


def _comfort_axis(acc: np.ndarray, comf: float, amax: float) -> np.ndarray:
    """(C,) comfort of each row's largest |acc|: 1 up to `comf` (where the ratio is
    >= 1, as amax > comf), linear to 0 at `amax`. A row's padding repeats its
    last sample, so it never holds the largest."""
    return _unit((amax - np.abs(acc).max(axis=1)) / (amax - comf))


def crowdedness_value(hits: np.ndarray, cfg: PlannerConfig) -> np.ndarray:
    """(C,) 1 minus the (normalized) count of corridors crossing each candidate's,
    from the (C, K) `PredictionBlock.corridor_hits` of the candidates."""
    return 1.0 - _unit(hits.sum(axis=1) / float(cfg.crowd_reference_count))


# indexed by the state codes of `assess_candidates`
STATES = (ResourceState.LOSS, ResourceState.THREATENED, ResourceState.DESIRED,
          ResourceState.ACQUIRED)


def assess_candidates(ctx: PlanContext, block: CandidateBlock, rows: list,
                      current_values: np.ndarray | None = None) -> tuple:
    """(values, states) of the six resources of each of the plan's `rows`.

    `values` is a (C, 6) matrix in `RESOURCES` order, each column an array
    expression over those rows of the plan's `block`; crowdedness reads
    those rows of the plan's one corridor pass. Comfort is 1 inside the
    comfort box, with a linear falloff to 0 at the axis maxima; objective is
    the distance covered relative to full-speed travel over the horizon;
    energy is 1 minus the kinetic energy spent, relative to the reference.
    `states` holds codes into `STATES`: a value is a loss below `theta_loss`,
    threatened below `theta_acquired`, and otherwise desired where the
    currently held value (a (6,) row, or None for none held) is below
    `theta_acquired`, else acquired.
    """
    cfg, ego = ctx.config, ctx.ego
    cands = block.take(rows)
    mu = np.empty((len(rows), len(RESOURCES)))
    mu[:, 0] = safety_value(cands, ctx.predictions, ego.length, ego.width, cfg)
    mu[:, 1] = np.minimum(_comfort_axis(cands.a_lon, cfg.a_lon_comfort, cfg.a_lon_max),
                          _comfort_axis(cands.a_lat, cfg.a_lat_comfort, cfg.a_lat_max))
    steps = np.hypot(cands.x[:, 1:] - cands.x[:, :-1], cands.y[:, 1:] - cands.y[:, :-1])
    counts = cands.valid.sum(axis=1)
    # each row's own n - 1 steps, by row length: a padded sum would round differently
    for n in set(counts.tolist()):
        at = counts == n
        mu[at, 2] = steps[at, :n - 1].sum(axis=1)
    mu[:, 2] /= ctx.lane.speed_limit * cfg.planning_horizon_s
    # the a-priori lane: 1 on its centerline, 0 two lane widths away
    apriori = ctx.scenario.lanes[ctx.scenario.apriori_lane]
    mu[:, 3] = 1.0 - np.abs(apriori.centerline.project(cands.end_xy)[1]) / (2.0 * apriori.width)
    spent = kinetic_energy_delta_kj(ego.mass, ego.speed, cands.speed[:, -1])
    mu[:, 4] = spent / cfg.energy_reference_kj(ego.mass)
    mu[:, 2:5] = _unit(mu[:, 2:5])   # objective, a-priori lane and the energy spent
    mu[:, 4] = 1.0 - mu[:, 4]
    mu[:, 5] = crowdedness_value(ctx.corridor_hits(block)[rows], cfg)
    held = np.nan if current_values is None else current_values   # nan: none held
    codes = np.where(mu < cfg.theta_loss, 0, np.where(
        mu < cfg.theta_acquired, 1, np.where(held < cfg.theta_acquired, 2, 3)))
    return mu, codes
