"""The time-to-collision scan over every pair, for tests.

`ttc_oracle` is the `time_to_collision` that ran the separating-axis gap
on every (candidate row, road user, tick) triple before the scan was
limited to candidates and road users with a pair of centers within reach.
`identification.time_to_collision` must equal it bitwise: the same ttc
floats and the same limiting rows.
"""
from __future__ import annotations

import math

import numpy as np

from cormp.bezier import CandidateBlock
from cormp.identification import PredictionBlock
from cormp.kernels import pose_gaps


def ttc_oracle(cands: CandidateBlock, block: PredictionBlock,
               ego_length: float, ego_width: float) -> tuple:
    """(ttc, who): each candidate's (C,) footprint time-to-collision with any
    predicted road user, and the (C,) row of `block` that sets it.

    Scans a candidate's first min(len, T) samples, aligned with every row's,
    for the first oriented-rectangle overlap and refines linearly on the
    separating-axis gap inside that tick (the gap is positive before it and
    <= 0 at it). +inf, and row -1, where no footprints overlap; of road
    users that tie, the first row.
    """
    if len(block) == 0:
        return np.full(len(cands), math.inf), np.full(len(cands), -1)
    n = min(cands.x.shape[1], block.steps)
    gaps = pose_gaps(
        cands.x[:, None, :n], cands.y[:, None, :n], cands.heading[:, None, :n],
        ego_length / 2.0, ego_width / 2.0,
        block.x[None, :, :n], block.y[None, :, :n], block.heading[None, :, :n],
        block.half_length[None, :, None], block.half_width[None, :, None],
    )
    gaps = np.where(cands.valid[:, None, :n], gaps, np.inf)
    overlap = np.min(gaps, axis=1) <= 0.0
    ttc = np.where(overlap[:, 0], 0.0, math.inf)
    who = np.where(overlap[:, 0], np.argmax(gaps[:, :, 0] <= 0.0, axis=1), -1)
    rows = np.nonzero(overlap.any(axis=1) & ~overlap[:, 0])[0]
    i = np.argmax(overlap[rows], axis=1)
    # each road user overlapping first at tick i collides in (t[i-1], t[i]]:
    # those that overlap only later cannot collide sooner
    g0 = gaps[rows, :, i - 1]
    g1 = gaps[rows, :, i]
    frac = np.divide(g0, g0 - g1, out=np.full_like(g0, np.inf), where=g1 <= 0.0)
    ttc[rows] = cands.t[rows, i - 1] + np.min(frac, axis=1) * cands.dt
    who[rows] = np.argmin(frac, axis=1)
    return ttc, who
