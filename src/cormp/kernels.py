"""Numeric hot kernels, in numpy.

The planner spends most of its time testing oriented-rectangle footprints
against each other (time-to-collision scans, corridor intersection counts,
collision detection). Those inner loops live here, vectorised over pose
arrays.

Overlap tests use the separating-axis theorem on the four edge normals. Every
function reports a signed "gap": the largest separation over the candidate
axes, which is <= 0 exactly when the rectangles overlap. The gap is not a
Euclidean distance but is continuous in the poses, which is all the TTC
refinement needs.

Fused form. On box a's own axes a's projection radius is its half extent,
and b's depends only on the relative heading, through c = |cos(hb - ha)| and
s = |sin(hb - ha)|, computed once per pair from the four cosines and sines
(the rotation matrix between the boxes, as in OBBTree): on a's long axis b
reaches bhl*c + bhw*s, on a's short axis bhl*s + bhw*c, and the same with a
and b swapped on b's axes. `pose_gaps` is the one implementation of this
formula: it broadcasts over arrays and takes one pair as Python floats.

Near-pair culling. A rectangle lies in the disc of its circumradius
r = hypot(hl, hw) about its center, so two whose centers are more than
ra + rb + margin apart are at least `margin` apart. Their exact gap is then
at least margin / sqrt(2): the point of the rectangles' Minkowski
difference closest to the origin lies on an edge, whose normal is a tested
axis and separates by the full distance, or is a vertex, whose normal cone
spans at most 90 degrees between two tested axes, one of which separates by
at least cos(45 deg) of the distance. `REACH_MARGIN` = 1 mm is many orders
above the rounding error of the computed gap (a few ulps of the coordinates,
under 1e-9 m for coordinates below 1e6 m), so a culled pair never has a
computed gap <= 0, and culling changes no overlap verdict; a reach off by
an ulp changes none either. `reach2` states this rule once. Three callers
cull by it: `PredictionBlock.corridor_hits` gathers only the near sample
pairs for the gap, `identification.time_to_collision` scans only the
candidates and road users with a near aligned pair, where a culled pair
could neither overlap nor set a refined contact, and
`SimWorld.detect_collisions` takes the gap only of the road users within
reach of the ego, counting every other one out of contact.
"""
from __future__ import annotations

import numpy as np

REACH_MARGIN = 1e-3  # m, added to the circumradius sum of a near pair


def reach2(ahl, ahw, bhl, bhw):
    """Squared center distance beyond which two rectangles of half lengths
    and widths (ahl, ahw) and (bhl, bhw) cannot meet: their circumradii plus
    `REACH_MARGIN`, squared. Broadcasts over arrays."""
    reach = np.hypot(ahl, ahw) + REACH_MARGIN + np.hypot(bhl, bhw)
    return reach * reach


def pose_gaps(ax, ay, ah, ahl, ahw, bx, by, bh, bhl, bhw):
    """Elementwise SAT gaps of two broadcast pose arrays.

    An (R, 1, n) against a (1, K, n) array gives the aligned TTC scan of R
    candidates against K rows; an (n, 1) against a (K, 1, m) array compares
    every sample pair; 1-D gathers of near pairs give one gap per pair
    (corridor crossings); Python floats give one pair's gap (the contact
    test).
    """
    dx = bx - ax
    dy = by - ay
    ca, sa = np.cos(ah), np.sin(ah)
    cb, sb = np.cos(bh), np.sin(bh)
    c = np.abs(ca * cb + sa * sb)
    s = np.abs(ca * sb - sa * cb)
    gap = np.abs(dx * ca + dy * sa) - ahl - (bhl * c + bhw * s)
    gap = np.maximum(gap, np.abs(dy * ca - dx * sa) - ahw - (bhl * s + bhw * c))
    gap = np.maximum(gap, np.abs(dx * cb + dy * sb) - (ahl * c + ahw * s) - bhl)
    return np.maximum(gap, np.abs(dy * cb - dx * sb) - (ahl * s + ahw * c) - bhw)

