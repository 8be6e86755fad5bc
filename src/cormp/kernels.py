"""Numeric hot kernels, in numpy.

The planner spends almost all of its time testing oriented-rectangle footprints
against each other (time-to-collision scans, corridor intersection counts,
collision detection) and evaluating cubic Bezier curves in batches. Those inner
loops live here, vectorised over pose and parameter arrays.

Overlap tests use the separating-axis theorem on the four edge normals. Every
function reports a signed "gap": the largest separation over the candidate
axes, which is <= 0 exactly when the rectangles overlap. The gap is not a
Euclidean distance but is continuous in the poses, which is all the TTC
refinement needs.
"""
from __future__ import annotations

import numpy as np


def rect_gap(ax, ay, ah, ahl, ahw, bx, by, bh, bhl, bhw):
    """Separating-axis gap between two oriented rectangles.

    (ax, ay) center, ah heading, ahl/ahw half length/width; likewise b*.
    Returns max over the four edge normals of (center distance - projection
    radii); <= 0 means the rectangles overlap.
    """
    dx = bx - ax
    dy = by - ay
    ca = np.cos(ah)
    sa = np.sin(ah)
    cb = np.cos(bh)
    sb = np.sin(bh)
    gap = -1e30
    for ux, uy in ((ca, sa), (-sa, ca), (cb, sb), (-sb, cb)):
        d = abs(dx * ux + dy * uy)
        ra = ahl * abs(ca * ux + sa * uy) + ahw * abs(-sa * ux + ca * uy)
        rb = bhl * abs(cb * ux + sb * uy) + bhw * abs(-sb * ux + cb * uy)
        gap = max(gap, d - ra - rb)
    return gap


def pose_gaps(ax, ay, ah, ahl, ahw, bx, by, bh, bhl, bhw):
    """Elementwise SAT gaps of two broadcast pose arrays.

    A (1, n) against a (K, n) array gives the aligned TTC scan of K rows; an
    (n, 1) against a (K, 1, m) array compares every sample pair (corridor
    crossings).
    """
    dx = bx - ax
    dy = by - ay
    ca, sa = np.cos(ah), np.sin(ah)
    cb, sb = np.cos(bh), np.sin(bh)
    gap = None
    for ux, uy in ((ca, sa), (-sa, ca), (cb, sb), (-sb, cb)):
        d = np.abs(dx * ux + dy * uy)
        ra = ahl * np.abs(ca * ux + sa * uy) + ahw * np.abs(-sa * ux + ca * uy)
        rb = bhl * np.abs(cb * ux + sb * uy) + bhw * np.abs(-sb * ux + cb * uy)
        g = d - ra - rb
        gap = g if gap is None else np.maximum(gap, g)
    return gap


def bezier_points(ctrl: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Evaluate a cubic Bezier (4x2 control array) at parameter array us."""
    px, py = ctrl[:, 0], ctrl[:, 1]
    v = 1.0 - us
    b0 = v * v * v
    b1 = 3.0 * v * v * us
    b2 = 3.0 * v * us * us
    b3 = us * us * us
    return np.stack([b0 * px[0] + b1 * px[1] + b2 * px[2] + b3 * px[3],
                     b0 * py[0] + b1 * py[1] + b2 * py[2] + b3 * py[3]], axis=1)

