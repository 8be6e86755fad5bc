"""A cubic Bezier evaluated directly from its control points, for tests.

`CubicBezier` is the reference that planned paths are checked against: its
derivatives and curvature come from the closed forms, and its points from
`bezier_points`, which evaluates a cubic at an array of parameters on the
planner's Bernstein kernels. `CubicBezier.chord_points` hands the cubic to the
planner's own `cormp.bezier.chord_points`, and `chord_count` restates how
many chords it should cut. `lane_cubic` builds the cubic that
`identification.lane_path` joins a pose to its lane with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cormp.bezier import _CHORD_TOL_M, _MAX_CHORDS, chord_points
from cormp.kernels import bernstein, bezier_curve


def bezier_points(ctrl: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Evaluate a cubic Bezier (4x2 control array) at parameter array us."""
    return bezier_curve(bernstein(us), ctrl)


def chord_count(ctrl: np.ndarray) -> int:
    """Chords for a 4x2 control array: the smallest power of two at least
    sqrt(0.75 max|second difference| / _CHORD_TOL_M), and at most _MAX_CHORDS."""
    second = np.hypot(*(ctrl[:-2] - 2.0 * ctrl[1:-1] + ctrl[2:]).T).max()
    need = math.ceil(math.sqrt(0.75 * second / _CHORD_TOL_M))
    n = 1
    while n < min(need, _MAX_CHORDS):
        n *= 2
    return n


def lane_cubic(line, x: float, y: float, heading: float, blend: float) -> np.ndarray:
    """4x2 control points from the pose (x, y, heading) to the point of the
    centerline `line` `blend` m ahead, with tangent handles of blend / 3."""
    s_join = line.project((x, y))[0] + blend
    p3 = np.array(line.point_at(s_join))
    h3 = line.heading_at(s_join)
    p0 = np.array([x, y])
    p1 = p0 + np.array([math.cos(heading), math.sin(heading)]) * (blend / 3.0)
    p2 = p3 - np.array([math.cos(h3), math.sin(h3)]) * (blend / 3.0)
    return np.array([p0, p1, p2, p3])


def _as_ctrl(points) -> np.ndarray:
    ctrl = np.asarray(points, dtype=np.float64)
    if ctrl.shape != (4, 2):
        raise ValueError(f"cubic Bezier needs 4 control points, got shape {ctrl.shape}")
    if not np.all(np.isfinite(ctrl)):
        raise ValueError("control points must be finite")
    return ctrl


@dataclass
class CubicBezier:
    ctrl: np.ndarray

    def __post_init__(self) -> None:
        self.ctrl = _as_ctrl(self.ctrl)

    def point(self, u: float) -> np.ndarray:
        _check_u(u)
        return bezier_points(self.ctrl, np.array([u]))[0]

    def derivative(self, u: float) -> np.ndarray:
        """First derivative with respect to u (not arc length)."""
        _check_u(u)
        p = self.ctrl
        v = 1.0 - u
        d = 3.0 * (
            (p[1] - p[0]) * (v * v)
            + (p[2] - p[1]) * (2.0 * v * u)
            + (p[3] - p[2]) * (u * u)
        )
        return d

    def second_derivative(self, u: float) -> np.ndarray:
        _check_u(u)
        p = self.ctrl
        return 6.0 * ((p[2] - 2.0 * p[1] + p[0]) * (1.0 - u) + (p[3] - 2.0 * p[2] + p[1]) * u)

    def curvature(self, u: float) -> float:
        """Signed curvature (left turn positive); 0 where the tangent vanishes."""
        d1 = self.derivative(u)
        d2 = self.second_derivative(u)
        speed2 = d1[0] * d1[0] + d1[1] * d1[1]
        if speed2 < 1e-12:
            return 0.0
        return float((d1[0] * d2[1] - d1[1] * d2[0]) / speed2**1.5)

    def chord_points(self) -> np.ndarray:
        return chord_points(self.ctrl.tolist())


def _check_u(u: float) -> None:
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"parameter u={u} outside [0, 1]")
