"""A cubic Bezier evaluated directly from its control points, for tests.

`CubicBezier` is the reference that planned paths are checked against: its
derivatives and curvature come from the closed forms, and its points from
`bezier_points`, which evaluates a cubic at an array of parameters on the
Bernstein basis. `lane_frame_poses` is the reference for a sampled
`cormp.bezier.LanePath`: its offset is the cubic through the path's four
(s, d) control points, evaluated the same way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def bernstein(us: np.ndarray) -> np.ndarray:
    """(4, 1, n) cubic Bernstein basis at the parameter array us."""
    v = 1.0 - us
    return np.stack([v * v * v, 3.0 * v * v * us, 3.0 * v * us * us, us * us * us])[:, None, :]


def bezier_curve(basis: np.ndarray, ctrl) -> np.ndarray:
    """(n, 2) points of the cubic with control points `ctrl` (4 x 2) on a `bernstein` basis.

    Sums b0 p0 + b1 p1 + b2 p2 + b3 p3 in that order.
    """
    terms = basis * np.array(ctrl, dtype=np.float64)[:, :, None]   # (4, 2, n)
    return (terms[0] + terms[1] + terms[2] + terms[3]).T


def bezier_points(ctrl: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Evaluate a cubic Bezier (4x2 control array) at parameter array us."""
    return bezier_curve(bernstein(us), ctrl)


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


def _check_u(u: float) -> None:
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"parameter u={u} outside [0, 1]")


def lane_offset_cubic(path) -> CubicBezier:
    """The cubic of a `LanePath`'s offset, on its (s, d) control points."""
    _, s0, d0, slope, b = path
    return CubicBezier([(s0, d0), (s0 + b / 3.0, d0 + slope * b / 3.0),
                        (s0 + 2.0 * b / 3.0, 0.0), (s0 + b, 0.0)])


def lane_frame_poses(path, s: np.ndarray) -> tuple:
    """(x, y, heading, curvature) of `path` at arc positions s on its centerline.

    d(s), d'(s) and d''(s) come from the offset cubic at u = (s - s0) / b
    (its s is linear in u, so d' = (dd/du) / (ds/du) and d'' = (d^2 d/du^2) /
    (ds/du)^2), and are 0 from the join s0 + b on. The pose is the
    centerline's `frames` at s moved d along the normal of its heading, the
    heading turned by arctan d', and the curvature `locate`'s plus d''.
    """
    cubic = lane_offset_cubic(path)
    u = (s - path.s0) / path.blend
    offset = np.zeros((3, len(s)))
    for k, uk in enumerate(u.tolist()):
        if uk < 1.0:
            ds_du, dd_du = cubic.derivative(uk)
            offset[:, k] = (bezier_points(cubic.ctrl, np.array([uk]))[0, 1], dd_du / ds_du,
                            cubic.second_derivative(uk)[1] / (ds_du * ds_du))
    d, slope, bend = offset
    x, y, heading = path.line.frames(s)
    return (x - np.sin(heading) * d, y + np.cos(heading) * d, heading + np.arctan(slope),
            path.line.locate(s)[1] + bend)
