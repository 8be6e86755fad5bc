"""Cubic Bezier curves, speed profiles and time-sampled trajectories.

`CubicBezier` is the paper's curve primitive; its `chord_points` turn it into
the vertices of a `Polyline`, the one path type every trajectory is sampled
from (see `identification.lane_path`). `sample_trajectory` turns a path
plus a constant-acceleration speed profile into a trajectory sampled on the
simulator tick grid, with headings and lateral accelerations taken from the
path's own frames.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import bezier_points
from .scenario import Polyline

# Chords of a planned cubic stray at most this far from it. The heading of the
# last chord is then within about 1e-4 rad of the curve's, so a lane change
# ends aligned with its target lane.
_CHORD_TOL_M = 2e-6
_MAX_CHORDS = 1024


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
        """Points at uniform u steps whose chords stray at most _CHORD_TOL_M from the curve.

        A chord over a step h strays at most max|B''| h^2 / 8, and
        max|B''| = 6 max(|p0 - 2 p1 + p2|, |p1 - 2 p2 + p3|): a straight curve
        is one chord, a 3.5 m lane change over 70 m takes _MAX_CHORDS.
        """
        p = self.ctrl
        second = np.hypot(*(p[:-2] - 2.0 * p[1:-1] + p[2:]).T).max()
        n = min(_MAX_CHORDS, max(1, math.ceil(math.sqrt(0.75 * second / _CHORD_TOL_M))))
        return bezier_points(p, np.linspace(0.0, 1.0, n + 1))


def _check_u(u: float) -> None:
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"parameter u={u} outside [0, 1]")


@dataclass
class SpeedProfile:
    """Constant-acceleration speed profile with clamping at 0 and v_max."""

    v0: float
    accel: float = 0.0
    v_max: float = float("inf")

    def __post_init__(self) -> None:
        if self.v0 < 0:
            raise ValueError("v0 must be >= 0")
        if self.v_max < 0:
            raise ValueError("v_max must be >= 0")


@dataclass
class TimedTrajectory:
    """Trajectory samples on the tick grid (arrays share one length)."""

    dt: float
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray
    speed: np.ndarray
    a_lon: np.ndarray
    a_lat: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0]) if len(self.t) else 0.0

    @property
    def end_speed(self) -> float:
        return float(self.speed[-1])

    def path_length(self) -> float:
        if len(self.t) < 2:
            return 0.0
        return float(np.sum(np.hypot(np.diff(self.x), np.diff(self.y))))

    def tail(self, start: int) -> "TimedTrajectory":
        """Samples from index `start` on, with time rebased to 0."""
        sl = slice(start, None)
        return TimedTrajectory(
            self.dt,
            self.t[sl] - self.t[start],
            self.x[sl], self.y[sl], self.heading[sl],
            self.speed[sl], self.a_lon[sl], self.a_lat[sl],
        )

    @staticmethod
    def stationary(x: float, y: float, heading: float, dt: float, n: int) -> "TimedTrajectory":
        t = np.arange(n, dtype=np.float64) * dt
        z = np.zeros(n)
        return TimedTrajectory(
            dt, t, np.full(n, x), np.full(n, y), np.full(n, heading), z.copy(), z.copy(), z.copy()
        )


def _step_distance(v: float, a: float, dt: float, v_max: float) -> tuple[float, float]:
    """Exact distance over one tick under v(t) = clip(v + a t, 0, v_max)."""
    if a > 0 and v < v_max:
        t_hit = (v_max - v) / a
        if t_hit < dt:
            ds = v * t_hit + 0.5 * a * t_hit * t_hit + v_max * (dt - t_hit)
            return ds, v_max
        return v * dt + 0.5 * a * dt * dt, v + a * dt
    if a < 0 and v > 0.0:
        t_hit = -v / a
        if t_hit < dt:
            return v * t_hit + 0.5 * a * t_hit * t_hit, 0.0
        return v * dt + 0.5 * a * dt * dt, v + a * dt
    # cruising, already capped, or already stopped
    v_now = min(max(v, 0.0), v_max)
    return v_now * dt, v_now


def sample_trajectory(
    path: Polyline,
    profile: SpeedProfile,
    dt: float,
    horizon: float | None = None,
) -> TimedTrajectory:
    """Sample poses along `path` under a clamped constant-accel speed profile.

    The trajectory ends when the path is exhausted or, if `horizon` is given,
    when the horizon is reached. A stopped profile (speed 0, accel <= 0) keeps
    emitting resting samples up to the horizon; with no horizon it ends at the
    first resting sample. Lateral acceleration is path curvature times v^2.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    length = path.length
    ts: list[float] = []
    ss: list[float] = []
    speeds: list[float] = []
    v = min(max(profile.v0, 0.0), profile.v_max)
    s = 0.0
    k = 0
    eps = 1e-9
    while True:
        t = k * dt
        if horizon is not None and t > horizon + eps:
            break
        if s > length + eps:
            break
        ts.append(t)
        ss.append(min(s, length))
        speeds.append(v)
        if horizon is None and v <= eps and profile.accel <= 0:
            break
        ds, v = _step_distance(v, profile.accel, dt, profile.v_max)
        s += ds
        k += 1

    n = len(ts)
    v_arr = np.asarray(speeds)
    x, y, heading, kappa = path.frames(ss)
    a_lon = np.zeros(n)
    if n > 1:
        a_lon[:-1] = np.diff(v_arr) / dt
        a_lon[-1] = a_lon[-2]
    return TimedTrajectory(dt, np.asarray(ts), x, y, heading, v_arr, a_lon,
                           kappa * v_arr * v_arr)
