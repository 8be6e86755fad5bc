"""Cubic Bezier curves and time-sampled trajectories.

Curves carry pure geometry; `sample_trajectory` turns a curve plus a
constant-acceleration speed profile into a trajectory sampled on the simulator
tick grid. Arc length and the parameter lookup by arc length both come from
one dense chord table, whose error is far below the 1e-3 m tolerance for the
curve spans used here.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import bezier_frames, bezier_points

_TABLE_N = 1024


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

    def pose(self, i: int) -> tuple[float, float, float]:
        return float(self.x[i]), float(self.y[i]), float(self.heading[i])

    def tail(self, start: int) -> "TimedTrajectory":
        """Samples from index `start` on, with time rebased to 0."""
        sl = slice(start, None)
        return TimedTrajectory(
            self.dt,
            self.t[sl] - self.t[start],
            self.x[sl], self.y[sl], self.heading[sl],
            self.speed[sl], self.a_lon[sl], self.a_lat[sl],
        )

    def concat(self, other: "TimedTrajectory") -> "TimedTrajectory":
        """Append `other` (its sample 0 must coincide with our last sample)."""
        if len(other) < 2:
            return self
        t2 = other.t[1:] + self.t[-1]
        return TimedTrajectory(
            self.dt,
            np.concatenate([self.t, t2]),
            np.concatenate([self.x, other.x[1:]]),
            np.concatenate([self.y, other.y[1:]]),
            np.concatenate([self.heading, other.heading[1:]]),
            np.concatenate([self.speed, other.speed[1:]]),
            np.concatenate([self.a_lon, other.a_lon[1:]]),
            np.concatenate([self.a_lat, other.a_lat[1:]]),
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
    curve: CubicBezier,
    profile: SpeedProfile,
    dt: float,
    horizon: float | None = None,
    heading_fallback: float = 0.0,
) -> TimedTrajectory:
    """Sample poses along `curve` under a clamped constant-accel speed profile.

    The trajectory ends when the curve is exhausted or, if `horizon` is given,
    when the horizon is reached. A stopped profile (speed 0, accel <= 0) keeps
    emitting resting samples up to the horizon; with no horizon it ends at the
    first resting sample.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    # dense parameter->arclength table: the curve length and its inversion
    us = np.linspace(0.0, 1.0, _TABLE_N + 1)
    pts = bezier_points(curve.ctrl, us)
    seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
    s_table = np.concatenate([[0.0], np.cumsum(seg)])
    length = float(s_table[-1])

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
    t_arr = np.asarray(ts)
    s_arr = np.asarray(ss)
    v_arr = np.asarray(speeds)
    u_arr = np.interp(s_arr, s_table, us) if length > 0 else np.zeros(n)
    xy = bezier_points(curve.ctrl, u_arr)

    dxs, dys, kappas = bezier_frames(curve.ctrl, u_arr)
    heading = np.arctan2(dys, dxs)
    degenerate = np.hypot(dxs, dys) <= 1e-9
    if degenerate.any():
        prev = heading_fallback
        for i in range(n):
            if degenerate[i]:
                heading[i] = prev
            else:
                prev = heading[i]
    a_lat = kappas * v_arr * v_arr

    a_lon = np.zeros(n)
    if n > 1:
        a_lon[:-1] = np.diff(v_arr) / dt
        a_lon[-1] = a_lon[-2]

    return TimedTrajectory(dt, t_arr, xy[:, 0], xy[:, 1], heading, v_arr, a_lon, a_lat)
