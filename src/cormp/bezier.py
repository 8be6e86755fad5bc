"""Cubic Bezier curves, speed profiles and time-sampled trajectories.

`CubicBezier` is the paper's curve primitive; its `chord_points` turn it into
the vertices of a `Polyline`, the one path type every planned trajectory is
sampled from (see `identification.lane_path`). `sample_trajectory` turns a
path plus a constant-acceleration speed profile into a trajectory sampled on
the simulator tick grid, with headings and lateral accelerations taken from the
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


def _speeds_and_arcs(profile: SpeedProfile, dt: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Speed and arc length at n ticks under v(t) = clip(v0 + a t, 0, v_max).

    Both are running sums of per-tick steps, so they equal stepping
    `v += a dt` and `s += ds` tick by tick. The speed ramps by a dt while a
    whole tick fits before the clip; the one tick that reaches v_max or rest
    is integrated exactly, and the speed holds from there on.
    """
    a, v_max = profile.accel, profile.v_max
    v = np.cumsum(np.concatenate([[min(max(profile.v0, 0.0), v_max)], np.full(n - 1, a * dt)]))
    steps = v[:-1]
    ds = steps * dt + 0.5 * a * dt * dt
    # time left before each step's speed reaches the clip (v_max, or rest)
    left = (v_max - steps) / a if a > 0 else (-steps / a if a < 0 else np.zeros(n - 1))
    clips = left < dt
    if clips.any():
        k = int(np.argmax(clips))
        vk, t_hit = float(steps[k]), max(float(left[k]), 0.0)
        v_hold = v_max if a > 0 else (0.0 if a < 0 else vk)
        ds[k] = vk * t_hit + 0.5 * a * t_hit * t_hit + v_hold * (dt - t_hit)
        ds[k + 1:] = v_hold * dt
        v[k + 1:] = v_hold
    return v, np.cumsum(np.concatenate([[0.0], ds]))


def tick_times(dt: float, horizon: float) -> np.ndarray:
    """Tick times 0, dt, 2 dt, ... up to `horizon`, with a 1e-9 s tolerance."""
    t = np.arange(int((horizon + 1e-9) / dt) + 2) * dt
    return t[t <= horizon + 1e-9]


def sample_trajectory(path: Polyline, profile: SpeedProfile, dt: float,
                      horizon: float) -> TimedTrajectory:
    """Sample poses along `path` under a clamped constant-accel speed profile.

    Samples fall on the ticks up to `horizon` and end early where the path
    is exhausted; a profile that comes to rest keeps emitting resting samples
    up to the horizon. Lateral acceleration is path curvature times v^2.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    eps = 1e-9
    t = tick_times(dt, horizon)
    v, s = _speeds_and_arcs(profile, dt, len(t))
    length = path.length
    n = int(np.count_nonzero(s <= length + eps))   # s never decreases
    t, v = t[:n], v[:n]
    x, y, heading, kappa = path.frames(np.minimum(s[:n], length))
    a_lon = np.zeros(n)
    if n > 1:
        a_lon[:-1] = np.diff(v) / dt
        a_lon[-1] = a_lon[-2]
    return TimedTrajectory(dt, t, x, y, heading, v, a_lon, kappa * v * v)
