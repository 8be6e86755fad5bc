"""Cubic Bezier curves, speed profiles and time-sampled trajectories.

The cubic Bezier is the paper's curve primitive; `chord_points` turns one,
given by its four control points, into the vertices of a `Polyline`, the one
path type every planned trajectory is sampled from (see
`identification.lane_path`). `sample_trajectory` turns any number of (path,
constant-acceleration speed profile, horizon) rows into trajectories on the
simulator tick grid in one call, with headings and lateral accelerations
taken from each path's own frames, and returns them as one `CandidateBlock`:
the padded (R, T) rows every pairwise measure of a plan broadcasts over.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import bernstein, bezier_curve
from .scenario import Polyline

# Chords of a planned cubic stray at most this far from it (0.1 mm on a 3.5 m
# lane). The last chord's heading is then off the curve's by about 3 D / (n L)
# rad (`lane_path` blend L, second difference D, n chords): 5.9e-4 rad for a
# 3.5 m lane change at 13.89 m/s in 256 chords, 1.0e-3 rad at 8 m/s.
_CHORD_TOL_M = 1e-4
_MAX_CHORDS = 1024


@lru_cache(maxsize=16)
def _chord_basis(n: int) -> np.ndarray:
    """Read-only Bernstein basis at u = 0, 1/n, ..., 1; the 11 power-of-two
    n up to _MAX_CHORDS all stay cached, in about 66 KB."""
    basis = bernstein(np.linspace(0.0, 1.0, n + 1))
    basis.flags.writeable = False
    return basis


def chord_points(ctrl, extra: int = 0) -> np.ndarray:
    """Points at uniform u steps whose chords stray at most _CHORD_TOL_M from the cubic.

    `ctrl` is four (x, y) pairs of floats. A chord over a step h strays at
    most max|B''| h^2 / 8, and max|B''| = 6 max(|p0 - 2 p1 + p2|,
    |p1 - 2 p2 + p3|). n is the smallest power of two that meets the tolerance,
    capped at _MAX_CHORDS; past the cap (a second difference over about 140 m,
    a pose far off its lane) the tolerance does not hold. A straight curve is
    one chord, a 3.5 m lane change 256 at any length. The points fill the
    first rows of an (n + 1 + extra, 2) array; the caller fills the rest.
    """
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = ctrl
    second = max(math.hypot(x0 - 2.0 * x1 + x2, y0 - 2.0 * y1 + y2),
                 math.hypot(x1 - 2.0 * x2 + x3, y1 - 2.0 * y2 + y3))
    need = min(_MAX_CHORDS, max(1, math.ceil(math.sqrt(0.75 * second / _CHORD_TOL_M))))
    n = 1 << (need - 1).bit_length()
    out = np.empty((n + 1 + extra, 2))
    out[:n + 1] = bezier_curve(_chord_basis(n), ctrl)
    return out


@dataclass
class SpeedProfile:
    """Constant-acceleration speed profile, clamped at 0 and at max(v_max, v0)."""

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


class CandidateBlock:
    """Trajectories on one tick grid, stacked: row c is `trajectories[c]`.

    t, x, y, heading, speed, a_lon and a_lat are (C, T) arrays, T the longest
    trajectory's sample count; a shorter row repeats its last sample, and
    `valid` marks each row's own samples. Indexing or iterating the block
    gives each row's `TimedTrajectory`, built on demand as views of the row's
    valid samples. `sample_trajectory` returns its own buffers as one; a plan
    hands `take` of the rows in play to each measure. Padding changes no
    measure: none reads a sample that `valid` does not mark, or one that only
    repeats a marked sample (such as a row's largest |a_lon|).
    """

    def __init__(self, trajectories: list) -> None:
        lengths = np.array([len(traj) for traj in trajectories])
        rows = np.empty((7, len(trajectories), lengths.max()))
        for c, traj in enumerate(trajectories):
            n = len(traj)
            rows[:, c, :n] = (traj.t, traj.x, traj.y, traj.heading, traj.speed,
                              traj.a_lon, traj.a_lat)
            rows[:, c, n:] = rows[:, c, n - 1:n]
        self._set(rows, np.arange(rows.shape[2]) < lengths[:, None], trajectories[0].dt)

    def _set(self, rows: np.ndarray, valid: np.ndarray, dt: float) -> None:
        self._rows = rows
        self.t, self.x, self.y, self.heading, self.speed, self.a_lon, self.a_lat = rows
        self.valid = valid
        self.dt = dt

    def take(self, idx: list) -> CandidateBlock:
        """The block of rows `idx` (copies), padded as here."""
        sub = CandidateBlock.__new__(CandidateBlock)
        sub._set(self._rows[:, idx], self.valid[idx], self.dt)
        return sub

    @property
    def end_xy(self) -> np.ndarray:
        """(C, 2) last sample of each row."""
        return self._rows[1:3, :, -1].T

    def __len__(self) -> int:
        return self._rows.shape[1]

    def __getitem__(self, c: int) -> TimedTrajectory:
        return TimedTrajectory(self.dt, *self._rows[:, c, :np.count_nonzero(self.valid[c])])


# a profile's v0, accel and v_max, bit for bit: the key of `_speeds_and_arcs`
_PROFILE = struct.Struct("3d")


@lru_cache(maxsize=32)
def _speeds_and_arcs(profiles: bytes, dt: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, n) speeds and arc lengths at n ticks, row p under the p-th
    profile packed in `profiles` by `_PROFILE`.

    Each row follows v(t) = clip(v0 + a t, 0, cap), cap = max(v_max, v0).
    Both are running sums of per-tick steps, so they equal stepping
    `v += a dt` and `s += ds` tick by tick. The speed ramps by a dt while a
    whole tick fits before the clip; the one tick that reaches the cap or
    rest is integrated exactly, and the speed holds from there on (from the
    first tick without acceleration).

    Cached and read-only, like `tick_times`: steady driving asks for the
    same profiles plan after plan. The key is bitwise, so 0.0 and -0.0,
    whose speeds differ in sign, keep their own tables.
    """
    rows = []
    for v0, a, v_max in _PROFILE.iter_unpack(profiles):
        cap = max(v_max, v0)
        # the clip's speed, and (clip - v) / a is the time left before it;
        # dividing by inf puts a profile without acceleration at its clip now
        clip, hold = (cap, cap) if a > 0 else ((0.0, 0.0) if a < 0 else (0.0, v0))
        rows.append((v0, a * dt, 0.5 * a * dt * dt, clip, a if a != 0 else math.inf,
                     0.5 * a, hold, hold * dt))
    v0, a_dt, ramp, clip, a, half_a, hold, hold_ds = np.array(rows).T[:, :, None]
    v = np.empty((len(rows), n))
    v[:, :1] = v0
    v[:, 1:] = a_dt
    np.cumsum(v, axis=1, out=v)
    steps = v[:, :-1]
    s = np.empty_like(v)
    s[:, 0] = 0.0
    ds = s[:, 1:]
    np.multiply(steps, dt, out=ds)
    ds += ramp
    # steps move monotonically towards the clip, so each row clips from its
    # first tick k with less than a tick left: ds[k] is integrated exactly,
    # and later ticks hold
    with np.errstate(over="ignore", invalid="ignore"):   # inf or nan on rows that never clip
        left = (clip - steps) / a
        t_hit = np.maximum(left, 0.0)
        exact = steps * t_hit + half_a * t_hit * t_hit + hold * (dt - t_hit)
    clips = left < dt
    np.copyto(ds, exact, where=clips)
    np.copyto(ds[:, 1:], hold_ds, where=clips[:, :-1])
    np.copyto(v[:, 1:], hold, where=clips)
    np.cumsum(s, axis=1, out=s)
    v.flags.writeable = s.flags.writeable = False
    return v, s


@lru_cache(maxsize=8)
def tick_times(dt: float, horizon: float) -> np.ndarray:
    """Tick times 0, dt, 2 dt, ... up to `horizon`, with a 1e-9 s tolerance.

    Cached and read-only: every trajectory sampled on the grid shares it.
    """
    t = np.arange(int((horizon + 1e-9) / dt) + 2) * dt
    t = t[t <= horizon + 1e-9]
    t.flags.writeable = False
    return t


def sample_trajectory(rows, dt: float) -> CandidateBlock:
    """Sample poses along paths under clamped constant-accel speed profiles.

    `rows` is a sequence of (path, `SpeedProfile`, horizon) triples; row r
    of the `CandidateBlock` returned is the trajectory of `rows[r]`.
    A row's samples fall on the ticks up to its horizon and end early where
    its path is exhausted, so the trajectories may differ in length; a
    profile that comes to rest keeps emitting resting samples up to the
    horizon. Lateral acceleration is path curvature times v^2.

    One cached `_speeds_and_arcs` table covers every row, and each distinct
    path locates and gathers its rows' segments once; each row is bitwise
    what it would be if sampled alone.

    The block's (R, T) rows are the read-only buffers the samples are
    written to, padded with each row's last sample as
    `CandidateBlock(trajectories)` pads them.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    horizons = [h for _, _, h in rows]
    if min(horizons) < 0:
        raise ValueError("horizon must be >= 0")
    t = tick_times(dt, max(horizons))
    v, s = _speeds_and_arcs(b"".join(_PROFILE.pack(p.v0, p.accel, p.v_max) for _, p, _ in rows),
                            dt, len(t))
    groups: dict = {}
    for r, (path, _, _) in enumerate(rows):
        groups.setdefault(path, []).append(r)
    length = np.array([[path.length] for path, _, _ in rows])
    # s never decreases along a row
    counts = np.minimum([len(tick_times(dt, h)) for h in horizons],
                        (s <= length + 1e-9).sum(axis=1))
    s = np.minimum(s, length)
    kappa = np.empty_like(s)
    frames = np.empty((6,) + s.shape)   # each sample's row of its path's `frame_table`
    for path, idx in groups.items():
        # adjacent rows, the usual case, are read and written as a slice, not copied
        sel = slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1 else idx
        if path.frame_table.shape[1] == 2:   # one straight segment: nothing to look up
            kappa[sel] = 0.0
            frames[:, sel] = path.frame_table[:, :1, None]
        else:
            i, kappa[sel] = path.locate(s[sel])
            frames[:, sel] = path.frame_table.take(i, axis=1)
    ax, ay, dx, dy, seg_len, cum = frames
    f = (s - cum) / seg_len
    buffers = np.empty((7,) + s.shape)
    block_t, x, y, heading, speed, a_lon, a_lat = buffers
    block_t[:] = t
    np.add(ax, dx * f, out=x)
    np.add(ay, dy * f, out=y)
    np.arctan2(dy, dx, out=heading)
    speed[:] = v
    np.subtract(v[:, 1:], v[:, :-1], out=a_lon[:, :-1])
    a_lon[:, :-1] /= dt
    np.multiply(kappa * v, v, out=a_lat)
    width, ns = len(t), counts.tolist()
    a_lon[:, -1] = a_lon[:, -2] if width > 1 else 0.0   # a row's last step repeats
    for r, n in enumerate(ns):
        if n < width:   # a row that ends early: its own last step, then padding
            a_lon[r, n - 1] = a_lon[r, n - 2] if n > 1 else 0.0
            buffers[:, r, n:] = buffers[:, r, n - 1:n]
    buffers.flags.writeable = False
    block = CandidateBlock.__new__(CandidateBlock)
    block._set(buffers, np.arange(width) < counts[:, None], dt)
    return block
