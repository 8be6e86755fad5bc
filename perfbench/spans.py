"""Spans around the calls into each cormp module, for the traced run.

Each public function is wrapped where the calling module looks it up (for
example ``cormp.planner.enumerate_candidates``), so the program itself is
unchanged. A span records its name, its parent span, its start and end, and
how many poses a kernel call batched; self time is derived afterwards.
"""
from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _n(a) -> int:
    return int(np.shape(a)[0]) if np.ndim(a) else 1


# (module, attribute, span name, poses batched per call)
SITES = (
    ("cormp.planner", "predict_oru", "identification.predict", None),
    ("cormp.planner", "enumerate_candidates", "identification.enumerate", None),
    ("cormp.planner", "feasibility_filter", "identification.filter", None),
    ("cormp.identification", "time_to_collision", "identification.ttc", None),
    ("cormp.planner", "assess_candidate", "resources.assess", None),
    ("cormp.planner", "safety_value", "resources.safety", None),
    ("cormp.resources", "safety_value", "resources.safety", None),
    ("cormp.resources", "crowdedness_value", "resources.crowdedness", None),
    ("cormp.planner", "decide", "planner.decide", None),
    ("cormp.identification", "sample_trajectory", "bezier.sample", None),
    ("cormp.bezier", "arc_length", "bezier.arc_length", None),
    ("cormp.identification", "pose_gaps", "kernels.gap", lambda a: _n(a[0])),
    ("cormp.identification", "any_overlap", "kernels.gap", lambda a: _n(a[0]) * _n(a[5])),
    ("cormp.identification", "rect_gap", "kernels.gap", lambda a: 1),
    ("cormp.resources", "any_overlap", "kernels.gap", lambda a: _n(a[0]) * _n(a[5])),
    ("cormp.bezier", "bezier_points", "kernels.curve", None),
    ("cormp.bezier", "bezier_frames", "kernels.curve", None),
    ("cormp.scenario", "Polyline.project", "scenario.project", None),
    ("cormp.scenario", "Polyline.point_at", "scenario.point_at", None),
    ("cormp.scenario", "Polyline.heading_at", "scenario.heading_at", None),
)

ROOT = "planner.plan"
NAMES = tuple(sorted({site[2] for site in SITES} | {ROOT}))
MODULES = tuple(sorted({name.split(".")[0] for name in NAMES}))


class Tracer:
    """Collects spans as [name, parent index, start, end, poses]."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def wrap(self, name: str, fn, poses=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, poses(args) if poses else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def install(self) -> list:
        """Wrap every site; returns the sites that could not be found."""
        missing = []
        for module, attr, name, poses in SITES:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                missing.append(f"{module}.{attr}")
                continue
            self._patched.append((owner, leaf, fn))
            setattr(owner, leaf, self.wrap(name, fn, poses))
        return missing

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._patched):
            setattr(owner, leaf, fn)
        self._patched.clear()


@dataclass
class SpanTotals:
    """Per-decision layer times and counts of one traced replay of one drive."""

    incl: np.ndarray          # (decisions, names) inclusive seconds
    self_s: np.ndarray        # (decisions, modules) self seconds
    calls: np.ndarray         # (names,) calls inside decisions
    poses: np.ndarray         # (names,) poses batched inside decisions
    outside: dict = field(default_factory=dict)   # name -> calls outside plan calls


def totals(spans: list, call_kinds: list) -> SpanTotals:
    """Fold spans into per-decision totals.

    `call_kinds` gives the kind of every plan call in order ("warmup",
    "decision", "commit" or "abort"); spans under a decision call are
    charged to it, spans outside any plan call are only counted.
    """
    col = {name: i for i, name in enumerate(NAMES)}
    mod = {name: MODULES.index(name.split(".")[0]) for name in NAMES}
    n = len(spans)
    dur = np.fromiter((s[3] - s[2] for s in spans), float, n)
    child = np.zeros(n)
    root = np.empty(n, dtype=np.int64)
    for i, s in enumerate(spans):
        p = s[1]
        if p >= 0:
            child[p] += dur[i]
            root[i] = root[p]
        else:
            root[i] = i
    decision_of = {}
    c = 0
    for i, s in enumerate(spans):
        if s[1] < 0 and s[0] == ROOT:
            if call_kinds[c] == "decision":
                decision_of[i] = len(decision_of)
            c += 1
    incl = np.zeros((len(decision_of), len(NAMES)))
    self_s = np.zeros((len(decision_of), len(MODULES)))
    calls = np.zeros(len(NAMES))
    poses = np.zeros(len(NAMES))
    outside: dict = {}
    for i, s in enumerate(spans):
        name, p = s[0], s[1]
        r = root[i]
        if spans[r][0] != ROOT:
            outside[name] = outside.get(name, 0) + 1
            continue
        d = decision_of.get(r)
        if d is None:
            continue
        j = col[name]
        calls[j] += 1
        poses[j] += s[4]
        if p < 0 or spans[p][0] != name:   # recursion counts once
            incl[d, j] += dur[i]
        self_s[d, mod[name]] += dur[i] - child[i]
    return SpanTotals(incl, self_s, calls, poses, outside)


def col(name: str) -> int:
    return NAMES.index(name)


def warn_missing(missing: list) -> None:
    if missing:
        print(f"perfbench: not traced (not found): {', '.join(missing)}", file=sys.stderr)
