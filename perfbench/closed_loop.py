"""Timed closed-loop replays of a workload's drives, and the metrics they give.

Every drive is run by ``cormp.simulator.run`` with a cor-mp planner wrapped in
``TimedPlanner``, and its four artifacts are written as ``cormp run`` writes
them. A first replay per drive captures every pose and is checked by
``checks.py``; the timed replays after it must reproduce its ``log.csv`` and
``events.json`` byte for byte. Every time here is taken on a
``speed.SpeedClock`` and reported at the reference host speed.
"""
from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans as tr
from speed import REFERENCE_S, SpeedClock
from cormp import compute_metrics, load_scenario, make_planner, render_timeline, simulator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_ROUNDS = 4          # replays per drive even when a round outlasts --seconds
SETUP_PROBES = 5        # fewest fresh-interpreter set-ups per run; setup_s is their median
PROBE_TIMEOUT_S = 60


@dataclass
class Call:
    sim_time: float
    kind: str                 # warmup, decision, commit or abort
    mark: int                 # clock mark taken right before the call
    feasible: int = 0
    built: int = 0


class TimedPlanner:
    """Times every ``plan`` call of the planner it wraps on a calibrated clock.

    ``run()`` makes one untimed warm-up call before the first tick; it is
    recorded with kind "warmup" and left out of every latency figure.
    """

    def __init__(self, inner, clock: SpeedClock, tracer=None) -> None:
        self.name = inner.name
        self.profile = inner.profile
        self._inner = inner
        self._plan = tracer.wrap(tr.ROOT, inner.plan) if tracer else inner.plan
        self._clock = clock
        self.calls: list = []

    def plan(self, scenario, sim_time):
        mark = self._clock.mark()
        result = self._plan(scenario, sim_time)
        self._clock.mark()
        if not self.calls:
            self.calls.append(Call(sim_time, "warmup", mark))
        elif result.decision is not None:
            cands = result.decision.candidates
            self.calls.append(Call(sim_time, "decision", mark,
                                   sum(1 for c in cands if c.feasible), len(cands)))
        else:
            self.calls.append(Call(sim_time, "abort" if result.aborted else "commit", mark))
        return result

    def reset(self) -> None:
        self._inner.reset()


@dataclass
class Replay:
    """One drive's outputs' hashes and its times, in seconds at the reference speed."""

    csv_sha: str
    events_sha: str
    ticks: int
    calls: list               # Call per plan call, warm-up first
    plan_s: np.ndarray        # per plan call after the warm-up
    plan_raw_s: np.ndarray    # the same, unscaled
    scale: np.ndarray         # per plan call after the warm-up: scaled / raw
    sim_s: float              # simulator.run minus every plan call
    write_s: float            # the four artifacts, built and written
    wall_s: float             # simulator.run plus the artifacts
    artifact_bytes: int
    csv_text: str = ""
    events: list = field(default_factory=list)
    layers: object = None     # spans.SpanTotals of a traced replay, scaled


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def replay(drive, scenario, cfg, tracer=None, keep=False) -> Replay:
    """One closed-loop drive plus its artifacts, written as ``cormp run`` does."""
    clock = SpeedClock()
    planner = TimedPlanner(make_planner("cor-mp", cfg, scenario.profile), clock, tracer)
    clock.mark()
    log = simulator.run(scenario, planner, cfg)
    ran = clock.mark()
    csv_text = log.to_csv()
    events = log.events_json()
    events_text = json.dumps(events, indent=2) + "\n"
    metrics_text = json.dumps(compute_metrics(log, scenario).to_dict(), indent=2) + "\n"
    svg = render_timeline([(log.planner, log)], scenario.duration_s)
    out = OUT / drive.name
    out.mkdir(parents=True, exist_ok=True)
    size = 0
    for name, text in (("log.csv", csv_text), ("events.json", events_text),
                       ("metrics.json", metrics_text), ("timeline.svg", svg)):
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            size += fh.write(text)
    clock.mark()
    raw, scaled = clock.intervals()
    at = np.array([c.mark for c in planner.calls], dtype=np.int64)
    return Replay(
        _sha(csv_text), _sha(events_text), len(log.rows), planner.calls,
        plan_s=scaled[at[1:]], plan_raw_s=raw[at[1:]], scale=scaled[at[1:]] / raw[at[1:]],
        sim_s=float(scaled[:ran].sum() - scaled[at].sum()),
        write_s=float(scaled[ran]), wall_s=float(scaled.sum()), artifact_bytes=size,
        csv_text=csv_text if keep else "", events=events if keep else [])


def captured_replay(drive, scenario, cfg):
    """A replay that also records every agent's pose at every tick.

    Poses are taken where the simulator tests collisions each tick, after the
    ego has moved and before the others advance, which is the state the log
    row of that tick describes.
    """
    world_cls = simulator.SimWorld
    original = world_cls.detect_collisions
    t, poses = [], []

    def detect_collisions(world):
        agents = [world.ego] + list(world.scenario.others())
        t.append(world.t)
        poses.append([(a.x, a.y, a.heading) for a in agents])
        return original(world)

    world_cls.detect_collisions = detect_collisions
    try:
        rep = replay(drive, scenario, cfg, keep=True)
    finally:
        world_cls.detect_collisions = original
    agents = scenario.agents
    cap = checks.Capture(
        t=np.array(t), ids=[a.id for a in agents], kinds=[a.kind for a in agents],
        half=np.array([[a.length / 2.0, a.width / 2.0] for a in agents]),
        poses=np.array(poses).reshape(len(t), len(agents), 3))
    return rep, cap


@dataclass
class DriveState:
    """A drive, the verdict of its checked replay, and its timed replays."""

    drive: object
    scenario: object
    duration_s: float
    reference: Replay
    problems: list
    untraced: list = field(default_factory=list)   # replays that matched the checked one
    traced: list = field(default_factory=list)
    replays: int = 0
    failed: int = 0

    def median(self, attr: str, traced: bool = False):
        """Median over the matching replays of a time (per call where it is an array)."""
        reps = self.traced if traced else self.untraced
        return np.median(np.stack([getattr(r, attr) for r in reps]), axis=0)


def decision_ticks(calls: list, dt: float) -> list:
    """Log row of every plan call that made a full decision."""
    return [int(round(c.sim_time / dt)) for c in calls[1:] if c.kind == "decision"]


def prepare(drives, cfg) -> list:
    """Load every drive, run its checked replay and keep only the verdict."""
    states = []
    for drive in drives:
        scenario = load_scenario(drive.doc)
        rep, cap = captured_replay(drive, scenario, cfg)
        problems = checks.check_drive(rep.csv_text, rep.events, drive.doc, cap,
                                      decision_ticks(rep.calls, cfg.dt))
        rep.csv_text, rep.events = "", []
        states.append(DriveState(drive, scenario, scenario.duration_s, rep, problems))
    return states


def unexpected(state: DriveState) -> list:
    """Problems other than the named program fault this drive is known to show."""
    fault = state.drive.expect_fail
    return [p for p in state.problems if not (fault and p.endswith(f"rule_violation {fault}"))]


def timed_replay(state: DriveState, cfg, tracer=None) -> Replay:
    """Replay a drive, compare it with the checked replay and keep its times."""
    rep = replay(state.drive, state.scenario, cfg, tracer)
    state.replays += 1
    same = (rep.csv_sha == state.reference.csv_sha
            and rep.events_sha == state.reference.events_sha
            and len(rep.calls) == len(state.reference.calls))
    if not same:
        state.problems.append(f"replay {state.replays} differs from the checked replay")
    if state.problems:
        state.failed += 1
    if same and tracer is None:
        state.untraced.append(rep)
    elif same:
        state.traced.append(rep)
    return rep


def rounds(states, cfg, seconds: float, traced: bool, probe) -> list:
    """Whole rounds over every drive until `seconds` have passed.

    With `traced`, rounds alternate between untraced and traced replays.
    `probe()` runs one fresh-interpreter set-up after every round, so the
    set-ups are spread over the run like the replays; at least
    SETUP_PROBES are made. Returns what the probes returned.
    """
    probes = []
    done = 0
    start = time.perf_counter()
    while done < MIN_ROUNDS * (2 if traced else 1) or time.perf_counter() - start < seconds:
        tracer = tr.Tracer() if traced and done % 2 == 1 else None
        if tracer is not None:
            missing = tracer.install()
            if done == 1:
                tr.warn_missing(missing)
        try:
            for state in states:
                if tracer is not None:
                    tracer.spans.clear()
                rep = timed_replay(state, cfg, tracer)
                if tracer is not None:
                    rep.layers = scaled_layers(tracer.spans, rep)
        finally:
            if tracer is not None:
                tracer.uninstall()
        probes.append(probe())
        done += 1
    while len(probes) < SETUP_PROBES:
        probes.append(probe())
    return probes


def scaled_layers(spans: list, rep: Replay):
    """Per-decision layer times of a traced replay, scaled like their plan call."""
    tot = tr.totals(spans, [c.kind for c in rep.calls])
    scale = rep.scale[[c.kind == "decision" for c in rep.calls[1:]]][:, None]
    tot.incl, tot.self_s = tot.incl * scale, tot.self_s * scale
    return tot


def setup_probe(workload: str, seed: int) -> tuple:
    """One fresh-interpreter set-up.

    Returns the seconds from spawn to the probe's ready line, and the
    probe's phase times; all are scaled by the median of the calibrations
    the probe ran after its imports and after its warm-up, whose own time
    is left out.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if code != 0 or not line:
        raise SystemExit(f"perfbench: set-up probe failed with exit code {code}")
    probe = json.loads(line)
    scale = REFERENCE_S / statistics.median(probe["calibration_s"])
    phases = {k: v * scale for k, v in probe.items() if k.endswith("_ms")}
    return (t1 - t0 - sum(probe["calibration_s"])) * scale, phases


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


def _cat(arrays: list, width: int = 0) -> np.ndarray:
    """Concatenate per-drive arrays; empty when no drive had a matching replay."""
    return np.concatenate(arrays) if arrays else np.zeros((0, width) if width else 0)


def _timed(states, traced=False) -> list:
    return [s for s in states if (s.traced if traced else s.untraced)]


def end_to_end(states, probes) -> dict:
    timed = _timed(states)
    plan = _cat([s.median("plan_s") for s in timed])
    sim_s = sum(s.duration_s for s in timed)
    wall_s = sum(s.median("wall_s") for s in timed)
    return {
        "plan_ms_p50": (_pct(plan, 50) * 1e3, "ms"),
        "plan_ms_p90": (_pct(plan, 90) * 1e3, "ms"),
        "sim_s_per_wall_s": (sim_s / wall_s if wall_s else 0.0, "s/s"),
        "setup_s": (statistics.median(p[0] for p in probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def reference_figures(states) -> dict:
    """Figures printed for reading only.

    The tail past p90 has too few calls to gate on. The unscaled figures
    take each call's best raw time over the replays: what this host did
    during the run, in its own speed states.
    """
    timed = _timed(states)
    plan = _cat([s.median("plan_s") for s in timed])
    raw = _cat([np.min([r.plan_raw_s for r in s.untraced], axis=0) for s in timed])
    return {"plan_calls": len(plan), "replays_per_drive": min(s.replays for s in states),
            "plan_ms_p99": _pct(plan, 99) * 1e3, "plan_ms_max": _pct(plan, 100) * 1e3,
            "unscaled_best_plan_ms_p50": _pct(raw, 50) * 1e3,
            "unscaled_best_plan_ms_p90": _pct(raw, 90) * 1e3}


def retained_log_kb(states, cfg) -> float:
    """KB a finished SimLog keeps alive per decision, measured with tracemalloc."""
    total_bytes, decisions = 0, 0
    for state in states:
        planner = TimedPlanner(make_planner("cor-mp", cfg, state.scenario.profile),
                               SpeedClock())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = simulator.run(state.scenario, planner, cfg)
            decisions += sum(1 for c in planner.calls[1:] if c.kind == "decision")
            del planner
            total_bytes += tracemalloc.get_traced_memory()[0] - before
            del log
        finally:
            tracemalloc.stop()
    return total_bytes / 1024.0 / max(decisions, 1)


def per_layer(states, probes, cfg) -> dict:
    """Per-layer metrics of a traced run (see README.md for what each should move)."""
    timed = _timed(states)
    traced_states = _timed(timed, traced=True)
    calls = [c for s in timed for c in s.reference.calls[1:]]
    decisions = [c for c in calls if c.kind == "decision"]
    n_dec = len(decisions)
    plan = _cat([s.median("plan_s") for s in timed])
    is_decision = np.array([c.kind == "decision" for c in calls], dtype=bool)
    traced = _cat([s.median("plan_s", traced=True) for s in traced_states])
    incl = _cat([np.median([r.layers.incl for r in s.traced], axis=0)
                 for s in traced_states], len(tr.NAMES))             # (decisions, names)
    self_s = _cat([np.median([r.layers.self_s for r in s.traced], axis=0)
                   for s in traced_states], len(tr.MODULES))         # (decisions, modules)
    layers = [s.traced[0].layers for s in traced_states]
    n_calls = sum((t.calls for t in layers), np.zeros(len(tr.NAMES)))
    n_poses = sum((t.poses for t in layers), np.zeros(len(tr.NAMES)))
    ticks = max(sum(s.reference.ticks for s in timed), 1)
    outside_project = sum(t.outside.get("scenario.project", 0) for t in layers)

    def ms(name):
        return float(incl[:, tr.col(name)].mean() * 1e3) if len(incl) else 0.0

    def per_dec(name):
        return float(n_calls[tr.col(name)] / max(n_dec, 1))

    gap_calls = n_calls[tr.col("kernels.gap")]
    m = {
        "planner.decisions": (n_dec, "count"),
        "planner.commit_replays": (len(calls) - n_dec, "count"),
        "planner.decision_ms_p50": (_pct(plan[is_decision], 50) * 1e3, "ms"),
        "planner.commit_ms_p50": (_pct(plan[~is_decision], 50) * 1e3, "ms"),
        "planner.decide_ms": (ms("planner.decide"), "ms"),
        "identification.predict_ms": (ms("identification.predict"), "ms"),
        "identification.predictions": (per_dec("identification.predict"), "count"),
        "identification.enumerate_ms": (ms("identification.enumerate"), "ms"),
        "identification.filter_ms": (ms("identification.filter"), "ms"),
        "identification.ttc_ms": (ms("identification.ttc"), "ms"),
        "identification.ttc_calls": (per_dec("identification.ttc"), "count"),
        "identification.feasible_share": (
            sum(c.feasible for c in decisions) / max(sum(c.built for c in decisions), 1),
            "ratio"),
        "resources.assess_ms": (ms("resources.assess"), "ms"),
        "resources.safety_ms": (ms("resources.safety"), "ms"),
        "resources.crowdedness_ms": (ms("resources.crowdedness"), "ms"),
        "bezier.sample_calls": (per_dec("bezier.sample"), "count"),
        "bezier.sample_ms": (ms("bezier.sample"), "ms"),
        "bezier.arc_length_calls": (per_dec("bezier.arc_length"), "count"),
        "kernels.gap_calls": (per_dec("kernels.gap"), "count"),
        "kernels.gap_ms": (ms("kernels.gap"), "ms"),
        "kernels.gap_pairs_per_call": (
            float(n_poses[tr.col("kernels.gap")] / max(gap_calls, 1)), "count"),
        "kernels.curve_calls": (per_dec("kernels.curve"), "count"),
        "scenario.project_calls": (per_dec("scenario.project"), "count"),
        "scenario.project_ms": (ms("scenario.project"), "ms"),
        "scenario.point_at_calls": (per_dec("scenario.point_at"), "count"),
        "simulator.tick_ms": (sum(s.median("sim_s") for s in timed) / ticks * 1e3, "ms"),
        "simulator.project_calls": (outside_project / ticks, "count"),
        "simulator.log_kb_per_decision": (retained_log_kb(timed, cfg), "KB"),
        "artifacts.write_ms": (_pct([s.median("write_s") for s in timed], 50) * 1e3, "ms"),
        "artifacts.kb": (_pct([s.reference.artifact_bytes for s in timed], 50) / 1024.0, "KB"),
        "setup.import_ms": (statistics.median(p[1]["import_ms"] for p in probes), "ms"),
        "setup.warmup_ms": (statistics.median(p[1]["warmup_ms"] for p in probes), "ms"),
        "trace.plan_ms_p50": (_pct(traced, 50) * 1e3, "ms"),
        "trace.overhead_ms": ((_pct(traced, 50) - _pct(plan, 50)) * 1e3, "ms"),
    }
    for j, module in enumerate(tr.MODULES):
        m[f"{module}.self_ms"] = (float(self_s[:, j].mean() * 1e3) if len(self_s) else 0.0, "ms")
    return m
