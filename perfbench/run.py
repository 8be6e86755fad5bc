"""Closed-loop benchmark of the cor-mp planner.

    python3 perfbench/run.py --workload dense_highway --seed 1 --seconds 25 --trace 0

Runs ``simulator.run`` with ``CorMpPlanner`` on every drive of one workload,
one drive after another in this one process. Each drive is replayed in
whole rounds until ``--seconds`` have passed; every plan call takes the
median of its host-speed-calibrated times over the replays (see README.md
for why). Every drive's outputs are checked by ``checks.py``. The last line
of stdout is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics under ``--trace 0`` and the
per-layer metrics under ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load_program() -> None:
    """Put the checkout's own sources first on sys.path; fail if they are absent."""
    if not (ROOT / "src" / "cormp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cormp sources at {ROOT / 'src'}")
    if not (ROOT / "scenarios").is_dir():
        raise SystemExit(f"perfbench: no scenarios directory at {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    import workloads
    from closed_loop import (end_to_end, per_layer, prepare, reference_figures, rounds,
                             setup_probe, unexpected)
    from cormp import PlannerConfig

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    cfg = PlannerConfig()
    states = prepare(workloads.make(args.workload, ROOT, args.seed), cfg)
    probes = rounds(states, cfg, args.seconds, bool(args.trace),
                    probe=lambda: setup_probe(args.workload, args.seed))

    attempted = sum(s.replays for s in states)
    failed = sum(s.failed for s in states)
    surprises = [(s.drive.name, p) for s in states for p in unexpected(s)]
    for s in states:
        verdict = "ok" if not s.problems else ("known fault" if not unexpected(s) else "FAILED")
        print(f"{s.drive.name}: {s.replays} replays, {verdict}"
              + "".join(f"\n    {p}" for p in s.problems[:5]))
    metrics = per_layer(states, probes, cfg) if args.trace else end_to_end(states, probes)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} reference: " + ", ".join(
        f"{k} {v:.4g}" for k, v in reference_figures(states).items()))
    print(f"{args.workload}: {attempted} drives attempted, {failed} failed")
    print(json.dumps({
        "correct": not surprises,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
