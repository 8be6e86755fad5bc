"""Command line harness.

    cormp run scenarios/slow_lead.json --planner cor-mp --out runs/slow_lead
    cormp compare scenarios/highway.json --planners cor-mp,mobil,utility

Exit codes: 0 clean run, 1 bad usage or unreadable input, 2 the run finished
but logged at least one collision or rule violation.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baselines import PLANNERS, make_planner
from .config import PROFILES, load_config
from .metrics import compute_metrics
from .scenario import ScenarioError, load_scenario
from .simulator import SimLog, run
from .timeline import write_timeline


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the harness contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cormp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--profile", choices=PROFILES,
                       help="override the scenario's driving profile")
        p.add_argument("--config", help="planner config JSON (or set CORMP_CONFIG)")
        p.add_argument("--out", help="output directory")

    p_run = sub.add_parser("run", help="simulate one scenario under one planner")
    common(p_run)
    p_run.add_argument("--planner", choices=tuple(PLANNERS), default="cor-mp")

    p_cmp = sub.add_parser("compare", help="run several planners on one scenario")
    common(p_cmp)
    p_cmp.add_argument("--planners", default=",".join(PLANNERS),
                       help="comma separated planner names")
    return parser


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_run_outputs(out: Path, log: SimLog, scenario) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "log.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(log.to_csv())
    _write_json(out / "events.json", log.events_json())
    metrics = compute_metrics(log, scenario).to_dict()
    _write_json(out / "metrics.json", metrics)
    write_timeline(out / "timeline.svg", [(log.planner, log)], scenario.duration_s)
    return metrics


def _setup(args) -> tuple:
    scenario = load_scenario(args.scenario)
    config = load_config(args.config)
    profile = args.profile if args.profile else scenario.profile
    return scenario, config, profile


def _cmd_run(args) -> int:
    scenario, config, profile = _setup(args)
    planner = make_planner(args.planner, config, profile)
    log = run(scenario, planner, config)
    out = Path(args.out) if args.out else Path("runs") / f"{scenario.name}-{args.planner}"
    metrics = _write_run_outputs(out, log, scenario)
    print(f"{scenario.name} [{args.planner}/{profile}]: "
          f"avg speed {metrics['avg_speed_mps']:.2f} m/s, "
          f"{metrics['collisions']} collisions, "
          f"{metrics['rule_violations']} violations -> {out}")
    return 2 if metrics["collisions"] or metrics["rule_violations"] else 0


def _cmd_compare(args) -> int:
    scenario, config, profile = _setup(args)
    names = [n.strip() for n in args.planners.split(",") if n.strip()]
    if not names:
        raise ValueError("--planners needs at least one planner name")
    out = Path(args.out) if args.out else Path("runs") / f"{scenario.name}-compare"
    out.mkdir(parents=True, exist_ok=True)

    report, logs, incidents = {}, [], False
    for name in names:
        planner = make_planner(name, config, profile)
        log = run(scenario, planner, config)
        metrics = report[name] = _write_run_outputs(out / name, log, scenario)
        logs.append((name, log))
        incidents = incidents or metrics["collisions"] or metrics["rule_violations"]
        print(f"  {name}: avg speed {metrics['avg_speed_mps']:.2f} m/s, "
              f"energy {metrics['kinetic_energy_kj']:.1f} kJ, "
              f"{metrics['collisions']} collisions, "
              f"{metrics['rule_violations']} violations")
    _write_json(out / "report.json", {"scenario": scenario.name, "profile": profile,
                                      "planners": report})
    write_timeline(out / "timeline.svg", logs, scenario.duration_s)
    print(f"compare report -> {out}")
    return 2 if incidents else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"cormp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
