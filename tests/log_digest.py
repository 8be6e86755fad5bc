"""Print one sha256 of `log.csv` plus `events.json` per (scenario, planner).

    python3 tests/log_digest.py                        # shipped scenarios and conftest arcs
    python3 tests/log_digest.py --workload-seeds 1 2   # also the perfbench drives of seeds 1, 2
    python3 tests/log_digest.py --out DIR              # also write each run's two files
    python3 tests/log_digest.py --diff DIR_A DIR_B     # where two --out trees differ

Each line is `<scenario> <planner> <sha256>`, the digest of the two files'
bytes as `cormp run` writes them, for the eight scenarios in `scenarios/`,
the two curved roads of `tests/conftest.py` and, with `--workload-seeds`,
every distinct drive of the three `perfbench` workloads at those seeds, each
under every planner of `cormp.baselines.PLANNERS`. Run it in two checkouts and
`diff` the outputs to see which logs a change moved. `tests/log_digests.txt`
holds the lines of `--workload-seeds 1`, which `test_log_digests.py` checks.

`--out DIR` writes each run's files to `DIR/<scenario>/<planner>/`. `--diff`
compares two such trees and prints one line per run that differs: the first
`log.csv` row that differs with its columns that differ, how many rows
differ, the largest ego position difference over the rows both logs have,
which discrete columns (`DISCRETE`, and every `feasible_*` and `state_*`)
differ in any of those rows, and whether `events.json` differs. It exits
with 1 if any run differs.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import CURVED  # noqa: E402

from cormp import PlannerConfig, load_scenario, make_planner, simulator  # noqa: E402
from cormp.baselines import PLANNERS  # noqa: E402
ARTIFACTS = ("log.csv", "events.json")
# the log's decisions and rule outcomes, as against its continuous poses and values
DISCRETE = ("ego_lane", "maneuver", "committed", "fallback", "events")


def is_discrete(column: str) -> bool:
    return column in DISCRETE or column.startswith(("feasible_", "state_"))


def documents(workload_seeds: list) -> dict:
    """Scenario name -> document, each distinct document once.

    A workload drive named like a different document is listed as
    `<workload>/<name>`.
    """
    docs = {}
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        with open(path, "r", encoding="utf-8") as fh:
            docs[path.stem] = json.load(fh)
    docs.update(CURVED)
    if workload_seeds:
        sys.path.insert(0, str(ROOT / "perfbench"))
        import workloads
        for seed in workload_seeds:
            for workload in workloads.WORKLOADS:
                for drive in workloads.make(workload, ROOT, seed):
                    same = docs.get(drive.name, drive.doc) == drive.doc
                    docs.setdefault(drive.name if same else f"{workload}/{drive.name}",
                                    drive.doc)
    return docs


def artifacts(doc, planner: str) -> tuple:
    """The texts of one run's `log.csv` and `events.json`."""
    scenario = load_scenario(doc)
    cfg = PlannerConfig()
    log = simulator.run(scenario, make_planner(planner, cfg, scenario.profile), cfg)
    return log.to_csv(), json.dumps(log.events_json(), indent=2) + "\n"


def sha256(texts: tuple) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def digest(doc, planner: str) -> str:
    return sha256(artifacts(doc, planner))


def write_run(run_dir: Path, texts: tuple) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, text in zip(ARTIFACTS, texts):
        (run_dir / name).write_text(text, encoding="utf-8", newline="\n")


def diff_logs(rows_a: list, rows_b: list) -> str:
    """Where two `log.csv` row lists (header first) differ; empty if they are equal."""
    if rows_a == rows_b:
        return ""
    if rows_a[0] != rows_b[0]:
        return f"log.csv headers differ: {rows_a[0]} vs {rows_b[0]}"
    header = rows_a[0]
    body_a, body_b = rows_a[1:], rows_b[1:]
    pairs = list(zip(body_a, body_b))
    differ = [i for i, (a, b) in enumerate(pairs) if a != b]
    first = differ[0] if differ else len(pairs)
    ix, iy, it = header.index("ego_x"), header.index("ego_y"), header.index("t")
    moved = max(math.hypot(float(a[ix]) - float(b[ix]), float(a[iy]) - float(b[iy]))
                for a, b in pairs) if pairs else 0.0
    if differ:
        a, b = pairs[first]
        where = (f"first differing row {first} (t = {a[it]}), columns "
                 + ", ".join(c for c, x, y in zip(header, a, b) if x != y))
    else:
        where = f"first differing row {first}, past the end of the shorter log"
    discrete = [k for k, c in enumerate(header) if is_discrete(c)
                and any(pairs[i][0][k] != pairs[i][1][k] for i in differ)]
    return (f"{where}; {len(differ)} of {len(pairs)} common rows differ, "
            f"{len(body_a)} vs {len(body_b)} rows; "
            f"largest ego position difference {moved:.6g} m; "
            + (f"discrete columns differ: {', '.join(header[k] for k in discrete)}"
               if discrete else "no discrete column differs"))


def diff_runs(dir_a: Path, dir_b: Path) -> list:
    """One line per run that differs between two `--out` trees."""
    runs = sorted({p.parent.relative_to(root).as_posix()
                   for root in (dir_a, dir_b) for p in root.rglob(ARTIFACTS[0])})
    out = []
    for run in runs:
        a, b = dir_a / run, dir_b / run
        has_a, has_b = (a / ARTIFACTS[0]).is_file(), (b / ARTIFACTS[0]).is_file()
        if not (has_a and has_b):
            out.append(f"{run}: only in {dir_a if has_a else dir_b}")
            continue
        logs = diff_logs(*(list(csv.reader((d / ARTIFACTS[0]).read_text(encoding="utf-8")
                                           .splitlines())) for d in (a, b)))
        notes = [logs] if logs else []
        if (a / ARTIFACTS[1]).read_bytes() != (b / ARTIFACTS[1]).read_bytes():
            notes.append("events.json differs")
        if notes:
            out.append(f"{run}: " + "; ".join(notes))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload-seeds", type=int, nargs="*", default=[],
                        help="also digest the perfbench workloads' drives at these seeds")
    parser.add_argument("--out", type=Path,
                        help="also write each run's files to OUT/<scenario>/<planner>/")
    parser.add_argument("--diff", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two --out trees instead of running")
    args = parser.parse_args(argv)
    if args.diff:
        lines = diff_runs(*args.diff)
        for line in lines:
            print(line)
        return 1 if lines else 0
    for name, doc in documents(args.workload_seeds).items():
        for planner in PLANNERS:
            texts = artifacts(doc, planner)
            if args.out:
                write_run(args.out / name / planner, texts)
            print(f"{name} {planner} {sha256(texts)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
