"""Print one sha256 of `log.csv` plus `events.json` per (scenario, planner).

    python3 tests/log_digest.py                        # shipped scenarios and conftest arcs
    python3 tests/log_digest.py --workload-seeds 1 2   # also the perfbench drives of seeds 1, 2

Each line is `<scenario> <planner> <sha256>`, the digest of the two files'
bytes as `cormp run` writes them, for the eight scenarios in `scenarios/`,
the two curved roads of `tests/conftest.py` and, with `--workload-seeds`,
every distinct drive of the three `perfbench` workloads at those seeds, each
under cor-mp, mobil and utility. Run it in two checkouts and `diff` the
outputs to see which logs a change moved. `tests/log_digests.txt` holds the
lines without workload seeds, which `test_log_digests.py` checks.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import CURVED  # noqa: E402

from cormp import PlannerConfig, load_scenario, make_planner, simulator  # noqa: E402

PLANNERS = ("cor-mp", "mobil", "utility")


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


def digest(doc, planner: str) -> str:
    scenario = load_scenario(doc)
    cfg = PlannerConfig()
    log = simulator.run(scenario, make_planner(planner, cfg, scenario.profile), cfg)
    h = hashlib.sha256(log.to_csv().encode("utf-8"))
    h.update((json.dumps(log.events_json(), indent=2) + "\n").encode("utf-8"))
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload-seeds", type=int, nargs="*", default=[],
                        help="also digest the perfbench workloads' drives at these seeds")
    args = parser.parse_args(argv)
    for name, doc in documents(args.workload_seeds).items():
        for planner in PLANNERS:
            print(f"{name} {planner} {digest(doc, planner)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
