"""One set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports cormp, builds and loads the workload's scenarios, builds a cor-mp
planner per drive and makes one warm-up plan call on each, as ``run()``
does before its first tick. Prints one JSON line with the time of each
phase in ms, and the times of the host-speed calibrations it ran (three
after the imports and three after the warm-up; the first is slowed by its
cold start) in s; the parent process times the whole from spawn to that line.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from cormp import PlannerConfig, load_scenario, make_planner
    from speed import calibrate
    t1 = time.perf_counter()
    calibration = [calibrate() for _ in range(3)]
    t1c = time.perf_counter()
    cfg = PlannerConfig()
    scenarios = [load_scenario(d.doc) for d in workloads.make(workload, ROOT, seed)]
    t2 = time.perf_counter()
    planners = [make_planner("cor-mp", cfg, sc.profile) for sc in scenarios]
    t3 = time.perf_counter()
    for sc, planner in zip(scenarios, planners):
        planner.plan(sc, 0.0)
    t4 = time.perf_counter()
    calibration += [calibrate() for _ in range(3)]
    return {"import_ms": (t1 - t0) * 1e3, "load_ms": (t2 - t1c) * 1e3,
            "build_ms": (t3 - t2) * 1e3, "warmup_ms": (t4 - t3) * 1e3,
            "calibration_s": calibration}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))), flush=True)
