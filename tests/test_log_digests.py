"""The closed-loop logs of the shipped scenarios, the conftest arcs and the
benchmark's seed-1 drives, byte for byte.

`log_digests.txt` holds one `<scenario> <planner> <sha256>` line per run, as
`python3 tests/log_digest.py --workload-seeds 1` prints them, under a header
that names the Python and numpy versions it was written with. A change that
moves a log on purpose rewrites the file and says which runs moved; so does
a change to the drives that `perfbench/workloads.py` makes.
"""
import pathlib
import platform
import shutil

import numpy as np

import log_digest

GOLDEN = pathlib.Path(__file__).with_name("log_digests.txt")


def test_every_log_matches_its_golden_digest():
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    want = dict(line.rsplit(" ", 1) for line in lines if not line.startswith("#"))
    assert len(want) == 66
    got = {f"{name} {planner}": log_digest.digest(doc, planner)
           for name, doc in log_digest.documents([1]).items()
           for planner in log_digest.PLANNERS}
    differ = sorted(run for run in want.keys() | got.keys() if want.get(run) != got.get(run))
    assert not differ, (
        f"{len(differ)} of {len(want)} logs differ from {GOLDEN.name}: {differ}\n"
        f"{GOLDEN.name} header: {' '.join(header)}\n"
        f"here: Python {platform.python_version()}, numpy {np.__version__}")


def test_diff_names_the_row_column_and_ego_shift_of_a_planted_change(tmp_path, capsys):
    doc = log_digest.documents([])["slow_lead"]
    a, b = tmp_path / "a", tmp_path / "b"
    log_digest.write_run(a / "slow_lead" / "mobil", log_digest.artifacts(doc, "mobil"))
    shutil.copytree(a, b)
    assert log_digest.main(["--diff", str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""

    # one cell: ego_x of data row 12 moves 0.25 m
    log = b / "slow_lead" / "mobil" / "log.csv"
    rows = log.read_text(encoding="utf-8").split("\n")
    header = rows[0].split(",")
    cells = rows[13].split(",")
    cells[header.index("ego_x")] = repr(float(cells[header.index("ego_x")]) + 0.25)
    rows[13] = ",".join(cells)
    log.write_text("\n".join(rows), encoding="utf-8")
    assert log_digest.main(["--diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("slow_lead/mobil: first differing row 12 ")
    assert "columns ego_x;" in out[0]
    assert "1 of 400 common rows differ" in out[0]
    assert "largest ego position difference 0.25 m; no discrete column differs" in out[0]
    assert "events.json" not in out[0]

    # and the maneuver of data row 30 as well
    cells = rows[31].split(",")
    cells[header.index("maneuver")] = "stop"
    rows[31] = ",".join(cells)
    log.write_text("\n".join(rows), encoding="utf-8")
    assert log_digest.main(["--diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and "2 of 400 common rows differ" in out[0]
    assert out[0].endswith("; discrete columns differ: maneuver")

    # and an events.json that differs, with log.csv restored
    shutil.copy(a / "slow_lead" / "mobil" / "log.csv", log)
    events = b / "slow_lead" / "mobil" / "events.json"
    events.write_text(events.read_text(encoding="utf-8") + " ", encoding="utf-8")
    assert log_digest.main(["--diff", str(a), str(b)]) == 1
    assert capsys.readouterr().out == "slow_lead/mobil: events.json differs\n"
