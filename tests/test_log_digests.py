"""The closed-loop logs of the shipped scenarios and the conftest arcs, byte for byte.

`log_digests.txt` holds one `<scenario> <planner> <sha256>` line per run, as
`python3 tests/log_digest.py` prints them, under a header that names the
Python and numpy versions it was written with. A change that moves a log on
purpose rewrites the file and says which runs moved.
"""
import pathlib
import platform

import numpy as np

import log_digest

GOLDEN = pathlib.Path(__file__).with_name("log_digests.txt")


def test_every_log_matches_its_golden_digest():
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    want = dict(line.rsplit(" ", 1) for line in lines if not line.startswith("#"))
    assert len(want) == 30
    got = {f"{name} {planner}": log_digest.digest(doc, planner)
           for name, doc in log_digest.documents([]).items()
           for planner in log_digest.PLANNERS}
    differ = sorted(run for run in want.keys() | got.keys() if want.get(run) != got.get(run))
    assert not differ, (
        f"{len(differ)} of {len(want)} logs differ from {GOLDEN.name}: {differ}\n"
        f"{GOLDEN.name} header: {' '.join(header)}\n"
        f"here: Python {platform.python_version()}, numpy {np.__version__}")
