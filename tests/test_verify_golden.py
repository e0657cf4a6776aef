"""Behaviour gate: ``weylccr verify --suite all`` must reproduce the stored
reports, at d = 1 on the default frame (seed 1) and at d = 2 on the identity
frame (seed 0).

Pass flags, check names and the worst probe and worst value of every exact
check must be equal; other worst values may move by last-bit noise only.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from weylccr.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("d, seed", [(1, 1), (2, 0)], ids=["d1_seed1", "d2_seed0"])
def test_verify_all_matches_golden_report(d, seed, tmp_path):
    argv = ["verify", "--suite", "all", "--seed", str(seed), "--output", "json"]
    if d != 1:
        frame = tmp_path / f"frame_d{d}.json"
        identity = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
        frame.write_text(json.dumps({"d": d, "E": identity}))
        argv += ["--frame", str(frame)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    got = json.loads(buf.getvalue())
    want = json.loads((DATA / f"verify_all_d{d}_seed{seed}.json").read_text())

    assert code == (0 if want["pass"] else 1)
    assert got["pass"] == want["pass"]
    assert [c["check"] for c in got["checks"]] == [c["check"] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        assert g["pass"] == w["pass"], g["check"]
        if "exact" in g["check"]:
            assert g["worst_value"] == w["worst_value"], g["check"]
            assert g["worst_probe"] == w["worst_probe"], g["check"]
        else:
            assert math.isclose(g["worst_value"], w["worst_value"],
                                rel_tol=1e-9, abs_tol=1e-12), g["check"]
