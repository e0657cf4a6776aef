"""Behaviour gate at d = 2: ``weylccr verify --suite all --seed 0`` on the
identity frame must reproduce the stored report.

Pass flags, check names and the worst probe and worst value of every exact
check must be equal; other worst values may move by last-bit noise only.
"""

import contextlib
import io
import json
import math
from pathlib import Path

from weylccr.cli import main

GOLDEN = Path(__file__).parent / "data" / "verify_all_d2_seed0.json"


def test_verify_all_d2_matches_golden_report(tmp_path):
    frame = tmp_path / "frame_d2.json"
    frame.write_text(json.dumps({"d": 2, "E": [["1", "0"], ["0", "1"]]}))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "--suite", "all", "--seed", "0", "--frame", str(frame),
                     "--output", "json"])
    got = json.loads(buf.getvalue())
    want = json.loads(GOLDEN.read_text())

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
