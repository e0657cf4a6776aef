"""Behaviour gate: ``weylccr verify`` must reproduce the stored reports.

``--suite all`` is pinned at d = 1 on the default frame (seed 1) and at
d = 2 on the identity frame (seed 0); ``--suite states`` is pinned on two
frames whose basis contains tau, E = tau (d = 1, seed 1) and
[[1 + tau, 1/3], [0, tau]] (d = 2, seed 0).

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


TAU_D1 = {"d": 1, "E": [[{"num": {"1": "1"}}]]}
SKEW_D2 = {"d": 2, "E": [[{"num": {"0": "1", "1": "1"}}, "1/3"], ["0", {"num": {"1": "1"}}]]}


def _run(argv, frame, tmp_path) -> tuple:
    if frame is not None:
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(frame))
        argv = argv + ["--frame", str(path)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, json.loads(buf.getvalue())


def _assert_matches(code, got, golden):
    want = json.loads((DATA / golden).read_text())
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


@pytest.mark.parametrize("d, seed", [(1, 1), (2, 0)], ids=["d1_seed1", "d2_seed0"])
def test_verify_all_matches_golden_report(d, seed, tmp_path):
    identity = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
    code, got = _run(["verify", "--suite", "all", "--seed", str(seed), "--output", "json"],
                     None if d == 1 else {"d": d, "E": identity}, tmp_path)
    _assert_matches(code, got, f"verify_all_d{d}_seed{seed}.json")


@pytest.mark.parametrize("frame, seed, golden", [
    (TAU_D1, 1, "verify_states_tau_d1_seed1.json"),
    (SKEW_D2, 0, "verify_states_skew_d2_seed0.json"),
], ids=["tau_d1_seed1", "skew_d2_seed0"])
def test_verify_states_matches_golden_report_on_tau_frames(frame, seed, golden, tmp_path):
    code, got = _run(["verify", "--suite", "states", "--seed", str(seed), "--output", "json"],
                     frame, tmp_path)
    _assert_matches(code, got, golden)
