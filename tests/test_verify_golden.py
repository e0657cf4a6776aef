"""Behaviour gate: ``weylccr verify`` must reproduce the stored reports.

``--suite all`` is pinned at d = 1 on the default frame (seed 1) and at
d = 2 on the identity frame (seed 0); ``--suite states`` is pinned on two
frames whose basis contains tau, E = tau (d = 1, seed 1) and
[[1 + tau, 1/3], [0, tau]] (d = 2, seed 0); ``--suite tri`` is pinned at
d = 2 on the identity frame (seed 2), a seed whose random Bloch states have
support differences outside the drawn probes' momentum box.

Pass flags, check names and the worst probe and worst value of every exact
check must be equal; other worst values may move by last-bit noise only.
"""

import json
import math
from pathlib import Path

import pytest

from conftest import VERIFY_ALL, run_json

DATA = Path(__file__).parent / "data"


D2 = {"d": 2, "E": [["1", "0"], ["0", "1"]]}
TAU_D1 = {"d": 1, "E": [[{"num": {"1": "1"}}]]}
SKEW_D2 = {"d": 2, "E": [[{"num": {"0": "1", "1": "1"}}, "1/3"], ["0", {"num": {"1": "1"}}]]}


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


@pytest.mark.parametrize("d, seed", VERIFY_ALL, ids=["d1_seed1", "d2_seed0"])
def test_verify_all_matches_golden_report(d, seed, verify_all):
    code, got = verify_all[d, seed]
    _assert_matches(code, got, f"verify_all_d{d}_seed{seed}.json")


@pytest.mark.parametrize("frame, seed, golden", [
    (TAU_D1, 1, "verify_states_tau_d1_seed1.json"),
    (SKEW_D2, 0, "verify_states_skew_d2_seed0.json"),
], ids=["tau_d1_seed1", "skew_d2_seed0"])
def test_verify_states_matches_golden_report_on_tau_frames(frame, seed, golden, tmp_path):
    code, got = run_json(["verify", "--suite", "states", "--seed", str(seed), "--output", "json"],
                         frame, tmp_path)
    _assert_matches(code, got, golden)


def test_verify_tri_matches_golden_report_d2_seed2(tmp_path):
    code, got = run_json(["verify", "--suite", "tri", "--seed", "2", "--output", "json"],
                         D2, tmp_path)
    _assert_matches(code, got, "verify_tri_d2_seed2.json")


def test_each_states_row_runs_alone_in_any_order():
    from weylccr.serialization import frame_from_json
    from weylccr.verify import CHECKS, RunConfig

    config = RunConfig(frame=frame_from_json(SKEW_D2), seed=0)
    rows = [name for name in CHECKS if name.startswith("states.")]
    ran = {name: [r.as_dict() for r in CHECKS[name](config)] for name in reversed(rows)}
    checks = [result for name in rows for result in ran[name]]
    ok = all(c["pass"] for c in checks)
    _assert_matches(0 if ok else 1, {"pass": ok, "checks": checks},
                    "verify_states_skew_d2_seed0.json")


def test_the_suites_are_views_of_the_check_table():
    from weylccr import verify

    # every row belongs to a suite of the CLI, and the table is in report order
    suites = ["weyl", "ergodic", "states", "covariance", "tri", "zak", "gns", "paths"]
    assert list(verify.SUITES) == suites
    prefixes = [name.split(".")[0] for name in verify.CHECKS]
    assert prefixes == sorted(prefixes, key=suites.index)
    assert all(verify.SUITES[key] is getattr(verify, f"suite_{key}") for key in verify.SUITES)
    with pytest.raises(ValueError, match="weyl.associativity"):
        verify.check("weyl.associativity")(lambda config, rng, frame, d: iter(()))


def test_counted_reports_the_count_and_the_first_witness():
    from weylccr.verify import _counted

    assert _counted("c", []).as_dict() == {
        "check": "c", "pass": True, "worst_value": 0.0, "worst_probe": ""}
    report = _counted("c", ["", "u(1)v(0)", "", "u(2)v(0)"])
    assert (report.passed, report.worst_value, report.worst_probe) == (False, 4.0, "u(1)v(0)")
    assert _counted("c", ["", ""]).worst_probe == ""


def test_a_nan_step_in_second_place_fails_the_refinement_row(monkeypatch):
    from itertools import cycle

    from weylccr import Frame, verify

    steps = cycle([0.5, math.nan, 0.25])
    monkeypatch.setattr(verify, "weak_star_distance", lambda s1, s2, probes: next(steps))
    config = verify.RunConfig(frame=Frame.standard(1))
    rate = {r.check: r for r in verify.CHECKS["paths.probes"](config)}[
        "paths.linear_refinement_rate"]
    assert not rate.passed and math.isnan(rate.worst_value)


def test_a_nan_real_part_in_second_place_fails_the_squares_row(monkeypatch):
    from weylccr import Frame, Tracial, verify

    class Broken(Tracial):
        def evaluate(self, x):
            return complex(math.nan, 0.0)
    monkeypatch.setattr(verify, "_family_zoo", lambda rng, frame: [("broken", Broken())])
    [squares] = verify.CHECKS["states.positive_squares"](verify.RunConfig(frame=Frame.standard(1)))
    assert not squares.passed and math.isnan(squares.worst_value)


def test_a_nan_triangle_gap_in_second_place_fails_the_weak_star_row(monkeypatch):
    from itertools import chain, cycle

    from weylccr import Frame, verify

    # seven self distances, then d12, d21, d13, d23 per triple: d13 is NaN
    distances = chain([0.0] * 7, cycle([0.0, 0.0, math.nan, 0.0]))
    monkeypatch.setattr(verify, "weak_star_distance", lambda s1, s2, probes: next(distances))
    [laws] = verify.CHECKS["states.weak_star"](verify.RunConfig(frame=Frame.standard(1)))
    assert not laws.passed and math.isnan(laws.worst_value)
