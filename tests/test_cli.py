import builtins
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from weylccr.cli import main
from weylccr.serialization import dumps, frame_to_json
from weylccr.states import PATH_KINDS
from weylccr import Frame, TAU
from conftest import malformed_endpoints, malformed_frames, malformed_states, run_json

DATA = Path(__file__).parent / "data"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simplify_normal_orders(capsys):
    code, out, _ = run(capsys, "simplify", "--elem", "v(1/2)*u(1/2)")
    assert code == 0
    assert "u(1/2)v(1/2)" in out
    assert "-1j" in out


def test_simplify_zero(capsys):
    code, out, _ = run(capsys, "simplify", "--elem", "u(0)*v(0) - 1")
    assert code == 0
    assert out.strip() == "0"


def test_simplify_json_mode(capsys):
    code, out, _ = run(capsys, "simplify", "--elem", "2i*v(1)", "--output", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [{"a": ["0"], "b": ["1"], "re": 0.0, "im": 2.0}]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "simplify", "--elem", "u(1/2")
    assert code == 2
    assert "position" in err


def test_eval_tracial(tmp_path, capsys):
    state = tmp_path / "tracial.json"
    state.write_text(json.dumps({"family": "tracial"}))
    code, out, _ = run(capsys, "eval", "--state", str(state),
                       "--elem", "u(1)*v(1)")
    assert code == 0
    assert out.strip() == "0+0i"


def test_eval_zak_lattice(tmp_path, capsys):
    state = tmp_path / "zak.json"
    state.write_text(json.dumps({"family": "zak", "kappa": ["0"], "nu": ["0"]}))
    code, out, _ = run(capsys, "eval", "--state", str(state),
                       "--elem", "u(1)*v(1)")
    assert code == 0
    assert out.strip() == "1+0i"


def test_eval_fock_unit(tmp_path, capsys):
    state = tmp_path / "fock.json"
    state.write_text(json.dumps({"family": "fock"}))
    code, out, _ = run(capsys, "eval", "--state", str(state), "--elem", "1",
                       "--output", "json")
    assert code == 0
    assert json.loads(out) == {"re": 1.0, "im": 0.0}


def test_eval_fock_with_frame_file(tmp_path, capsys):
    state = tmp_path / "fock.json"
    state.write_text(json.dumps({"family": "fock"}))
    frame = tmp_path / "frame.json"
    frame.write_text(dumps(frame_to_json(Frame.from_basis([[TAU]]))))
    code, out, _ = run(capsys, "eval", "--state", str(state),
                       "--elem", "u(1)", "--frame", str(frame))
    assert code == 0
    assert out.strip().startswith("0.778800783071405")


@pytest.mark.parametrize("entry, elem", [(str(10**400), "v(1)"), ("1/" + str(10**400), "u(1)")],
                         ids=["huge", "tiny"])
def test_eval_on_a_frame_past_the_float_range(entry, elem, tmp_path, capsys):
    state = tmp_path / "fock.json"
    state.write_text(json.dumps({"family": "fock"}))
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"d": 1, "E": [[entry]]}))
    code, out, err = run(capsys, "eval", "--state", str(state), "--elem", elem,
                         "--frame", str(frame))
    assert code in (0, 2)
    if code == 0:
        assert out.strip() == "0+0i"
    else:
        assert err.startswith("error: ")


def test_eval_on_a_frame_with_a_denominator_root_at_two_pi(tmp_path, capsys):
    state = tmp_path / "fock.json"
    state.write_text(json.dumps({"family": "fock"}))
    frame = tmp_path / "frame.json"
    # 1 / (q tau - p) with p / q the double 2*pi
    frame.write_text(json.dumps({"d": 1, "E": [[{
        "num": {"0": "1"}, "den": {"0": "-884279719003555", "1": "140737488355328"}}]]}))
    code, out, err = run(capsys, "eval", "--state", str(state), "--elem", "v(1)",
                         "--frame", str(frame))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_eval_rejects_bad_state(tmp_path, capsys):
    state = tmp_path / "bad.json"
    state.write_text(json.dumps({"family": "bloch", "kappa": ["0"],
                                 "fhat": [{"idx": [0], "re": 0.5, "im": 0.0}]}))
    code, _, err = run(capsys, "eval", "--state", str(state), "--elem", "1")
    assert code == 2
    assert "normalized" in err


def test_eval_rejects_a_fractional_fourier_index(tmp_path, capsys):
    state = tmp_path / "bloch.json"
    state.write_text(json.dumps({"family": "bloch", "kappa": ["0"], "fhat": [
        {"idx": [0.5], "re": 0.6}, {"idx": [0.7], "re": 0.8}]}))
    code, out, err = run(capsys, "eval", "--state", str(state), "--elem", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


MALFORMED_INPUTS = {
    "plane_wave_p_not_a_list": ("state", {"family": "plane_wave", "p": 5}),
    "state_is_a_list": ("state", [1, 2]),
    "bloch_idx_is_an_int": ("state", {"family": "bloch", "kappa": ["0"],
                                      "fhat": [{"idx": 0, "re": 1.0}]}),
    "mixture_component_is_a_list": ("state", {"family": "mixture",
                                              "components": [[1.0, {"family": "fock"}]]}),
    "frame_E_not_a_matrix": ("frame", {"d": 1, "E": 5}),
}


@pytest.mark.parametrize("case, command", [
    (case, command) for case, (kind, _) in sorted(MALFORMED_INPUTS.items())
    for command in (("eval", "simplify") if kind == "frame" else ("eval",))])
def test_malformed_json_exits_2_with_one_error_line(case, command, tmp_path, capsys):
    kind, obj = MALFORMED_INPUTS[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    args = [command, "--elem", "u(1)"]
    if command == "eval":
        good = tmp_path / "fock.json"
        good.write_text(json.dumps({"family": "fock"}))
        args += ["--state", str(bad if kind == "state" else good)]
    if kind == "frame":
        args += ["--frame", str(bad)]
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed ")


def test_verify_pass_and_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "covariance", "--seed", "5")
    assert code == 0
    assert "[PASS]" in out
    assert "FAIL" not in out


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "paths", "--seed", "7",
                         "--output", "json")
    code2, out2, _ = run(capsys, "verify", "--suite", "paths", "--seed", "7",
                         "--output", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["pass"] is True
    assert all(set(c) == {"check", "pass", "worst_value", "worst_probe"}
               for c in report["checks"])


def test_verify_paths_with_a_zero_length_zak_line(capsys):
    """At seed 203 both zak_line endpoints are drawn equal: that path stands
    still, so it has no refinement rate and the other two paths are rated."""
    code, out, err = run(capsys, "verify", "--suite", "paths", "--seed", "203",
                         "--output", "json")
    assert code == 0 and err == ""
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert len(checks) == 3 and all(c["pass"] for c in checks.values())
    assert checks["paths.linear_refinement_rate"]["worst_probe"] != "zak_line"


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


PATH_DEMO_ENDPOINTS = {
    "plane_wave_line": lambda d: (
        {"family": "plane_wave", "p": ["3/2", "-1/2"][:d]},
        {"family": "plane_wave", "p": ["0"] * d}),
    "zak_line": lambda d: (
        {"family": "zak", "kappa": ["1/4", "0"][:d], "nu": ["0", "1/3"][:d]},
        {"family": "zak", "kappa": ["1/2", "5/6"][:d], "nu": ["2/3", "0"][:d]}),
    "bloch_slerp": lambda d: (
        {"family": "bloch", "kappa": ["0"] * d,
         "fhat": [{"idx": [0] * d, "re": 1.0}]},
        {"family": "bloch", "kappa": ["1/2"] * d,
         "fhat": [{"idx": [-1] * d, "re": 0.6},
                  {"idx": [0] * d, "re": 0.0, "im": 0.8}]}),
}


def path_demo_args(kind, d, tmp_path) -> list:
    """``path-demo`` arguments of the stored report of ``kind`` at d (seed 3)."""
    start, end = PATH_DEMO_ENDPOINTS[kind](d)
    endpoints = tmp_path / "endpoints.json"
    endpoints.write_text(json.dumps({"start": start, "end": end}))
    args = ["path-demo", "--kind", kind, "--endpoints", str(endpoints),
            "--grid", "8", "--seed", "3"]
    if d != 1:
        frame = tmp_path / "frame.json"
        frame.write_text(dumps(frame_to_json(Frame.standard(d))))
        args += ["--frame", str(frame)]
    return args


@pytest.mark.parametrize("d", [1, 2], ids=["d1", "d2"])
@pytest.mark.parametrize("kind", sorted(PATH_DEMO_ENDPOINTS))
def test_path_demo(kind, d, tmp_path, capsys):
    """The JSON report equals the stored one (seed 3), which pins the probe set."""
    args = path_demo_args(kind, d, tmp_path)
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "endpoints exact" in out

    code, out, _ = run(capsys, *args, "--output", "json")
    report = json.loads(out)
    assert report["endpoints_exact"] is True
    assert len(report["distances"]) == 8
    if kind == "plane_wave_line":  # the probes v(e_i) see every plane wave
        assert all(dist > 0 for dist in report["distances"])
    assert out == (DATA / "path_demo" / f"{kind}_d{d}_seed3.json").read_text()


def test_path_demo_family_mismatch(tmp_path, capsys):
    endpoints = tmp_path / "endpoints.json"
    endpoints.write_text(json.dumps({
        "start": {"family": "plane_wave", "p": ["1"]},
        "end": {"family": "fock"},
    }))
    code, _, err = run(capsys, "path-demo", "--kind", "plane_wave_line",
                       "--endpoints", str(endpoints))
    assert code == 2


def test_identical_config_identical_reports(capsys):
    args = ["verify", "--suite", "tri", "--seed", "11", "--output", "json"]
    out1 = run(capsys, *args)[1]
    out2 = run(capsys, *args)[1]
    assert out1 == out2


BAD_FILES = {
    "not_utf8": b"\xff\xfe",
    "not_json": b"{oops",
    "nested_past_the_recursion_limit": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_unreadable_json_file_exits_2_naming_it(case, tmp_path, capsys):
    bad = tmp_path / f"{case}.json"
    bad.write_bytes(BAD_FILES[case])
    code, out, err = run(capsys, "eval", "--state", str(bad), "--elem", "1")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: malformed JSON in {bad}")


@pytest.mark.parametrize("endpoints", [[1, 2], {"start": {"family": "fock"}}])
def test_malformed_endpoints_exit_2_with_one_error_line(endpoints, tmp_path, capsys):
    path = tmp_path / "endpoints.json"
    path.write_text(json.dumps(endpoints))
    code, out, err = run(capsys, "path-demo", "--kind", "zak_line", "--endpoints", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: malformed endpoints JSON")


@pytest.mark.parametrize("suite", ["states", "covariance", "zak", "weyl"])
def test_zero_dimensional_frame_exits_2(suite, tmp_path, capsys):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"d": 0, "E": []}))
    code, out, err = run(capsys, "verify", "--suite", suite, "--frame", str(frame))
    assert code == 2 and out == ""
    assert "non-empty" in err


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_grid_must_be_positive(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["path-demo", "--kind", "plane_wave_line", "--endpoints", "unread.json",
              "--grid", grid])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--tol", "1e-10"], ["--grid", "8"]], ids=["tol", "grid"])
def test_verify_takes_no_tolerance_or_grid(flag, capsys):
    """A verify run is a frame and a seed: its tolerance and grid are the
    constants every stored report was made with."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "gns"] + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_a_non_number_is_named_in_a_plain_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["path-demo", "--kind", "zak_line", "--endpoints", "unread.json", "--grid", "1.5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("error: argument --grid: 1.5 is not a positive integer")
    assert "invalid" not in err and "_positive_int" not in err


def test_suite_choices_are_the_check_table_suites():
    from weylccr import cli, verify
    assert cli.SUITE_NAMES == tuple(verify.SUITES)


def test_path_demo_keeps_a_nan_step_in_second_place(monkeypatch, tmp_path, capsys):
    steps = iter([0.0, float("nan")] + [0.0] * 6)
    monkeypatch.setattr("weylccr.cli.weak_star_distance", lambda s1, s2, probes: next(steps))
    start, end = PATH_DEMO_ENDPOINTS["zak_line"](1)
    endpoints = tmp_path / "endpoints.json"
    endpoints.write_text(json.dumps({"start": start, "end": end}))
    code, out, _ = run(capsys, "path-demo", "--kind", "zak_line", "--endpoints",
                       str(endpoints), "--grid", "8", "--output", "json")
    assert code == 0
    assert math.isnan(json.loads(out)["max"])


BUILTIN_SUM = builtins.sum


def compensated_sum(values, start=0):
    """``sum`` as newer Pythons compute it: a sum of floats, or of floats and
    complex numbers, is compensated.  ``math.fsum`` emulates that, over the
    real and over the imaginary parts of a complex sum (``Mixture.monomial_value``
    and the inner product of ``Bloch.time_reversal`` take such sums)."""
    values = list(values)
    kinds = {type(v) for v in values}
    if values and start == 0 and kinds == {float}:
        return math.fsum(values)
    if values and start == 0 and complex in kinds and kinds <= {float, complex}:
        return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
    return BUILTIN_SUM(values, start)


def test_the_emulation_compensates_float_and_complex_sums():
    parts = [1.0, 1e-16, 1e-16]
    assert compensated_sum(parts) == math.fsum(parts) > 1.0
    assert compensated_sum([0.5] + [p * 1j for p in parts]) == complex(0.5, math.fsum(parts))


def test_reports_do_not_depend_on_compensated_float_sums(verify_all, monkeypatch,
                                                         tmp_path, capsys):
    """Reports sum their floats left to right, so a builtin ``sum`` that
    compensates float and complex sums changes no verify report and no
    path-demo output."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    for (d, seed), want in verify_all.items():
        identity = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
        got = run_json(["verify", "--suite", "all", "--seed", str(seed), "--output", "json"],
                       None if d == 1 else {"d": d, "E": identity}, tmp_path)
        assert got == want, (d, seed)
    for d in (1, 2):
        _, out, _ = run(capsys, *path_demo_args("bloch_slerp", d, tmp_path),
                        "--output", "json")
        assert out == (DATA / "path_demo" / f"bloch_slerp_d{d}_seed3.json").read_text()


@pytest.mark.parametrize("family, extra", [
    ("zak", {"kappa": ["1/3", "0"], "nu": ["0", "0"]}),
    ("bloch", {"kappa": ["1/3", "0"], "fhat": [{"idx": [0, 0], "re": 1.0}]}),
])
def test_eval_of_a_state_of_another_dimension_exits_2(family, extra, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"family": family, **extra}))
    code, out, err = run(capsys, "eval", "--state", str(state), "--elem", "v(1)")
    assert code == 2 and out == ""
    assert "2-d" in err


@pytest.mark.parametrize("elem", ["(" * 3000 + "1" + ")" * 3000, "1" * 5000])
def test_parser_limits_exit_2(elem, capsys):
    code, out, err = run(capsys, "simplify", "--elem", elem)
    assert code == 2 and out == ""
    assert "position" in err


def test_a_fault_inside_a_suite_is_not_reported_as_a_usage_error(monkeypatch):
    def faulty(suite, config):
        raise KeyError("a fault in the program")
    monkeypatch.setattr("weylccr.verify.run_suite", faulty)
    with pytest.raises(KeyError):
        main(["verify", "--suite", "weyl"])


#: command line up to the path of a JSON file, and the strategy for the file's value
FILE_COMMANDS = st.one_of(
    st.tuples(st.just(["eval", "--elem", "u(1)*v(1/2) + 2*v(1)", "--state"]), malformed_states),
    st.tuples(st.sampled_from([["path-demo", "--grid", "2", "--kind", kind, "--endpoints"]
                               for kind in PATH_KINDS]), malformed_endpoints),
    st.tuples(st.sampled_from([["verify", "--suite", suite, "--frame"]
                               for suite in ("ergodic", "covariance", "tri")]), malformed_frames))


@settings(max_examples=60, deadline=None)
@given(FILE_COMMANDS)
def test_any_json_file_gives_exit_code_0_1_or_2(case):
    args, obj = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(obj))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(args + [str(path)]) in (0, 1, 2)
