"""Reference verify reports and the comparison the verify workload applies.

A reference holds, for each seed, the fields of every check in
``weylccr verify --suite all --seed S --output json`` (d = 1, default frame)
that the behaviour gate pins: the check name, its pass flag, its worst value,
and for exact checks (name containing ``exact``) the worst probe as well.
Regenerate it with

    python3 bench/verify_ref.py SEED [SEED ...]

which adds or replaces the given seeds in ``bench/reference/verify.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference", "verify.json")

#: checks that fail for some seeds at the commit that defined this benchmark:
#: ``states.mixture_affine_exact`` compares floating sums taken in different
#: orders for exact equality, so at d=1 it reports a few mismatches on most
#: seeds.  Without a stored reference the pass flag of these checks is not
#: judged; with one it must equal the reference like every other field.
KNOWN_SEED_DEPENDENT = ("states.mixture_affine_exact",)

FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12


def verify_argv(seed: int) -> list:
    return ["verify", "--suite", "all", "--seed", str(seed), "--output", "json"]


def run_cli(main, argv: list) -> tuple[int, str]:
    """Run the CLI in-process and return its exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_verify(main, seed: int) -> tuple[int, str]:
    return run_cli(main, verify_argv(seed))


def pinned_fields(report: dict) -> list:
    out = []
    for c in report["checks"]:
        exact = "exact" in c["check"]
        out.append([c["check"], c["pass"], c["worst_value"],
                    c["worst_probe"] if exact else None])
    return out


def load_reference() -> dict:
    try:
        with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def compare(report: dict, seed: int, reference: dict, check_names: list | None) -> list:
    """Return a list of mismatch descriptions (empty when the report is right).

    With a stored reference for the seed every pinned field must match,
    floats within last-bit noise.  Without one, the check list must equal
    ``check_names`` and every check passes, except that the pass flag of a
    check in KNOWN_SEED_DEPENDENT is only required to agree with its value.
    """
    problems = []
    if report.get("suite") != "all" or report.get("seed") != seed:
        problems.append("report header does not echo the request")
    got = pinned_fields(report)
    if not got:
        return problems + ["report has no checks"]
    ref = reference.get(str(seed))
    if ref is not None:
        if len(ref) != len(got):
            return problems + [f"{len(got)} checks, reference has {len(ref)}"]
        for (name, ok, val, probe), (rname, rok, rval, rprobe) in zip(got, ref):
            if name != rname or ok != rok or probe != rprobe:
                problems.append(f"{name}: pinned field differs from reference")
            elif not math.isclose(val, rval, rel_tol=FLOAT_REL_TOL,
                                  abs_tol=FLOAT_ABS_TOL):
                problems.append(f"{name}: worst_value {val!r} vs {rval!r}")
        if report.get("pass") != all(r[1] for r in ref):
            problems.append("overall pass flag differs from reference")
        return problems
    if check_names is not None and [g[0] for g in got] != check_names:
        problems.append("check list differs from the reference check list")
    for name, ok, val, _ in got:
        if name in KNOWN_SEED_DEPENDENT:
            if ok != (val == 0.0):
                problems.append(f"{name}: pass flag disagrees with its count")
        elif not ok:
            problems.append(f"{name}: failed")
        elif "exact" in name and val != 0.0:
            problems.append(f"{name}: exact check reports {val!r}")
    return problems


def reference_check_names(reference: dict) -> list | None:
    rows = next(iter(reference.values()), None)
    return None if rows is None else [row[0] for row in rows]


def main(argv: list) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from weylccr.cli import main as cli_main

    seeds = [int(s) for s in argv]
    if not seeds:
        print("usage: verify_ref.py SEED [SEED ...]", file=sys.stderr)
        return 2
    for seed in seeds:
        _, text = run_verify(cli_main, seed)
        reference = load_reference()
        reference[str(seed)] = pinned_fields(json.loads(text))
        with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"seed {seed} done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
