"""Sweep ``weylccr verify --suite all`` over seeds and frames, in-process.

    python3 scripts/verify_sweep.py

Runs seeds 0-31 at d = 1 (default frame), seeds 0-15 at d = 2 (identity
frame), seeds 0-7 on each of two frames whose basis contains tau: E = tau
(d = 1) and [[1 + tau, 1/3], [0, tau]] (d = 2), and seeds 0-7 on each of two
d = 3 frames: the identity and E = tau * I.  Prints one row per run with
its exit code, a short sha256 digest of its JSON report and its failing
checks, then a summary per frame and one digest over all runs.  Each d = 1
report is also compared with the stored reference of the benchmark
(``bench/verify_ref.compare`` against ``bench/reference/verify.json``, read
only), and every field that differs is printed.  Exits 1 if any run exits 2
(an error rather than a failed check) or a d = 1 report differs from the
reference, else 0.  A full sweep takes under a minute; it is not part of the
test suite.

The digests make the sweep a behaviour gate for a change that must keep every
report byte for byte: run this script in a checkout of the parent commit (a
copy of it reads that checkout's ``src``) and in the change, and ``diff`` the
two outputs; they must be identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import verify_ref  # noqa: E402
from weylccr.cli import main  # noqa: E402

#: (name, frame JSON or None for the default d = 1 frame, seeds)
SWEEP = (
    ("d1", None, range(32)),
    ("d2", {"d": 2, "E": [["1", "0"], ["0", "1"]]}, range(16)),
    ("tau_d1", {"d": 1, "E": [[{"num": {"1": "1"}}]]}, range(8)),
    ("skew_d2", {"d": 2, "E": [[{"num": {"0": "1", "1": "1"}}, "1/3"],
                               ["0", {"num": {"1": "1"}}]]}, range(8)),
    ("d3", {"d": 3, "E": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}, range(8)),
    ("tau_d3", {"d": 3, "E": [[{"num": {"1": "1"}}, "0", "0"],
                              ["0", {"num": {"1": "1"}}, "0"],
                              ["0", "0", {"num": {"1": "1"}}]]}, range(8)),
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def run(seed: int, frame_path: str | None) -> tuple[int, str, dict | None, list]:
    """Exit code, report text, report (None on an error) and failing check
    names of one verify-all run."""
    argv = ["verify", "--suite", "all", "--seed", str(seed), "--output", "json"]
    if frame_path:
        argv += ["--frame", frame_path]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    if code == 2:
        return code, text, None, [err.getvalue().strip()]
    report = json.loads(text)
    return code, text, report, [c["check"] for c in report["checks"] if not c["pass"]]


def main_sweep() -> int:
    errors = mismatches = 0
    reference = verify_ref.load_reference()
    check_names = verify_ref.reference_check_names(reference)
    summary = []
    rows = hashlib.sha256()
    print(f"{'frame':8s} {'seed':>4s} {'exit':>4s} {'report':12s}  failing checks")
    with tempfile.TemporaryDirectory() as tmp:
        for name, frame, seeds in SWEEP:
            path = None
            if frame is not None:
                path = os.path.join(tmp, f"{name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(frame, fh)
            codes = []
            for seed in seeds:
                code, text, report, failing = run(seed, path)
                codes.append(code)
                errors += code == 2
                row = f"{name:8s} {seed:4d} {code:4d} {digest(text)}"
                rows.update(f"{row}\n".encode())
                print(f"{row}  {', '.join(failing)}", flush=True)
                if frame is None and report is not None:
                    problems = verify_ref.compare(report, seed, reference, check_names)
                    mismatches += bool(problems)
                    for problem in problems:
                        print(f"{'':19s}reference mismatch: {problem}", flush=True)
            summary.append(f"{name}: {codes.count(0)} exit 0, {codes.count(1)} exit 1, "
                           f"{codes.count(2)} exit 2 of {len(codes)}")
    summary.append(f"d1 reports differing from bench/reference/verify.json: {mismatches}")
    summary.append(f"digest of all runs: {rows.hexdigest()[:12]}")
    print("\n".join(summary))
    return 1 if errors or mismatches else 0


if __name__ == "__main__":
    sys.exit(main_sweep())
