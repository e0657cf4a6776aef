"""Sweep ``weylccr verify --suite all`` over seeds and frames, in-process.

    python3 scripts/verify_sweep.py

Runs seeds 0-31 at d = 1 (default frame), seeds 0-15 at d = 2 (identity
frame), seeds 0-7 on each of two frames whose basis contains tau: E = tau
(d = 1) and [[1 + tau, 1/3], [0, tau]] (d = 2), and seeds 0-7 on each of two
d = 3 frames: the identity and E = tau * I.  Prints one row per run with
its exit code, a short sha256 digest of its JSON report, an exact digest
and its failing checks, then a summary per frame and one digest of each kind
over all runs.  The exact digest reads the report with the ``worst_value``
and ``worst_probe`` of every check that is not exact (no ``exact`` in its
name) dropped, so it keeps every pass flag, check name and exact value and
ignores float noise.  Each d = 1
report is also compared with the stored reference of the benchmark
(``bench/verify_ref.compare`` against ``bench/reference/verify.json``, read
only), and every field that differs is printed.  Each run's exact digest is
compared with the one recorded for its frame and seed in ``EXACT_DIGESTS``,
and every run whose digest differs is printed with both digests.  Exits 1 if
any run exits 2 (an error rather than a failed check), a d = 1 report differs
from the reference, or a run's exact digest differs from the recorded one,
else 0.  A full sweep takes under a minute; it is not part of the test suite.

The recorded exact digests make the sweep a behaviour gate by itself: a change
that moves a pass flag, a check name or an exact value fails it, and the runs
it moved are named.  Only exact digests are recorded, since the other
``worst_value``s are floats that depend on the BLAS build.  A change that must
keep every report byte for byte can also run this script in a checkout of the
parent commit (a copy of it reads that checkout's ``src``) and in the change
and ``diff`` the two outputs; they must be identical.  A change that moves a
report on purpose records the new exact digests of the runs it moved here and
says why.
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

#: frame -> the exact digest of each seed's run, in the seed order of ``SWEEP``
EXACT_DIGESTS = {
    "d1": """
        74748f2c46e1 2f84b69cd47b 7c8d56ccb11a dff04ad70716 39472980995e 13138a440eba
        3982011b79ab 4475d959207a 9e22decb01eb a9b48c99ad08 844f5f2e4530 979f325a7992
        87249d846f1b a3433c0a1eff cc2272e488b2 e91853666b27 4400c2f118c9 ba954169991a
        1d338587cc82 041fd0ae9b40 d4162ceeb95d 53cbaba082c0 5ccc8b5cbaef 6f6d8fdca80a
        936a24a45838 49bd73e74c8d b908f7821302 9a0ad009d48a 5cc28e45e0f5 f27e7d96922f
        48c8ea7c8987 b3225340df9e
    """.split(),
    "d2": """
        7c8042e5e2bd 2f84b69cd47b 1f2381b35fe5 9045f330870a 2632b6eaafeb 5ad19f850a33
        b0b321991ac0 10a19c926c8b 9e22decb01eb 99b124e7a6b1 769114db22a3 00a639c0e855
        b1f6b462b526 1c4f6b269e58 09affed47b95 36e57021e76c
    """.split(),
    "tau_d1": """
        74748f2c46e1 2f84b69cd47b 7c8d56ccb11a dff04ad70716 2632b6eaafeb 13138a440eba
        cce6e20b9e44 4475d959207a
    """.split(),
    "skew_d2": """
        7c8042e5e2bd 2f84b69cd47b 1f2381b35fe5 9045f330870a 2632b6eaafeb 5ad19f850a33
        b0b321991ac0 10a19c926c8b
    """.split(),
    "d3": """
        7c8042e5e2bd 2f84b69cd47b 1f2381b35fe5 9045f330870a 2632b6eaafeb 5ad19f850a33
        b0b321991ac0 10a19c926c8b
    """.split(),
    "tau_d3": """
        7c8042e5e2bd 2f84b69cd47b 1f2381b35fe5 9045f330870a 2632b6eaafeb 5ad19f850a33
        b0b321991ac0 10a19c926c8b
    """.split(),
}

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


def exact_digest(report: dict | None, text: str) -> str:
    """The digest of ``report`` without the worst value and probe of its
    checks that are not exact; of ``text`` for a run that exited 2."""
    if report is None:
        return digest(text)
    checks = [c if "exact" in c["check"] else
              {k: v for k, v in c.items() if k not in ("worst_value", "worst_probe")}
              for c in report["checks"]]
    return digest(json.dumps(dict(report, checks=checks), sort_keys=True))


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
    errors = mismatches = moved = 0
    reference = verify_ref.load_reference()
    check_names = verify_ref.reference_check_names(reference)
    summary = []
    rows, exact_rows = hashlib.sha256(), hashlib.sha256()
    print(f"{'frame':8s} {'seed':>4s} {'exit':>4s} {'report':12s} {'exact':12s}  "
          "failing checks")
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
                exact = f"{name:8s} {seed:4d} {code:4d} {exact_digest(report, text)}"
                rows.update(f"{row}\n".encode())
                exact_rows.update(f"{exact}\n".encode())
                print(f"{row} {exact[-12:]}  {', '.join(failing)}", flush=True)
                recorded = EXACT_DIGESTS[name][seed]
                if exact[-12:] != recorded:
                    moved += 1
                    print(f"{'':19s}exact digest {exact[-12:]} differs from the recorded "
                          f"{recorded}", flush=True)
                if frame is None and report is not None:
                    problems = verify_ref.compare(report, seed, reference, check_names)
                    mismatches += bool(problems)
                    for problem in problems:
                        print(f"{'':19s}reference mismatch: {problem}", flush=True)
            summary.append(f"{name}: {codes.count(0)} exit 0, {codes.count(1)} exit 1, "
                           f"{codes.count(2)} exit 2 of {len(codes)}")
    summary.append(f"d1 reports differing from bench/reference/verify.json: {mismatches}")
    summary.append(f"digest of all runs: {rows.hexdigest()[:12]}")
    summary.append(f"exact digest of all runs: {exact_rows.hexdigest()[:12]}")
    if moved:
        summary.append(f"runs whose exact digest differs from the recorded one: {moved}")
    print("\n".join(summary))
    return 1 if errors or mismatches or moved else 0


if __name__ == "__main__":
    sys.exit(main_sweep())
