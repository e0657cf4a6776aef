"""Time the operations behind the ROADMAP's baseline figures, one at a time.

    python3 bench/baselines.py            # micro-operations only (~1 min)
    python3 bench/baselines.py --verify   # also verify-all at d=1 and d=2 (~70 s more)

Each figure is the median over repeated batches timed with perf_counter in
this one process, next to the ROADMAP figure it corresponds to.  Inputs come
from a fixed seed; coordinates are drawn like the verify suites' (p/q with
|p|, q <= 12).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (label, ROADMAP figure in seconds)
ROADMAP = {
    "scalar add": 62e-6,
    "monomial_product d=2": 435e-6,
    "10x10 Element product d=1": 57e-3,
    "10x10 Element product d=2": 57e-3,
    "Fock evaluate, 100 terms, d=1": 215e-3,
    "Fock evaluate, 100 terms, d=2": 215e-3,
    "verify --suite all, seed 1, d=1": 29.8,
    "verify --suite all, seed 1, d=2": 33.6,
}


def per_call(fn, calls: int, batches: int = 7) -> float:
    """Median over batches of the mean time of one call."""
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--verify", action="store_true", help="also time verify-all")
    args = p.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from fractions import Fraction

    from weylccr import Fock, Frame, Monomial, TAU, monomial_product
    from weylccr.cli import main as cli_main

    import verify_ref
    from workloads import _frac, _raw_terms, _element

    rng = random.Random("baselines")
    got = {}
    a = Fraction(1, 3) + TAU * Fraction(2, 5)
    b = Fraction(3, 7) + TAU * Fraction(5, 11)
    got["scalar add"] = per_call(lambda: a + b, 2000)

    pairs = [(Monomial([_frac(rng) for _ in range(2)], [_frac(rng) for _ in range(2)]),
              Monomial([_frac(rng) for _ in range(2)], [_frac(rng) for _ in range(2)]))
             for _ in range(200)]
    it = iter(pairs * 1000)
    got["monomial_product d=2"] = per_call(lambda: monomial_product(*next(it)), 200)

    for d in (1, 2):
        frame = Frame.standard(d)
        xs = [_element(frame, _raw_terms(rng, d, 10, _frac)) for _ in range(2)]
        got[f"10x10 Element product d={d}"] = per_call(lambda: xs[0] * xs[1], 1)
        big = _element(frame, _raw_terms(rng, d, 100, _frac))
        got[f"Fock evaluate, 100 terms, d={d}"] = per_call(lambda: Fock().evaluate(big), 1)

    if args.verify:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        frame_path = os.path.join(ROOT, ".bench_out", "frame_d2.json")
        with open(frame_path, "w", encoding="utf-8") as fh:
            json.dump({"d": 2, "E": [["1", "0"], ["0", "1"]]}, fh)
        for d, extra in ((1, []), (2, ["--frame", frame_path])):
            t0 = time.perf_counter()
            verify_ref.run_cli(cli_main, verify_ref.verify_argv(1) + extra)
            got[f"verify --suite all, seed 1, d={d}"] = time.perf_counter() - t0

    print(f"{'operation':34s} {'measured':>12s} {'ROADMAP':>12s} {'ratio':>7s}")
    for label, measured in got.items():
        ref = ROADMAP[label]
        print(f"{label:34s} {_fmt(measured):>12s} {_fmt(ref):>12s} {measured / ref:7.2f}")
    return 0


def _fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds:.2f} s"


if __name__ == "__main__":
    sys.exit(main())
