"""Command-line front end: parse elements and states, run computations and
verification suites, emit text or machine-readable reports.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.

``verify`` and ``path-demo`` import the check table (``weylccr.verify``)
when they run, so ``simplify`` and ``eval`` never compile it.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .algebra import Element
from .errors import WeylError
from .expressions import parse_element
from .lattice import Frame
from .serialization import (
    dumps,
    element_to_json,
    endpoints_from_json,
    frame_from_json,
    load_json,
    state_from_json,
)
from .states import PATH_KINDS, _nan_max, _ordered_sum, path_sample, weak_star_distance

#: the names of ``verify.SUITES``, in table order
SUITE_NAMES = ("weyl", "ergodic", "states", "covariance", "tri", "zak", "gns", "paths")


def _frame_from_args(args) -> Frame:
    if getattr(args, "frame", None):
        return frame_from_json(load_json(args.frame))
    return Frame.standard(1)


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return n


def _format_complex(z: complex) -> str:
    return f"{z.real:.15g}{z.imag:+.15g}i"


def cmd_simplify(args) -> int:
    frame = _frame_from_args(args)
    element = parse_element(args.elem, frame)
    if args.output == "json":
        print(dumps(element_to_json(element)))
    else:
        print(element)
    return 0


def cmd_eval(args) -> int:
    frame = _frame_from_args(args)
    state = state_from_json(load_json(args.state))
    element = parse_element(args.elem, frame)
    value = state.evaluate(element)
    if args.output == "json":
        print(dumps({"im": value.imag, "re": value.real}))
    else:
        print(_format_complex(value))
    return 0


def cmd_verify(args) -> int:
    from .verify import TOL, RunConfig, run_suite

    results = run_suite(args.suite, RunConfig(frame=_frame_from_args(args), seed=args.seed))
    ok = all(r.passed for r in results)
    if args.output == "json":
        print(dumps({
            "suite": args.suite,
            "seed": args.seed,
            "tol": TOL,
            "checks": [r.as_dict() for r in results],
            "pass": ok,
        }))
    else:
        for r in results:
            flag = "PASS" if r.passed else "FAIL"
            probe = f"  ({r.worst_probe})" if r.worst_probe else ""
            print(f"[{flag}] {r.check}  worst={r.worst_value:.6g}{probe}")
        print(f"suite {args.suite}: {'all checks passed' if ok else 'FAILURES'}")
    return 0 if ok else 1


def cmd_path_demo(args) -> int:
    from .verify import RunConfig, path_probes

    frame = _frame_from_args(args)
    start, end = endpoints_from_json(load_json(args.endpoints))
    n = args.grid
    grid = [Fraction(k, n) for k in range(n + 1)]
    states = path_sample(args.kind, (start, end), grid)
    # the v(e_i) keep every plane wave visible on the probe set
    axes = [Element.v(frame, [int(i == j) for j in range(frame.d)]) for i in range(frame.d)]
    probes = path_probes(RunConfig(frame=frame, seed=args.seed).rng("cli.path_probes"),
                         frame, axes)
    distances = [weak_star_distance(s1, s2, probes)
                 for s1, s2 in zip(states, states[1:])]
    max_d = _nan_max(distances)
    mean_d = _ordered_sum(distances) / len(distances)
    endpoints_exact = states[0] is start and states[-1] is end
    if args.output == "json":
        print(dumps({
            "kind": args.kind,
            "grid": n,
            "distances": distances,
            "max": max_d,
            "mean": mean_d,
            "endpoints_exact": endpoints_exact,
        }))
    else:
        for k, dist in enumerate(distances):
            print(f"t in [{k}/{n}, {k + 1}/{n}]: {dist:.6g}")
        print(f"max {max_d:.6g}  mean {mean_d:.6g}  "
              f"endpoints {'exact' if endpoints_exact else 'NOT exact'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylccr",
        description="Exact Weyl-algebra computations and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--frame", help="path to a frame JSON file (default: d=1 identity)")
        p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("simplify", help="normal-order and merge an element expression")
    p.add_argument("--elem", required=True, help="element expression, e.g. 'u(1/2)*v(1/3)'")
    add_common(p)
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("eval", help="evaluate a state on an element")
    p.add_argument("--state", required=True, help="path to a state JSON file")
    p.add_argument("--elem", required=True)
    add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True,
                   choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("path-demo", help="sample a state path and report weak-* steps")
    p.add_argument("--kind", required=True, choices=PATH_KINDS)
    p.add_argument("--endpoints", required=True,
                   help="JSON file with 'start' and 'end' states")
    p.add_argument("--grid", type=_positive_int, default=16)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_path_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WeylError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
