"""Benchmark of the weylccr package: one workload run per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run it from a checkout of the repository; it imports the package from
``src/``.  The workloads are ``verify``, ``algebra`` and ``states_skew``
(see ``bench/README.md``).  With ``--trace 0`` the last line of standard
output is a JSON object holding the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it holds the per-layer metrics of a traced run.

This process only orchestrates.  Each set-up and the measured run happen in
child processes started with OpenBLAS and OpenMP pinned to one thread and a
fixed hash seed.  ``setup_s`` is the median over several children of the
time from process start to the end of set-up (import, frames, inputs and one
untimed warm-up call).  A run record with the environment and the load
average at start and end goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
SETUP_SAMPLES = 5        # set-ups per untraced run; the last one is the run's own
DEADLINE_S = 170.0       # children still running after this are killed
TRACE_ROUNDS = {"verify": 1, "algebra": 2, "states_skew": 2}
GC_THRESHOLD = (700, 10, 10)


# -- statistics ------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- child side --------------------------------------------------------------------


def child_main(role: str, workload: str, seed: int, seconds: float) -> int:
    import gc
    import resource

    sys.path[:0] = [SRC, HERE]
    gc.set_threshold(*GC_THRESHOLD)
    import weylccr

    if os.path.dirname(os.path.abspath(weylccr.__file__)) != os.path.join(SRC, "weylccr"):
        print(f"weylccr imported from {weylccr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if role == "selftest":
        return self_test(workloads)
    w = workloads.WORKLOADS[workload](seed)
    first = w.setup()
    # the same policy on every commit: set-up objects are frozen, collection
    # is off inside rounds and runs in full between them
    gc.collect()
    gc.freeze()
    gc.disable()
    print("READY", flush=True)
    if role == "probe":
        return 0
    if role == "run":
        result = measure(w, first, seconds, workloads)
    else:
        result = traced(w, first, workloads)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = versions()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def versions() -> dict:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas}


def run_rounds(w, first, recorder, rounds=None, seconds=None):
    """Closed loop over whole rounds; returns each round's summed call time.

    Stops after ``rounds`` rounds or at the first round end past ``seconds``
    of wall time, whichever comes first.  Inputs for later rounds are built between rounds, outside
    the timed calls.
    """
    import gc

    from workloads import CallFailed

    per_round = []
    start = time.perf_counter()
    r = 0
    inp = first
    while True:
        n0 = len(recorder.latencies)
        try:
            w.run_round(recorder, inp)
        except CallFailed:
            pass
        per_round.append(sum(recorder.latencies[n0:]))
        r += 1
        if rounds is not None and r >= rounds:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        inp = w.inputs(r)
        gc.collect()
    return per_round


def measure(w, first, seconds, workloads) -> dict:
    rec = workloads.Recorder()
    per_round = run_rounds(w, first, rec, rounds=w.MAX_ROUNDS,
                           seconds=seconds)
    lat = rec.latencies
    p99 = percentile(lat, 0.99)
    return {
        "attempted": len(lat),
        "failed": len(rec.failed),
        "problems": rec.problems,
        "rounds": len(per_round),
        "metrics": {
            "pass_s": statistics.median(per_round),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": percentile(lat, 0.50) * 1e3,
            "op_p99_ms": p99 * 1e3,
        },
        "beyond_p99": sum(1 for x in lat if x > p99),
    }


FUNCTIONS = (
    "scalars.arith", "scalars.to_complex", "scalars.rotation_eq",
    "lattice.pairing", "lattice.vdot", "lattice.norm_sq", "lattice.frame_build",
    "algebra.monomial_product", "algebra.monomial_adjoint",
    "algebra.automorphism_action", "algebra.apply_automorphism",
    "algebra.element_mul", "algebra.element_adjoint", "algebra.element_add",
    "algebra.tracial_inner_product", "algebra.ergodic_mean", "algebra.box_average",
    "characters.eval",
    "states.monomial_value.fock", "states.monomial_value.plane_wave",
    "states.monomial_value.bohr", "states.monomial_value.bloch",
    "states.monomial_value.zak", "states.monomial_value.tracial",
    "states.monomial_value.mixture", "states.evaluate", "states.bloch_closed_form",
    "states.gram", "states.invariance", "states.other_checks",
    "gns.op_S", "gns.op_F", "gns.rep_rho_kappa", "gns.oracle",
    "gns.plane_wave_oracle", "gns.weyl_residual",
    "verify.suites", "verify.run_suite", "cli.main", "cli.report",
)
LAYERS = ("scalars", "lattice", "algebra", "characters", "states", "gns", "verify", "cli")


def traced(w, first, workloads) -> dict:
    """Rounds 0..n-1 untraced, then the same rounds traced.

    The untraced pass carries spans on the eight verify suites only, for the
    suite shares.  A cache that the untraced pass fills makes the traced pass
    cheaper, which lowers ``trace.overhead_ratio``.
    """
    import tracer as tr

    n = TRACE_ROUNDS[w.name]
    suites = tr.Tracer()
    tr.install_suite_timers(suites)
    plain = workloads.Recorder(suites)
    try:
        run_rounds(w, first, plain, rounds=n)
    finally:
        suites.uninstall()
    untraced_s = sum(plain.latencies)

    t = tr.Tracer()
    tr.install_all(t)
    rec = workloads.Recorder(t)
    try:
        run_rounds(w, first, rec, rounds=n)
    finally:
        t.uninstall()
    wall = t.root_ns / 1e9
    totals = t.totals()
    c = t.counters
    m = {}
    for name in FUNCTIONS:
        calls, self_s = totals.get(name, (0, 0.0))
        m[f"{name}.calls"] = calls
        m[f"{name}.self_share"] = _ratio(self_s, wall)
    layer_self = t.layer_self()
    for layer in LAYERS:
        m[f"{layer}.self_share"] = _ratio(layer_self.get(layer, 0.0), wall)
    m["scalars.den1_ratio"] = _ratio(c["scalars.den1"], c["scalars.results"])
    m["scalars.to_complex.slow_ratio"] = _ratio(c["scalars.to_complex.slow"],
                                                totals["scalars.to_complex"][0])
    m["inputs.repeat_ratio"] = _ratio(c["inputs.coords_repeated"], c["inputs.coords"])
    m["algebra.element_mul.term_pairs"] = c["algebra.element_mul.term_pairs"]
    m["algebra.element_mul.merge_ratio"] = _ratio(c["algebra.element_mul.out_terms"],
                                                  c["algebra.element_mul.term_pairs"])
    m["gns.op_S.points"] = c["gns.op_S.points"]
    m["lattice.frame_build_s"] = w.frame_build_s
    suite_totals = suites.totals()
    for key in tr.SUITE_NAMES:
        m[f"verify.suite_share.{key}.d1"] = _ratio(
            suite_totals.get(f"verify.suite.{key}", (0, 0.0))[1], untraced_s)
    m["trace.wall_s"] = wall
    m["trace.overhead_ratio"] = _ratio(wall, untraced_s)
    m["trace.unattributed_share"] = _ratio(totals[tr.ROOT][1], wall)

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"trace-{w.name}-seed{w.seed}.json")
    t.dump(spans_path)
    return {
        "attempted": len(plain.latencies) + len(rec.latencies),
        "failed": len(plain.failed) + len(rec.failed),
        "problems": plain.problems + rec.problems,
        "metrics": m,
        "layer_self_s": layer_self,
        "untraced_s": untraced_s,
        "spans_path": os.path.relpath(spans_path, ROOT),
        "spans": len(t.spans) // 5,
        "spans_dropped": t.dropped,
    }


# -- self-test ------------------------------------------------------------------------


def self_test(workloads) -> int:
    """Show that the checks catch corrupted results.

    algebra: the normal-ordering phase of monomial_product flips sign.
    states_skew: the Bloch closed form returns the conjugate value.
    verify: stored reports with a flipped pass flag, a changed exact value and
    a float moved past last-bit noise must be refused; last-bit noise passes.
    """
    import math

    import tracer as tr
    import verify_ref
    from weylccr import algebra, states

    def one_round(w):
        rec = workloads.Recorder()
        run_rounds(w, w.setup(), rec, rounds=1)
        return len(rec.failed), len(rec.latencies)

    orig_mp = algebra.monomial_product

    def flipped_product(m1, m2):
        phase, m = orig_mp(m1, m2)
        return -phase, m

    orig_bloch = states.bloch_monomial_value

    def conjugated_bloch(kappa, fhat, m):
        return orig_bloch(kappa, fhat, m).conjugate()

    outcomes = []
    for wname, fn, bad in (("algebra", orig_mp, flipped_product),
                           ("states_skew", orig_bloch, conjugated_bloch)):
        clean = one_round(workloads.WORKLOADS[wname](0))
        patches = tr.Tracer()
        patches.replace(fn, bad, tr.package_modules())
        try:
            corrupt = one_round(workloads.WORKLOADS[wname](0))
        finally:
            patches.uninstall()
        outcomes.append((f"{wname} clean round: {clean[0]} of {clean[1]} calls failed",
                         clean[0] == 0))
        outcomes.append((f"{wname} corrupted ({bad.__name__}): "
                         f"{corrupt[0]} of {corrupt[1]} calls failed", corrupt[0] > 0))

    reference = verify_ref.load_reference()
    names = verify_ref.reference_check_names(reference)
    seed = min(int(s) for s in reference)
    rows = reference[str(seed)]

    def report(edit=None):
        checks = [{"check": n, "pass": ok, "worst_value": v, "worst_probe": p or ""}
                  for n, ok, v, p in rows]
        if edit:
            edit(checks)
        return {"suite": "all", "seed": seed, "tol": 1e-10, "checks": checks,
                "pass": all(c["pass"] for c in checks)}

    def flip_pass(cs):
        cs[0]["pass"] = not cs[0]["pass"]

    def change_exact(cs):
        next(c for c in cs if "exact" in c["check"])["worst_value"] = 1.0

    float_i = next(i for i, c in enumerate(rows) if "exact" not in c[0] and c[2] > 1e-3)

    def move_float(cs):
        cs[float_i]["worst_value"] *= 1 + 1e-6

    def last_bit(cs):
        cs[float_i]["worst_value"] = math.nextafter(cs[float_i]["worst_value"], math.inf)

    for label, edit, want_refused in (("unchanged report", None, False),
                                      ("last-bit noise in a float", last_bit, False),
                                      ("flipped pass flag", flip_pass, True),
                                      ("changed exact value", change_exact, True),
                                      ("float moved by 1e-6", move_float, True)):
        problems = verify_ref.compare(report(edit), seed, reference, names)
        outcomes.append((f"verify {label}: {'refused' if problems else 'accepted'}",
                         bool(problems) == want_refused))

    for text, ok in outcomes:
        print(f"[{'ok' if ok else 'FAIL'}] {text}")
    all_ok = all(ok for _, ok in outcomes)
    print("self-test " + ("passed" if all_ok else "FAILED"))
    return 0 if all_ok else 1


# -- parent side ----------------------------------------------------------------------


class Child:
    """A child process whose stdout is read line by line, killed at the
    run's deadline."""

    def __init__(self, argv, env, deadline):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True,
                                     cwd=ROOT)
        delay = max(0.0, deadline - time.monotonic())
        self.timer = threading.Timer(delay, self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def wait_ready(self) -> float | None:
        for line in self.proc.stdout:
            if line.strip() == "READY":
                return time.perf_counter() - self.t0
            sys.stdout.write(line)
        return None

    def finish(self) -> tuple[int, list]:
        lines = self.proc.stdout.readlines()
        code = self.proc.wait()
        self.timer.cancel()
        return code, lines


def loadavg() -> str:
    try:
        with open("/proc/loadavg", "r", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("verify", "algebra", "states_skew"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--child", choices=("probe", "run", "traced", "selftest"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.child:
        return child_main(args.child, args.workload, args.seed, args.seconds)
    if not os.path.isfile(os.path.join(SRC, "weylccr", "__init__.py")):
        return fail(f"no package source at {os.path.join(SRC, 'weylccr')}")
    if not args.self_test and args.workload is None:
        return fail("--workload is required")
    try:
        with open(SPEC_PATH, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    env = dict(os.environ, **PINNED_ENV)
    deadline = time.monotonic() + DEADLINE_S
    base = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload or "algebra", "--seed", str(args.seed),
            "--seconds", repr(args.seconds)]
    if args.self_test:
        child = Child(base + ["--child", "selftest"], env, deadline)
        code, lines = child.finish()
        sys.stdout.writelines(lines)
        return code

    load_start = loadavg()
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            probe = Child(base + ["--child", "probe"], env, deadline)
            setups.append(probe.wait_ready())
            code, lines = probe.finish()
            sys.stdout.writelines(lines)
            if code != 0 or setups[-1] is None:
                return fail(f"set-up probe failed with exit code {code}")
    child = Child(base + ["--child", "run" if args.trace == 0 else "traced"], env, deadline)
    setups.append(child.wait_ready())
    code, lines = child.finish()
    results = [ln for ln in lines if ln.startswith("RESULT ")]
    sys.stdout.writelines(ln for ln in lines if not ln.startswith("RESULT "))
    if code != 0 or setups[-1] is None or len(results) != 1:
        return fail(f"workload process failed with exit code {code}")
    res = json.loads(results[0][len("RESULT "):])
    load_end = loadavg()

    metrics = res["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
    wanted = spec["end_to_end" if args.trace == 0 else "per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not measured: {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}

    env_info = dict(res["versions"], nproc=os.cpu_count(), load_start=load_start,
                    load_end=load_end)
    attempted, failed = res["attempted"], res["failed"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print("# " + "  ".join(f"{k} {v}" for k, v in env_info.items())
          + "  BLAS/OpenMP threads 1")
    if args.trace == 0:
        print(f"# setup samples (s): {' '.join(f'{s:.3f}' for s in setups)}")
        print(f"# rounds {res['rounds']}  calls {attempted}  "
              f"samples beyond p99 {res['beyond_p99']}")
    else:
        wall = res["metrics"]["trace.wall_s"]
        print(f"# traced wall {wall:.3f} s  untraced {res['untraced_s']:.3f} s  "
              f"spans {res['spans']} (+{res['spans_dropped']} not kept) "
              f"-> {res['spans_path']}")
        layer_self = res["layer_self_s"]
        for layer in sorted(layer_self, key=layer_self.get, reverse=True):
            print(f"#   self {layer:<11} {layer_self[layer]:9.3f} s  "
                  f"{100 * layer_self[layer] / wall:6.2f} %")
        print(f"#   sum of self times {sum(layer_self.values()):.3f} s of {wall:.3f} s "
              f"traced wall; unattributed (bench.call self) "
              f"{layer_self.get('bench', 0.0):.3f} s")
    for problem in res["problems"]:
        print(f"# problem: {problem}")
    for name, v in out.items():
        value = v["value"]
        print(f"{name} {value if isinstance(value, int) else format(value, '.6g')} {v['unit']}")
    print(f"failed_ratio {_ratio(failed, attempted):.6g} ratio")

    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env_info, "pinned_env": PINNED_ENV,
                   "setups_s": setups, "result": res}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
