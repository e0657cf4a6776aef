"""Mutation gate: every mutant in ``MUTANTS`` must be killed by its killer.

    python3 scripts/mutants.py

Each row is (file, old text, new text, reason, killer).  The mutant replaces
the old text, which must occur exactly once in ``src/weylccr/<file>``, by the
new text in a copy of ``src/`` under ``tempfile.mkdtemp()``.  The killer is
either ``"report"`` or a tier-1 test file:

* ``"report"`` runs ``weylccr verify --suite all --output json`` on the copy
  at d = 1 seed 1 (default frame) and at d = 2 seed 0 (identity frame).  The
  report kills the mutant when a run exits 2, or when a pass flag, a check
  name, or the value or worst probe of an exact check (``exact`` in its
  name) differs from the same run on an unmutated copy: the fields that the
  sweep's exact digest and the stored goldens pin.
* ``"tests/<name>.py"`` runs that test file with pytest on the copy; a
  failing test kills the mutant.

Each mutant writes a canonical program: turns stay reduced and every value
keeps its type, so the killer that fires is the one that checks the
convention named in the reason.  Prints one line per row and exits 1 when a
row's old text is not found exactly once or its killer does not kill it,
else 0.  Standard library only; a full run takes under a minute on two
cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (d, seed) of the report runs, as in the tier-1 goldens
REPORT_RUNS = ((1, 1), (2, 0))


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str
    killer: str


MUTANTS = (
    Mutant("algebra.py",
           "            return PhaseAngle.from_dot(m.a, self.lam, -1), m, False\n"
           "        (D, n), (Dl, nl) = key, lam\n"
           "        turns = D * Dl\n"
           "        return _angle_of_turns(_phase_turns(n[:len(nl)], nl, turns), turns), m, False",
           "            return PhaseAngle.from_dot(m.a, self.lam, 1), m, False\n"
           "        (D, n), (Dl, nl) = key, lam\n"
           "        turns = D * Dl\n"
           "        return _angle_of_turns(-_phase_turns(n[:len(nl)], nl, turns) % turns, turns), "
           "m, False",
           "space translation phase sign flipped in both branches", "tests/test_symmetry.py"),
    Mutant("states.py",
           "        k = -(sum(map(mul, nl[:d], n[d:])) + sum(map(mul, nl[d:], n[:d]))) % turns",
           "        k = -(sum(map(mul, nl[:d], n[d:])) - sum(map(mul, nl[d:], n[:d]))) % turns",
           "Zak value with the sign of the nu term flipped", "tests/test_symmetry.py"),
    Mutant("lattice.py",
           "        F = mat_scale(TAU, mat_transpose(inverse))",
           "        F = mat_scale(2 * TAU, mat_transpose(inverse))",
           "frame dual basis scaled by 2, so F^T E = 2 tau I", "report"),
    Mutant("algebra.py",
           "    return -sum(map(mul, a, b)) % turns",
           "    return sum(map(mul, a, b)) % turns",
           "reordering phase of the keyed products with the sign flipped", "report"),
    Mutant("algebra.py",
           "    return _phase_turns(n[:d], n[d:], turns), turns, (D, tuple(map(neg, n)))",
           "    return _phase_turns(n[:d], n[d:], turns), turns, "
           "(D, tuple(map(neg, n[:d])) + n[d:])",
           "keyed adjoint that leaves b un-negated", "report"),
    Mutant("algebra.py",
           "        phase = PhaseAngle(_poly((0, 0, k), 2 * q * g * D * D) if k else S_ZERO)",
           "        phase = PhaseAngle(_poly((0, 0, k), q * g * D * D) if k else S_ZERO)",
           "keyed free dynamics without the 1/2 of its phase", "report"),
    Mutant("algebra.py",
           "        return PhaseAngle.zero(), _keyed(D, tuple([-x for x in n[:d]]) + n[d:]), True",
           "        return PhaseAngle.zero(), _keyed(D, tuple([-x for x in n])), True",
           "keyed time reversal that also negates b", "report"),
    Mutant("characters.py",
           "    pk = p**k\n",
           "    pk = p**(k + 1)\n",
           "p-adic fractional part over p^(k+1)", "report"),
    Mutant("states.py",
           "        k = -sum((x + Dk * i) * y for x, i, y in zip(nk, idx, nb)) % turns",
           "        k = sum((x + Dk * i) * y for x, i, y in zip(nk, idx, nb)) % turns",
           "keyed Bloch phase with the sign flipped", "report"),
    Mutant("states.py",
           "    shifted_kappa = tuple(k + g for k, g in zip(kappa, gamma_prime))",
           "    shifted_kappa = tuple(k - g for k, g in zip(kappa, gamma_prime))",
           "Bloch covariance check shifting kappa the wrong way", "report"),
    Mutant("gns.py",
           "        target = tuple(c + g for c, g in zip(pt, gp))\n        i = window.index",
           "        target = tuple(c - g for c, g in zip(pt, gp))\n        i = window.index",
           "GNS index shift op_F in the wrong direction", "report"),
    Mutant("states.py",
           "    return [s0 if t == 0 else s1 if t == 1 else point(t) for t in ts]",
           "    return [s0 if t == 0 else point(t) for t in ts]",
           "path sample that interpolates at t = 1 instead of returning the endpoint",
           "report"),
    Mutant("algebra.py",
           "    sign = -1.0 if j * (n - 1) % 2 else 1.0",
           "    sign = 1.0",
           "box average midpoint mean without the sign of its Dirichlet kernel",
           "tests/test_algebra.py"),
    Mutant("states.py",
           "    vanishing_width = 1.5 * 2981",
           "    vanishing_width = 0.9 * 2981",
           "Fock Gram skip width below the exp underflow point", "tests/test_gram_support.py"),
    Mutant("scalars.py",
           "            if q < 0:\n                p, q = -p, -q",
           "            if q < -1:\n                p, q = -p, -q",
           "ExactScalar.rational that keeps a denominator of -1", "tests/test_scalars.py"),
    Mutant("algebra.py",
           "        momentum = max((p.momentum for p in parts), key=_GROUPS.index)\n"
           "        position = max((p.position for p in parts), key=_GROUPS.index)",
           "        momentum = min((p.momentum for p in parts), key=_GROUPS.index)\n"
           "        position = min((p.position for p in parts), key=_GROUPS.index)",
           "symmetry join that takes the narrowest group of each half",
           "tests/test_gram_support.py"),
    Mutant("algebra.py",
           "            if not r < inf:  # NaN fails too\n"
           "                raise NotAScalar(f\"the coefficient {c!r} of {m} is not finite\")\n",
           "",
           "element arithmetic that keeps inf and drops NaN results", "tests/test_algebra.py"),
    Mutant("lattice.py",
           "tuple([v // D for v in n])",
           "tuple([(v + D - 1) // D for v in n])",
           "unit cell that rounds up where it takes the floor", "tests/test_lattice.py"),
    Mutant("states.py",
           "    for m in probes:\n"
           "        if m.d != frame.d:\n"
           "            raise DimensionMismatch(f\"a {m.d}-d probe {m} on a {frame.d}-d frame\")\n",
           "",
           "Gram and multiplicativity checks that take probes of another dimension",
           "tests/test_gram_support.py"),
    Mutant("states.py",
           "    if len(gamma_prime) != len(kappa):\n"
           "        raise DimensionMismatch(f\"a {len(gamma_prime)}-d shift of a "
           "{len(kappa)}-d kappa\")\n",
           "",
           "covariance check that pairs a shift of another dimension with kappa",
           "tests/test_states.py"),
    Mutant("states.py",
           "    if len(x0) != len(x1):\n"
           "        raise DimensionMismatch(f\"endpoint labels of dimensions "
           "{len(x0)} and {len(x1)}\")\n",
           "",
           "path labels of two dimensions paired by zip", "tests/test_states.py"),
)


def copy_src(tmp: str) -> str:
    src = os.path.join(tmp, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def environment(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONSTARTUP", None)
    return env


def reports(src: str, tmp: str) -> list:
    """Per report run: ("exit 2", stderr) or the (check, pass) pair of each
    check, with its worst value and worst probe when the check is exact."""
    out = []
    for d, seed in REPORT_RUNS:
        argv = [sys.executable, "-m", "weylccr", "verify", "--suite", "all",
                "--seed", str(seed), "--output", "json"]
        if d != 1:
            path = os.path.join(tmp, f"frame_d{d}.json")
            identity = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"d": d, "E": identity}, fh)
            argv += ["--frame", path]
        proc = subprocess.run(argv, env=environment(src), capture_output=True, text=True,
                              timeout=600)
        if proc.returncode == 2:
            out.append(("exit 2", proc.stderr.strip()[-200:]))
            continue
        checks = json.loads(proc.stdout)["checks"]
        out.append([(c["check"], c["pass"], c["worst_value"], c["worst_probe"])
                    if "exact" in c["check"] else (c["check"], c["pass"])
                    for c in checks])
    return out


def report_difference(base: list, mutant: list) -> str:
    """What differs between the unmutated and the mutated report runs, or ''."""
    for (d, seed), b, m in zip(REPORT_RUNS, base, mutant):
        if isinstance(m, tuple):
            return f"d={d} seed {seed} exits 2: {m[1]}"
        if [c[0] for c in b] != [c[0] for c in m]:
            return f"d={d} seed {seed}: the check names differ"
        changed = [c[0] for c, o in zip(m, b) if c != o]
        if changed:
            return f"d={d} seed {seed}: {', '.join(changed)}"
    return ""


def test_failure(src: str, test_file: str) -> str:
    """The first failing test of ``test_file`` run on ``src``, or ''."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test_file],
        cwd=ROOT, env=environment(src), capture_output=True, text=True, timeout=600)
    if proc.returncode in (4, 5):
        raise RuntimeError(f"pytest could not run {test_file}: {proc.stdout[-300:]}")
    if proc.returncode == 0:
        return ""
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else f"pytest exit {proc.returncode}"


def run_mutant(mutant: Mutant, base: list) -> tuple[bool, str]:
    """(killed, what killed it or why it stands) for one row."""
    tmp = tempfile.mkdtemp(prefix="weylccr-mutant-")
    try:
        src = copy_src(tmp)
        path = os.path.join(src, "weylccr", mutant.file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        count = text.count(mutant.old)
        if count != 1:
            return False, f"old text found {count} times in {mutant.file}"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        if mutant.killer == "report":
            why = report_difference(base, reports(src, tmp))
        else:
            why = test_failure(src, mutant.killer)
        return bool(why), why or "survived"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    start = time.perf_counter()
    tmp = tempfile.mkdtemp(prefix="weylccr-mutant-")
    try:
        base = reports(copy_src(tmp), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if any(isinstance(b, tuple) for b in base):
        print(f"the unmutated copy does not run: {base}")
        return 1
    survivors = 0
    for i, mutant in enumerate(MUTANTS):
        killed, why = run_mutant(mutant, base)
        survivors += not killed
        print(f"{i:2d} {'killed' if killed else 'ALIVE '} {mutant.file:14s} {mutant.reason}\n"
              f"   killer {mutant.killer}: {why}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed by their killers "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
