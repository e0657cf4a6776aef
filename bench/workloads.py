"""The three benchmark workloads.

Each workload draws raw inputs (ints, Fractions, complex numbers, JSON-like
dicts) from ``random.Random`` seeded by the benchmark seed and the round
number, builds library objects from them, and runs rounds: a fixed schedule
of calls into the public API.  Every call is timed on its own through
``Recorder.call``, and every call's output is checked, mostly through
identities that relate the outputs of calls in the same round.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import defaultdict
from fractions import Fraction

from weylccr import algebra, characters, cli, gns, lattice, serialization, states

import verify_ref


class CallFailed(Exception):
    """A call raised; the rest of the round depends on it and is skipped."""


class Recorder:
    """Times calls one after another (a closed loop with one caller) and
    records which calls raised or returned a wrong result."""

    def __init__(self, tracer=None):
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.tracer = tracer

    @property
    def last(self) -> int:
        return len(self.latencies) - 1

    def call(self, label, fn, *args):
        error = None
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                out = fn(*args)
            else:
                out = self.tracer.call(fn, *args)
        except Exception as exc:  # a failed call is counted, the run goes on
            error = exc
        dt = time.perf_counter() - t0
        self.latencies.append(dt)
        self.labels.append(label)
        if error is not None:
            self.fail(self.last, f"{label} raised {type(error).__name__}: {error}")
            raise CallFailed(label) from error
        return out

    def fail(self, index: int, what: str):
        self.failed.add(index)
        if len(self.problems) < 20:
            self.problems.append(what)

    def expect(self, ok: bool, index: int, what: str):
        if not ok:
            self.fail(index, what)


# -- raw inputs ------------------------------------------------------------------


def _frac(rng, num=12, den=12, nonzero=False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if f or not nonzero:
            return f


def _complex(rng) -> complex:
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def _unit_fhat(rng, d, radius=2, npts=3) -> dict:
    pts = set()
    while len(pts) < npts:
        pts.add(tuple(rng.randint(-radius, radius) for _ in range(d)))
    raw = {p: _complex(rng) for p in sorted(pts)}
    norm = math.sqrt(sum(abs(v) ** 2 for v in raw.values()))
    return {p: v / norm for p, v in raw.items()}


def _element(frame, terms) -> algebra.Element:
    """Element from raw terms [(a, b, coefficient)], coordinates as Fractions."""
    return algebra.Element(frame, {algebra.Monomial(a, b): c for a, b, c in terms})


def _raw_terms(rng, d, n, coord) -> list:
    out, seen = [], set()
    while len(out) < n:
        a = tuple(coord(rng) for _ in range(d))
        b = tuple(coord(rng) for _ in range(d))
        if (a, b) not in seen:
            seen.add((a, b))
            out.append((a, b, _complex(rng)))
    return out


def _close(x: algebra.Element, y: algebra.Element, scale: float) -> bool:
    return x.max_coeff_diff(y) <= 1e-9 * max(1.0, scale)


def _l1(x: algebra.Element) -> float:
    return sum(abs(c) for c in x.terms.values())


# -- algebra ------------------------------------------------------------------------


def _is_zero(v) -> bool:
    return all(c.is_zero() for c in v)


def _is_integral(v) -> bool:
    return all(c.is_rational() and c.as_fraction().denominator == 1 for c in v)


ERGODIC = (
    ("ergodic_mean", lambda m: _is_zero(m.a)),
    ("ergodic_mean_lattice", lambda m: _is_integral(m.a)),
    ("ergodic_mean_zak", lambda m: _is_integral(m.a) and _is_integral(m.b)),
)


class Algebra:
    """Symbolic algebra on standard frames, d = 1, 2 and 3.

    Per dimension and round: two 10-term elements x, y and a one-term g with
    coordinates from the small pool p/q, |p| <= 12, 1 <= q <= 12 (as in the
    verify suites), plus one automorphism of each kind.  At d = 2 also two
    30-term elements X, Y.  Calls per round: 83.
    """

    name = "algebra"
    MAX_ROUNDS = None
    DIMS = (1, 2, 3)
    BIG_DIM = 2

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        t0 = time.perf_counter()
        self.frames = {d: lattice.Frame.standard(d) for d in self.DIMS}
        self.frame_build_s = time.perf_counter() - t0
        first = self.inputs(0)
        first[1]["x"].adjoint()  # the untimed warm-up call
        return first

    def inputs(self, r: int) -> dict:
        rng = random.Random(f"{self.seed}:algebra:{r}")
        out = {}
        for d in self.DIMS:
            frame = self.frames[d]
            row = {
                "x": _element(frame, _raw_terms(rng, d, 10, _frac)),
                "y": _element(frame, _raw_terms(rng, d, 10, _frac)),
                "g": _element(frame, _raw_terms(rng, d, 1, _frac)),
                "specs": (
                    algebra.SpaceTranslation([_frac(rng) for _ in range(d)]),
                    algebra.MomentumTranslation([_frac(rng) for _ in range(d)]),
                    algebra.FreeDynamics(_frac(rng, nonzero=True)),
                    algebra.TimeReversal(),
                ),
            }
            if d == self.BIG_DIM:
                row["X"] = _element(frame, _raw_terms(rng, d, 30, _frac))
                row["Y"] = _element(frame, _raw_terms(rng, d, 30, _frac))
            out[d] = row
        return out

    def run_round(self, rec: Recorder, inp: dict):
        for d in self.DIMS:
            row = inp[d]
            xy = self._products(rec, row["x"], row["y"], f"d{d}.10")
            self._rest(rec, row, xy)
            if d == self.BIG_DIM:
                self._products(rec, row["X"], row["Y"], f"d{d}.30")

    @staticmethod
    def _products(rec: Recorder, x, y, tag):
        """x*, y*, xy, y*x* and (xy)*; checks (x*)* = x and (xy)* = y*x*."""
        xa = rec.call(f"adjoint.{tag}", x.adjoint)
        rec.expect(_close(xa.adjoint(), x, _l1(x)), rec.last, f"(x*)* != x at {tag}")
        ya = rec.call(f"adjoint.{tag}", y.adjoint)
        rec.expect(_close(ya.adjoint(), y, _l1(y)), rec.last, f"(y*)* != y at {tag}")
        xy = rec.call(f"mul.{tag}", x.__mul__, y)
        i_xy = rec.last
        w = rec.call(f"mul.{tag}", ya.__mul__, xa)
        xy_star = rec.call(f"adjoint.{tag}.product", xy.adjoint)
        rec.expect(_close(xy_star, w, _l1(x) * _l1(y)), i_xy, f"(xy)* != y*x* at {tag}")
        return xy

    @staticmethod
    def _rest(rec: Recorder, row, xy):
        x, g = row["x"], row["g"]
        tag = f"d{x.frame.d}"
        ip = rec.call(f"tracial.{tag}", algebra.tracial_inner_product, x, x)
        norm_sq = sum(abs(c) ** 2 for c in x.terms.values())
        rec.expect(abs(ip - norm_sq) <= 1e-12 * norm_sq, rec.last,
                   f"t(x*x) = {ip!r} but sum |c|^2 = {norm_sq!r} at {tag}")
        for name, keep in ERGODIC:
            mean = rec.call(f"{name}.{tag}", getattr(algebra, name), xy)
            want = {m: c for m, c in xy.terms.items() if keep(m)}
            rec.expect(dict(mean.terms) == want, rec.last, f"{name} kept the wrong terms at {tag}")
        xg = rec.call(f"mul.{tag}.1", x.__mul__, g)
        for spec in row["specs"]:
            kind = type(spec).__name__
            ax = rec.call(f"automorphism.{kind}.{tag}", algebra.apply_automorphism, spec, x)
            i_ax = rec.last
            axg = rec.call(f"automorphism.{kind}.{tag}", algebra.apply_automorphism, spec, xg)
            ag = rec.call(f"automorphism.{kind}.{tag}.1", algebra.apply_automorphism, spec, g)
            prod = rec.call(f"mul.{tag}.1", ax.__mul__, ag)
            rec.expect(_close(axg, prod, _l1(x) * _l1(g)), i_ax,
                       f"{kind} does not preserve the product at {tag}")


# -- states_skew ------------------------------------------------------------------------


#: frame bases containing tau, as frame JSON: the 2*pi frame E = tau*I at
#: d = 1 and the mixed frame [[1 + tau, 1/3], [0, tau]] at d = 2
SKEW_FRAMES = (
    {"d": 1, "E": [[{"num": {"1": "1"}}]]},
    {"d": 2, "E": [[{"num": {"0": "1", "1": "1"}}, "1/3"], ["0", {"num": {"1": "1"}}]]},
)
WINDOW_RADIUS = 6  # a 13^d Fourier window


def _wide(rng) -> Fraction:
    return Fraction(rng.randint(-97, 97), rng.randint(1, 89))


class StatesSkew:
    """States and the GNS oracle on frames whose basis contains tau.

    Per frame and round: a fresh 100-term element with wide-range coordinates
    (a quarter each with a = 0 and b integral, a = 0, a integral, a generic),
    moved by a free dynamics so positions become rational functions of tau,
    then evaluated on six state families; a 20-probe Gram check; an
    invariance check; and the Bloch closed form, checked against the oracle
    on a 13^d Fourier window, which is a timed call at d = 2.  Calls per
    round: 21, an odd count, so the median call falls inside one call class.
    """

    name = "states_skew"
    MAX_ROUNDS = None
    TERMS = 100
    PROBES = 20

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        t0 = time.perf_counter()
        self.frames = [serialization.frame_from_json(f) for f in SKEW_FRAMES]
        self.frame_build_s = time.perf_counter() - t0
        self.windows = {f.d: gns.FourierWindow((-WINDOW_RADIUS,) * f.d, (WINDOW_RADIUS,) * f.d)
                        for f in self.frames}
        first = self.inputs(0)
        row = first[0]
        row["fock"].evaluate(algebra.Element(row["frame"], dict(list(row["x"].terms.items())[:2])))
        return first

    def inputs(self, r: int) -> list:
        rng = random.Random(f"{self.seed}:states_skew:{r}")
        out = []
        for frame in self.frames:
            d = frame.d
            terms, seen = [], set()
            while len(terms) < self.TERMS:
                kind = len(terms) % 4
                if kind < 2:
                    a = (0,) * d
                elif kind == 2:
                    a = tuple(rng.randint(-2, 2) for _ in range(d))
                else:
                    a = tuple(_wide(rng) for _ in range(d))
                if kind == 0:
                    b = tuple(rng.randint(-60, 60) for _ in range(d))
                else:
                    b = tuple(_wide(rng) for _ in range(d))
                if (a, b) not in seen:
                    seen.add((a, b))
                    terms.append((a, b, _complex(rng)))
            kappa = tuple(Fraction(rng.randint(0, 58), 59) for _ in range(d))
            fhat = _unit_fhat(rng, d)
            plane = states.PlaneWave([_wide(rng) for _ in range(d)])
            bloch = states.Bloch(kappa, fhat)
            zak = states.Zak(kappa, tuple(Fraction(rng.randint(0, 46), 47) for _ in range(d)))
            weights = (0.5, 0.3, 0.2)
            out.append({
                "frame": frame,
                "x": _element(frame, terms),
                "t": Fraction(rng.randint(1, 29), rng.randint(2, 31)),
                "lam": [_wide(rng) for _ in range(d)],
                "fock": states.Fock(),
                "plane": plane,
                "bohr": states.BohrState(characters.ContinuousCharacter(
                    [_wide(rng) for _ in range(d)])),
                "bloch": bloch,
                "zak": zak,
                "weights": weights,
                "mixture": states.Mixture(list(zip(weights, (plane, bloch, zak)))),
                "kappa": kappa,
                "fhat": fhat,
                "oracle_a": tuple(q - p for p, q in zip(*rng.sample(sorted(fhat), 2))),
            })
        return out

    def run_round(self, rec: Recorder, inp: list):
        for row in inp:
            self._frame_round(rec, row)

    def _frame_round(self, rec: Recorder, row):
        frame, x = row["frame"], row["x"]
        tag = f"d{frame.d}"
        y = rec.call(f"free_dynamics.{tag}", algebra.apply_automorphism,
                     algebra.FreeDynamics(row["t"]), x)
        rec.expect(self._moved_ok(x, y), rec.last, f"free dynamics lost terms at {tag}")
        bound = _l1(y) * (1 + 1e-9)
        values = {}
        for family in ("fock", "plane", "bohr", "bloch", "zak", "mixture"):
            v = rec.call(f"evaluate.{family}.{tag}", row[family].evaluate, y)
            values[family] = v
            rec.expect(math.isfinite(abs(v)) and abs(v) <= bound, rec.last,
                       f"|{family}(y)| = {abs(v)!r} exceeds {bound!r} at {tag}")
        w = row["weights"]
        mixed = w[0] * values["plane"] + w[1] * values["bloch"] + w[2] * values["zak"]
        rec.expect(abs(values["mixture"] - mixed) <= 1e-9 * max(1.0, bound), rec.last,
                   f"mixture {values['mixture']!r} != weighted sum {mixed!r} at {tag}")

        probes = list(y.terms)[: self.PROBES]
        state = row["fock"] if frame.d == 1 else row["bloch"]
        report = rec.call(f"gram.{tag}", states.gram_psd_check, state, frame, probes)
        rec.expect(report.passed and report.hermitian_residual <= 1e-9, rec.last,
                   f"Gram check failed at {tag}: {report.as_dict()}")

        pieces = list(y.terms.items())
        samples = [algebra.Element(frame, dict(pieces[k:k + 5])) for k in (0, 5, 10)]
        spec = algebra.SpaceTranslation(row["lam"])
        report = rec.call(f"invariance.{tag}", states.invariance_check,
                          row["plane"], spec, samples)
        rec.expect(report.passed, rec.last, f"plane wave not translation invariant at {tag}")

        b = next((m.b for m in y.terms if not m.b[0].is_rational()), next(iter(y.terms)).b)
        m = algebra.Monomial(row["oracle_a"], b)
        window = self.windows[frame.d]
        if frame.d == 2:
            oracle = rec.call(f"oracle.{tag}", gns.bloch_vector_state,
                              row["kappa"], row["fhat"], m, window)
        closed = rec.call(f"closed_form.{tag}", states.bloch_monomial_value,
                          row["kappa"], row["fhat"], m)
        if frame.d != 2:  # the oracle as an untimed check only
            oracle = gns.bloch_vector_state(row["kappa"], row["fhat"], m, window)
        rec.expect(abs(oracle - closed) <= 1e-9, rec.last,
                   f"Bloch closed form {closed!r} != oracle {oracle!r} at {tag}")

    @staticmethod
    def _moved_ok(x, y) -> bool:
        """The free dynamics keeps every a and every coefficient modulus."""
        def moduli(e):
            out = defaultdict(list)
            for m, c in e.terms.items():
                out[m.a].append(abs(c))
            return {a: sorted(v) for a, v in out.items()}

        mx, my = moduli(x), moduli(y)
        return len(x) == len(y) and mx.keys() == my.keys() and all(
            math.isclose(p, q, rel_tol=1e-12) for a in mx for p, q in zip(mx[a], my[a]))


# -- verify -----------------------------------------------------------------------------


class Verify:
    """``weylccr verify --suite all --seed S --output json`` at d = 1 with
    the default frame, called in-process; the report is compared with the
    stored reference of the commit that defined the benchmark."""

    name = "verify"
    MAX_ROUNDS = 1  # one pass takes longer than a run's --seconds
    WARMUP = ["simplify", "--elem", "u(1/2)*v(1/3)", "--output", "json"]

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        t0 = time.perf_counter()
        lattice.Frame.standard(1)
        self.frame_build_s = time.perf_counter() - t0
        self.reference = verify_ref.load_reference()
        self.check_names = verify_ref.reference_check_names(self.reference)
        verify_ref.run_cli(cli.main, self.WARMUP)  # the untimed warm-up call
        return None

    def inputs(self, r: int):
        return None

    def run_round(self, rec: Recorder, inp):
        code, text = rec.call("verify.all.d1", verify_ref.run_verify, cli.main, self.seed)
        try:
            report = json.loads(text)
        except ValueError:
            rec.fail(rec.last, "verify output is not JSON")
            return
        problems = verify_ref.compare(report, self.seed, self.reference, self.check_names)
        if code != (0 if report.get("pass") else 1):
            problems.append(f"exit code {code} disagrees with the pass flag")
        for p in problems:
            rec.fail(rec.last, p)


WORKLOADS = {w.name: w for w in (Verify, Algebra, StatesSkew)}
