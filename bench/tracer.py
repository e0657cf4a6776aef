"""Span tracer installed on the weylccr package from outside.

Every traced public function is replaced by a wrapper at each place it is
bound: module attributes (``weylccr.algebra.pairing`` as well as
``weylccr.lattice.pairing``), values of module-level dicts (the verify suite
table), and class attributes for methods.  Nothing in ``src/`` changes.

A wrapper records a span (id, parent id, function, start, end) and adds the
span's self time, its duration minus the time its child spans cover, to the
function's total.  Spans live in memory and are written out by ``dump``.
"""

from __future__ import annotations

import array
import json
import sys
import time
from collections import defaultdict

perf_ns = time.perf_counter_ns

#: span name of the benchmark's own root span around each timed call; its
#: self time is call time that no traced function accounts for
ROOT = "bench.call"
#: spans kept in memory; later spans still count towards the totals
SPAN_CAP = 200_000


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Wrappers, the span stack, per-function totals and in-memory spans."""

    def __init__(self):
        self.names: list[str] = []
        self._fid: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.enabled = False
        self.spans = array.array("q")  # flat (id, parent, fid, start, end)
        self.dropped = 0
        self._stack: list[list[int]] = []  # [child_ns, span_id]
        self._next_id = 1
        self._patches: list[tuple] = []
        self.root_ns = 0

    # -- bookkeeping --------------------------------------------------

    def fid(self, name: str) -> int:
        if name not in self._fid:
            self._fid[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._fid[name]

    def _begin(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else 0
        self._stack.append([0, span_id])
        return span_id, parent

    def _end(self, fid: int, span_id: int, parent: int, t0: int, t1: int) -> int:
        child_ns = self._stack.pop()[0]
        dur = t1 - t0
        self.calls[fid] += 1
        self.self_ns[fid] += dur - child_ns
        if self._stack:
            self._stack[-1][0] += dur
        if len(self.spans) < 5 * SPAN_CAP:
            self.spans.extend((span_id, parent, fid, t0, t1))
        else:
            self.dropped += 1
        return dur

    def wrap(self, name: str, fn, hook=None):
        """A wrapper around ``fn`` recording spans named ``name``.

        ``hook(args, result)`` runs after the span closes, for counters.
        """
        fid = self.fid(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id, parent = tracer._begin()
            t0 = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(fid, span_id, parent, t0, perf_ns())
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_only(self, fn, hook):
        """A wrapper that records no span, only ``hook(args, None)``."""
        tracer = self

        def counted(*args, **kwargs):
            fn(*args, **kwargs)
            if tracer.enabled:
                hook(args, None)

        counted.__wrapped__ = fn
        return counted

    def call(self, fn, *args):
        """Run one benchmark call under the root span, with tracing enabled
        only for its duration, and return its result."""
        fid = self.fid(ROOT)
        span_id, parent = self._begin()
        self.enabled = True
        t0 = perf_ns()
        try:
            return fn(*args)
        finally:
            t1 = perf_ns()
            self.enabled = False
            self.root_ns += self._end(fid, span_id, parent, t0, t1)

    # -- installation -------------------------------------------------

    def _set(self, owner, attr, value):
        old = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
        self._patches.append((owner, attr, old))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def replace(self, fn, replacement, namespaces):
        """Rebind to ``replacement`` every binding of ``fn`` in ``namespaces``
        (modules) and in the dicts those modules hold at top level."""
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, replacement)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is fn:
                            self._set(value, key, replacement)

    def patch_function(self, name: str, fn, namespaces, hook=None):
        """Wrap every binding of ``fn`` in ``namespaces``, see ``replace``."""
        self.replace(fn, self.wrap(name, fn, hook), namespaces)

    def patch_method(self, name: str, cls, attrs, hook=None):
        """Wrap methods of ``cls`` in place; aliases share one wrapper."""
        done = {}
        for attr in attrs:
            raw = cls.__dict__[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            if id(fn) not in done:
                done[id(fn)] = self.wrap(name, fn, hook)
            wrapper = done[id(fn)]
            self._set(cls, attr, staticmethod(wrapper) if is_static else wrapper)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- results ------------------------------------------------------

    def totals(self) -> dict:
        """{name: (calls, self_seconds)} for every registered function."""
        return {n: (self.calls[i], self.self_ns[i] / 1e9)
                for i, n in enumerate(self.names)}

    def layer_self(self) -> dict:
        out: dict[str, float] = defaultdict(float)
        for name, (_, self_s) in self.totals().items():
            out[_layer(name)] += self_s
        return dict(out)

    def dump(self, path: str):
        """Write spans and totals as JSON: spans are [id, parent, name index,
        start_ns, end_ns] rows; ``dropped`` counts spans past the cap."""
        rows = [list(self.spans[i:i + 5]) for i in range(0, len(self.spans), 5)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": rows, "dropped": self.dropped,
                       "totals": self.totals(), "counters": dict(self.counters)},
                      fh, separators=(",", ":"))
            fh.write("\n")


# -- what is traced -------------------------------------------------------------


FAMILIES = {"Fock": "fock", "PlaneWave": "plane_wave", "BohrState": "bohr",
            "Bloch": "bloch", "Zak": "zak", "Tracial": "tracial",
            "Mixture": "mixture"}

SUITE_NAMES = ("weyl", "ergodic", "states", "covariance", "tri", "zak", "gns",
               "paths")


def package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "weylccr" or name.startswith("weylccr."))]


def install_suite_timers(tracer: Tracer):
    """Spans on the verify suites only: ``verify.suite.<name>``."""
    from weylccr import verify

    ns = package_modules()
    for key in SUITE_NAMES:
        tracer.patch_function(f"verify.suite.{key}", getattr(verify, f"suite_{key}"), ns)


def install_all(tracer: Tracer):
    """Spans on every public function the per-layer metrics name."""
    from weylccr import (algebra, characters, cli, gns, lattice, scalars,
                         serialization, states, verify)

    ns = package_modules()
    c = tracer.counters
    ONE = scalars.S_ONE.den

    def scalar_made(args, _):
        c["scalars.results"] += 1
        if args[0].den == ONE:
            c["scalars.den1"] += 1

    def phase_kind(args, _):
        v = args[0].value
        tau_rational = v.den == ONE and (not v.num or (len(v.num) <= 2 and v.num[0] == 0))
        c["scalars.to_complex.slow"] += not tau_rational

    seen: set = set()

    def monomial_made(args, _):
        m = args[0]
        for coord in m.a + m.b:
            c["inputs.coords"] += 1
            if coord in seen:
                c["inputs.coords_repeated"] += 1
            else:
                seen.add(coord)

    def mul_made(args, result):
        other = args[1]
        if isinstance(other, algebra.Element):
            c["algebra.element_mul.term_pairs"] += len(args[0]) * len(other)
            c["algebra.element_mul.out_terms"] += len(result)

    def op_s_made(args, _):
        c["gns.op_S.points"] += len(args[1])

    S = scalars.ExactScalar
    tracer.patch_method("scalars.arith", S, (
        "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
        "__rmul__", "__truediv__", "__rtruediv__", "__neg__"))
    tracer._set(S, "__init__", tracer.count_only(S.__init__, scalar_made))
    tracer.patch_method("scalars.to_complex", scalars.PhaseAngle, ("to_complex",),
                        phase_kind)
    tracer.patch_method("scalars.rotation_eq", scalars.PhaseAngle, ("is_same_rotation",))

    tracer.patch_function("lattice.pairing", lattice.pairing, ns)
    tracer.patch_function("lattice.vdot", lattice.vdot, ns)
    tracer.patch_method("lattice.norm_sq", lattice.Frame,
                        ("position_norm_sq", "momentum_norm_sq"))
    tracer.patch_method("lattice.frame_build", lattice.Frame, ("from_basis",))

    tracer.patch_function("algebra.monomial_product", algebra.monomial_product, ns)
    tracer.patch_function("algebra.monomial_adjoint", algebra.monomial_adjoint, ns)
    tracer.patch_function("algebra.automorphism_action", algebra.automorphism_action, ns)
    tracer.patch_function("algebra.apply_automorphism", algebra.apply_automorphism, ns)
    tracer.patch_function("algebra.tracial_inner_product",
                          algebra.tracial_inner_product, ns)
    for fn in (algebra.ergodic_mean, algebra.ergodic_mean_lattice, algebra.ergodic_mean_zak):
        tracer.patch_function("algebra.ergodic_mean", fn, ns)
    tracer.patch_function("algebra.box_average", algebra.numeric_box_average, ns)
    E = algebra.Element
    tracer.patch_method("algebra.element_mul", E, ("__mul__",), mul_made)
    tracer.patch_method("algebra.element_adjoint", E, ("adjoint",))
    tracer.patch_method("algebra.element_add", E,
                        ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"))
    M = algebra.Monomial
    tracer._set(M, "__init__", tracer.count_only(M.__init__, monomial_made))

    tracer.patch_function("characters.eval", characters.character_eval, ns)

    for cls_name, family in FAMILIES.items():
        tracer.patch_method(f"states.monomial_value.{family}", getattr(states, cls_name),
                            ("monomial_value",))
    tracer.patch_method("states.evaluate", states.StateModel, ("evaluate",))
    tracer.patch_function("states.bloch_closed_form", states.bloch_monomial_value, ns)
    tracer.patch_function("states.gram", states.gram_psd_check, ns)
    tracer.patch_function("states.invariance", states.invariance_check, ns)
    for fn in (states.multiplicativity_check, states.covariance_check,
               states.weak_star_distance, states.time_reversal_classify,
               states.path_sample):
        tracer.patch_function("states.other_checks", fn, ns)

    tracer.patch_function("gns.op_S", gns.op_S, ns, op_s_made)
    tracer.patch_function("gns.op_F", gns.op_F, ns)
    tracer.patch_function("gns.rep_rho_kappa", gns.rep_rho_kappa, ns)
    tracer.patch_function("gns.oracle", gns.bloch_vector_state, ns)
    tracer.patch_function("gns.plane_wave_oracle", gns.plane_wave_vector_state, ns)
    tracer.patch_function("gns.weyl_residual", gns.weyl_relation_residual, ns)

    for key in SUITE_NAMES:
        tracer.patch_function("verify.suites", getattr(verify, f"suite_{key}"), ns)
    tracer.patch_function("verify.run_suite", verify.run_suite, ns)
    tracer.patch_function("cli.main", cli.main, ns)
    tracer.patch_function("cli.report", serialization.dumps, ns)
    tracer.patch_method("cli.report", verify.CheckResult, ("as_dict",))

