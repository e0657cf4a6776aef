"""The benchmark's span tracer (``bench/tracer.py``) must keep finding what it
traces: it rebinds every traced function by name and each state family's own
``monomial_value`` in the class ``__dict__``, so a rename in the package would
otherwise leave a per-layer counter reading 0 with no test failing.

The tracer is loaded from its source text, so nothing is written under
``bench/``.
"""

import sys
import types
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import weylccr.cli  # noqa: F401  (every module the tracer patches is loaded)
from weylccr import (BohrState, ContinuousCharacter, Element, Frame, PadicCharacter,
                     ProductCharacter, TimeReversal)
from weylccr.verify import RunConfig

TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def _bindings() -> dict:
    """Every module attribute, value of a module-level dict and class
    attribute of the package, keyed by where it is bound."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not (name == "weylccr" or name.startswith("weylccr.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, dict) and not attr.startswith("__"):
                for key, item in value.items():
                    out[(name, attr, key)] = item
            if isinstance(value, type) and value.__module__ == name:
                for key, item in vars(value).items():
                    out[(name, attr, "class", key)] = item
    return out


def _installed_names(tracer) -> set:
    """The span name of every wrapper the tracer bound."""
    names = set()
    for owner, attr, _ in tracer._patches:
        new = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
        fn = new.__func__ if isinstance(new, staticmethod) else new
        cells = dict(zip(fn.__code__.co_freevars, fn.__closure__ or ()))
        if "fid" in cells:
            names.add(tracer.names[cells["fid"].cell_contents])
    return names


@contextmanager
def installed(installer: str):
    """The tracer with ``installer`` run on a fresh ``Tracer``, as
    ``bench/run.py`` does; on exit it is uninstalled and every binding must be
    the one from before the install."""
    tr = _load_tracer()
    before = _bindings()
    tracer = tr.Tracer()
    try:
        getattr(tr, installer)(tracer)
        yield tr, tracer
    finally:
        tracer.uninstall()
    after = _bindings()
    assert [key for key, value in before.items() if after.get(key) is not value] == []


def test_install_all_binds_every_traced_name():
    with installed("install_all") as (tr, tracer):
        registered = set(tracer.names)
        families = {f"states.monomial_value.{family}" for family in tr.FAMILIES.values()}
        assert families <= registered
        assert registered == _installed_names(tracer)


def test_install_suite_timers_binds_every_suite():
    from weylccr import verify

    with installed("install_suite_timers") as (tr, tracer):
        assert set(tracer.names) == _installed_names(tracer) == {
            f"verify.suite.{key}" for key in tr.SUITE_NAMES}
        tracer.call(verify.run_suite, "covariance", RunConfig(frame=Frame.standard(1)))
        assert tracer.totals()["verify.suite.covariance"][0] == 1


def test_delegates_count_once_per_call():
    from weylccr import algebra, states

    frame = Frame.standard(1)
    x = Element.u(frame, [1]) + Element.v(frame, [Fraction(1, 3)])
    char = ProductCharacter((PadicCharacter((3,)), ContinuousCharacter((Fraction(1, 2),))))
    with installed("install_all") as (_, tracer):
        tracer.call(algebra.apply_automorphism, TimeReversal(), x)
        tracer.call(states.time_reversal_classify, BohrState(char))
        tracer.call(BohrState(char).evaluate, Element.v(frame, [Fraction(1, 3)]))
        totals = tracer.totals()
    assert totals["algebra.apply_automorphism"][0] == 1
    assert totals["algebra.automorphism_action"][0] == len(x)
    # the product's own evaluation and one per factor
    assert totals["characters.eval"][0] == 3
    assert totals["states.monomial_value.bohr"][0] == 1
    assert totals["states.other_checks"][0] == 1
