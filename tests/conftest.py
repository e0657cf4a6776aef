"""Shared fixtures for the test suite; the seeded generators live in
``weylccr.verify``."""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import strategies as st

from weylccr import Frame
from weylccr.cli import main


@pytest.fixture
def frame1():
    return Frame.standard(1)


@pytest.fixture
def frame2():
    return Frame.standard(2)


def run_json(argv, frame, tmp_path) -> tuple:
    """The exit code and the JSON output of ``weylccr`` with ``argv``, on
    ``frame`` (frame JSON, written under ``tmp_path``) when it is not None."""
    if frame is not None:
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(frame))
        argv = argv + ["--frame", str(path)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, json.loads(buf.getvalue())


#: (d, seed) of the pinned ``verify --suite all`` reports: the default frame
#: at d = 1, the identity frame at d = 2
VERIFY_ALL = ((1, 1), (2, 0))


@pytest.fixture(scope="session")
def verify_all(tmp_path_factory) -> dict:
    """(d, seed) -> (exit code, report) of ``weylccr verify --suite all
    --output json`` for each of ``VERIFY_ALL``, run once per session: the
    golden comparison and the acceptance battery read the same reports."""
    reports = {}
    for d, seed in VERIFY_ALL:
        identity = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
        reports[d, seed] = run_json(
            ["verify", "--suite", "all", "--seed", str(seed), "--output", "json"],
            None if d == 1 else {"d": d, "E": identity}, tmp_path_factory.mktemp("frame"))
    return reports


# JSON values built from the keys and tags of the file formats, mostly malformed,
# around a few well-formed d = 1 states and scalars.
KEYS = ("family", "p", "char", "kind", "primes", "factors", "kappa", "fhat", "idx",
        "re", "im", "nu", "components", "weight", "state", "num", "den", "0", "1",
        "start", "end", "d", "E")
FAMILIES = ("plane_wave", "bohr", "padic", "bloch", "zak", "fock", "tracial", "mixture",
            "continuous", "product", "bogus")
STATES_D1 = ({"family": "plane_wave", "p": ["1/2"]},
             {"family": "zak", "kappa": ["1/4"], "nu": ["0"]},
             {"family": "bloch", "kappa": ["0"], "fhat": [{"idx": [0], "re": 1.0}]},
             {"family": "fock"})
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.sampled_from(("0", "1/2", "-1/3", "1/0", "x", "", "1e1000000") + FAMILIES)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=10)
malformed_states = st.sampled_from(STATES_D1) | st.recursive(
    st.fixed_dictionaries({"family": st.sampled_from(FAMILIES)},
                          optional={k: json_values for k in KEYS if k != "family"}),
    lambda inner: st.fixed_dictionaries(
        {"family": st.just("mixture"),
         "components": st.lists(st.fixed_dictionaries(
             {}, optional={"weight": json_values, "state": inner | json_values}), max_size=3)}),
    max_leaves=4) | json_values
scalars = st.sampled_from(("1", "2", "-1/3", {"num": {"1": "1"}})) | json_values
malformed_frames = st.fixed_dictionaries(
    {"E": st.lists(st.lists(scalars, min_size=1, max_size=2), min_size=1, max_size=2)
     | json_values},
    optional={"d": st.integers(-1, 2) | json_values}) | json_values
malformed_endpoints = st.fixed_dictionaries(
    {"start": malformed_states, "end": malformed_states}) | json_values
