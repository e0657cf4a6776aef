"""Shared fixtures for the test suite; the seeded generators live in
``weylccr.verify``."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from weylccr import Frame


@pytest.fixture
def frame1():
    return Frame.standard(1)


@pytest.fixture
def frame2():
    return Frame.standard(2)


def seeded(name: str) -> random.Random:
    return random.Random(name)


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
