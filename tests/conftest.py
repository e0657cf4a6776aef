"""Shared fixtures for the test suite; the seeded generators live in
``weylccr.verify``."""

from __future__ import annotations

import random

import pytest

from weylccr import Frame


@pytest.fixture
def frame1():
    return Frame.standard(1)


@pytest.fixture
def frame2():
    return Frame.standard(2)


def seeded(name: str) -> random.Random:
    return random.Random(name)
