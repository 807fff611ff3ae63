from __future__ import annotations

import json
import os
from fractions import Fraction
from math import gcd, lcm

import pytest

from spencerlab.chevalley import algebra

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def load_golden(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def primitive(vec: dict) -> dict:
    """The primitive integer multiple of a rational vector, positive at its largest key."""
    scale = lcm(*(Fraction(v).denominator for v in vec.values()))
    ints = {k: int(v * scale) for k, v in vec.items()}
    g = gcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    return {k: v // g for k, v in ints.items()}


@pytest.fixture(scope="session")
def a1():
    return algebra("A1")


@pytest.fixture(scope="session")
def a2():
    return algebra("A2")


@pytest.fixture(scope="session")
def g2():
    return algebra("G2")
