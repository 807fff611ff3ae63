from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import combinations_with_replacement
from math import comb

import pytest

from spencerlab.sym import (
    ResourceCapExceeded,
    SymElement,
    enumerate_basis,
    monomial_at,
    rank_weights,
    sym_dim,
    sym_product,
)


def test_sym_dim_values():
    assert sym_dim(3, 2) == 6
    assert sym_dim(5, 0) == 1
    assert sym_dim(133, 2) == 8911
    assert sym_dim(133, 3) == comb(135, 3) == 400995


def test_enumerate_basis_order_and_length():
    basis = enumerate_basis(3, 2)
    assert basis == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    for n, k in [(3, 1), (3, 3), (8, 2), (14, 3)]:
        assert len(enumerate_basis(n, k)) == sym_dim(n, k)


def test_resource_cap():
    with pytest.raises(ResourceCapExceeded, match="cap"):
        enumerate_basis(133, 4, cap=10_000_000)


def test_rank_weights_round_trip():
    for n, k in [(3, 2), (5, 3), (8, 2), (10, 4)]:
        weights = rank_weights(n, k)
        for i, mono in enumerate(combinations_with_replacement(range(n), k)):
            assert sum(weights[q][c] for q, c in enumerate(mono)) == i


def test_monomial_at_inverts_the_basis_order():
    for n, k in [(1, 3), (3, 2), (5, 3), (8, 2), (4, 5)]:
        for i, mono in enumerate(combinations_with_replacement(range(n), k)):
            assert monomial_at(n, k, i) == mono
    for bad in (-1, sym_dim(4, 3)):
        with pytest.raises(ValueError, match="outside"):
            monomial_at(4, 3, bad)


def test_product_commutative_and_merges():
    e = SymElement.monomial(3, (1,))
    f = SymElement.monomial(3, (2,))
    assert sym_product(e, f) == sym_product(f, e)
    assert sym_product(e, f).terms == {(1, 2): Q(1)}


def test_product_bilinearity_example():
    # (e + h)(e - h) = e.e - h.h
    e = SymElement.monomial(3, (1,))
    h = SymElement.monomial(3, (0,))
    left = e.add(h)
    right = e.add(h.scale(-1))
    prod = sym_product(left, right)
    assert prod.terms == {(1, 1): Q(1), (0, 0): Q(-1)}


def test_product_associative_commutative_random():
    rng = random.Random(3)

    def rand_el(degree):
        out = SymElement.zero(degree, 4)
        for _ in range(3):
            mono = tuple(sorted(rng.randrange(4) for _ in range(degree)))
            out.add_term(mono, Q(rng.randint(-4, 4), rng.randint(1, 3)))
        return out

    for _ in range(15):
        x, y, z = rand_el(1), rand_el(2), rand_el(1)
        assert sym_product(x, y) == sym_product(y, x)
        assert sym_product(sym_product(x, y), z) == sym_product(x, sym_product(y, z))


def test_no_zero_coefficients_stored():
    el = SymElement(2, 3, {(0, 1): Q(1)})
    el.add_term((0, 1), Q(-1))
    assert el.terms == {}
    assert el.is_zero()


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="size"):
        SymElement(2, 3, {(0,): Q(1)})
