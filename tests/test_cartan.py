from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from spencerlab.cartan import (
    CartanDatum,
    CartanError,
    geometry,
    root_height,
    standard_cartan_matrix,
    symmetrizer,
)
from spencerlab.chevalley import algebra

KNOWN_POSITIVE_ROOTS = {
    "A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9, "C3": 9,
    "D4": 12, "G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120,
}


@pytest.mark.parametrize("label,count", sorted(KNOWN_POSITIVE_ROOTS.items()))
def test_positive_root_counts(label, count):
    pos = geometry(CartanDatum.from_label(label)).positive_roots
    assert len(pos) == len(set(pos)) == count
    assert all(min(beta) >= 0 for beta in pos)


def test_a1_is_sl2():
    assert geometry(CartanDatum.from_label("A1")).positive_roots == ((1,),)
    assert algebra("A1").dim == 3


def test_e7_dimension_identity():
    pos = geometry(CartanDatum.from_label("E7")).positive_roots
    assert 2 * 63 + 7 == 7 + 2 * len(pos) == algebra("E7").dim == 133


def test_ordering_by_height_then_lex():
    pos = geometry(CartanDatum.from_label("G2")).positive_roots
    heights = [root_height(b) for b in pos]
    assert heights == sorted(heights)
    for h in set(heights):
        level = [b for b in pos if root_height(b) == h]
        assert level == sorted(level)


def test_invalid_labels_rejected():
    for bad in ("Z9", "A0", "E9", "G3", "B1", "", "77"):
        with pytest.raises(CartanError):
            CartanDatum.from_label(bad)


@pytest.mark.parametrize("family, rank, message", [
    ("Z", 3, "unknown family 'Z'"),
    ("A", 0, "A0: rank must be >= 1"),
    ("E", 9, "E9: rank must be <= 8"),
])
def test_datum_constructor_checks_family_and_rank(family, rank, message):
    with pytest.raises(CartanError, match=message):
        CartanDatum(family, rank)


def test_datum_is_family_and_rank():
    datum = CartanDatum.from_label(" e7")
    assert datum == CartanDatum("E", 7)
    assert [f.name for f in dataclasses.fields(datum)] == ["family", "rank"]
    assert datum.cartan_matrix == tuple(map(tuple, standard_cartan_matrix("E", 7)))


def test_symmetrizer_makes_da_symmetric():
    for label in ("B3", "C3", "F4", "G2"):
        a = standard_cartan_matrix(label[0], int(label[1:]))
        d = symmetrizer(a)
        n = len(a)
        for i in range(n):
            for j in range(n):
                assert d[i] * a[i][j] == d[j] * a[j][i]
        assert min(d) == 1


def test_root_norms_two_lengths_g2():
    geo = geometry(CartanDatum.from_label("G2"))
    norms = {geo.root_norm2(b) for b in geo.positive_roots}
    assert norms == {2, 6}


GEOMETRY_LABELS = (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5",
    "E6", "E7", "E8", "F4", "G2",
)


@pytest.mark.parametrize("label", GEOMETRY_LABELS)
def test_geometry_table(label):
    from spencerlab.linalg import rref_dense

    datum = CartanDatum.from_label(label)
    geo = geometry(datum)
    assert geometry(CartanDatum.from_label(label)) is geo
    a = datum.cartan_matrix
    n = datum.rank
    # d_i A_ij is symmetric and integral
    assert all(type(x) is int for x in geo.d)
    assert all(geo.d[i] * a[i][j] == geo.d[j] * a[j][i] for i in range(n) for j in range(n))
    # squared lengths and coroots are integers agreeing with their definitions
    for beta, nb, co, labels in zip(
        geo.positive_roots, geo.norm2, geo.coroots, geo.labels
    ):
        assert nb == sum(beta[i] * beta[j] * geo.d[i] * a[i][j] for i in range(n) for j in range(n))
        assert all(type(c) is int for c in co)
        assert list(co) == [Fraction(2 * beta[i] * geo.d[i], nb) for i in range(n)]
        assert list(labels) == [sum(a[i][j] * beta[j] for j in range(n)) for i in range(n)]
    # (det A A^-1) A = det A I, with det A the index of the root lattice
    det = {"A": n + 1, "B": 2, "C": 2, "D": 4, "E": 9 - n, "F": 1, "G": 1}[label[0]]
    assert geo.det == det
    assert all(
        sum(geo.adj[i][k] * a[k][j] for k in range(n)) == geo.det * (i == j)
        for i in range(n)
        for j in range(n)
    )
    # the Gram matrix of the fundamental weights equals the O(n^4) definition
    red, _ = rref_dense(
        [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    )
    ainv = [row[n:] for row in red]
    for i in range(n):
        for j in range(n):
            old = sum(
                ainv[k][i] * geo.d[k] * a[k][l] * ainv[l][j]
                for k in range(n)
                for l in range(n)
            )
            assert Fraction(geo.gram[i][j], geo.det) == old
