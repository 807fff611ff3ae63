from __future__ import annotations

from fractions import Fraction

import pytest

from spencerlab.cartan import (
    CartanDatum,
    CartanError,
    build_root_system,
    geometry,
    root_height,
    standard_cartan_matrix,
    symmetrizer,
)

KNOWN_POSITIVE_ROOTS = {
    "A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9, "C3": 9,
    "D4": 12, "G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120,
}


@pytest.mark.parametrize("label,count", sorted(KNOWN_POSITIVE_ROOTS.items()))
def test_positive_root_counts(label, count):
    rs = build_root_system(CartanDatum.from_label(label))
    assert len(rs.positive_roots) == count
    assert rs.dim == rs.rank + 2 * count


def test_a1_is_sl2():
    rs = build_root_system(CartanDatum.from_label("A1"))
    assert rs.positive_roots == ((1,),)
    assert rs.dim == 3


def test_e7_dimension_identity():
    rs = build_root_system(CartanDatum.from_label("E7"))
    assert 2 * 63 + 7 == 133 == rs.dim


def test_ordering_by_height_then_lex():
    rs = build_root_system(CartanDatum.from_label("G2"))
    heights = [root_height(b) for b in rs.positive_roots]
    assert heights == sorted(heights)
    for h in set(heights):
        level = [b for b in rs.positive_roots if root_height(b) == h]
        assert level == sorted(level)


def test_invalid_labels_rejected():
    for bad in ("Z9", "A0", "E9", "G3", "B1", "", "77"):
        with pytest.raises(CartanError):
            CartanDatum.from_label(bad)


def test_tampered_matrix_names_the_entry():
    datum = CartanDatum.from_label("A2")
    rows = [list(r) for r in datum.cartan_matrix]
    rows[0][1] = -2
    bad = CartanDatum("A", 2, tuple(tuple(r) for r in rows))
    with pytest.raises(CartanError, match=r"\(0,1\)|\(0, 1\)"):
        bad.validate()


def test_bad_diagonal_rejected():
    rows = [[1, -1], [-1, 2]]
    bad = CartanDatum("A", 2, tuple(tuple(r) for r in rows))
    with pytest.raises(CartanError, match="diagonal"):
        bad.validate()


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
    datum = CartanDatum.from_label("G2")
    rs = build_root_system(datum)
    norms = {geometry(datum).root_norm2(b) for b in rs.positive_roots}
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
        geo.root_system.positive_roots, geo.norm2, geo.coroots, geo.labels
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
