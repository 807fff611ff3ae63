from __future__ import annotations

import dataclasses
import random
from fractions import Fraction as Q

import pytest

from spencerlab.cartan import CartanDatum, geometry, standard_cartan_matrix
from spencerlab.chevalley import (
    ChevalleyError,
    _killing_blocks,
    algebra,
    bracket,
    build_chevalley_basis,
    check_jacobi,
    coadjoint,
    jacobi_residual,
    killing_determinant_sign,
    prove_jacobi,
    serialize_table,
)
from spencerlab.operators import _kinv_columns
from spencerlab.sym import SymElement


def test_sl2_relations(a1):
    h, e, f = 0, 1, 2
    assert dict(a1.bracket_basis(h, e)) == {e: 2}
    assert dict(a1.bracket_basis(h, f)) == {f: -2}
    assert dict(a1.bracket_basis(e, f)) == {h: 1}


def test_antisymmetry_all_pairs(a2):
    for a in range(a2.dim):
        for b in range(a2.dim):
            left = dict(a2.bracket_basis(a, b))
            right = {c: -v for c, v in a2.bracket_basis(b, a)}
            assert left == right


def test_repeated_element_jacobi_trivial(g2):
    rng = random.Random(5)
    for _ in range(30):
        a = rng.randrange(g2.dim)
        b = rng.randrange(g2.dim)
        assert jacobi_residual(g2, a, a, b) == {}


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C3", "D4", "G2", "F4", "E6", "E7"])
def test_jacobi_exhaustive_small(label):
    alg = algebra(label)
    assert alg.jacobi_checked
    assert prove_jacobi(alg) == 2 * alg.rank
    # the all-triples oracle agrees with the generator proof of construction
    n_triples = check_jacobi(alg)
    d = alg.dim
    assert n_triples == d * (d - 1) * (d - 2) // 6


def test_integer_structure_constants(g2):
    values = set()
    for a in range(g2.dim):
        for _b, entries in g2.bracket_rows[a].items():
            for _c, v in entries:
                assert isinstance(v, int)
                values.add(abs(v))
    # G2 root strings reach length 4, so constants up to 3 appear.
    assert 3 in values


def dense_killing(table):
    """Oracle: the dense K(a, b) = trace(ad_a ad_b) over all basis pairs, as integers."""
    dim, rows = table.dim, table.bracket_rows
    k = [[0] * dim for _ in range(dim)]
    flat = []
    for a in range(dim):
        entries = []
        for c, val in rows[a].items():
            for dd, coeff in val:
                entries.append((c, dd, coeff))
        flat.append(entries)
    for a in range(dim):
        for b in range(a, dim):
            total = 0
            row_b = rows[b]
            for c, dd, coeff in flat[a]:
                back = row_b.get(dd)
                if back:
                    for c2, coeff2 in back:
                        if c2 == c:
                            total += coeff * coeff2
            k[a][b] = k[b][a] = total
    return k


def test_killing_root_theoretic_oracle():
    # K(h_i, h_j) must match the sum over roots of the weight products,
    # and K(e, f) must match K(h_i, h_beta)/beta(h_i).
    for label in ("A2", "G2", "F4"):
        alg = algebra(label)
        rank = alg.rank
        for i in range(rank):
            for j in range(rank):
                s = sum(alg.weights[a][i] * alg.weights[a][j] for a in range(alg.dim))
                assert alg.killing_cartan[i][j] == s
        for r in range(alg.n_positive):
            ei, fi = alg.e_index(r), alg.f_index(r)
            w = alg.weights[ei]
            i = next(k for k in range(rank) if w[k])
            h_beta = dict(alg.bracket_basis(ei, fi))
            k_h_hbeta = sum(Q(c) * alg.killing_cartan[i][jj] for jj, c in h_beta.items())
            assert alg.killing_pairs[r] == k_h_hbeta / w[i]


@pytest.mark.parametrize("label", ["A1", "A2", "B3", "C3", "D4", "G2", "F4", "E6", "E7"])
def test_killing_blocks_match_dense_oracle(label):
    # every trace outside the Cartan block and the (e_r, f_r) pairings is 0
    alg = algebra(label)
    expect = [[0] * alg.dim for _ in range(alg.dim)]
    for i, row in enumerate(alg.killing_cartan):
        expect[i][: alg.rank] = row
    for r, v in enumerate(alg.killing_pairs):
        expect[alg.e_index(r)][alg.f_index(r)] = expect[alg.f_index(r)][alg.e_index(r)] = v
    assert dense_killing(alg) == expect
    assert all(isinstance(v, int) for row in alg.killing_cartan for v in row)
    assert all(isinstance(v, int) and v for v in alg.killing_pairs)
    assert killing_determinant_sign(alg) != 0


@pytest.mark.parametrize(
    "label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"]
)
def test_killing_determinant_sign_from_pair_count(label):
    # the Cartan block is positive definite and each (e, f) pair adds a
    # block of negative determinant
    alg = algebra(label)
    assert killing_determinant_sign(alg) == (-1) ** alg.n_positive


def test_killing_inverse():
    # two root lengths, so the (e, f) pairings differ; K times the
    # d_K K^{-1} columns of the assembly must be d_K times the identity
    for label in ("G2", "F4"):
        alg = algebra(label)
        k = dense_killing(alg)
        cols, d_k = _kinv_columns(alg)
        assert len(set(alg.killing_pairs)) == 2
        for b, col in enumerate(cols):
            for a in range(alg.dim):
                assert sum(k[a][c] * v for c, v in col) == d_k * (a == b)


def test_bracket_term_of_the_wrong_weight_is_caught():
    def misplace(table, rows):
        # [e_1, e_2] = N e_(1+2) and its mirror, moved onto e_1
        a, b = _root_root_pairs(table)[0]
        rows[a][b] = tuple((a, v) for _c, v in rows[a][b])
        rows[b][a] = tuple((a, v) for _c, v in rows[b][a])

    table = _edited("A2", misplace)
    with pytest.raises(ChevalleyError, match=r"basis pair \(2, 3\) has a term x_2 outside"):
        _killing_blocks(table.bracket_rows, table.weights, table.rank, table.n_positive)


def test_killing_block_checks_keep_their_messages(a1, a2):
    # abelian: the Cartan block is 0, so its first leading minor vanishes
    with pytest.raises(ChevalleyError, match="not positive definite on the Cartan block"):
        _killing_blocks(tuple({} for _ in range(a2.dim)), a2.weights, 2, 3)
    # [h, e] = 2e and [h, f] = -2f without [e, f]: K(h, h) = 8 but K(e, f) = 0
    rows = ({1: ((1, 2),), 2: ((2, -2),)}, {0: ((1, -2),)}, {0: ((2, 2),)})
    with pytest.raises(ChevalleyError, match=r"degenerate \(e, f\) Killing pairing at root index 0"):
        _killing_blocks(rows, a1.weights, 1, 1)


def test_bracket_elements_sl2(a1):
    e = SymElement.monomial(3, (1,))
    f = SymElement.monomial(3, (2,))
    assert bracket(a1, e, f).terms == {(0,): Q(1)}
    x = SymElement(1, 3, {(0,): Q(2), (1,): Q(-1)})
    assert bracket(a1, x, x).is_zero()


def test_bracket_rejects_mismatched_algebra(a1, a2):
    x = SymElement.monomial(a1.dim, (0,))
    y = SymElement.monomial(a2.dim, (0,))
    with pytest.raises(ValueError, match="dim"):
        bracket(a1, x, y)


def test_coadjoint_examples(a1):
    h = SymElement.monomial(3, (0,))
    lam_e = (Q(0), Q(1), Q(0))
    # -e*([h, .]) has value -2 on the e slot
    assert coadjoint(a1, h, lam_e) == (Q(0), Q(-2), Q(0))
    zero = (Q(0), Q(0), Q(0))
    x = SymElement(1, 3, {(0,): Q(3), (2,): Q(5)})
    assert coadjoint(a1, x, zero) == zero


def test_coadjoint_cartan_on_cartan_dual(a2):
    # x in the Cartan, lambda supported on Cartan dual slots -> 0
    lam = tuple(Q(1) if i < a2.rank else Q(0) for i in range(a2.dim))
    for i in range(a2.rank):
        x = SymElement.monomial(a2.dim, (i,))
        assert coadjoint(a2, x, lam) == tuple(Q(0) for _ in range(a2.dim))


def test_coadjoint_invariance_identity(a2):
    # <ad*_x lam, y> + <lam, [x, y]> = 0 exactly for random data
    rng = random.Random(11)
    for _ in range(25):
        xi = rng.randrange(a2.dim)
        yi = rng.randrange(a2.dim)
        lam = tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(a2.dim))
        x = SymElement.monomial(a2.dim, (xi,))
        out = coadjoint(a2, x, lam)
        lhs = out[yi]
        rhs = sum((Q(v) * lam[c] for c, v in a2.bracket_basis(xi, yi)), Q(0))
        assert lhs + rhs == 0


def test_dim_identity_all_families():
    for label in ("A1", "B2", "C3", "D4", "G2", "F4", "E6"):
        alg = algebra(label)
        assert alg.dim == alg.rank + 2 * alg.n_positive


def test_e8_constructs_with_jacobi():
    e8 = algebra("E8")
    assert e8.dim == 248
    assert e8.jacobi_checked


def test_e7_cartan_bracket_matches_pairing_oracle():
    # [h_i, e_alpha] = <alpha, alpha_i^vee> e_alpha, with the pairing read
    # independently from root coordinates against the Cartan matrix row
    e7 = algebra("E7")
    cartan = standard_cartan_matrix("E", 7)
    for r, beta in enumerate(geometry(e7.datum).positive_roots):
        for i in range(e7.rank):
            expect = sum(c * cartan[i][j] for j, c in enumerate(beta))
            ent = dict(e7.bracket_basis(i, e7.e_index(r)))
            assert ent == ({e7.e_index(r): expect} if expect else {})


def test_serialize_round_trip_shape(a1):
    doc = serialize_table(a1)
    assert doc["format"] == "lie-table"
    assert doc["dim"] == 3
    triples = {tuple(t[:3]): t[3] for t in doc["bracket_triples"]}
    assert triples[(0, 1, 1)] == 2
    assert triples[(1, 2, 0)] == 1


def test_construction_without_verify_flag():
    # the build has no verify switch: it always proves Jacobi
    assert build_chevalley_basis(CartanDatum.from_label("A2")).jacobi_checked
    # the checks read the table and do not set the flag themselves
    alg = dataclasses.replace(algebra("A2"), jacobi_checked=False)
    check_jacobi(alg)
    prove_jacobi(alg)
    assert not alg.jacobi_checked


def _edited(label, edit):
    """An unverified copy of algebra(label), with edit(table, rows) applied to its rows."""
    table = dataclasses.replace(algebra(label), jacobi_checked=False)
    rows = [dict(row) for row in table.bracket_rows]
    edit(table, rows)
    return dataclasses.replace(table, bracket_rows=tuple(rows))


def _root_root_pairs(table):
    """(a, b) with a < b both positive root vectors and [x_a, x_b] != 0."""
    es = range(table.e_index(0), table.e_index(table.n_positive))
    return [(a, b) for a in es for b in sorted(table.bracket_rows[a]) if a < b and b in es]


@pytest.mark.parametrize(
    "label, which", [("A2", 0), ("G2", 0), ("G2", 3), ("F4", 0), ("F4", 17), ("E7", 40)]
)
def test_root_root_sign_flip_is_caught(label, which):
    def flip(table, rows):
        a, b = _root_root_pairs(table)[which]
        rows[a][b] = tuple((c, -v) for c, v in rows[a][b])
        rows[b][a] = tuple((c, -v) for c, v in rows[b][a])

    table = _edited(label, flip)
    with pytest.raises(ChevalleyError, match="Jacobi identity fails"):
        prove_jacobi(table)
    if label != "E7":  # the oracle agrees; on E7 it takes about a second
        with pytest.raises(ChevalleyError, match="Jacobi identity fails"):
            check_jacobi(table)


def test_one_sided_edit_breaks_antisymmetry():
    def one_sided(table, rows):
        a, b = _root_root_pairs(table)[0]
        rows[a][b] = tuple((c, 2 * v) for c, v in rows[a][b])

    with pytest.raises(ChevalleyError, match="not antisymmetric on basis pair"):
        prove_jacobi(_edited("A2", one_sided))

    def self_bracket(table, rows):
        rows[0][0] = ((0, 1),)

    with pytest.raises(ChevalleyError, match=r"\[x_0, x_0\] is not zero"):
        prove_jacobi(_edited("A2", self_bracket))


@pytest.mark.parametrize("label", ["A2", "G2"])
def test_deleted_generator_bracket_breaks_generation(label):
    # e_(alpha_1 + alpha_2) is [e_1, e_2] and nothing else of the form [e_i, e_(gamma - alpha_i)]
    def delete(table, rows):
        a, b = _root_root_pairs(table)[0]
        del rows[a][b], rows[b][a]

    with pytest.raises(ChevalleyError, match="do not generate the algebra"):
        prove_jacobi(_edited(label, delete))


def test_deleted_cartan_part_breaks_generation():
    def delete(table, rows):
        e, f = table.e_index(0), table.f_index(0)
        del rows[e][f], rows[f][e]

    with pytest.raises(ChevalleyError, match="not certified to span the Cartan subalgebra"):
        prove_jacobi(_edited("A2", delete))


def test_algebra_cache_is_keyed_by_the_parsed_datum():
    # Labels that parse to one datum share one built and proved table.
    table = algebra("E7")
    assert algebra("e7") is table and algebra(" E7 ") is table
    assert algebra("E6") is not table
