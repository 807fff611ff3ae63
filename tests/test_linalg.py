from __future__ import annotations

import random
from fractions import Fraction as Q
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spencerlab import linalg
from spencerlab.chevalley import algebra
from spencerlab.linalg import (
    DENSE_ENTRY_LIMIT,
    PRIME_POOL,
    Eliminator,
    csc,
    dense_rank_modp,
    kernel_with_certificate,
    product,
    rref_dense,
    same_subspace,
    sparse_kernel_exact,
    sparse_rank_modp,
    value_dtype,
    verify_kernel_vectors,
)
from spencerlab.operators import delta_constrained
from spencerlab.presets import parse_lambda_spec

from conftest import primitive


def _random_matrix(rng, nrows, ncols, rank):
    """Random rational matrix of known rank (product of full-rank factors).

    The factors are multiplied in integers; only the product entries are
    Fractions, the form ``rref_dense`` takes.
    """
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
    return [
        [Q(sum(left[i][k] * right[k][j] for k in range(rank))) for j in range(ncols)]
        for i in range(nrows)
    ]


def _rank(rows):
    return len(rref_dense(rows)[1])


def _to_cols(rows, ncols):
    cols = []
    for j in range(ncols):
        col = [(i, row[j]) for i, row in enumerate(rows) if row[j]]
        cols.append(col)
    return cols


def _csc(cols):
    """Hand-written (row, value) columns as a matrix, through the one constructor."""
    entries = [(j, r, v) for j, col in enumerate(cols) for r, v in col]
    c, r, v = (list(x) for x in zip(*entries)) if entries else ([], [], [])
    ints = all(type(x) is int for x in v)
    dtype = value_dtype(max(map(abs, v), default=0)) if ints else object
    return csc(len(cols), [(np.array(c, np.int64), np.array(r, np.int64), np.array(v, dtype))])


def _integral(cols):
    """Integer columns and their common denominator, the form the modular path takes."""
    den = lcm(*(v.denominator for col in cols for _, v in col))
    return _csc([[(r, int(v * den)) for r, v in col] for col in cols]), den


def test_rref_identity():
    rows = [[Q(2), Q(0)], [Q(0), Q(5)]]
    rref, pivots = rref_dense(rows)
    assert pivots == [0, 1]
    assert rref[0] == [Q(1), Q(0)] and rref[1] == [Q(0), Q(1)]


def test_nullspace_simple():
    # x + y + z = 0 has a 2-dimensional kernel
    rows = [[Q(1), Q(1), Q(1)]]
    basis, _rank_found = sparse_kernel_exact(_csc(_to_cols(rows, 3)))
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec.values(), Q(0)) == 0


def test_sparse_exact_matches_dense():
    rng = random.Random(17)
    for _ in range(20):
        nrows, ncols = rng.randint(2, 7), rng.randint(2, 7)
        target = rng.randint(0, min(nrows, ncols))
        rows = _random_matrix(rng, nrows, ncols, target)
        cols = _csc(_to_cols(rows, ncols))
        vectors, rank = sparse_kernel_exact(cols)
        assert rank == _rank(rows)
        assert len(vectors) == ncols - rank
        assert verify_kernel_vectors(cols, vectors)


def test_modular_rank_agrees_with_exact():
    rng = random.Random(23)
    for _ in range(15):
        rows = _random_matrix(rng, 6, 5, rng.randint(0, 4))
        cols = _to_cols(rows, 5)
        exact = _rank(rows)
        for p in PRIME_POOL[:3]:
            assert sparse_rank_modp(_integral(cols)[0], p) == exact


def test_certificate_small_path():
    rows = [[Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(6)]]
    cols = _csc(_to_cols(rows, 3))
    vectors, cert = kernel_with_certificate(cols, 2, 3)
    assert cert.method == "dense-exact"
    assert cert.exact_confirmed
    assert cert.rank == 1
    assert len(vectors) == 2


def test_certificate_large_path_forced(monkeypatch):
    # 300 x 250 is above DENSE_ENTRY_LIMIT, so the one pass modulo the
    # product of three primes runs.  Its reconstruction bound, about 2^44,
    # lifts every kernel coefficient of this rank-10 matrix, so the kernel
    # comes from the lift and no elimination over Q runs.
    monkeypatch.setattr(linalg, "sparse_kernel_exact", _refuse_fraction_kernel)
    rng = random.Random(5)
    nrows, ncols = 300, 250
    rank = 10
    rows = _random_matrix(rng, nrows, ncols, rank)
    cols = _to_cols(rows, ncols)
    icols, den = _integral(cols)
    vectors, cert = kernel_with_certificate(icols, nrows, ncols, den)
    assert cert.method == "multi-modular+exact"
    assert len(cert.primes_used) >= 3
    assert len(set(cert.modular_ranks)) == 1
    assert cert.exact_confirmed
    assert cert.rank + len(vectors) == ncols
    assert verify_kernel_vectors(icols, vectors)


def _random_columns(rng, nrows, ncols, top):
    """Sparse random integer columns, up to three entries each, some empty."""
    return [[(r, rng.choice([-1, 1]) * rng.randrange(1, top))
             for r in sorted(rng.sample(range(nrows), rng.randrange(4)))] for _ in range(ncols)]


@pytest.mark.parametrize("terms", [None, 1, 7])
@pytest.mark.parametrize("seed,top", [(0, 10), (1, 10), (2, 2**40), (3, 2**40)])
def test_product_matches_the_dense_integer_product(seed, top, terms, monkeypatch):
    if terms is not None:
        monkeypatch.setattr(linalg, "_CHUNK_TERMS", terms)
    rng = random.Random(seed)
    a = _random_columns(rng, 6, 5, top)
    b = _random_columns(rng, 5, 8, top)
    # a's column 1 is -2 times its column 0 and its column 3 is empty, so b's
    # column 0 meets only a's empty column and column 1's terms cancel to
    # zero; b's column 2 is empty.
    a[0] = [(0, 3), (4, top - 1)]
    a[1] = [(r, -2 * v) for r, v in a[0]]
    a[3] = []
    b[0], b[1], b[2] = [(3, 5)], [(0, 2), (1, 1)], []
    got = product(_csc(a), _csc(b))
    dense_a = [[dict(col).get(r, 0) for col in a] for r in range(6)]
    expected = []
    for col in b:
        column = [sum(dense_a[r][mid] * v for mid, v in col) for r in range(6)]
        expected.append([(r, v) for r, v in enumerate(column) if v])
    assert [list(zip(rows.tolist(), values.tolist())) for rows, values in got] == expected
    assert expected[0] == expected[1] == expected[2] == []
    assert got.values.dtype == (object if top > 2**32 else np.int64)
    assert all(type(v) is int for v in got.values.tolist())


def test_same_subspace_detects_difference():
    a = [{0: Q(1)}, {1: Q(1)}]
    b = [{0: Q(1), 1: Q(1)}, {0: Q(1), 1: Q(-1)}]
    c = [{0: Q(1)}, {2: Q(1)}]
    assert same_subspace(a, b)
    assert not same_subspace(a, c)
    assert Eliminator(a + b).rank == 2


def test_reduced_span_membership():
    span = Eliminator([{0: Q(1), 1: Q(2)}, {1: Q(1), 2: Q(1)}])
    assert span.rank == 2
    assert not span.reduce({0: Q(2), 1: Q(5), 2: Q(1)})
    assert span.reduce({2: Q(1)})


def test_prime_pool_is_prime():
    def is_prime(n):
        if n % 2 == 0:
            return False
        d = 3
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True

    assert all(is_prime(p) for p in PRIME_POOL)
    assert len(set(PRIME_POOL)) == len(PRIME_POOL)


# Entries n/d with |n| <= 3 and d <= 3 in at most 5 x 5 matrices: after
# clearing denominators every minor is below 2^27 by Hadamard's bound, so no
# pool prime can divide a nonzero minor and the modular ranks must be exact.
_entries = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
_matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(st.lists(_entries, min_size=ncols, max_size=ncols),
                           min_size=1, max_size=5)
)


@settings(max_examples=60, deadline=None)
@given(rows=_matrices, weights=st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_eliminator_property(rows, weights):
    nrows, ncols = len(rows), len(rows[0])
    cols = _to_cols(rows, ncols)
    rref, pivots = rref_dense(rows)
    exact = len(pivots)
    assert Eliminator(cols).rank == exact
    icols = _integral(cols)[0]
    for p in PRIME_POOL[:3]:
        assert sparse_rank_modp(icols, p) == exact
        assert dense_rank_modp(icols, nrows, ncols, p) == exact
    # kernel vectors are the primitive multiples of the RREF free-variable form
    vectors, rank = sparse_kernel_exact(_csc(cols))
    assert rank == exact
    free = [c for c in range(ncols) if c not in pivots]
    for vec, fc in zip(vectors, free):
        expect = {fc: Q(1)}
        for r, pc in enumerate(pivots):
            if rref[r][fc]:
                expect[pc] = -rref[r][fc]
        assert vec == primitive(expect)
    # solve reconstructs every in-span target from the inserted columns
    solver = Eliminator(cols, track=True)
    target: dict = {}
    for w, col in zip(weights, cols):
        for r, v in col:
            target[r] = target.get(r, Q(0)) + w * v
    target = {r: v for r, v in target.items() if v}
    combo = solver.solve(target)
    assert combo is not None
    rebuilt: dict = {}
    for j, c in combo.items():
        for r, v in cols[j]:
            rebuilt[r] = rebuilt.get(r, Q(0)) + c * v
    assert {r: v for r, v in rebuilt.items() if v} == target
    outside = {nrows: Q(1)}
    assert solver.solve(outside) is None and solver.reduce(outside)


def test_certificate_skips_prime_dividing_denominator():
    # Above the dense-exact limit, with one entry whose denominator is the
    # first pool prime: that prime is skipped, the next three are used.
    nrows, ncols = 200, 150
    cols = [[(j, Q(1, PRIME_POOL[0]) if j == 0 else Q(1))] for j in range(ncols - 1)]
    cols.append([(0, Q(1)), (1, Q(2))])
    icols, den = _integral(cols)
    vectors, cert = kernel_with_certificate(icols, nrows, ncols, den)
    assert cert.primes_used == list(PRIME_POOL[1:4])
    assert cert.modular_ranks == [ncols - 1] * 3
    assert cert.method == "multi-modular+exact" and cert.exact_confirmed
    assert vectors == [{ncols - 1: Q(1), 0: -Q(PRIME_POOL[0]), 1: Q(-2)}]


def _spencer_matrix(label, k, spec):
    alg = algebra(label)
    return delta_constrained(alg, parse_lambda_spec(alg, spec), k)


def test_certificates_never_take_the_dense_modular_tier(monkeypatch):
    # Both matrices sit above the dense-exact tier and below the size where
    # the modular ranks used to switch from dense to sparse elimination.
    def refuse(*args):
        raise AssertionError("dense_rank_modp is a test reference only")

    monkeypatch.setattr(linalg, "dense_rank_modp", refuse)
    for label, k, spec, method in [
        ("G2", 3, "preset:random:1000", "multi-modular+full-column-rank"),
        ("G2", 2, "preset:cartan1", "multi-modular+exact"),
    ]:
        mat = _spencer_matrix(label, k, spec)
        assert mat.nrows * mat.ncols > DENSE_ENTRY_LIMIT
        vectors, cert = kernel_with_certificate(mat.cols, mat.nrows, mat.ncols, mat.denominator)
        assert cert.method == method and cert.exact_confirmed
        assert len(set(cert.modular_ranks)) == 1
        assert cert.rank + len(vectors) == mat.ncols


@pytest.mark.parametrize("label,k,spec", [
    ("A2", 3, "preset:random:1003"),
    ("G2", 3, "preset:random:1000"),
    ("G2", 2, "preset:random:1000"),
])
def test_certificate_ranks_match_dense_reference(label, k, spec):
    # Rows of these operators carry uneven entry counts, so the sparsest-row
    # lead reorders the modular elimination; the ranks must not move.  G2 k=2
    # also has a nonzero kernel, so its pass records relations as well.
    mat = _spencer_matrix(label, k, spec)
    cols, nrows, ncols = mat.cols, mat.nrows, mat.ncols
    _, cert = kernel_with_certificate(cols, nrows, ncols, mat.denominator)
    assert cert.modular_ranks == [dense_rank_modp(cols, nrows, ncols, p) for p in cert.primes_used]


def _refuse_fraction_kernel(*args):
    raise AssertionError("sparse_kernel_exact is the fallback of a failed modular lift")


def test_certificates_never_take_the_fraction_kernel(monkeypatch):
    # Above the dense-exact tier the kernel comes from the modular lift; the
    # elimination over Q is only the fallback of a failed lift.
    monkeypatch.setattr(linalg, "sparse_kernel_exact", _refuse_fraction_kernel)
    for label, k, spec in [
        ("G2", 2, "preset:random:1000"),
        ("A2", 3, "preset:random:1003"),
        ("F4", 2, "preset:zero"),
    ]:
        mat = _spencer_matrix(label, k, spec)
        assert mat.nrows * mat.ncols > DENSE_ENTRY_LIMIT
        vectors, cert = kernel_with_certificate(mat.cols, mat.nrows, mat.ncols, mat.denominator)
        assert cert.exact_confirmed and len(set(cert.modular_ranks)) == 1
        assert cert.rank + len(vectors) == mat.ncols


def _certified_counting_fallbacks(cols, nrows, ncols):
    """kernel_with_certificate on the modular path, and how often it fell back to Q."""
    calls = []

    def counted(cols):
        calls.append(cols)
        return sparse_kernel_exact(cols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "DENSE_ENTRY_LIMIT", 0)
        mp.setattr(linalg, "sparse_kernel_exact", counted)
        vectors, cert = kernel_with_certificate(cols, nrows, ncols)
    return vectors, cert, len(calls)


# Integer matrices up to 5 x 6.  With entries in [-2, 2] every kernel
# coefficient is a ratio of minors below 5500 by Hadamard's bound, which the
# product of three pool primes lifts; entries up to 10^6 give minors up to
# about 2^106, beyond its bound of about 2^44, so such a kernel may take the
# elimination over Q.
_small_entries = st.integers(-2, 2)
_int_entries = st.one_of(_small_entries, st.integers(-10**6, 10**6))
_int_matrices = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(st.lists(_int_entries, min_size=ncols, max_size=ncols),
                           min_size=1, max_size=5)
)


@settings(max_examples=60, deadline=None)
@given(rows=_int_matrices)
@example(rows=[[999_983, 10**6]])
@example(rows=[[10**6 - 17, 3, 10**6], [-999_331, 10**6 - 3, 7]])
@example(rows=[[1, 2, 3], [2, 4, 6], [0, 0, 0]])
def test_lifted_kernel_equals_fraction_kernel(rows):
    nrows, ncols = len(rows), len(rows[0])
    cols = _csc(_to_cols(rows, ncols))
    expected, rank = sparse_kernel_exact(cols)
    vectors, cert, fallbacks = _certified_counting_fallbacks(cols, nrows, ncols)
    assert vectors == expected
    assert all(type(v) is int for vec in vectors for v in vec.values())
    assert cert.rank == rank and cert.exact_confirmed
    assert cert.modular_ranks == [rank] * 3 and cert.primes_used == list(PRIME_POOL[:3])
    if all(abs(v) <= 2 for row in rows for v in row):
        assert fallbacks == 0


@pytest.mark.parametrize("which", [0, 1])
def test_unlucky_prime_moves_to_the_next_prime_triple(which):
    # Mod pool prime p (the first, or the middle one of the first triple),
    # column 0 vanishes; over Q it is the pivot.  Its lead p is not a unit
    # modulo the product of the first three primes, so the pass stops before
    # any lift and the next three primes certify the kernel without the
    # elimination over Q.
    p = PRIME_POOL[which]
    cols = _csc([[(0, p)], [(0, 1)]])
    expected, _ = sparse_kernel_exact(cols)
    assert expected == [{1: p, 0: -1}]
    vectors, cert, fallbacks = _certified_counting_fallbacks(cols, 1, 2)
    assert vectors == expected and fallbacks == 0
    assert cert.primes_used == list(PRIME_POOL[3:6]) and cert.modular_ranks == [1, 1, 1]
    assert cert.rank == 1 and cert.exact_confirmed and cert.method == "multi-modular+exact"


def test_wrong_lift_fails_the_check_and_falls_back_to_the_fraction_kernel(monkeypatch):
    # A reconstruction that returns a wrong fraction yields vectors that the
    # exact membership check rejects, so the kernel is eliminated over Q.
    cols = _csc([[(0, 2)], [(0, 3)]])
    expected, _ = sparse_kernel_exact(cols)
    assert expected == [{1: 2, 0: -3}]
    monkeypatch.setattr(linalg, "_rational_reconstruction", lambda u, m: Q(1))
    vectors, cert, fallbacks = _certified_counting_fallbacks(cols, 1, 2)
    assert vectors == expected and fallbacks == 1
    assert cert.primes_used == list(PRIME_POOL[:3]) and cert.modular_ranks == [1, 1, 1]
    assert cert.rank == 1 and cert.exact_confirmed and cert.method == "multi-modular+exact"


def test_eliminated_entry_divisible_by_a_prime_keeps_the_first_triple():
    # The entry p0 of column 1 sits on the pivot row of column 0, so it is
    # eliminated and never becomes a pivot: no unit check applies to it.
    p0 = PRIME_POOL[0]
    cols = _csc([[(0, 1)], [(0, p0)]])
    vectors, cert, fallbacks = _certified_counting_fallbacks(cols, 1, 2)
    assert vectors == [{1: Q(1), 0: Q(-p0)}] and fallbacks == 0
    assert cert.primes_used == list(PRIME_POOL[:3]) and cert.modular_ranks == [1, 1, 1]


def test_non_unit_pivots_in_every_triple_raise_rank_disagreement():
    # One prime of each of the four triples divides the only pivot.
    lead = PRIME_POOL[0] * PRIME_POOL[4] * PRIME_POOL[8] * PRIME_POOL[9]
    with pytest.raises(linalg.RankDisagreement) as info:
        _certified_counting_fallbacks(_csc([[(0, lead)], [(0, 1)]]), 1, 2)
    assert "\n" not in str(info.value) and "vanished modulo some" in str(info.value)


def _key_ranks(cols, nrows):
    """The place of each row in the order of its ``_row_keys`` key."""
    keys = linalg._row_keys(np.arange(nrows), np.bincount(cols.rows, minlength=nrows))
    return list(np.argsort(np.argsort(keys)))


def test_row_positions_put_the_sparsest_row_first():
    # Row counts: row 0 has 3 entries, row 1 has 1, row 2 none, row 3 has 1,
    # row 4 has 2.  Fewest entries first, ties to the smaller row index.
    cols = [[(0, 1), (1, 1), (4, 1)], [(0, 1), (3, 1)], [(0, 1), (4, 1)]]
    assert _key_ranks(_csc(cols), 5) == [4, 1, 0, 2, 3]
    assert _key_ranks(_csc([]), 3) == [0, 1, 2]
    assert _key_ranks(_csc([[], []]), 0) == []


def _stable_positions(cols, nrows):
    """Each row's place when rows are stably sorted by entry count: the
    position table the keys replace."""
    count = np.bincount(cols.rows, minlength=nrows)
    position = np.empty(nrows, np.int64)
    position[np.argsort(count, kind="stable")] = np.arange(nrows)
    return position


def _dict_columns(cols):
    return [dict(zip(rows.tolist(), values.tolist())) for rows, values in cols]


def test_columns_enter_unreduced_only_below_the_modulus():
    m = PRIME_POOL[0] * PRIME_POOL[1] * PRIME_POOL[2]
    p = PRIME_POOL[0]
    small = _csc([[(0, -3), (1, 5)]])
    assert linalg._residues(small, p) is small
    assert _dict_columns(linalg._residues(small, p)) == [{0: -3, 1: 5}]
    # An entry at or above the modulus is reduced, and dropped when it vanishes.
    big = _csc([[(0, m), (1, m + 1)], [(1, 5)]])
    assert big.values.dtype == object
    assert _dict_columns(linalg._residues(big, m)) == [{1: 1}, {1: 5}]
    word = _csc([[(0, p), (1, -3)], [(1, p + 2)]])
    assert word.values.dtype == np.int64
    assert _dict_columns(linalg._residues(word, p)) == [{1: p - 3}, {1: 2}]
    at_modulus = _csc([[(0, -3), (1, p)]])
    assert _dict_columns(linalg._residues(at_modulus, p)) == [{0: p - 3}]


def test_a_later_column_reduces_against_an_unnormalised_pivot():
    # Column 1 leaves the pivot 3 at row 1 with the combination 1*c1 - 2*c0;
    # column 2 subtracts 1/3 of it and vanishes: c2 - c1/3 + 2*c0/3 = 0.
    cols = [{0: 1, 1: 1}, {0: 2, 1: 5, 2: 3}, {1: 1, 2: 1}]
    elim = Eliminator(track=True)
    assert elim.insert(cols[0], 0) is None and elim.insert(cols[1], 1) is None
    assert elim.pivots[1] == ({2: 3}, {1: 1, 0: -2}, Q(1, 3))
    assert elim.insert(cols[2], 2) == {2: 1, 1: Q(-1, 3), 0: Q(2, 3)}

    m = PRIME_POOL[0] * PRIME_POOL[1] * PRIME_POOL[2]
    inv = pow(3, -1, m)
    elim = Eliminator(p=m, track=True)
    assert elim.insert(cols[0], 0) is None and elim.insert(cols[1], 1) is None
    assert elim.pivots[1] == ({2: 3}, {1: 1, 0: m - 2}, inv)
    relation = elim.insert(cols[2], 2)
    assert relation == {2: 1, 1: -inv % m, 0: 2 * inv % m}
    for p in PRIME_POOL[:3]:
        assert {j: v % p for j, v in relation.items()} == {
            2: 1, 1: -pow(3, -1, p) % p, 0: 2 * pow(3, -1, p) % p}

    matrix = _csc([sorted(col.items()) for col in cols])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "DENSE_ENTRY_LIMIT", 0)
        vectors, cert = kernel_with_certificate(matrix, 3, 3)
    assert vectors == [{2: 3, 1: -1, 0: 2}]
    assert cert.method == "multi-modular+exact" and cert.rank == 2


def _relations_modulo(cols, nrows, ncols):
    """The relations and rank of the certified pass, with the modulus it ran under."""
    seen = []
    relations = linalg._relations

    def recorded(cols, p, *rest):
        rels, rank = relations(cols, p, *rest)
        if p is not None:
            seen.append(([dict(rel) for rel in rels], rank, p))
        return rels, rank

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "DENSE_ENTRY_LIMIT", 0)
        mp.setattr(linalg, "_relations", recorded)
        _, cert = kernel_with_certificate(cols, nrows, ncols)
    rels, rank, modulus = seen[-1]
    assert modulus == cert.primes_used[0] * cert.primes_used[1] * cert.primes_used[2]
    return rels, rank, cert


@settings(max_examples=60, deadline=None)
@given(rows=_int_matrices)
def test_relations_modulo_the_product_reduce_to_each_prime(rows):
    nrows, ncols = len(rows), len(rows[0])
    cols = _csc(_to_cols(rows, ncols))
    rels, rank, cert = _relations_modulo(cols, nrows, ncols)
    for p in cert.primes_used:
        expected, rank_p = linalg._relations(cols, p)
        reduced = [{j: v % p for j, v in rel.items() if v % p} for rel in rels]
        assert reduced == expected and rank_p == rank


def test_kernel_too_large_to_lift_costs_one_tracked_pass(monkeypatch):
    # The kernel coefficient -b/a has 200-bit parts, beyond the reconstruction
    # bound modulo the product of the first three primes: one tracked pass
    # modulo that product, then Q.
    a, b = 2**200 + 1, 3**126
    cols = _csc([[(0, a)], [(0, b)]])
    passes = []
    relations = linalg._relations

    def counted(cols, p, *rest):
        passes.append(p)
        return relations(cols, p, *rest)

    monkeypatch.setattr(linalg, "_relations", counted)
    vectors, cert, fallbacks = _certified_counting_fallbacks(cols, 1, 2)
    assert vectors == [{1: a, 0: -b}] and fallbacks == 1
    assert passes == [PRIME_POOL[0] * PRIME_POOL[1] * PRIME_POOL[2], None]
    assert cert.rank == 1 and cert.modular_ranks == [1, 1, 1]


def test_failed_lift_falls_back_to_the_fraction_kernel(monkeypatch):
    rng = random.Random(11)
    rows = _random_matrix(rng, 4, 6, 3)
    cols = _integral(_to_cols(rows, 6))[0]
    expected, rank = sparse_kernel_exact(cols)
    monkeypatch.setattr(linalg, "_rational_reconstruction", lambda u, m: None)
    vectors, cert, fallbacks = _certified_counting_fallbacks(cols, 4, 6)
    assert fallbacks == 1
    assert vectors == expected and len(vectors) == 3
    assert cert.rank == rank == 3 and cert.modular_ranks == [3, 3, 3]
    assert cert.method == "multi-modular+exact" and cert.exact_confirmed


_M = PRIME_POOL[0] * PRIME_POOL[1] * PRIME_POOL[2]
# Zeros make zero columns and shared leads likely; M, M + 1 and 2M make
# object columns that are reduced before the pass, p0 a lead that is no unit.
_pass_entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, PRIME_POOL[0], _M, _M + 1, 2 * _M])
_pass_matrices = st.integers(1, 7).flatmap(
    lambda ncols: st.lists(st.lists(_pass_entries, min_size=ncols, max_size=ncols),
                           min_size=1, max_size=6)
)


def _per_vector_pass(cols, p, position):
    """The reference pass: one dict per column, keyed by position and reduced
    mod p only when some entry is p or more in absolute value, through
    ``Eliminator.insert``; (relations or None on a non-unit lead, rank)."""
    elim = Eliminator(p=p, track=True)
    reduce = p is not None and cols.max_abs() >= p
    relations = []
    try:
        for j, (rows, values) in enumerate(cols):
            col = {position[r]: v % p if reduce else v for r, v in zip(rows.tolist(), values.tolist())}
            relation = elim.insert({key: v for key, v in col.items() if v}, j)
            if relation is not None:
                relations.append(relation)
    except linalg._NonUnitPivot:
        return None, elim.rank
    return relations, elim.rank


def _column_pass(cols, p, row_counts=None):
    elim = Eliminator(p=p, track=True)
    try:
        return elim.insert_columns(cols, row_counts), elim.rank
    except linalg._NonUnitPivot:
        return None, elim.rank


@settings(max_examples=80, deadline=None)
@given(rows=_pass_matrices)
@example(rows=[[0, 1, 1, 0], [0, _M, _M + 1, 2], [0, 2 * _M, 1, -1]])
def test_column_pass_matches_the_per_vector_reference(rows):
    nrows, ncols = len(rows), len(rows[0])
    cols = _csc(_to_cols(rows, ncols))
    row_counts = np.bincount(cols.rows, minlength=nrows)
    assert (_column_pass(cols, _M, row_counts)
            == _per_vector_pass(cols, _M, _stable_positions(cols, nrows)))
    assert _column_pass(cols, _M) == _per_vector_pass(cols, _M, range(nrows))
    relations, rank = _per_vector_pass(cols, None, range(nrows))
    assert linalg._relations(cols, None) == (relations, rank)


@settings(max_examples=80, deadline=None)
@given(rows=_pass_matrices)
@example(rows=[[_M, 1, 0], [0, 2 * _M, 1], [1, 1, _M + 1], [0, 0, 0]])
def test_row_keys_order_entries_as_the_stable_sort_by_count(rows):
    # The keys are formed on the entries the pass reads: those _residues
    # returns, a rebuilt matrix when an object column holds M or more.
    nrows, ncols = len(rows), len(rows[0])
    cols = _csc(_to_cols(rows, ncols))
    reduced = linalg._residues(cols, _M)
    keys = linalg._row_keys(reduced.rows, np.bincount(cols.rows, minlength=nrows))
    position = _stable_positions(cols, nrows)[reduced.rows]
    assert keys.dtype == np.int64
    assert np.array_equal(np.argsort(keys, kind="stable"), np.argsort(position, kind="stable"))


@pytest.mark.parametrize("p", [None, _M])
def test_a_stored_pivot_is_read_when_a_later_column_first_meets_its_lead(p):
    # Columns 0 and 1 become pivots at rows 0 and 1 and are stored as their
    # indices.  Column 2 meets row 0, reads column 0 and leaves a new pivot
    # at row 2; column 3 = c0 + c2 reduces to zero.  No column meets row 1,
    # so column 1 is never read.
    cols = _csc([[(0, 2), (3, 1)], [(1, 3), (2, 1)], [(0, 1), (2, 4)], [(0, 3), (2, 4), (3, 1)]])
    elim = Eliminator(p=p, track=True)
    relations = elim.insert_columns(cols)
    assert (relations, elim.rank) == _per_vector_pass(cols, p, range(4))
    minus_one = -1 if p is None else p - 1
    assert relations == [{3: 1, 0: minus_one, 2: minus_one}]
    assert elim.pivots[1] == 1
    assert elim.pivots[0] == ({3: 1}, {0: 1}, Q(1, 2) if p is None else pow(2, -1, p))
    assert type(elim.pivots[2]) is tuple


@pytest.mark.parametrize("cols", [
    # The lead of column 1 meets no pivot: refused before it is stored.
    [[(0, 1)], [(1, PRIME_POOL[0]), (2, 1)], [(0, 1), (1, PRIME_POOL[0]), (2, 1)]],
    # Column 1 reads column 0 and is left with the lead p0.
    [[(0, 1), (1, 1), (2, 1)], [(0, 1), (1, PRIME_POOL[0] + 1), (2, 2)],
     [(0, 2), (1, PRIME_POOL[0] + 2), (2, 3)]],
])
def test_a_non_unit_lead_ends_the_triple_at_the_same_column(cols):
    cols = _csc(cols)
    assert _column_pass(cols, _M) == _per_vector_pass(cols, _M, range(3)) == (None, 1)
    expected, _ = sparse_kernel_exact(cols)
    vectors, cert, fallbacks = _certified_counting_fallbacks(cols, 3, 3)
    assert vectors == expected and len(vectors) == 1 and fallbacks == 0
    assert cert.primes_used == list(PRIME_POOL[3:6]) and cert.modular_ranks == [2, 2, 2]
    assert cert.rank == 2 and cert.method == "multi-modular+exact"
