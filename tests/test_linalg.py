from __future__ import annotations

import random
from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spencerlab import linalg
from spencerlab.chevalley import algebra
from spencerlab.linalg import (
    DENSE_ENTRY_LIMIT,
    PRIME_POOL,
    Eliminator,
    dense_rank_modp,
    kernel_with_certificate,
    rref_dense,
    same_subspace,
    span_rank,
    sparse_kernel_exact,
    sparse_rank_modp,
    verify_kernel_vectors,
)
from spencerlab.operators import delta_constrained
from spencerlab.presets import parse_lambda_spec


def _random_matrix(rng, nrows, ncols, rank):
    """Random rational matrix of known rank (product of full-rank factors)."""
    left = [[Q(rng.randint(-3, 3)) for _ in range(rank)] for _ in range(nrows)]
    right = [[Q(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(rank)]
    rows = [
        [sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(ncols)]
        for i in range(nrows)
    ]
    return rows


def _rank(rows):
    return len(rref_dense(rows)[1])


def _to_cols(rows, ncols):
    cols = []
    for j in range(ncols):
        col = [(i, row[j]) for i, row in enumerate(rows) if row[j]]
        cols.append(col)
    return cols


def _integral(cols):
    """Integer columns and their common denominator, the form the modular path takes."""
    den = lcm(*(v.denominator for col in cols for _, v in col))
    return [[(r, int(v * den)) for r, v in col] for col in cols], den


def test_rref_identity():
    rows = [[Q(2), Q(0)], [Q(0), Q(5)]]
    rref, pivots = rref_dense(rows)
    assert pivots == [0, 1]
    assert rref[0] == [Q(1), Q(0)] and rref[1] == [Q(0), Q(1)]


def test_nullspace_simple():
    # x + y + z = 0 has a 2-dimensional kernel
    rows = [[Q(1), Q(1), Q(1)]]
    basis, _rank_found = sparse_kernel_exact(_to_cols(rows, 3))
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec.values(), Q(0)) == 0


def test_sparse_exact_matches_dense():
    rng = random.Random(17)
    for _ in range(20):
        nrows, ncols = rng.randint(2, 7), rng.randint(2, 7)
        target = rng.randint(0, min(nrows, ncols))
        rows = _random_matrix(rng, nrows, ncols, target)
        cols = _to_cols(rows, ncols)
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
    cols = _to_cols(rows, 3)
    vectors, cert = kernel_with_certificate(cols, 2, 3)
    assert cert.method == "dense-exact"
    assert cert.exact_confirmed
    assert cert.rank == 1
    assert len(vectors) == 2


def test_certificate_large_path_forced():
    # 300 x 250 is above DENSE_ENTRY_LIMIT, so the modular ranks run.  The
    # kernel coefficients are too large to lift from one prime, so the lift
    # fails and the kernel is eliminated over Q, then checked exactly.
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
    assert verify_kernel_vectors(cols, vectors)


def test_same_subspace_detects_difference():
    a = [{0: Q(1)}, {1: Q(1)}]
    b = [{0: Q(1), 1: Q(1)}, {0: Q(1), 1: Q(-1)}]
    c = [{0: Q(1)}, {2: Q(1)}]
    assert same_subspace(a, b)
    assert not same_subspace(a, c)
    assert span_rank(a + b) == 2


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
    # kernel vectors keep the RREF free-variable form
    vectors, rank = sparse_kernel_exact(cols)
    assert rank == exact
    free = [c for c in range(ncols) if c not in pivots]
    for vec, fc in zip(vectors, free):
        expect = {fc: Q(1)}
        for r, pc in enumerate(pivots):
            if rref[r][fc]:
                expect[pc] = -rref[r][fc]
        assert vec == expect
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
])
def test_certificate_ranks_match_dense_reference(label, k, spec):
    # Rows of these operators carry uneven entry counts, so the sparsest-row
    # lead reorders the modular elimination; the ranks must not move.
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
        calls.append(len(cols))
        return sparse_kernel_exact(cols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "DENSE_ENTRY_LIMIT", 0)
        mp.setattr(linalg, "sparse_kernel_exact", counted)
        vectors, cert = kernel_with_certificate(cols, nrows, ncols)
    return vectors, cert, len(calls)


# Integer matrices up to 5 x 6.  With entries in [-2, 2] every kernel
# coefficient is a ratio of minors below 5500 by Hadamard's bound, which one
# pool prime lifts; entries up to 10^6 give coefficients too large to lift,
# which must take the elimination over Q.
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
    cols = _to_cols(rows, ncols)
    expected, rank = sparse_kernel_exact(cols)
    vectors, cert, fallbacks = _certified_counting_fallbacks(cols, nrows, ncols)
    assert vectors == expected
    assert all(isinstance(v, Q) for vec in vectors for v in vec.values())
    assert cert.rank == rank and cert.exact_confirmed
    assert cert.modular_ranks == [rank] * 3 and cert.primes_used == list(PRIME_POOL[:3])
    if all(abs(v) <= 2 for row in rows for v in row):
        assert fallbacks == 0


def test_unlucky_prime_falls_back_to_the_fraction_kernel():
    # Mod the first pool prime, column 0 vanishes and column 1 is the pivot;
    # over Q column 0 is the pivot.  The rank is 1 either way, so the first
    # prime's free set is wrong while its rank is right: the lifted vector
    # fails the membership check.
    p0 = PRIME_POOL[0]
    cols = [[(0, p0)], [(0, 1)]]
    expected, _ = sparse_kernel_exact(cols)
    assert expected == [{1: Q(1), 0: Q(-1, p0)}]
    vectors, cert, fallbacks = _certified_counting_fallbacks(cols, 1, 2)
    assert vectors == expected and fallbacks == 1
    assert cert.primes_used == list(PRIME_POOL[:3]) and cert.modular_ranks == [1, 1, 1]
    assert cert.rank == 1 and cert.exact_confirmed and cert.method == "multi-modular+exact"


def test_kernel_too_large_to_lift_costs_one_tracked_pass(monkeypatch):
    # The kernel coefficient -b/a has 200-bit parts, beyond any reconstruction
    # bound of the pool: one tracked pass mod the first prime, then Q.
    a, b = 2**200 + 1, 3**126
    cols = [[(0, a)], [(0, b)]]
    passes = []
    relations = linalg._relations

    def counted(cols, p):
        passes.append(p)
        return relations(cols, p)

    monkeypatch.setattr(linalg, "_relations", counted)
    vectors, cert, fallbacks = _certified_counting_fallbacks(cols, 1, 2)
    assert vectors == [{1: Q(1), 0: Q(-b, a)}] and fallbacks == 1
    assert passes == [PRIME_POOL[0], None]
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
