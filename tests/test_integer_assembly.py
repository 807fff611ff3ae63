"""The integer assembly against the Fraction assembly it replaced.

``reference_columns`` is the former Fraction path kept verbatim in spirit:
Fraction double-bracket forms in both formulas, ``form_to_sym2`` with the
Fraction K^{-1} columns (the dense oracle K of ``test_chevalley`` inverted
by ``rref_dense``), the left-factor-first Leibniz recursion on
``SymElement`` images, and rows indexed by a dict over ``enumerate_basis``.
The integer matrices must equal it entry for entry as Fraction(v, D), with D
the lcm of the entry denominators; the mirror and nilpotency reports and the
Matrix Market text must equal the ones built from the reference columns.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from fractions import Fraction as Q
from functools import cache
from math import lcm

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spencerlab.chevalley import algebra
from spencerlab.linalg import PRIME_POOL, csc, rref_dense, sparse_rank_modp
from spencerlab.operators import (
    apply_delta,
    delta_constrained,
    neg_dual,
    nilpotency_audit,
    verify_mirror,
)
from spencerlab.presets import cartan_dual, parse_lambda_spec, random_dual
from spencerlab.sym import SymElement, enumerate_basis, sym_product

from test_chevalley import dense_killing

ALGEBRAS = {label: algebra(label) for label in ("A1", "A2", "B2", "G2")}
LAMBDA_KINDS = ("cartan", "random", "file-odd", "file-pool-prime")
# The Mersenne prime 2^61 - 1 is not in PRIME_POOL, so the reference rank
# shares no prime with the certificate it is compared with.
REFERENCE_PRIME = 2**61 - 1
ODD_DENOMINATORS = (3, 5, 7, 9, 15, 21)


# -- the Fraction reference ------------------------------------------------------

def _pairings(alg, lam):
    by_m = [[] for _ in range(alg.dim)]
    for a in range(alg.dim):
        for m, entries in alg.bracket_rows[a].items():
            val = sum((coeff * lam[c] for c, coeff in entries), Q(0))
            if val:
                by_m[m].append((a, val))
    return by_m


def _add(acc, key, val):
    newv = acc.get(key, Q(0)) + val
    if newv:
        acc[key] = newv
    else:
        acc.pop(key, None)


def reference_form(alg, lam, g, formula):
    by_m = _pairings(alg, lam)
    u = {}
    for b in range(alg.dim):
        for m, coeff in alg.bracket_basis(b, g):
            for a, pair_val in by_m[m]:
                _add(u, (a, b), coeff * pair_val)
    out = {}
    half = Q(1, 2)
    if formula == "symmetrized":
        for (i, j), val in u.items():
            _add(out, (i, j), half * val)
            _add(out, (j, i), half * val)
        return out
    for (i, j), val in u.items():
        _add(out, (j, i), val)
    pair_with_v = {}
    for m in range(alg.dim):
        val = sum((coeff * lam[c] for c, coeff in alg.bracket_basis(m, g)), Q(0))
        if val:
            pair_with_v[m] = val
    for a in range(alg.dim):
        for b, entries in alg.bracket_rows[a].items():
            val = sum((coeff * pair_with_v.get(m, Q(0)) for m, coeff in entries), Q(0))
            if val:
                _add(out, (a, b), half * val)
    return out


@cache
def dense_killing_inverse(label):
    """K^{-1} from the dense oracle K by Gauss-Jordan on [K | I], independent of the assembly."""
    alg = algebra(label)
    dim = alg.dim
    aug = [[Q(v) for v in row] + [Q(int(i == j)) for j in range(dim)]
           for i, row in enumerate(dense_killing(alg))]
    reduced, pivots = rref_dense(aug)
    assert pivots == list(range(dim))
    return [row[dim:] for row in reduced]


def reference_images(alg, lam, formula):
    kinv = dense_killing_inverse(alg.label)
    kinv_cols = [[(r, kinv[r][c]) for r in range(alg.dim) if kinv[r][c]] for c in range(alg.dim)]
    images = []
    for g in range(alg.dim):
        out = SymElement.zero(2, alg.dim)
        for (c, d), val in reference_form(alg, lam, g, formula).items():
            for a, va in kinv_cols[c]:
                for b, vb in kinv_cols[d]:
                    out.add_term((a, b) if a <= b else (b, a), va * val * vb)
        images.append(out)
    return images


def reference_delta(mono, images, memo):
    if mono in memo:
        return memo[mono]
    if len(mono) == 1:
        out = images[mono[0]]
    else:
        head, rest = mono[0], mono[1:]
        dim = images[head].dim
        out = sym_product(images[head], SymElement.monomial(dim, rest)).add(
            sym_product(reference_delta(rest, images, memo), SymElement.monomial(dim, (head,), -1))
        )
    memo[mono] = out
    return out


def reference_columns(alg, lam, k, formula="symmetrized"):
    images = reference_images(alg, lam, formula)
    row = {m: i for i, m in enumerate(enumerate_basis(alg.dim, k + 1))}
    memo = {}
    return [
        sorted((row[m], v) for m, v in reference_delta(mono, images, memo).terms.items())
        for mono in enumerate_basis(alg.dim, k)
    ]


def reference_sum(a_cols, b_cols):
    out = []
    for a, b in zip(a_cols, b_cols):
        acc = dict(a)
        for r, v in b:
            _add(acc, r, v)
        out.append(sorted(acc.items()))
    return out


def reference_compose(outer, inner):
    out = []
    for col in inner:
        acc = {}
        for mid, v in col:
            for r, w in outer[mid]:
                _add(acc, r, v * w)
        out.append(sorted(acc.items()))
    return out


def _max_abs(cols):
    best = max((abs(v) for col in cols for _, v in col), default=Q(0))
    return f"{best.numerator}/{best.denominator}"


def reference_mirror(alg, lam, k, plus):
    total = reference_sum(plus, reference_columns(alg, neg_dual(lam), k))
    nrows = len(enumerate_basis(alg.dim, k + 1))
    return {
        "algebra": alg.label, "k": k, "holds": all(not c for c in total),
        "max_abs_entry": _max_abs(total), "shape": [nrows, len(plus)],
    }


def _as_csc(cols):
    """Integer (row, value) columns through linalg's one matrix constructor."""
    entries = [(j, r, v) for j, col in enumerate(cols) for r, v in col]
    c, r, v = (list(x) for x in zip(*entries)) if entries else ([], [], [])
    return csc(len(cols), [(np.array(c, np.int64), np.array(r, np.int64), np.array(v, object))])


def reference_nilpotency(alg, k, composite):
    """The audit from the reference composite, its rank taken modulo REFERENCE_PRIME.

    The rank is taken on the columns scaled to integers.  It can fall below
    the rank over Q only if the prime divides every r x r minor; an exact
    Fraction elimination of the composite took up to 10 s per example.
    """
    scale = lcm(*(v.denominator for col in composite for _, v in col))
    scaled = [[(r, int(v * scale)) for r, v in col] for col in composite]
    return {
        "algebra": alg.label, "k": k,
        "composite_shape": [len(enumerate_basis(alg.dim, k + 2)), len(composite)],
        "composite_is_zero": all(not c for c in composite),
        "composite_rank": sparse_rank_modp(_as_csc(scaled), REFERENCE_PRIME),
        "max_abs_entry": _max_abs(composite),
        "nnz": sum(len(c) for c in composite),
    }


def reference_matrix_market(alg, k, variant, cols):
    nrows = len(enumerate_basis(alg.dim, k + 1))
    lines = [
        "%%MatrixMarket matrix coordinate rational general",
        f"% spencer operator {variant} k={k}->{k + 1} algebra={alg.label}",
        f"{nrows} {len(cols)} {sum(len(c) for c in cols)}",
    ]
    for j, col in enumerate(cols):
        for r, v in col:
            lines.append(f"{r + 1} {j + 1} {v.numerator}/{v.denominator}")
    return "\n".join(lines) + "\n"


# -- lambda sources ----------------------------------------------------------------

def make_lambda(alg, kind, seed):
    """A dual vector from a preset or, for the file kinds, through ``file:``."""
    if kind == "cartan":
        return cartan_dual(alg, 1 + seed % alg.rank)
    if kind == "random":
        return random_dual(alg, seed)
    rng = random.Random(seed)
    entries = [[0, 1] for _ in range(alg.dim)]
    for i in rng.sample(range(alg.dim), min(3, alg.dim)):
        entries[i] = [rng.choice([-5, -3, -2, -1, 1, 2, 4]), rng.choice(ODD_DENOMINATORS)]
    if kind == "file-pool-prime":
        entries[rng.randrange(alg.dim)] = [rng.choice([-1, 1, 2]), rng.choice(PRIME_POOL[:4])]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lam.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entries, fh)
        return parse_lambda_spec(alg, f"file:{path}")


# -- the property --------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    label=st.sampled_from(sorted(ALGEBRAS)),
    k=st.integers(1, 3),
    kind=st.sampled_from(LAMBDA_KINDS),
    formula=st.sampled_from(["symmetrized", "equivalent"]),
    seed=st.integers(0, 2**20),
)
@example(label="G2", k=3, kind="file-pool-prime", formula="equivalent", seed=5)
@example(label="G2", k=2, kind="file-odd", formula="symmetrized", seed=11)
@example(label="B2", k=2, kind="random", formula="equivalent", seed=3)
@example(label="A2", k=3, kind="cartan", formula="symmetrized", seed=1)
@example(label="A1", k=1, kind="file-pool-prime", formula="symmetrized", seed=2)
def test_integer_assembly_matches_fraction_reference(label, k, kind, formula, seed):
    alg = ALGEBRAS[label]
    lam = make_lambda(alg, kind, seed)
    mat = delta_constrained(alg, lam, k, formula=formula)
    ref = reference_columns(alg, lam, k, formula)
    assert_exact(mat, ref)
    assert mat.to_matrix_market() == reference_matrix_market(alg, k, mat.variant, ref)
    # sums and composites reconcile denominators and reduce them again
    assert_exact(mat.add(mat), reference_sum(ref, ref))

    if formula == "symmetrized":
        # single-element evaluation turns the same integer images into Fractions
        basis = enumerate_basis(alg.dim, k)
        rows = enumerate_basis(alg.dim, k + 1)
        j = seed % len(basis)
        got = apply_delta(alg, lam, SymElement.monomial(alg.dim, basis[j]))
        assert got.terms == {rows[r]: v for r, v in ref[j]}

    if k <= 2:
        upper = delta_constrained(alg, lam, k + 1, formula=formula)
        composite = reference_compose(reference_columns(alg, lam, k + 1, formula), ref)
        assert_exact(upper.compose(mat), composite)
        if formula == "symmetrized":
            assert verify_mirror(alg, lam, k) == reference_mirror(alg, lam, k, ref)
            assert nilpotency_audit(alg, lam, k) == reference_nilpotency(alg, k, composite)


def assert_exact(mat, ref):
    """Integer columns equal to the reference as Fraction(v, D), D = lcm of denominators."""
    assert mat.cols.values.dtype in (np.int64, object)
    assert all(type(v) is int for v in mat.cols.values.tolist())
    assert mat.fraction_columns() == ref
    assert mat.denominator == lcm(*(v.denominator for col in ref for _, v in col))
