from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as Q

import pytest

from spencerlab import linalg
from spencerlab.chevalley import algebra, bracket
from spencerlab.kernels import kernel
from spencerlab.linalg import Eliminator
from spencerlab.operators import (
    SpencerMatrix,
    _form,
    _lambda_ad_pairings,
    _scaled,
    apply_delta,
    delta_classical,
    delta_constrained,
    generator_formula_agreement,
    generator_images,
    neg_dual,
    nilpotency_audit,
    verify_mirror,
)
from spencerlab.presets import cartan_dual, parse_lambda_spec, random_dual, zero_dual
from spencerlab.sym import SymElement, enumerate_basis, sym_product

from conftest import load_golden, primitive
from test_integer_assembly import (
    _max_abs,
    reference_columns,
    reference_compose,
    reference_nilpotency,
    reference_sum,
)


# -- independent dense oracles ------------------------------------------------

def oracle_form(alg, lam, v_index):
    """Triple-loop evaluation of (1/2)(<lam,[w1,[w2,v]]> + <lam,[w2,[w1,v]]>)."""
    dim = alg.dim

    def pair(dual, sparse):
        return sum((dual[c] * Q(x) for c, x in sparse), Q(0))

    def brk(a, b):
        return alg.bracket_basis(a, b)

    form = {}
    for w1 in range(dim):
        for w2 in range(dim):
            total = Q(0)
            for m, c1 in brk(w2, v_index):
                total += Q(c1) * pair(lam, brk(w1, m)) / 2
            for m, c1 in brk(w1, v_index):
                total += Q(c1) * pair(lam, brk(w2, m)) / 2
            if total:
                form[(w1, w2)] = total
    return form


def oracle_leibniz(alg, lam, mono):
    """Independent symbolic Leibniz expansion using sym_product throughout."""
    if len(mono) == 1:
        return generator_images(alg, lam)[mono[0]]
    head = SymElement.monomial(alg.dim, (mono[0],))
    rest = SymElement.monomial(alg.dim, mono[1:])
    d_head = generator_images(alg, lam)[mono[0]]
    d_rest = oracle_leibniz(alg, lam, mono[1:])
    return sym_product(d_head, rest).add(sym_product(head, d_rest).scale(-1))


def matrix_as_triples(mat: SpencerMatrix):
    out = []
    for j, col in enumerate(mat.fraction_columns()):
        for r, v in col:
            out.append([r, j, v.numerator, v.denominator])
    return out


def fraction_form(alg, lam, g):
    """The symmetrized generator form of x_g, with the 2 * d_lam scale divided out."""
    lam_num, d_lam = _scaled(lam)
    by_m = _lambda_ad_pairings(alg, lam_num)
    return {key: Q(v, 2 * d_lam) for key, v in _form(alg, by_m, g, "symmetrized").items()}


# -- generator action ----------------------------------------------------------

def test_form_sl2_examples(a1):
    lam = cartan_dual(a1, 1)
    # (e, f) slot of h holds 2; everything else vanishes
    assert fraction_form(a1, lam, 0) == {(1, 2): Q(2), (2, 1): Q(2)}
    # (f, h) slot of e holds -1
    assert fraction_form(a1, lam, 1) == {(2, 0): Q(-1), (0, 2): Q(-1)}


def test_form_matches_dense_oracle(a2):
    rng = random.Random(41)
    for trial in range(6):
        lam = random_dual(a2, seed=100 + trial)
        v = rng.randrange(a2.dim)
        assert fraction_form(a2, lam, v) == oracle_form(a2, lam, v)


def test_zero_lambda_gives_zero(a1, a2):
    for alg in (a1, a2):
        images = generator_images(alg, zero_dual(alg))
        for v in range(alg.dim):
            assert images[v].is_zero()


def test_equivalent_formula_agrees_on_generators(a1, a2, g2):
    for alg, seeds in ((a1, [1, 2]), (a2, [3, 4, 5]), (g2, [6])):
        for seed in seeds:
            lam = random_dual(alg, seed=seed)
            assert generator_formula_agreement(alg, lam)["agree"]
            assert generator_images(alg, lam) == generator_images(alg, lam, "equivalent")


# -- classical operator ---------------------------------------------------------

def test_classical_abelian_toy_zero():
    # All-zero bracket table: every term [e_i, X_j] vanishes.
    a1 = algebra("A1")
    toy = type(a1)(
        datum=a1.datum,
        dim=a1.dim,
        basis_labels=a1.basis_labels,
        bracket_rows=tuple({} for _ in range(a1.dim)),
        killing_cartan=a1.killing_cartan,
        killing_pairs=a1.killing_pairs,
        weights=a1.weights,
    )
    mat = delta_classical(toy, 2)
    assert mat.is_zero()


def test_classical_sl2_image_of_h(a1):
    mat = delta_classical(a1, 1)
    col = dict(mat.fraction_columns()[0])  # column of h
    basis2 = enumerate_basis(3, 2)
    named = {basis2[r]: v for r, v in col.items()}
    assert named == {(1, 1): Q(-2), (2, 2): Q(2)}


def test_classical_matrix_golden(a1):
    mat = delta_classical(a1, 1)
    assert matrix_as_triples(mat) == load_golden("a1_classical_k1.json")["triples"]


def test_classical_column_respects_multiset_positions(a2):
    # the column of x_0 x_0 sums x_i [x_i, x_0] x_0 over both positions,
    # evaluated independently through ``bracket`` and ``sym_product``
    mat = delta_classical(a2, 2)
    x0 = SymElement.monomial(a2.dim, (0,))
    expect = SymElement.zero(3, a2.dim)
    for i in range(a2.dim):
        xi = SymElement.monomial(a2.dim, (i,))
        term = sym_product(sym_product(xi, bracket(a2, xi, x0)), x0)
        expect = expect.add(term).add(term)
    row = {m: r for r, m in enumerate(enumerate_basis(a2.dim, 3))}
    j = enumerate_basis(a2.dim, 2).index((0, 0))
    assert dict(mat.fraction_columns()[j]) == {row[m]: v for m, v in expect.terms.items()}


# -- constrained operator --------------------------------------------------------

def test_leibniz_degree2_identity(a1):
    lam = cartan_dual(a1, 1)
    images = generator_images(a1, lam)
    v1 = SymElement.monomial(3, (1,))
    v2 = SymElement.monomial(3, (2,))
    expect = sym_product(images[1], v2).add(sym_product(v1, images[2]).scale(-1))
    got = apply_delta(a1, lam, sym_product(v1, v2))
    assert got == expect


def test_leibniz_consistency_random(a2):
    # the recursion splits at the leading index, so the two-term expansion
    # is exact whenever s1 is the leading factor of the product
    rng = random.Random(2)
    lam = random_dual(a2, seed=77)
    for _ in range(10):
        m2 = tuple(sorted(rng.randrange(1, a2.dim) for _ in range(2)))
        m1 = (rng.randrange(0, m2[0] + 1),)
        s1 = SymElement.monomial(a2.dim, m1)
        s2 = SymElement.monomial(a2.dim, m2)
        lhs = apply_delta(a2, lam, sym_product(s1, s2))
        rhs = sym_product(apply_delta(a2, lam, s1), s2).add(
            sym_product(s1, apply_delta(a2, lam, s2)).scale(-1)
        )
        assert lhs == rhs


def test_constrained_matrix_matches_leibniz_oracle(a1):
    lam = cartan_dual(a1, 1)
    mat = delta_constrained(a1, lam, 2)
    assert (mat.nrows, mat.ncols) == (10, 6)
    basis2 = enumerate_basis(3, 2)
    basis3 = enumerate_basis(3, 3)
    idx3 = {m: i for i, m in enumerate(basis3)}
    for j, mono in enumerate(basis2):
        expect = oracle_leibniz(a1, lam, mono)
        col = {idx3[m]: v for m, v in expect.terms.items()}
        assert dict(mat.fraction_columns()[j]) == col


def test_constrained_matrix_golden(a1):
    lam = cartan_dual(a1, 1)
    mat = delta_constrained(a1, lam, 2)
    assert matrix_as_triples(mat) == load_golden("a1_cartan1_k2_matrix.json")["triples"]


def test_zero_lambda_zero_matrix(a1, a2, g2):
    # every image table is empty, so every column is
    for alg in (a1, a2, g2):
        for k in (1, 2, 3):
            mat = delta_constrained(alg, zero_dual(alg), k)
            assert mat.is_zero() and len(mat.cols.indptr) == mat.ncols + 1
            assert mat.denominator == 1
    el = SymElement(2, g2.dim, {(0, 3): Q(2), (5, 9): Q(-1, 3)})
    assert apply_delta(g2, zero_dual(g2), el).is_zero()


def test_sum_with_zero_matrix_keeps_a_denominator_past_int64(g2, tmp_path):
    # The zero matrix has denominator 1, so the sum scales its (empty) values
    # by the other matrix's denominator, here above 2^63.
    entries = [[0, 1] for _ in range(g2.dim)]
    entries[0] = [1, 2**70 + 1]
    path = tmp_path / "lam.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    lam = parse_lambda_spec(g2, f"file:{path}")
    mat = delta_constrained(g2, lam, 2)
    zero = delta_constrained(g2, zero_dual(g2), 2)
    assert mat.denominator >= 2**63
    for total in (zero.add(mat), mat.add(zero)):
        assert total.fraction_columns() == mat.fraction_columns()
        assert total.denominator == mat.denominator
    # Sums and composites that cancel to zero keep int64 values and reduce to
    # denominator 1 from a scale above 2^63.
    composite = mat.compose(delta_constrained(g2, zero_dual(g2), 1))
    assert composite.is_zero() and composite.denominator == 1
    assert verify_mirror(g2, lam, 2) == {
        "algebra": "G2", "k": 2, "holds": True, "max_abs_entry": "0/1",
        "shape": [mat.nrows, mat.ncols],
    }
    lower, upper = delta_constrained(g2, lam, 1), delta_constrained(g2, lam, 2)
    reference = reference_compose(upper.fraction_columns(), lower.fraction_columns())
    assert nilpotency_audit(g2, lam, 1) == reference_nilpotency(g2, 1, reference)


def test_lambda_linearity(a2):
    rng = random.Random(8)
    for trial in range(5):
        l1 = random_dual(a2, seed=trial)
        l2 = random_dual(a2, seed=50 + trial)
        a = Q(rng.randint(-3, 3), rng.randint(1, 3))
        b = Q(rng.randint(-3, 3), rng.randint(1, 3))
        combo = tuple(a * x + b * y for x, y in zip(l1, l2))
        m_combo = delta_constrained(a2, combo, 2)
        m1 = delta_constrained(a2, l1, 2)
        m2 = delta_constrained(a2, l2, 2)
        c_combo, c1, c2 = (m.fraction_columns() for m in (m_combo, m1, m2))
        for j in range(m_combo.ncols):
            left = dict(c_combo[j])
            right: dict[int, Q] = {}
            for r, v in c1[j]:
                right[r] = right.get(r, Q(0)) + a * v
            for r, v in c2[j]:
                right[r] = right.get(r, Q(0)) + b * v
            assert left == {k_: v for k_, v in right.items() if v}


def test_equivalent_formula_full_matrix_agrees(a2):
    # generator agreement propagates through the Leibniz extension, so the
    # assembled matrices coincide for the two generator formulas
    lam = random_dual(a2, seed=67)
    for k in (1, 2):
        sym = delta_constrained(a2, lam, k, formula="symmetrized")
        eqv = delta_constrained(a2, lam, k, formula="equivalent")
        assert sym.fraction_columns() == eqv.fraction_columns()
        assert eqv.variant == "equivalent-form"


# -- chunked assembly ---------------------------------------------------------------

def fraction_kernel(cols):
    """Free-variable kernel basis of Fraction columns by a tracked elimination over Q."""
    elim = Eliminator(track=True)
    relations = (elim.insert(dict(col), j) for j, col in enumerate(cols))
    return [rel for rel in relations if rel is not None]


def test_object_values_match_fraction_reference(g2, tmp_path):
    # numerators near 10^30 push the images past the int64 bound, so the
    # assembly sums Python ints in object arrays; the sum, the composite and
    # the kernel pass then run on object values too
    rng = random.Random(30)
    entries = [[0, 1] for _ in range(g2.dim)]
    for i in rng.sample(range(g2.dim), 4):
        entries[i] = [rng.choice([-1, 1]) * rng.randrange(10**29, 10**30), rng.choice([1, 3, 7])]
    path = tmp_path / "lam.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    lam = parse_lambda_spec(g2, f"file:{path}")
    images = generator_images(g2, lam)
    for k in (1, 2):
        assert k * max(sum(map(abs, t.values())) for t in images.tables) >= 2**63
        mat = delta_constrained(g2, lam, k)
        assert mat.cols.values.dtype == object
        assert all(type(v) is int for v in mat.cols.values)
        assert mat.fraction_columns() == reference_columns(g2, lam, k)
        minus = delta_constrained(g2, neg_dual(lam), k)
        total = reference_sum(mat.fraction_columns(), minus.fraction_columns())
        assert verify_mirror(g2, lam, k) == {
            "algebra": "G2", "k": k, "holds": all(not c for c in total),
            "max_abs_entry": _max_abs(total), "shape": [mat.nrows, mat.ncols],
        }
        kb, cert = kernel(mat)
        expected = fraction_kernel(mat.fraction_columns())
        assert kb.coords == [primitive(vec) for vec in expected]
        assert cert.rank + len(expected) == mat.ncols
    # k = 1 only: the k = 2 composite's kernel is too large to lift and its
    # elimination over Q takes about 25 s.
    lower, upper = delta_constrained(g2, lam, 1), delta_constrained(g2, lam, 2)
    composite = reference_compose(upper.fraction_columns(), lower.fraction_columns())
    assert nilpotency_audit(g2, lam, 1) == reference_nilpotency(g2, 1, composite)


def test_chunk_size_does_not_change_columns(a2, g2, monkeypatch):
    lam = random_dual(g2, seed=1000)
    expect = (delta_constrained(g2, lam, 3).cols, delta_classical(a2, 3).cols)
    for budget in (1, 10**9):
        monkeypatch.setattr(linalg, "_CHUNK_TERMS", budget)
        got = (delta_constrained(g2, lam, 3).cols, delta_classical(a2, 3).cols)
        for a, b in zip(got, expect):
            for name in ("indptr", "rows", "values"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.tolist() == y.tolist()


def test_degree_one_columns_are_the_generator_images(a2):
    lam = random_dual(a2, seed=12)
    images = generator_images(a2, lam)
    mat = delta_constrained(a2, lam, 1)
    assert (mat.nrows, mat.ncols) == (36, 8)
    basis2 = enumerate_basis(a2.dim, 2)
    for g, col in enumerate(mat.fraction_columns()):
        assert {basis2[r]: v for r, v in col} == images[g].terms


def test_apply_delta_agrees_with_matrix_columns(a2, g2):
    rng = random.Random(5)
    for alg, k, seed in ((a2, 2, 3), (g2, 3, 1000), (a2, 1, 9)):
        lam = random_dual(alg, seed=seed)
        cols = delta_constrained(alg, lam, k).fraction_columns()
        basis = enumerate_basis(alg.dim, k)
        rows = enumerate_basis(alg.dim, k + 1)
        picks = rng.sample(range(len(basis)), 6)
        coeffs = {j: Q(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7])) for j in picks}
        el = SymElement(k, alg.dim, {basis[j]: c for j, c in coeffs.items()})
        expect: dict = {}
        for j, c in coeffs.items():
            for r, v in cols[j]:
                expect[rows[r]] = expect.get(rows[r], 0) + c * v
        assert apply_delta(alg, lam, el).terms == {m: v for m, v in expect.items() if v}


def test_apply_delta_rejects_a_degree_zero_element(a1):
    with pytest.raises(ValueError, match="degree k must be >= 1"):
        apply_delta(a1, cartan_dual(a1, 1), SymElement(0, a1.dim, {(): Q(3)}))


# -- mirror antisymmetry ----------------------------------------------------------

def test_mirror_zero_lambda_trivial(a1):
    rep = verify_mirror(a1, zero_dual(a1), 1)
    assert rep["holds"]


def test_mirror_cartan_presets(a1):
    for k in (1, 2, 3):
        rep = verify_mirror(a1, cartan_dual(a1, 1), k)
        assert rep["holds"], rep


def test_mirror_e7_random_sparse():
    e7 = algebra("E7")
    rep = verify_mirror(e7, random_dual(e7, seed=8), 1)
    assert rep["holds"]
    assert rep["shape"] == [8911, 133]


def test_mirror_alternative_split_symmetry_is_measured(a2):
    # The Leibniz recursion fixes a left-first split; the result for the
    # reversed split differs in general, which is why the operator records
    # the convention.  Verify the two splits agree exactly on degree-2
    # squares and measure a disagreement witness on mixed monomials.
    lam = cartan_dual(a2, 1)
    images = generator_images(a2, lam)
    disagreements = 0
    for i in range(a2.dim):
        for j in range(i, a2.dim):
            v1 = SymElement.monomial(a2.dim, (i,))
            v2 = SymElement.monomial(a2.dim, (j,))
            left = sym_product(images[i], v2).add(sym_product(v1, images[j]).scale(-1))
            right = sym_product(images[j], v1).add(sym_product(v2, images[i]).scale(-1))
            if left != right:
                disagreements += 1
            if i == j:
                assert left.is_zero() and right.is_zero()
    assert disagreements > 0


# -- nilpotency audit ---------------------------------------------------------------

def test_nilpotency_zero_lambda(a1):
    rep = nilpotency_audit(a1, zero_dual(a1), 1)
    assert rep["composite_is_zero"]
    assert rep["composite_rank"] == 0


def test_nilpotency_audit_golden_a1(a1):
    rep = nilpotency_audit(a1, cartan_dual(a1, 1), 1)
    assert rep["composite_shape"] == [10, 3]
    assert rep == load_golden("a1_nilpotency_k1.json")


def test_nilpotency_rank_matches_span_rank(a2, g2):
    # the certified composite rank against the Fraction elimination over Q
    for alg, lam, k in ((a2, random_dual(a2, seed=1234), 1), (a2, random_dual(a2, seed=3), 2),
                        (g2, cartan_dual(g2, 1), 1)):
        rep = nilpotency_audit(alg, lam, k)
        composite = delta_constrained(alg, lam, k + 1).compose(delta_constrained(alg, lam, k))
        assert rep["composite_rank"] == Eliminator(composite.fraction_columns()).rank


def test_nilpotency_audit_golden_a2(a2):
    rep = nilpotency_audit(a2, random_dual(a2, seed=1234), 1)
    assert rep == load_golden("a2_random_nilpotency_k1.json")


# -- assembly lock ------------------------------------------------------------------

def test_assembled_matrices_match_golden_sha():
    # sha256 of the Matrix Market text of each locked operator; a classical
    # case has lambda null
    for case in load_golden("assembly_sha.json")["cases"]:
        alg = algebra(case["algebra"])
        if case["lambda"] is None:
            mat = delta_classical(alg, case["k"])
        else:
            lam = parse_lambda_spec(alg, case["lambda"])
            mat = delta_constrained(alg, lam, case["k"], formula=case["formula"])
        text = mat.to_matrix_market()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == case["sha256"], case


# -- export ----------------------------------------------------------------------

def test_matrix_market_format(a1):
    mat = delta_constrained(a1, cartan_dual(a1, 1), 1)
    text = mat.to_matrix_market()
    lines = text.strip().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate rational general"
    counts = lines[2].split()
    assert counts == [str(mat.nrows), str(mat.ncols), str(mat.nnz())]
    for line in lines[3:]:
        r, c, val = line.split()
        assert "/" in val
        assert 1 <= int(r) <= mat.nrows
        assert 1 <= int(c) <= mat.ncols
