from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction as Q
from collections import Counter
from itertools import combinations_with_replacement, product
from math import gcd, lcm

import numpy as np
import pytest

from spencerlab import kernels, linalg, operators
from spencerlab.chevalley import algebra
from spencerlab.kernels import KernelBasis, free_monomials, kernel_of_constrained
from spencerlab.linalg import (
    DENSE_ENTRY_LIMIT,
    CertificationError,
    Eliminator,
    csc,
    kernel_with_certificate,
    rref_dense,
    value_dtype,
)
from spencerlab.presets import cartan_dual, parse_lambda_spec, random_dual, zero_dual
from spencerlab.repdecomp import (
    WeightLattice,
    decompose_character,
    freudenthal_multiplicities,
    irrep_weight_multiset,
    is_g_submodule,
    weight_decomposition,
    weyl_dim,
)
from spencerlab.sym import SymElement

from conftest import load_golden


def monomial_weight(alg, mono):
    """The weight of a monomial, the sum of its generators' weights: the
    reference for ``weight_decomposition``'s gather."""
    rank = alg.rank
    acc = [0] * rank
    for idx in mono:
        w = alg.weights[idx]
        for i in range(rank):
            acc[i] += w[i]
    return tuple(acc)


def ad_action_on_sym(alg, x, s):
    """Derivation extension of ad_x to Sym^k, in Fractions: replace one factor
    at a time.  The independent reference for ``is_g_submodule``."""
    if x.degree != 1:
        raise ValueError("ad action needs a degree-1 element")
    if x.dim != alg.dim or s.dim != alg.dim:
        raise ValueError("elements must live over the given algebra")
    out = SymElement.zero(s.degree, alg.dim)
    for (a,), va in x.terms.items():
        row = alg.bracket_rows[a]
        for mono, coeff in s.terms.items():
            for j in range(len(mono)):
                ent = row.get(mono[j])
                if not ent:
                    continue
                rest = mono[:j] + mono[j + 1 :]
                for c, bc in ent:
                    out.add_term(tuple(sorted(rest + (c,))), va * coeff * bc)
    return out



def test_ad_action_examples(a1):
    h = SymElement.monomial(3, (0,))
    assert ad_action_on_sym(a1, h, SymElement.monomial(3, (1, 1))).terms == {(1, 1): Q(4)}
    assert ad_action_on_sym(a1, h, SymElement.monomial(3, (1, 2))).is_zero()
    const = SymElement.zero(0, 3)
    const.add_term((), Q(1))
    assert ad_action_on_sym(a1, h, const).is_zero()


def test_full_symk_is_submodule(a1, a2):
    for alg in (a1, a2):
        kb, _ = kernel_of_constrained(alg, zero_dual(alg), 2)
        verdict = is_g_submodule(alg, kb)
        assert verdict["is_submodule"]


def reference_is_g_submodule(alg, kb):
    """Span elimination over Q: reduce every Fraction ad image against the kernel."""
    span = Eliminator(el.terms for el in kb.basis)
    violations = []
    for a in range(alg.dim):
        x = SymElement.monomial(alg.dim, (a,))
        for s_idx, s in enumerate(kb.basis):
            img = ad_action_on_sym(alg, x, s)
            if not img.is_zero() and span.reduce(img.terms):
                violations.append([a, s_idx])
    return {
        "algebra": alg.label,
        "degree": kb.degree,
        "kernel_dim": kb.dim,
        "is_submodule": not violations,
        "violations": violations[:50],
        "violation_count": len(violations),
    }


# G2 lambda with odd denominators: its k=2 kernel vectors have denominators
# up to the thousands, so the common-denominator scaling is exercised.
ODD_DENOMINATOR_G2 = [[1, 3], [2, 5]] + [[0, 1]] * 12


@pytest.mark.parametrize(
    "label,k,spec",
    [
        ("A1", 2, "preset:zero"),
        ("A2", 2, "preset:zero"),
        ("A2", 3, "preset:zero"),
        ("A2", 2, "preset:random:4321"),
        ("G2", 2, "preset:random:1000"),
        ("B3", 2, "preset:cartan1"),
        ("B3", 2, "preset:random:7"),
        ("G2", 2, "file"),
        ("A1", 1, "preset:cartan1"),
        ("G2", 3, "preset:random:1000"),
        ("G2", 2, "huge"),
        ("G2", 3, "huge"),
        ("G2", 2, "lcm"),
    ],
)
def test_submodule_check_matches_span_elimination(label, k, spec, tmp_path, monkeypatch):
    alg = algebra(label)
    if spec in ("huge", "lcm"):
        kb = _hand_built_kernel_basis(alg, k, spec)
    else:
        if spec == "file":
            path = tmp_path / "lambda.json"
            path.write_text(json.dumps(ODD_DENOMINATOR_G2))
            spec = f"file:{path}"
        kb, _ = kernel_of_constrained(alg, parse_lambda_spec(alg, spec), k)
    if spec.startswith("file:"):
        assert max(v.denominator for el in kb.basis for v in el.terms.values()) > 1000
    expected = reference_is_g_submodule(alg, kb)
    dtypes = []

    def recorded(bound):
        dtypes.append(value_dtype(bound))
        return dtypes[-1]

    monkeypatch.setattr(operators, "value_dtype", recorded)
    monkeypatch.setattr(kernels, "value_dtype", recorded)
    monkeypatch.setattr(linalg, "value_dtype", recorded)
    assert is_g_submodule(alg, kb) == expected
    # Images of entries past 2^63 are object arrays; the lcm D of small free
    # coefficients passes 2^63 only in the residuals.
    assert set(dtypes) == {"huge": {object}, "lcm": {"int64", object}}.get(spec, {"int64"})
    # Chunks of one term put every vector, and every (a, s) pair at the
    # substitution, in a chunk of its own; seven cut between them.
    for terms in (1, 7):
        monkeypatch.setattr(linalg, "_CHUNK_TERMS", terms)
        assert is_g_submodule(alg, kb) == expected


def _hand_built_kernel_basis(alg, k, spec):
    """A random basis in free-variable form (``kernels`` module docs): each
    vector is positive at its free column, the largest, and touches no other
    vector's free column.  "huge" draws entries past 2^63; "lcm" draws small
    entries and free coefficients whose lcm passes 2^63.  Each vector lies in
    one weight space, so the Cartan generators keep it and the verdict mixes
    pairs in the span with pairs outside it."""
    rng = random.Random(f"{spec}-{alg.label}-{k}")
    monomials = list(combinations_with_replacement(range(alg.dim), k))
    spaces = {}
    for j, mono in enumerate(monomials):
        spaces.setdefault(monomial_weight(alg, mono), []).append(j)
    spaces = [cols for cols in spaces.values() if len(cols) >= 4]
    free = sorted(max(cols) for cols in rng.sample(spaces, 6))
    entry, lead = (2**70, 2**64) if spec == "huge" else (100, 2**22)
    coords = []
    for f in free:
        space = next(cols for cols in spaces if max(cols) == f)
        vec = {j: rng.choice([-1, 1]) * rng.randrange(1, entry) for j in rng.sample(space[:-1], 3)}
        vec[f] = lead + rng.randrange(lead)
        g = gcd(*vec.values())
        coords.append({j: v // g for j, v in sorted(vec.items())})
    kb = KernelBasis(k, alg.label, len(coords), coords, monomials, alg.dim)
    free_monomials(kb)
    if spec == "lcm":
        assert lcm(*kb.free_coefficients) >= 2**63
    return kb


@pytest.mark.parametrize("label,k,spec", [
    ("A2", 2, "random:4321"), ("G2", 3, "huge"), ("A2", 1, "zero"), ("G2", 1, "vectors"),
])
@pytest.mark.parametrize("terms", [None, 7])
def test_ad_images_match_the_fraction_action(label, k, spec, terms, monkeypatch):
    # At k = 1 each monomial is one factor and the rest it leaves is empty.
    alg = algebra(label)
    if spec == "huge":
        kb = _hand_built_kernel_basis(alg, k, spec)
    elif spec == "vectors":
        rng = random.Random(k)
        monomials = list(combinations_with_replacement(range(alg.dim), k))
        coords = [{j: rng.choice([-3, -1, 2, 5]) for j in sorted(rng.sample(range(len(monomials)), 4))}
                  for _ in range(5)]
        kb = KernelBasis(k, alg.label, len(coords), coords, monomials, alg.dim)
    else:
        kb, _ = kernel_of_constrained(alg, parse_lambda_spec(alg, f"preset:{spec}"), k)
    if terms is not None:
        monkeypatch.setattr(linalg, "_CHUNK_TERMS", terms)
    got = {}
    for first, images in operators.ad_images(alg, kb.coords, kb.monomials):
        for col, (rows, values) in enumerate(images):
            s, a = divmod(col, alg.dim)
            got[a, first + s] = {kb.monomials[r]: v for r, v in zip(rows.tolist(), values.tolist())}
    expected = {}
    for a in range(alg.dim):
        for i, vec in enumerate(kb.coords):
            s = SymElement(k, alg.dim, {kb.monomials[j]: Q(v) for j, v in vec.items()})
            expected[a, i] = ad_action_on_sym(alg, SymElement.monomial(alg.dim, (a,)), s).terms
    assert got == expected


def _a2_kernel():
    a2 = algebra("A2")
    kb, _ = kernel_of_constrained(a2, random_dual(a2, seed=4321), 2)
    return a2, kb


def test_submodule_check_rejects_a_scaled_vector():
    a2, kb = _a2_kernel()
    coords = [{j: 2 * v for j, v in kb.coords[0].items()}] + kb.coords[1:]
    with pytest.raises(CertificationError, match="coefficient 2"):
        is_g_submodule(a2, dataclasses.replace(kb, coords=coords))


def test_submodule_check_rejects_a_free_monomial_in_another_vector():
    a2, kb = _a2_kernel()
    by_free = sorted(range(kb.dim), key=lambda i: max(kb.coords[i]))
    low, high = by_free[0], by_free[-1]
    broken = {**kb.coords[high], max(kb.coords[low]): 1}
    coords = [broken if i == high else vec for i, vec in enumerate(kb.coords)]
    with pytest.raises(CertificationError, match="touches the free monomial"):
        is_g_submodule(a2, dataclasses.replace(kb, coords=coords))


def test_zero_kernel_vacuously_submodule(a1):
    kb, _ = kernel_of_constrained(a1, cartan_dual(a1, 1), 1)
    assert kb.dim == 0
    assert is_g_submodule(a1, kb)["is_submodule"]


def test_weight_decomposition_full_sym2_a1(a1):
    kb, _ = kernel_of_constrained(a1, zero_dual(a1), 2)
    wd = weight_decomposition(a1, kb)
    assert wd["graded"]
    assert sorted(wd["multiset"]) == [(-4,), (-2,), (0,), (0,), (2,), (4,)]


def test_weight_decomposition_empty_kernel(a1):
    kb, _ = kernel_of_constrained(a1, cartan_dual(a1, 1), 1)
    wd = weight_decomposition(a1, kb)
    assert wd["multiset"] == []
    assert wd["total"] == 0


def test_symk_weights_match_combinatorial_oracle(a2):
    # weight multiset of the full Sym^k must equal the k-fold symmetrised
    # multiset of basis weights, computed here directly
    k = 2
    kb, _ = kernel_of_constrained(a2, zero_dual(a2), k)
    wd = weight_decomposition(a2, kb)
    oracle = sorted(
        tuple(sum(a2.weights[i][j] for i in mono) for j in range(a2.rank))
        for mono in combinations_with_replacement(range(a2.dim), k)
    )
    assert sorted(wd["multiset"]) == oracle


@pytest.mark.parametrize("label,cartan_index", [("A2", 1), ("G2", 1), ("G2", 2), ("B2", 2)])
def test_homogeneous_weight_counts_match_rank_formula(label, cartan_index):
    # A Cartan lambda gives a kernel basis of weight vectors, so the
    # multiplicities are counts; they must equal dim K minus the rank of the
    # basis with the weight-mu monomials removed.
    alg = algebra(label)
    kb, _ = kernel_of_constrained(alg, cartan_dual(alg, cartan_index), 2)
    weight = {m: monomial_weight(alg, m) for el in kb.basis for m in el.terms}
    assert all(len({weight[m] for m in el.terms}) == 1 for el in kb.basis)
    expected = {}
    for mu in sorted(set(weight.values())):
        d = kb.dim - Eliminator(
            {m: v for m, v in el.terms.items() if weight[m] != mu} for el in kb.basis
        ).rank
        if d:
            expected[",".join(map(str, mu))] = d
    wd = weight_decomposition(alg, kb)
    assert wd["weights"] == expected and wd["graded"]


@pytest.mark.parametrize("label,seed", [("A2", 5), ("G2", 1000), ("D4", 7), ("F4", 7)])
def test_mixed_weight_multiplicities_match_fraction_rank(label, seed):
    # A random lambda mixes weights within kernel vectors, so each
    # multiplicity is dim K minus a certified rank of the basis with the
    # weight-mu monomials removed; the Fraction elimination over Q is the oracle.
    alg = algebra(label)
    kb, _ = kernel_of_constrained(alg, random_dual(alg, seed=seed), 2)
    wd = weight_decomposition(alg, kb)
    assert not wd["graded"]
    weight = [monomial_weight(alg, m) for m in kb.monomials]
    expected = {}
    for mu in sorted({weight[j] for vec in kb.coords for j in vec}):
        restricted = [{j: v for j, v in vec.items() if weight[j] != mu} for vec in kb.coords]
        d = kb.dim - Eliminator(restricted).rank
        if d:
            expected[",".join(map(str, mu))] = d
    assert wd["weights"] == expected
    # F4's restricted matrices are above the dense-exact tier.
    assert label != "F4" or len(kb.monomials) * kb.dim > DENSE_ENTRY_LIMIT


def reference_weight_decomposition(alg, kb):
    """The dict form of ``weight_decomposition``: one ``monomial_weight`` per
    column, a set of weights per vector, and the certified rank with the
    weight-mu columns removed when some vector has several weights."""
    weights_present = set()
    col_weight = {}
    vector_weight = []
    for vec in kb.coords:
        for j in vec.keys() - col_weight.keys():
            col_weight[j] = monomial_weight(alg, kb.monomials[j])
        weights = {col_weight[j] for j in vec}
        weights_present |= weights
        vector_weight.append(weights.pop() if len(weights) == 1 else None)
    multiplicities = {}
    if None not in vector_weight:
        multiplicities.update(Counter(vector_weight))
    else:
        vector, row, value = zip(*[(i, j, v) for i, vec in enumerate(kb.coords)
                                   for j, v in vec.items()])
        value = np.array(value, value_dtype(max(map(abs, value))))
        vector, row = np.array(vector, np.int64), np.array(row, np.int64)
        for mu in sorted(weights_present):
            keep = np.array([col_weight[j] != mu for j in row.tolist()])
            cols = csc(kb.dim, [(vector[keep], row[keep], value[keep])])
            _, cert = kernel_with_certificate(cols, len(kb.monomials), kb.dim)
            d = kb.dim - cert.rank
            if d:
                multiplicities[mu] = d
    total = sum(multiplicities.values())
    return {
        "weights": {",".join(map(str, mu)): m for mu, m in sorted(multiplicities.items())},
        "multiset": sorted([mu for mu, m in multiplicities.items() for _ in range(m)]),
        "total": total,
        "graded": total == kb.dim,
    }


@pytest.mark.parametrize("label,spec", [
    ("F4", "preset:zero"), ("G2", "preset:cartan1"), ("G2", "preset:random:1000"),
])
def test_weight_decomposition_matches_the_dict_reference(label, spec):
    alg = algebra(label)
    kb, _ = kernel_of_constrained(alg, parse_lambda_spec(alg, spec), 2)
    got, expected = weight_decomposition(alg, kb), reference_weight_decomposition(alg, kb)
    assert got == expected
    assert list(got) == list(expected) and list(got["weights"]) == list(expected["weights"])
    assert got["graded"] == (spec != "preset:random:1000")


def test_weyl_dim_values(a1):
    assert weyl_dim(a1, (0,)) == 1
    assert weyl_dim(a1, (2,)) == 3
    assert weyl_dim(a1, (4,)) == 5
    a2 = algebra("A2")
    assert weyl_dim(a2, (1, 0)) == 3
    assert weyl_dim(a2, (1, 1)) == 8
    g2 = algebra("G2")
    assert weyl_dim(g2, (1, 0)) == 7
    assert weyl_dim(g2, (0, 1)) == 14
    f4 = algebra("F4")
    assert weyl_dim(f4, (0, 0, 0, 1)) == 26


def test_weyl_dim_e7_minimal_weight():
    e7 = algebra("E7")
    assert weyl_dim(e7, (0, 0, 0, 0, 0, 0, 1)) == 56
    assert weyl_dim(e7, (1, 0, 0, 0, 0, 0, 0)) == 133


def test_weyl_dim_rejects_non_dominant(a1):
    with pytest.raises(ValueError, match="dominant"):
        weyl_dim(a1, (-2,))


def test_freudenthal_adjoint_a2():
    a2 = algebra("A2")
    mult = freudenthal_multiplicities(a2, (1, 1))
    assert mult[(1, 1)] == 1
    assert mult[(0, 0)] == 2
    total = sum(irrep_weight_multiset(a2, (1, 1)).values())
    assert total == 8


def test_freudenthal_totals_match_weyl(g2):
    for hw in [(1, 0), (0, 1), (2, 0)]:
        assert sum(irrep_weight_multiset(g2, hw).values()) == weyl_dim(g2, hw)


@pytest.mark.parametrize("label,highest_weight", [
    ("E7", (2, 0, 0, 0, 0, 0, 0)),
    ("E8", (1, 0, 0, 0, 0, 0, 0, 0)),
    ("F4", (1, 0, 0, 1)),
    ("E6", (1, 0, 0, 0, 0, 1)),
    ("B3", (1, 1, 1)),
])
def test_freudenthal_totals_match_weyl_on_long_root_strings(label, highest_weight):
    # Each root string stops at its first weight longer than the highest
    # weight; a stop too early would lose multiplicity and the total.
    alg = algebra(label)
    total = sum(irrep_weight_multiset(alg, highest_weight).values())
    assert total == weyl_dim(alg, highest_weight)


def test_decompose_sym2_a1(a1):
    kb, _ = kernel_of_constrained(a1, zero_dual(a1), 2)
    wd = weight_decomposition(a1, kb)
    summands = decompose_character(a1, [tuple(w) for w in wd["multiset"]])
    dims = sorted(s.dim for s in summands)
    assert dims == [1, 5]
    assert sum(s.dim * s.multiplicity for s in summands) == 6
    golden = load_golden("sym2_a1_decomposition.json")
    assert [s.as_dict() for s in summands] == golden["summands"]
    assert golden["adjoint_multiplicity"] == 0


def test_decompose_single_irrep_round_trip(a2):
    char = irrep_weight_multiset(a2, (2, 1))
    summands = decompose_character(a2, char)
    assert len(summands) == 1
    assert summands[0].highest_weight == (2, 1)
    assert summands[0].multiplicity == 1


def test_decompose_empty():
    a1 = algebra("A1")
    assert decompose_character(a1, []) == []


def test_decompose_rejects_asymmetric_multiset(a1):
    with pytest.raises(ValueError, match="Weyl"):
        decompose_character(a1, [(2,)])


def test_decompose_dim_conservation_random_sum(a2):
    # build a character as a sum of two irreps and peel it back
    c1 = irrep_weight_multiset(a2, (1, 0))
    c2 = irrep_weight_multiset(a2, (0, 1))
    total: dict = {}
    for c in (c1, c1, c2):
        for w, m in c.items():
            total[w] = total.get(w, 0) + m
    summands = decompose_character(a2, total)
    got = {tuple(s.highest_weight): s.multiplicity for s in summands}
    assert got == {(1, 0): 2, (0, 1): 1}


def test_sym2_weights_sum_rule(a2):
    # weight-decomposition multiplicities of any kernel sum to its dimension
    lam = random_dual(a2, seed=4321)
    kb, _ = kernel_of_constrained(a2, lam, 2)
    wd = weight_decomposition(a2, kb)
    golden = load_golden("a2_random_k2_kernel.json")
    assert wd["graded"] == golden["graded"]
    assert wd["weights"] == golden["weights"]
    sub = is_g_submodule(a2, kb)
    assert sub["is_submodule"] == golden["is_submodule"]
    assert sub["violation_count"] == golden["violation_count"]


def test_dominant_conjugate_and_orbit(g2):
    lat = WeightLattice(g2)
    for w in [(-1, 2), (3, -1), (0, 0), (2, 2)]:
        dom = lat.dominant_conjugate(w)
        assert lat.is_dominant(dom)
        assert dom in lat.weyl_orbit(w)
    assert len(lat.weyl_orbit((1, 0))) == 6  # short-root orbit in the hexagon


def full_orbit_peel(alg, counts):
    """Reference peel: subtract whole Weyl-orbit characters from every weight."""
    lat = WeightLattice(alg)
    n = alg.rank
    a = alg.datum.cartan_matrix
    red, _ = rref_dense(
        [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    )
    ainv = [row[n:] for row in red]
    counts = {tuple(k): v for k, v in counts.items() if v}
    for w, m in list(counts.items()):
        for i in range(n):
            r = lat.reflect(w, i)
            if counts.get(r, 0) != m:
                raise ValueError(f"weight multiset is not Weyl-symmetric at {w} vs {r}")

    def height_key(w):
        return (sum(ainv[k][i] * w[i] for k in range(n) for i in range(n)), w)

    summands = []
    while counts:
        top = max(counts, key=height_key)
        mult = counts[top]
        if not lat.is_dominant(top):
            raise ValueError(f"maximal weight {top} is not dominant; not a character")
        if mult < 0:
            raise ValueError(
                f"negative multiplicity {mult} at {top}; input was not a module character"
            )
        for w, m in irrep_weight_multiset(alg, top).items():
            new = counts.get(w, 0) - mult * m
            if new:
                counts[w] = new
            else:
                counts.pop(w, None)
        summands.append((top, weyl_dim(alg, top), mult))
    return summands


def _outcome(peel, alg, counts):
    try:
        return [tuple(s) for s in peel(alg, counts)]
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("label", ["A2", "A3", "B3", "C3", "G2"])
def test_dominant_peel_matches_full_orbit_peel(label):
    alg = algebra(label)
    rng = random.Random(f"peel-{label}")
    small = [w for w in product(range(3), repeat=alg.rank) if sum(w) <= 2]
    outcomes = set()
    for _ in range(12):
        total: dict = {}
        for hw in rng.sample(small, rng.randint(1, 3)):
            coeff = rng.choice([-1, 1, 1, 2])
            for w, m in irrep_weight_multiset(alg, hw).items():
                total[w] = total.get(w, 0) + coeff * m
        expected = _outcome(full_orbit_peel, alg, total)
        got = _outcome(
            lambda *args: [
                (s.highest_weight, s.dim, s.multiplicity) for s in decompose_character(*args)
            ],
            alg,
            total,
        )
        assert got == expected
        outcomes.add(isinstance(expected, str))
    assert outcomes == {True, False}  # both peeled summands and error messages compared
