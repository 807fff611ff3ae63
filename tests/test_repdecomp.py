from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import combinations_with_replacement, product

import pytest

from spencerlab.chevalley import algebra
from spencerlab.kernels import kernel_of_constrained
from spencerlab.linalg import rref_dense, span_rank
from spencerlab.presets import cartan_dual, random_dual, zero_dual
from spencerlab.repdecomp import (
    WeightLattice,
    ad_action_on_sym,
    decompose_character,
    freudenthal_multiplicities,
    irrep_weight_multiset,
    is_g_submodule,
    monomial_weight,
    weight_decomposition,
    weyl_dim,
)
from spencerlab.sym import SymElement

from conftest import load_golden


def test_ad_action_examples(a1):
    h = SymElement.basis_vector(3, 0)
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
        d = kb.dim - span_rank(
            {m: v for m, v in el.terms.items() if weight[m] != mu} for el in kb.basis
        )
        if d:
            expected[",".join(map(str, mu))] = d
    wd = weight_decomposition(alg, kb)
    assert wd["weights"] == expected and wd["graded"]


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
