from __future__ import annotations

import dataclasses
import random
import tracemalloc
from fractions import Fraction as Q

import pytest
from click.testing import CliRunner

from spencerlab import kernels
from spencerlab.cartan import CartanError
from spencerlab.chevalley import algebra
from spencerlab.cli import main
from spencerlab.kernels import (
    free_monomials,
    kernel,
    kernel_of_constrained,
    min_irrep_dim,
    min_irrep_entry,
    mirror_stability_check,
    tension_report,
)
from spencerlab.linalg import CertificationError, same_subspace
from spencerlab.operators import apply_delta, delta_constrained, neg_dual
from spencerlab.presets import cartan_dual, parse_lambda_spec, random_dual, zero_dual
from spencerlab.sym import sym_dim

from conftest import load_golden


# -- dense brute-force oracle ---------------------------------------------------

def brute_force_nullspace(mat):
    """Textbook dense Gaussian elimination, written independently."""
    rows = [[Q(0)] * mat.ncols for _ in range(mat.nrows)]
    for j, col in enumerate(mat.fraction_columns()):
        for r, v in col:
            rows[r][j] = v
    m = [row[:] for row in rows]
    piv_cols = []
    r = 0
    for c in range(mat.ncols):
        hit = None
        for i in range(r, mat.nrows):
            if m[i][c] != 0:
                hit = i
                break
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(mat.nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    free = [c for c in range(mat.ncols) if c not in piv_cols]
    out = []
    for fc in free:
        vec = [Q(0)] * mat.ncols
        vec[fc] = Q(1)
        for i, pc in enumerate(piv_cols):
            vec[pc] = -m[i][fc]
        out.append({i: v for i, v in enumerate(vec) if v})
    return out


def test_kernel_zero_lambda_full(a1, a2):
    for alg, k in ((a1, 1), (a1, 2), (a2, 1), (a2, 2)):
        kb, cert = kernel_of_constrained(alg, zero_dual(alg), k)
        assert kb.dim == sym_dim(alg.dim, k)
        assert cert.rank == 0


def test_kernel_a1_k1_trivial(a1):
    kb, cert = kernel_of_constrained(a1, cartan_dual(a1, 1), 1)
    assert kb.dim == 0
    assert cert.rank == 3


def test_kernel_vectors_annihilated(a2):
    lam = random_dual(a2, seed=5)
    mat = delta_constrained(a2, lam, 2)
    kb, _ = kernel(mat)
    for el in kb.basis:
        assert apply_delta(a2, lam, el).is_zero()


def test_kernel_matches_brute_force(a1, a2):
    for alg in (a1, a2):
        for k in (1, 2):
            for seed in (2, 9):
                lam = random_dual(alg, seed=seed)
                mat = delta_constrained(alg, lam, k)
                kb, _ = kernel(mat)
                brute = brute_force_nullspace(mat)
                assert kb.dim == len(brute)
                if kb.dim:
                    assert same_subspace(kb.coords, brute)


def test_rank_nullity(a2, g2):
    for alg in (a2, g2):
        for k in (1, 2):
            lam = random_dual(alg, seed=31)
            mat = delta_constrained(alg, lam, k)
            kb, cert = kernel(mat)
            assert kb.dim + cert.rank == sym_dim(alg.dim, k)


def test_kernel_scaling_invariance(a2):
    rng = random.Random(6)
    lam = random_dual(a2, seed=13)
    kb, _ = kernel_of_constrained(a2, lam, 2)
    for _ in range(3):
        c = Q(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice([1, -1])
        scaled = tuple(c * x for x in lam)
        kb_scaled, _ = kernel_of_constrained(a2, scaled, 2)
        assert kb_scaled.dim == kb.dim
        assert same_subspace(kb.coords, kb_scaled.coords)


def test_mirror_stability(a1, a2):
    assert mirror_stability_check(a1, zero_dual(a1), 1)["kernels_equal"]
    for k in (1, 2):
        assert mirror_stability_check(a1, cartan_dual(a1, 1), k)["kernels_equal"]
    assert mirror_stability_check(a2, random_dual(a2, seed=55), 2)["kernels_equal"]


def _spec_kernel(label, spec, k=2, scale=1):
    alg = algebra(label)
    lam = tuple(scale * x for x in parse_lambda_spec(alg, spec))
    return kernel_of_constrained(alg, lam, k)[0]


@pytest.mark.parametrize("label, spec_a, spec_b, scale_b, dim, equal", [
    ("A2", "preset:cartan1", "preset:cartan2", 1, 12, False),
    ("G2", "preset:cartan1", "preset:random:7", 1, 16, False),
    ("B2", "preset:cartan2", "preset:random:7", 1, 12, False),
    ("A2", "preset:random:5", "preset:random:5", -1, None, True),
    ("G2", "preset:cartan1", "preset:cartan1", -1, 16, True),
    ("A2", "preset:random:5", "preset:random:5", Q(3, 2), None, True),
    ("B2", "preset:random:7", "preset:random:7", Q(3, 2), 12, True),
])
def test_coords_equality_is_subspace_equality(label, spec_a, spec_b, scale_b, dim, equal):
    # the free-variable basis depends on the span alone, so list equality
    # of coords and same_subspace agree, also on pairs of equal dimension
    a = _spec_kernel(label, spec_a)
    b = _spec_kernel(label, spec_b, scale=scale_b)
    if dim is not None:
        assert a.dim == b.dim == dim
    assert (a.coords == b.coords) == same_subspace(a.coords, b.coords) == equal


def test_mirror_audit_reports_differing_kernels(a2, monkeypatch):
    # the "kernels differ" branch: the second kernel comes from another lambda
    monkeypatch.setattr(kernels, "neg_dual", lambda lam: cartan_dual(a2, 2))
    rep = mirror_stability_check(a2, cartan_dual(a2, 1), 2)
    assert rep["dim_plus"] == rep["dim_minus"] == 12
    assert not rep["kernels_equal"]
    result = CliRunner().invoke(main, ["verify", "--algebra", "A2", "--lambda", "preset:cartan1"])
    assert result.exit_code == 4, result.output


def test_mirror_audit_rejects_a_kernel_not_in_free_variable_form(a2, monkeypatch):
    real = kernels.kernel_of_constrained

    def scaled_first_vector(*args):
        kb, cert = real(*args)
        kb.coords[0] = {j: 2 * v for j, v in kb.coords[0].items()}
        return kb, cert

    monkeypatch.setattr(kernels, "kernel_of_constrained", scaled_first_vector)
    with pytest.raises(CertificationError, match="coefficient 2"):
        mirror_stability_check(a2, random_dual(a2, seed=55), 2)


def test_free_monomials_rejects_a_negated_vector(a2):
    kb, _ = kernel_of_constrained(a2, random_dual(a2, seed=55), 2)
    negated = [{j: -v for j, v in kb.coords[0].items()}] + kb.coords[1:]
    with pytest.raises(CertificationError, match="coefficient -1 at its free monomial"):
        free_monomials(dataclasses.replace(kb, coords=negated))


def test_free_monomials_rejects_vectors_out_of_order(a2):
    kb, _ = kernel_of_constrained(a2, random_dual(a2, seed=55), 2)
    assert list(free_monomials(kb).values()) == list(range(kb.dim))
    swapped = dataclasses.replace(kb, coords=kb.coords[::-1])
    with pytest.raises(CertificationError, match="out of free-monomial order"):
        free_monomials(swapped)


def test_min_irrep_table():
    assert min_irrep_dim("G", 2) == 7
    assert min_irrep_dim("F", 4) == 26
    assert min_irrep_dim("E", 7) == 56
    assert min_irrep_dim("E", 8) == 248
    assert min_irrep_entry("G", 2)[1] == "core"
    assert min_irrep_entry("E", 6) == (27, "extension")
    assert min_irrep_entry("A", 3) == (4, "extension")
    assert min_irrep_entry("B", 2) == (4, "extension")
    assert min_irrep_entry("B", 3) == (7, "extension")
    assert min_irrep_entry("C", 3) == (6, "extension")
    assert min_irrep_entry("D", 5) == (10, "extension")
    with pytest.raises(CartanError):
        min_irrep_dim("Q", 1)


def test_tension_verdicts():
    rep = tension_report("E7", 56)
    assert rep.verdict == "forced_match" and rep.forced_dim == 56
    rep = tension_report("E8", 56)
    assert rep.verdict == "infeasible" and rep.forced_dim is None
    rep = tension_report("G2", 100)
    assert rep.verdict == "unconstrained"
    assert rep.lower_bound == 7 and rep.upper_bound == 100
    rep = tension_report("G2", 7)
    assert rep.verdict == "forced_match" and rep.forced_dim == 7


def test_tension_monotone_in_h11():
    # raising h11 never turns forced_match into infeasible
    for label in ("G2", "F4", "E7", "E8"):
        prev_infeasible = None
        for h11 in range(0, 300, 7):
            v = tension_report(label, h11).verdict
            if prev_infeasible is False:
                assert v != "infeasible"
            prev_infeasible = v == "infeasible"


def test_tension_measurement_flag():
    assert tension_report("E7", 56, kernel_dim=56).measurement_consistent
    assert tension_report("E7", 56, kernel_dim=0).measurement_consistent
    assert not tension_report("E7", 56, kernel_dim=135).measurement_consistent
    assert tension_report("E8", 56, kernel_dim=0).measurement_consistent
    assert not tension_report("E8", 56, kernel_dim=10).measurement_consistent


def test_tension_huge_rank_stays_small():
    tracemalloc.start()
    try:
        rep = tension_report("A20000", 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.min_irrep_dim == 20001 and rep.verdict == "infeasible"
    assert peak < 1 << 20


def test_tension_rejects_negative_h11():
    with pytest.raises(ValueError):
        tension_report("E7", -1)


def test_tension_reports_the_canonical_label():
    assert tension_report("e7", 56).algebra == "E7"
    assert tension_report(" g2", 7).as_dict()["algebra"] == "G2"
    for label in ("A0", "C2", "E9", "Q1", "Ex"):
        with pytest.raises(CartanError):
            tension_report(label, 56)


def test_a2_random_kernel_golden(a2):
    golden = load_golden("a2_random_k2_kernel.json")
    kb, _ = kernel_of_constrained(a2, random_dual(a2, seed=4321), 2)
    assert kb.dim == golden["kernel_dim"]
