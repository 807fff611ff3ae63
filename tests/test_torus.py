from __future__ import annotations

import dataclasses
import random
from fractions import Fraction as Q

import pytest

from spencerlab.kernels import kernel_of_constrained
from spencerlab.linalg import CertificationError
from spencerlab.operators import apply_delta
from spencerlab.presets import cartan_dual, random_dual, zero_dual
from spencerlab.sym import SymElement
from spencerlab.torus import (
    CellComplex,
    DeRhamClasses,
    SpencerCochain,
    coboundary,
    degenerate_cohomology,
    euler_characteristic,
    phi_deg,
    spencer_differential,
)


def _random_cochain(rng, cx, p, q, dim, n_cells=5):
    vals = {}
    total = cx.n_cells(p)
    for cell in rng.sample(range(total), min(n_cells, total)):
        el = SymElement.zero(q, dim)
        for _ in range(2):
            mono = tuple(sorted(rng.randrange(dim) for _ in range(q)))
            el.add_term(mono, Q(rng.randint(-3, 3)))
        if not el.is_zero():
            vals[cell] = el
    return SpencerCochain(p, q, dim, vals)


def test_cell_counts_t2():
    cx = CellComplex.torus(2, 4)
    assert [cx.n_cells(k) for k in range(3)] == [16, 32, 16]


def test_cell_counts_t3():
    cx = CellComplex.torus(3, 2)
    assert [cx.n_cells(k) for k in range(4)] == [8, 24, 24, 8]


def test_betti_t2_t3():
    assert CellComplex.torus(2, 4).betti_numbers() == [1, 2, 1]
    assert CellComplex.torus(2, 3).betti_numbers() == [1, 2, 1]
    assert CellComplex.torus(3, 2).betti_numbers() == [1, 3, 3, 1]


def test_constant_cochain_closed(a1):
    cx = CellComplex.torus(2, 4)
    el = SymElement.monomial(3, (1,))
    c = SpencerCochain(0, 1, 3, {i: el for i in range(cx.n_cells(0))})
    assert coboundary(cx, c).is_zero()


def test_dd_zero_random(a1):
    rng = random.Random(7)
    cx = CellComplex.torus(2, 4)
    for p in (0, 1):
        c = _random_cochain(rng, cx, p, 2, 3)
        assert coboundary(cx, coboundary(cx, c)).is_zero()
    cx3 = CellComplex.torus(3, 2)
    for p in (0, 1, 2):
        c = _random_cochain(rng, cx3, p, 1, 3)
        assert coboundary(cx3, coboundary(cx3, c)).is_zero()


def test_axis_cocycles_closed_nonexact():
    cx = CellComplex.torus(2, 4)
    classes = DeRhamClasses(cx, 1)
    assert classes.betti == 2
    for axis in (0, 1):
        vec = {
            i: Q(1)
            for (pos, axes), i in cx.index[1].items()
            if axes == (axis,)
        }
        assert classes.is_cocycle(vec)
        coords = classes.class_coordinates(vec)
        assert any(c != 0 for c in coords)
        # A non-integral form: the check multiplies its Fractions as given.
        half = {i: Q(1, 2) for i in vec}
        assert classes.is_cocycle(half)
        assert classes.class_coordinates(half) == [c / 2 for c in coords]


def test_t3_class_coordinates_of_the_axis_forms():
    cx = CellComplex.torus(3, 2)
    for p, scale in ((1, 2), (2, 4)):
        classes = DeRhamClasses(cx, p)
        axes = sorted({a for _pos, a in cx.index[p]})
        assert classes.betti == len(axes) == 3
        for n, axis in enumerate(axes):
            vec = {i: Q(1) for (_pos, a), i in cx.index[p].items() if a == axis}
            assert classes.class_coordinates(vec) == [scale * (m == n) for m in range(3)]


def test_differential_components(a1):
    rng = random.Random(3)
    cx = CellComplex.torus(2, 4)
    lam = cartan_dual(a1, 1)
    # kernel element: second component vanishes, first is the plain coboundary
    kb, _ = kernel_of_constrained(a1, lam, 2)
    s = kb.basis[0]
    alpha_cells = rng.sample(range(cx.n_cells(1)), 4)
    c = SpencerCochain(1, 2, 3, {i: s.scale(Q(rng.randint(1, 3))) for i in alpha_cells})
    first, second = spencer_differential(cx, a1, lam, c)
    assert second.is_zero()
    assert first.values == coboundary(cx, c).values
    # closed alpha and kernel s: both components vanish
    const = SpencerCochain(0, 2, 3, {i: s for i in range(cx.n_cells(0))})
    f2, s2 = spencer_differential(cx, a1, lam, const)
    assert f2.is_zero() and s2.is_zero()


def test_differential_nonkernel_second_component(a1):
    cx = CellComplex.torus(2, 4)
    lam = cartan_dual(a1, 1)
    s = SymElement.monomial(3, (0, 1))  # h.e is not in the kernel
    assert not apply_delta(a1, lam, s).is_zero()
    c = SpencerCochain(1, 2, 3, {0: s})
    first, second = spencer_differential(cx, a1, lam, c)
    assert not second.is_zero()
    # sign convention: (-1)^p with p = 1
    expect = apply_delta(a1, lam, s).scale(-1)
    assert second.values[0] == expect


def test_degenerate_cohomology_product_t2(a1):
    cx = CellComplex.torus(2, 4)
    # full kernel at lambda = 0: dims are betti * sym_dim
    rep = degenerate_cohomology(a1, zero_dual(a1), 1, cx)
    assert rep.kernel_dim == 3
    assert rep.degenerate_dims == [3, 6, 3]
    assert rep.euler_characteristic == 0
    # measured kernel at the Cartan preset
    rep2 = degenerate_cohomology(a1, cartan_dual(a1, 1), 2, cx)
    assert rep2.kernel_dim == 4
    assert rep2.degenerate_dims == [4, 8, 4]
    assert rep2.product_identity_holds


def test_degenerate_cohomology_zero_kernel(a1):
    cx = CellComplex.torus(2, 3)
    rep = degenerate_cohomology(a1, cartan_dual(a1, 1), 1, cx)
    assert rep.kernel_dim == 0
    assert rep.degenerate_dims == [0, 0, 0]
    assert rep.euler_characteristic == 0


def test_degenerate_cohomology_t3(a2):
    cx = CellComplex.torus(3, 2)
    lam = random_dual(a2, seed=20)
    rep = degenerate_cohomology(a2, lam, 2, cx)
    assert rep.degenerate_dims == [b * rep.kernel_dim for b in rep.betti]


def test_phi_deg_maps_axis_class(a1):
    cx = CellComplex.torus(2, 4)
    lam = cartan_dual(a1, 1)
    kb, _ = kernel_of_constrained(a1, lam, 2)
    classes = DeRhamClasses(cx, 1)
    axis_vec = {
        i: Q(1) for (pos, axes), i in cx.index[1].items() if axes == (0,)
    }
    expected = classes.class_coordinates(axis_vec)
    c = SpencerCochain(1, 2, 3, {i: kb.basis[0].scale(v) for i, v in axis_vec.items()})
    _form, coords = phi_deg(cx, kb, c)
    assert coords == expected


def test_phi_deg_reads_a_non_unit_free_coefficient(g2):
    # Vector 9 of the G2 cartan1 kernel at k=2 has free coefficient 15, so
    # basis[9] is coords[9] / 15 and dx (x) basis[9] lies over the class of dx.
    kb, _ = kernel_of_constrained(g2, cartan_dual(g2, 1), 2)
    assert kb.free_coefficients[9] == kb.coords[9][max(kb.coords[9])] == 15
    cx = CellComplex.torus(2, 4)
    dx = {i: Q(1) for (_pos, axes), i in cx.index[1].items() if axes == (0,)}
    form, coords = phi_deg(cx, kb, SpencerCochain(1, 2, g2.dim, {i: kb.basis[9] for i in dx}))
    assert form == dx and coords == DeRhamClasses(cx, 1).class_coordinates(dx)
    triple = SpencerCochain(1, 2, g2.dim, {i: kb.basis[9].scale(Q(3)) for i in dx})
    assert phi_deg(cx, kb, triple)[1] == [3 * c for c in coords]


def test_phi_deg_exact_form_maps_to_zero_class(a1):
    cx = CellComplex.torus(2, 4)
    lam = cartan_dual(a1, 1)
    kb, _ = kernel_of_constrained(a1, lam, 2)
    # exact 1-form: coboundary of a 0-cochain
    zero_c = SpencerCochain(0, 2, 3, {3: kb.basis[1]})
    exact = coboundary(cx, zero_c)
    _form, coords = phi_deg(cx, kb, exact)
    assert all(c == 0 for c in coords)


def test_phi_deg_boundary_to_boundary_well_defined(a1):
    # representatives differing by a boundary map to the same class
    rng = random.Random(11)
    cx = CellComplex.torus(2, 4)
    lam = cartan_dual(a1, 1)
    kb, _ = kernel_of_constrained(a1, lam, 2)
    axis_vec = {
        i: Q(1) for (pos, axes), i in cx.index[1].items() if axes == (1,)
    }
    c1 = SpencerCochain(1, 2, 3, {i: kb.basis[2].scale(v) for i, v in axis_vec.items()})
    bump = SpencerCochain(0, 2, 3, {5: kb.basis[2].scale(Q(3))})
    c2vals = dict(c1.values)
    for cell, el in coboundary(cx, bump).values.items():
        c2vals[cell] = c2vals.get(cell, SymElement.zero(2, 3)).add(el)
    c2 = SpencerCochain(1, 2, 3, {k: v for k, v in c2vals.items() if not v.is_zero()})
    _f1, coords1 = phi_deg(cx, kb, c1)
    _f2, coords2 = phi_deg(cx, kb, c2)
    assert coords1 == coords2


def test_phi_deg_rejects_non_closed(a1):
    cx = CellComplex.torus(2, 4)
    lam = cartan_dual(a1, 1)
    kb, _ = kernel_of_constrained(a1, lam, 2)
    c = SpencerCochain(1, 2, 3, {0: kb.basis[0]})
    assert not coboundary(cx, c).is_zero()
    with pytest.raises(ValueError, match="closed"):
        phi_deg(cx, kb, c)


def test_phi_deg_rejects_a_value_outside_the_kernel(a1):
    cx = CellComplex.torus(2, 4)
    lam = cartan_dual(a1, 1)
    kb, _ = kernel_of_constrained(a1, lam, 2)
    mono = next(m for m in kb.monomials
                if not apply_delta(a1, lam, SymElement.monomial(3, m)).is_zero())
    c = SpencerCochain(1, 2, 3, {0: kb.basis[0].add(SymElement.monomial(3, mono))})
    with pytest.raises(ValueError, match="outside the kernel span"):
        phi_deg(cx, kb, c)


def test_phi_deg_rejects_a_kernel_not_in_free_variable_form(a1):
    cx = CellComplex.torus(2, 4)
    kb, _ = kernel_of_constrained(a1, cartan_dual(a1, 1), 2)
    scaled = dataclasses.replace(kb, coords=[{j: 2 * v for j, v in kb.coords[0].items()}]
                                 + kb.coords[1:])
    c = SpencerCochain(1, 2, 3, {0: kb.basis[0]})
    with pytest.raises(CertificationError, match="coefficient 2"):
        phi_deg(cx, scaled, c)


def test_phi_deg_surjective_on_classes(a1):
    # pairing each H^1 class representative with a kernel vector spans H^1
    cx = CellComplex.torus(2, 4)
    lam = cartan_dual(a1, 1)
    kb, _ = kernel_of_constrained(a1, lam, 2)
    classes = DeRhamClasses(cx, 1)
    image = []
    for rep in classes.class_reps:
        c = SpencerCochain(1, 2, 3, {i: kb.basis[0].scale(v) for i, v in rep.items()})
        _f, coords = phi_deg(cx, kb, c)
        image.append(coords)
    # the image coordinate matrix has full rank over the rationals
    from spencerlab.linalg import rref_dense

    assert len(rref_dense([list(row) for row in image])[1]) == classes.betti


def test_euler_characteristic_values():
    assert euler_characteristic([5, 0, 5]) == 10
    assert euler_characteristic([3, 6, 3]) == 0
    assert euler_characteristic([]) == 0
