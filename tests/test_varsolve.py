from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from spencerlab.chevalley import algebra
from spencerlab.torus import CellComplex
from spencerlab.varsolve import (
    FieldConfig,
    LatticeBundle,
    SolverConfig,
    SolverDivergence,
    Weights,
    cartan_residual,
    certify_compatible_pair,
    covariant_config,
    edge_residual_norms,
    energy,
    gradient,
    minimize,
    random_bundle_and_config,
    spanning_tree,
)

from conftest import load_golden


def lattice_layout(d, n):
    """Node positions, their indices and (tail, head, axis) per edge, rebuilt
    from positions: nodes in lexicographic order, then edge node*d + axis
    runs one step up along axis, mod n."""
    nodes = sorted(product(range(n), repeat=d))
    index = {pos: i for i, pos in enumerate(nodes)}
    edges = []
    for pos in nodes:
        for axis in range(d):
            head = tuple((p + (a == axis)) % n for a, p in enumerate(pos))
            edges.append((index[pos], index[head], axis))
    return nodes, index, edges


def naive_energy(bundle, config, w):
    """Straightforward re-evaluation with plain loops, kept independent."""
    mats = bundle.edge_matrices()
    main = 0.0
    pen1 = 0.0
    _, _, edges = lattice_layout(bundle.d, bundle.n)
    for e_idx, (t, h, _axis) in enumerate(edges):
        r = config.lam[h] - config.lam[t] + mats[e_idx] @ config.lam[t]
        main += float(r @ r)
        p = float(config.lam[t] @ bundle.omega[e_idx])
        pen1 += p * p
    sup2 = max(float(v * v) for row in config.lam for v in row)
    pen3 = max(0.0, sup2 - w.bound_c)
    return main, pen1, pen3, main + w.alpha1 * pen1 + w.alpha3 * pen3


@pytest.mark.parametrize("d, n", [(1, 1), (1, 2), (2, 3), (3, 2)])
def test_layout_is_the_torus_coboundary(a1, d, n):
    # Edge e is the 1-cell cells[1][e]; its row of d_0 is -1 at the tail
    # and +1 at the head (empty when the two coincide, as for n = 1).
    bundle = LatticeBundle(d, n, a1)
    cx = CellComplex.torus(d, n)
    rows = [[] for _ in range(cx.n_cells(1))]
    for node, (col_rows, signs) in enumerate(cx.coboundary_columns(0)):
        for row, sign in zip(col_rows.tolist(), signs.tolist()):
            rows[row].append((sign, node))
    assert bundle.n_nodes == cx.n_cells(0) and bundle.n_edges == cx.n_cells(1)
    for e, (t, h) in enumerate(zip(bundle.tails.tolist(), bundle.heads.tolist())):
        assert cx.cells[1][e] == (cx.cells[0][t][0], (e % d,))
        assert sorted(rows[e]) == ([] if t == h else [(-1, t), (1, h)])


def test_zero_field_zero_energy(a1):
    bundle, _ = random_bundle_and_config(a1, 2, 4, seed=1)
    zero = FieldConfig(np.zeros((bundle.n_nodes, a1.dim)))
    eb = energy(bundle, zero, Weights())
    assert eb.main == eb.pen1 == eb.pen3 == eb.total == 0.0


def test_constant_field_flat_connection(a1):
    bundle = LatticeBundle(2, 4, a1)  # omega = 0
    lam = np.tile(np.array([0.3, -0.1, 0.2]), (bundle.n_nodes, 1))
    eb = energy(bundle, FieldConfig(lam), Weights(bound_c=10.0))
    assert eb.main == 0.0


def test_energy_matches_naive_oracle_and_golden(a1):
    bundle, config = random_bundle_and_config(a1, 2, 4, seed=2024)
    w = Weights(alpha1=0.5, alpha3=1.0, bound_c=10.0)
    eb = energy(bundle, config, w)
    main, pen1, pen3, total = naive_energy(bundle, config, w)
    assert abs(eb.main - main) < 1e-12 * max(1.0, abs(main))
    assert abs(eb.pen1 - pen1) < 1e-12 * max(1.0, abs(pen1))
    assert eb.pen3 == pen3
    assert abs(eb.total - total) < 1e-12 * max(1.0, abs(total))
    golden = load_golden("varsolve_energy_4x4.json")["breakdown"]
    assert repr(eb.total) == golden["total"]
    assert repr(eb.main) == golden["main"]


def test_gradient_matches_finite_differences(a1):
    bundle, config = random_bundle_and_config(a1, 2, 4, seed=42)
    w = Weights(alpha1=0.5, alpha3=1.0, bound_c=100.0)  # barrier inactive
    mats = bundle.edge_matrices()
    g = gradient(bundle, config, w, mats)
    rng = np.random.default_rng(7)
    eps = 1e-5
    for _ in range(100):
        node = int(rng.integers(bundle.n_nodes))
        coord = int(rng.integers(a1.dim))
        cp = config.copy()
        cp.lam[node, coord] += eps
        cm = config.copy()
        cm.lam[node, coord] -= eps
        fd = (energy(bundle, cp, w, mats).total - energy(bundle, cm, w, mats).total) / (2 * eps)
        assert abs(fd - g[node, coord]) <= 1e-6 * max(1.0, abs(g[node, coord]))


def add_at_gradient(bundle, config, w):
    """The gradient as scattered by ``np.add.at`` in edge order, kept as the
    reference for the summation order of ``gradient``."""
    mats = bundle.edge_matrices()
    lam_t = config.lam[bundle.tails]
    res = config.lam[bundle.heads] - lam_t + np.einsum("ebc,ec->eb", mats, lam_t)
    grad = np.zeros_like(config.lam)
    np.add.at(grad, bundle.heads, 2.0 * res)
    np.add.at(grad, bundle.tails, -2.0 * res + 2.0 * np.einsum("ebc,eb->ec", mats, res))
    pairings = np.einsum("eb,eb->e", lam_t, bundle.omega)
    np.add.at(grad, bundle.tails, w.alpha1 * 2.0 * pairings[:, None] * bundle.omega)
    sq = config.lam * config.lam
    if float(np.max(sq)) > w.bound_c:
        node, coord = divmod(int(np.argmax(sq)), config.lam.shape[1])
        grad[node, coord] += w.alpha3 * 2.0 * config.lam[node, coord]
    return grad


@pytest.mark.parametrize("bound_c", [0.01, 100.0])
@pytest.mark.parametrize("d, n", [(1, 1), (1, 2), (2, 3), (3, 2)])
def test_gradient_sums_in_the_order_of_the_scatter(g2, d, n, bound_c):
    # Bit for bit, not to a tolerance: the golden solver trace depends on it.
    bundle, config = random_bundle_and_config(g2, d, n, seed=5)
    w = Weights(alpha1=0.7, alpha3=1.3, bound_c=bound_c)
    assert (float(np.max(config.lam ** 2)) > bound_c) == (bound_c < 1.0)
    assert np.array_equal(gradient(bundle, config, w), add_at_gradient(bundle, config, w))


def test_gradient_pen1_hand_expansion(a1):
    # single-edge quadratic: d/dlam <lam, omega>^2 = 2 <lam, omega> omega
    bundle = LatticeBundle(1, 2, a1)
    bundle.omega = np.zeros((bundle.n_edges, a1.dim))
    bundle.omega[0] = [1.0, 2.0, -1.0]
    lam = np.zeros((bundle.n_nodes, a1.dim))
    lam[0] = [0.5, -0.25, 1.0]
    w = Weights(alpha1=1.0, alpha3=0.0, bound_c=1e9)
    # isolate pen1 by cancelling the main term contribution numerically
    g = gradient(bundle, FieldConfig(lam), w)
    w0 = Weights(alpha1=0.0, alpha3=0.0, bound_c=1e9)
    g0 = gradient(bundle, FieldConfig(lam), w0)
    pairing = float(lam[0] @ bundle.omega[0])
    expect = 2.0 * pairing * bundle.omega[0]
    assert np.allclose(g[0] - g0[0], expect, atol=1e-12)


def test_pen3_subgradient_convention(a1):
    bundle = LatticeBundle(1, 2, a1)
    lam = np.zeros((bundle.n_nodes, a1.dim))
    lam[1, 2] = 3.0
    w_inactive = Weights(alpha1=0.0, alpha3=1.0, bound_c=100.0)
    w_active = Weights(alpha1=0.0, alpha3=1.0, bound_c=1.0)
    g_in = gradient(bundle, FieldConfig(lam), w_inactive)
    g_act = gradient(bundle, FieldConfig(lam), w_active)
    base = gradient(bundle, FieldConfig(lam), Weights(alpha1=0.0, alpha3=0.0, bound_c=1.0))
    assert np.allclose(g_in, base)
    diff = g_act - base
    assert diff[1, 2] == pytest.approx(2.0 * 3.0)
    diff[1, 2] = 0.0
    assert np.allclose(diff, 0.0)


def test_minimize_zero_start_terminates_immediately(a1):
    bundle, _ = random_bundle_and_config(a1, 2, 4, seed=3)
    zero = FieldConfig(np.zeros((bundle.n_nodes, a1.dim)))
    final, trace = minimize(bundle, zero, Weights(), SolverConfig())
    assert len(trace) == 1
    assert trace[0].grad_norm == 0.0
    assert np.array_equal(final.lam, zero.lam)


def test_minimize_harmonic_projection(a1):
    # omega = 0 and no pen1: minimiser of the pure difference energy is the
    # constant field at the mean of the start (closed-form oracle)
    bundle = LatticeBundle(2, 4, a1)
    rng = np.random.default_rng(5)
    start = FieldConfig(rng.standard_normal((bundle.n_nodes, a1.dim)))
    w = Weights(alpha1=0.0, alpha3=1.0, bound_c=1e9)
    final, trace = minimize(bundle, start, w, SolverConfig(max_iters=5000, tol=1e-10))
    mean = start.lam.mean(axis=0)
    assert np.allclose(final.lam, mean, atol=1e-5)


def monotone(trace):
    totals = [row.breakdown.total for row in trace]
    return all(b <= a for a, b in zip(totals, totals[1:]))


def test_minimize_monotone_ten_seeds(a1):
    # At C = 0.1 the barrier is active from the start, so the sup-norm
    # subgradient enters the gradient and the step quotient.
    for bound_c, seed in product((10.0, 0.1), range(10)):
        bundle, config = random_bundle_and_config(a1, 2, 4, seed=seed)
        w = Weights(alpha1=0.5, alpha3=1.0, bound_c=bound_c)
        assert (float(np.max(config.lam ** 2)) > bound_c) == (bound_c < 1.0)
        final, trace = minimize(bundle, config, w, SolverConfig(max_iters=800))
        assert monotone(trace)
        assert cartan_residual(bundle, final) <= cartan_residual(bundle, config)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_minimize_bench_config_converges_in_few_iterations(g2, seed):
    # The benchmark's varsolve instance (G2, d=3, n=6, C=10): doubling the
    # step each iteration took 527 to 765 iterations on seeds 1-5, the
    # Barzilai-Borwein trial 115 to 186.
    bundle, config = random_bundle_and_config(g2, 3, 6, seed, omega_scale=0.3, lam_scale=0.5)
    w = Weights(alpha1=0.5, alpha3=1.0, bound_c=10.0)
    _, trace = minimize(bundle, config, w, SolverConfig(step=0.1, max_iters=3000, tol=1e-8))
    assert trace[-1].grad_norm < 1e-8
    assert monotone(trace)
    assert len(trace) - 1 < 300


@pytest.mark.parametrize("label, bound_c", [("A1", 10.0), ("A1", 0.1), ("G2", 0.1)])
@pytest.mark.parametrize("seed", [0, 2])
def test_minimize_past_machine_precision_keeps_finite_steps(label, bound_c, seed):
    # With tol = 0 the run goes on after the gradient has underflowed; the
    # step quotient's denominator reaches 0 (A1, C = 0.1, seed 2 reaches a
    # gradient of exactly 0), and the fallback must keep every step usable.
    bundle, config = random_bundle_and_config(algebra(label), 2, 4, seed)
    w = Weights(alpha1=0.5, alpha3=1.0, bound_c=bound_c)
    _, trace = minimize(bundle, config, w, SolverConfig(tol=0.0, max_iters=1500))
    assert len(trace) == 1501
    assert all(np.isfinite(row.step) and row.step > 0 for row in trace)
    assert monotone(trace)


def test_minimize_zero_gradient_doubles_the_step_up_to_the_cap(a1):
    # At a stationary start the quotient is 0 / 0, so every trial is the
    # doubled last step, capped at 1e6, and is accepted.
    bundle, _ = random_bundle_and_config(a1, 2, 4, seed=3)
    zero = FieldConfig(np.zeros((bundle.n_nodes, a1.dim)))
    _, trace = minimize(bundle, zero, Weights(), SolverConfig(step=0.1, tol=0.0, max_iters=40))
    assert [row.step for row in trace] == [0.1] + [min(0.1 * 2.0 ** i, 1e6) for i in range(1, 41)]
    assert all(row.breakdown.total == 0.0 for row in trace)


def test_minimize_converges_below_tolerance(a1):
    bundle, config = random_bundle_and_config(a1, 2, 4, seed=42)
    w = Weights(alpha1=0.5, alpha3=1.0, bound_c=10.0)
    final, trace = minimize(bundle, config, w, SolverConfig(max_iters=5000, tol=1e-8))
    assert trace[-1].grad_norm < 1e-8


def test_divergence_is_reported(a1):
    bundle, config = random_bundle_and_config(a1, 2, 2, seed=9)
    # a solver config that cannot decrease anything: negative sufficient
    # decrease is impossible, so force it by making min_step huge
    bad = SolverConfig(step=1.0, max_iters=10, tol=0.0, min_step=0.5,
                       backtrack_factor=0.5, sufficient_decrease=1e9)
    with pytest.raises(SolverDivergence):
        minimize(bundle, config, Weights(), bad)


def test_nan_step_raises_instead_of_hanging(a1):
    # NaN compares false both ways, so a "step < min_step" guard never fires
    bundle, config = random_bundle_and_config(a1, 2, 2, seed=9)
    with pytest.raises(SolverDivergence):
        minimize(bundle, config, Weights(), SolverConfig(step=float("nan"), max_iters=10))


def test_translation_invariance(a1):
    # translating omega and lambda together leaves the energy unchanged
    bundle, config = random_bundle_and_config(a1, 2, 4, seed=12)
    w = Weights(alpha1=0.7, alpha3=1.0, bound_c=10.0)
    base = energy(bundle, config, w)

    shift = (1, 0)
    nodes, node_index, edges = lattice_layout(2, 4)
    node_map = {}
    for idx, pos in enumerate(nodes):
        moved = tuple((p + s) % bundle.n for p, s in zip(pos, shift))
        node_map[idx] = node_index[moved]
    edge_map = {}
    for e_idx, (t, h, axis) in enumerate(edges):
        for e2_idx, (t2, h2, axis2) in enumerate(edges):
            if t2 == node_map[t] and axis2 == axis:
                edge_map[e_idx] = e2_idx
                break
    bundle2 = LatticeBundle(2, 4, a1)
    bundle2.omega = np.zeros_like(bundle.omega)
    lam2 = np.zeros_like(config.lam)
    for e_idx, e2_idx in edge_map.items():
        bundle2.omega[e2_idx] = bundle.omega[e_idx]
    for idx, idx2 in node_map.items():
        lam2[idx2] = config.lam[idx]
    moved = energy(bundle2, FieldConfig(lam2), w)
    assert moved.total == pytest.approx(base.total, rel=1e-12)


def test_cartan_residual_is_sqrt_of_main(a1):
    import math

    bundle, config = random_bundle_and_config(a1, 2, 3, seed=31)
    eb = energy(bundle, config, Weights())
    assert cartan_residual(bundle, config) == pytest.approx(math.sqrt(eb.main), rel=1e-14)


def test_covariant_config_tree_residual(a1):
    bundle, _ = random_bundle_and_config(a1, 2, 4, seed=77)
    config, tree = covariant_config(bundle, np.array([0.4, -0.3, 0.2]))
    norms = edge_residual_norms(bundle, config)
    assert len(tree) == bundle.n_nodes - 1
    for e_idx in tree:
        assert norms[e_idx] <= 1e-12


def test_spanning_tree_reaches_all_nodes(a1):
    bundle = LatticeBundle(3, 2, a1)
    tree = spanning_tree(bundle)
    assert len(tree) == bundle.n_nodes - 1


def test_certify_zero_field_degenerate(a1):
    bundle, _ = random_bundle_and_config(a1, 2, 3, seed=4)
    zero = FieldConfig(np.zeros((bundle.n_nodes, a1.dim)))
    certs = certify_compatible_pair(bundle, zero)
    assert all(c.verdict == "degenerate" for c in certs)


def test_certify_hand_built_annihilated_edges(a1):
    bundle = LatticeBundle(2, 2, a1)
    bundle.omega = np.zeros((bundle.n_edges, a1.dim))
    lam = np.zeros((bundle.n_nodes, a1.dim))
    lam[:, 0] = 1.0  # lambda = h* everywhere
    # axis 0 edges pair to zero (omega orthogonal), axis 1 edges do not
    for e_idx, (t, h, axis) in enumerate(lattice_layout(2, 2)[2]):
        bundle.omega[e_idx] = [0.0, 1.0, 0.0] if axis == 0 else [1.0, 0.0, 0.0]
    certs = certify_compatible_pair(bundle, FieldConfig(lam))
    for c in certs:
        assert c.verdict == "split"
        assert c.annihilated_axes == [0]
        assert c.rank_d + c.rank_v == c.rank_t == 2


def test_certify_minimizer_pairings_below_tolerance(a1):
    bundle, config = random_bundle_and_config(a1, 2, 3, seed=21, lam_scale=0.3)
    w = Weights(alpha1=2.0, alpha3=1.0, bound_c=10.0)
    final, _ = minimize(bundle, config, w, SolverConfig(max_iters=4000, tol=1e-10))
    certs = certify_compatible_pair(bundle, final, tol=1e-8)
    for c in certs:
        if c.verdict == "degenerate":
            continue
        for axis in c.annihilated_axes:
            assert abs(c.pairings[axis]) <= 1e-8
