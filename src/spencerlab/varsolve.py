"""Desk-scale variational search for compatible gauge/constraint pairs.

A lattice torus carries a Lie-algebra-valued gauge field on directed edges
and a dual-vector field on nodes.  The main energy term is the squared
residual of the discrete covariant-constancy equation
lambda(head) - lambda(tail) + ad*_omega lambda(tail) on every edge; two
penalties are added, a compatibility pairing term and a sup-norm barrier.
The (1,1)-obstruction penalty slot alpha2 is accepted in configurations but
unused: the obstruction class it would weight has no computable definition
at this scale.

Layout: the n^d nodes are numbered in the lexicographic order of their
positions, position (i_0, ..., i_{d-1}) being node sum_a i_a n^(d-1-a).
Node v has the d out-edges v*d .. v*d + d - 1; edge v*d + axis runs from v
one step up along axis, mod n.  ``LatticeBundle.tails`` and ``.heads``
hold the endpoints of every edge.  ``torus.CellComplex.torus(d, n)`` uses
the same order: edge e is its 1-cell ``cells[1][e]``, and the coboundary
d_0 has -1 at tails[e] and +1 at heads[e] in row e.

This module works in floating point; everything else in the package is
exact.  Tolerances are explicit configuration values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .chevalley import LieAlgebraTable
from .sym import ResourceCapExceeded, checked_power


class SolverDivergence(RuntimeError):
    """Energy increased and backtracking hit the minimum step size."""


def guard_lattice_size(d: int, n: int, dim: int, cap: int) -> None:
    """Check d n^d dim, the entry count of a lattice's omega array, against cap.

    Call it before building a ``LatticeBundle``, which allocates all of it.
    """
    nodes = checked_power(n, d, cap)
    size = None if nodes is None else d * nodes * dim
    if size is None or size > cap:
        shown = f"more than {cap}" if size is None else str(size)
        raise ResourceCapExceeded(
            f"a d={d}, n={n} lattice over a dimension-{dim} algebra has {shown} "
            f"omega entries (d n^d dim), exceeding the cap of {cap}"
        )


@dataclass
class LatticeBundle:
    """Cubical torus lattice with a gauge field on directed edges.

    ``tails[e]`` and ``heads[e]`` are the end nodes of edge e, in the layout
    of the module docstring; ``in_edges[v]`` lists the d edges with head v,
    in increasing order.
    """

    d: int
    n: int
    alg: LieAlgebraTable
    omega: np.ndarray = field(repr=False, default=None)  # (n_edges, dim)
    tails: np.ndarray = field(init=False, repr=False)
    heads: np.ndarray = field(init=False, repr=False)
    in_edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = np.arange(self.n**self.d).reshape((self.n,) * self.d)
        self.tails = np.repeat(grid.ravel(), self.d)
        self.heads = np.stack(
            [np.roll(grid, -1, axis=a).ravel() for a in range(self.d)], axis=1
        ).ravel()
        # Every node is the head of exactly one edge per axis.
        self.in_edges = np.argsort(self.heads, kind="stable").reshape(self.n_nodes, self.d)
        if self.omega is None:
            self.omega = np.zeros((self.n_edges, self.alg.dim))

    @property
    def n_nodes(self) -> int:
        return self.n**self.d

    @property
    def n_edges(self) -> int:
        return len(self.tails)

    def coadjoint_tensor(self) -> np.ndarray:
        """M[a][b, c] with (ad*_{x_a} mu)_b = sum_c M[a][b, c] mu_c."""
        dim = self.alg.dim
        t = np.zeros((dim, dim, dim))
        for a in range(dim):
            for b, entries in self.alg.bracket_rows[a].items():
                for c, coeff in entries:
                    t[a, b, c] -= float(coeff)
        return t

    def edge_matrices(self) -> np.ndarray:
        """Per-edge coadjoint matrices M_e = sum_a omega_e[a] * M[a]."""
        t = self.coadjoint_tensor()
        return np.einsum("ea,abc->ebc", self.omega, t)


@dataclass
class FieldConfig:
    """Node field of dual vectors, shape (n_nodes, dim)."""

    lam: np.ndarray

    def copy(self) -> "FieldConfig":
        return FieldConfig(self.lam.copy())


@dataclass
class Weights:
    alpha1: float = 1.0
    alpha3: float = 1.0
    bound_c: float = 1.0


@dataclass(slots=True)
class EnergyBreakdown:
    main: float
    pen1: float
    pen3: float
    alpha1: float
    alpha3: float
    bound_c: float
    total: float

    def as_dict(self) -> dict:
        return asdict(self)


def _edge_terms(bundle: LatticeBundle, config: FieldConfig, mats: np.ndarray):
    """The edge residuals under ``mats`` and each edge's pairing of its
    tail's lambda with omega, from one gather of the tails."""
    lam_t = config.lam[bundle.tails]
    lam_h = config.lam[bundle.heads]
    res = lam_h - lam_t + np.einsum("ebc,ec->eb", mats, lam_t)
    return res, np.einsum("eb,eb->e", lam_t, bundle.omega)


def energy(
    bundle: LatticeBundle,
    config: FieldConfig,
    weights: Weights,
    mats: np.ndarray | None = None,
    res: np.ndarray | None = None,
    pairings: np.ndarray | None = None,
) -> EnergyBreakdown:
    """Main residual energy plus the two active penalties.

    ``mats``, ``res`` and ``pairings``, if given, are the bundle's edge
    matrices, the config's edge residuals under them and its edge pairings.
    """
    if mats is None:
        mats = bundle.edge_matrices()
    if res is None or pairings is None:
        res, pairings = _edge_terms(bundle, config, mats)
    main = float(np.sum(res * res))
    pen1 = float(np.sum(pairings * pairings))
    sup2 = float(np.max(config.lam * config.lam)) if config.lam.size else 0.0
    pen3 = max(0.0, sup2 - weights.bound_c)
    total = main + weights.alpha1 * pen1 + weights.alpha3 * pen3
    return EnergyBreakdown(main, pen1, pen3, weights.alpha1, weights.alpha3, weights.bound_c, total)


def gradient(
    bundle: LatticeBundle,
    config: FieldConfig,
    weights: Weights,
    mats: np.ndarray | None = None,
    res: np.ndarray | None = None,
    pairings: np.ndarray | None = None,
) -> np.ndarray:
    """Exact analytic gradient with respect to every lambda coefficient.

    ``mats``, ``res`` and ``pairings`` are as for :func:`energy`.  Each
    node sums its edge terms in increasing edge order, head terms first,
    then the tail terms and the pairing terms; the golden solver trace
    depends on that order.
    The sup-norm barrier uses a subgradient convention: zero while the
    bound is inactive, and the one-sided derivative 2*lambda at the first
    maximising (node, coordinate) when active.
    """
    if mats is None:
        mats = bundle.edge_matrices()
    if res is None or pairings is None:
        res, pairings = _edge_terms(bundle, config, mats)
    d, dim = bundle.d, config.lam.shape[1]
    grad = np.zeros_like(config.lam)
    head = 2.0 * res
    for j in range(d):
        grad += head[bundle.in_edges[:, j]]
    # Edge v*d + a has tail v, so a reshape groups each node's out-edges.
    back = (-2.0 * res + 2.0 * np.einsum("ebc,eb->ec", mats, res)).reshape(-1, d, dim)
    for a in range(d):
        grad += back[:, a]
    pair = (weights.alpha1 * 2.0 * pairings[:, None] * bundle.omega).reshape(-1, d, dim)
    for a in range(d):
        grad += pair[:, a]
    sq = config.lam * config.lam
    sup2 = float(np.max(sq)) if sq.size else 0.0
    if sup2 > weights.bound_c:
        flat = int(np.argmax(sq))
        node, coord = divmod(flat, config.lam.shape[1])
        grad[node, coord] += weights.alpha3 * 2.0 * config.lam[node, coord]
    return grad


@dataclass
class SolverConfig:
    step: float = 0.1
    max_iters: int = 2000
    tol: float = 1e-8
    backtrack_factor: float = 0.5
    sufficient_decrease: float = 1e-4
    min_step: float = 1e-18


@dataclass(slots=True)
class TraceRow:
    iteration: int
    breakdown: EnergyBreakdown
    grad_norm: float
    step: float


def minimize(
    bundle: LatticeBundle,
    config0: FieldConfig,
    weights: Weights,
    solver: SolverConfig,
) -> tuple[FieldConfig, list[TraceRow]]:
    """Deterministic gradient descent with backtracking line search.

    Each iteration tries one step first and halves it (``backtrack_factor``)
    until the Armijo sufficient-decrease test passes.  Iteration 1 tries
    twice ``SolverConfig.step``.  Every later iteration tries the
    Barzilai-Borwein step s.s / s.y of the last move s = -step g and
    gradient change y = g_new - g, which is step ||g||^2 / (||g||^2 -
    g.g_new); when that denominator is not positive, or the quotient is not
    finite or is below ``min_step`` (as when the gradient reaches 0), it
    tries twice the last accepted step instead.  Every trial is capped at
    1e6.

    The energy trace is non-increasing by construction; if backtracking
    exhausts the step size on an ascent direction, or the start already has
    a non-finite energy or gradient norm, the run raises SolverDivergence
    rather than returning silently.
    """
    mats = bundle.edge_matrices()
    config = config0.copy()
    step = solver.step
    res, pairings = _edge_terms(bundle, config, mats)
    eb = energy(bundle, config, weights, mats, res, pairings)
    g = gradient(bundle, config, weights, mats, res, pairings)
    gnorm = float(np.linalg.norm(g))
    if not (np.isfinite(eb.total) and np.isfinite(gnorm)):
        raise SolverDivergence(
            f"the start has energy {eb.total} and gradient norm {gnorm}; both must be finite"
        )
    trace = [TraceRow(0, eb, gnorm, step)]
    trial = step * 2.0
    for it in range(1, solver.max_iters + 1):
        if gnorm < solver.tol:
            break
        step = min(trial, 1e6)
        while True:
            cand = FieldConfig(config.lam - step * g)
            res, pairings = _edge_terms(bundle, cand, mats)
            eb_new = energy(bundle, cand, weights, mats, res, pairings)
            if eb_new.total <= eb.total - solver.sufficient_decrease * step * gnorm * gnorm:
                break
            step *= solver.backtrack_factor
            # "not >=" so that a NaN step ends the search too
            if not step >= solver.min_step:
                raise SolverDivergence(
                    f"backtracking exhausted at iteration {it}: energy "
                    f"{eb.total} cannot be decreased along the gradient"
                )
        config = cand
        eb = eb_new
        g_new = gradient(bundle, config, weights, mats, res, pairings)
        gg = gnorm * gnorm
        denom = gg - float(np.vdot(g, g_new))
        trial = step * 2.0
        if denom > 0:
            quotient = step * gg / denom
            if quotient >= solver.min_step and np.isfinite(quotient):
                trial = quotient
        g = g_new
        gnorm = float(np.linalg.norm(g))
        trace.append(TraceRow(it, eb, gnorm, step))
    return config, trace


def cartan_residual(bundle: LatticeBundle, config: FieldConfig) -> float:
    """Square root of the main energy term; zero iff the discrete
    covariant-constancy equation holds on every edge."""
    mats = bundle.edge_matrices()
    res, _ = _edge_terms(bundle, config, mats)
    return float(np.sqrt(np.sum(res * res)))


def edge_residual_norms(bundle: LatticeBundle, config: FieldConfig) -> np.ndarray:
    mats = bundle.edge_matrices()
    res, _ = _edge_terms(bundle, config, mats)
    return np.sqrt(np.sum(res * res, axis=1))


def spanning_tree(bundle: LatticeBundle) -> list[int]:
    """Edge indices of a BFS spanning tree rooted at node 0, in the order
    BFS finds them, so each edge's tail is placed before it."""
    heads = bundle.heads.tolist()
    visited = {0}
    tree = []
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for e_idx in range(node * bundle.d, (node + 1) * bundle.d):
            nbr = heads[e_idx]
            if nbr not in visited:
                visited.add(nbr)
                tree.append(e_idx)
                queue.append(nbr)
    return tree


def covariant_config(bundle: LatticeBundle, seed_value: np.ndarray) -> tuple[FieldConfig, list[int]]:
    """Parallel-transport a seed dual vector from node 0 along a BFS tree.

    Along every tree edge the transported field satisfies the discrete
    covariant-constancy equation exactly (in floating point, to roundoff of
    the identical expression), so the residual restricted to tree edges
    vanishes.
    """
    mats = bundle.edge_matrices()
    lam = np.zeros((bundle.n_nodes, bundle.alg.dim))
    lam[0] = seed_value
    tree = spanning_tree(bundle)
    for e_idx in tree:
        t, h = bundle.tails[e_idx], bundle.heads[e_idx]
        lam[h] = lam[t] - mats[e_idx] @ lam[t]
    return FieldConfig(lam), tree


@dataclass
class NodeCertificate:
    node: int
    lambda_sup: float
    pairings: list[float]
    annihilated_axes: list[int]
    rank_d: int
    rank_v: int
    rank_t: int
    verdict: str  # split | degenerate

    def as_dict(self) -> dict:
        return asdict(self)


def certify_compatible_pair(
    bundle: LatticeBundle, config: FieldConfig, tol: float = 1e-8
) -> list[NodeCertificate]:
    """Per-node compatibility and transversality proxy.

    At each node the pairing functional ell(axis) = <lambda, omega(axis)>
    defines a linear functional on the d incident axis directions; its
    annihilator is the constraint distribution proxy D.  The dimension
    split rank(D) + rank(V) = d holds by construction, with rank(V) = 1
    exactly when the functional is nonzero; nodes with lambda below
    tolerance are flagged degenerate, every other node is a split.
    """
    out = []
    for node in range(bundle.n_nodes):
        lam = config.lam[node]
        sup = float(np.max(np.abs(lam))) if lam.size else 0.0
        pairings = [float(np.dot(lam, bundle.omega[node * bundle.d + axis]))
                    for axis in range(bundle.d)]
        if sup <= tol:
            out.append(
                NodeCertificate(node, sup, pairings, list(range(bundle.d)), bundle.d, 0, bundle.d, "degenerate")
            )
            continue
        annihilated = [a for a, p in enumerate(pairings) if abs(p) <= tol]
        rank_v = 1 if any(abs(p) > tol for p in pairings) else 0
        rank_d = bundle.d - rank_v
        out.append(
            NodeCertificate(node, sup, pairings, annihilated, rank_d, rank_v, bundle.d, "split")
        )
    return out


def random_bundle_and_config(
    alg: LieAlgebraTable, d: int, n: int, seed: int, omega_scale: float = 0.3, lam_scale: float = 0.5
) -> tuple[LatticeBundle, FieldConfig]:
    """Deterministic random instance for tests and CLI runs."""
    rng = np.random.default_rng(seed)
    bundle = LatticeBundle(d, n, alg)
    bundle.omega = omega_scale * rng.standard_normal((bundle.n_edges, alg.dim))
    lam = lam_scale * rng.standard_normal((bundle.n_nodes, alg.dim))
    return bundle, FieldConfig(lam)
