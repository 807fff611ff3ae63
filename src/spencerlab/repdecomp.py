"""Module structure of Spencer kernels: weights, irreps, character peeling.

Weights are recorded as Cartan eigenvalue vectors (Dynkin labels with
respect to the chosen simple roots).  The Cartan generators act diagonally
on the monomial basis, so a subspace is weight-graded exactly when it is
stable under them; the decomposition routines verify this instead of
assuming it, and mark the output advisory when it fails.

Irrep dimensions come from the Weyl dimension formula and dominant weight
multiplicities from the Freudenthal recursion, both in exact integers over
the datum's cached ``cartan.RootGeometry``.  A character is peeled into
irreducible summands on its dominant weights only.

The submodule check needs no elimination: ``is_g_submodule`` reads span
membership off the free-variable form (``kernels`` module docs), in
integers.  ``ad_action_on_sym``, the Fraction action on one element, has no
caller in the package: the tests keep it as an independent reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import lcm, prod

from .cartan import geometry
from .chevalley import LieAlgebraTable
from .kernels import KernelBasis, free_monomials
from .linalg import csc, kernel_with_certificate, value_dtype
from .sym import SymElement

WeightVector = tuple[int, ...]


def monomial_weight(alg: LieAlgebraTable, mono: tuple[int, ...]) -> WeightVector:
    rank = alg.rank
    acc = [0] * rank
    for idx in mono:
        w = alg.weights[idx]
        for i in range(rank):
            acc[i] += w[i]
    return tuple(acc)


def ad_action_on_sym(alg: LieAlgebraTable, x: SymElement, s: SymElement) -> SymElement:
    """Derivation extension of ad_x to Sym^k: replace one factor at a time."""
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


def is_g_submodule(alg: LieAlgebraTable, kb: KernelBasis) -> dict:
    """Check ad-stability of the kernel span; failures list (x, s) pairs.

    Membership is read off the free-variable form (module docs), in
    integers: with D the lcm of the free coefficients c_f, y = ad_a(s) is in
    the span exactly when D times its pivot part is sum_f y[f] * D / c_f
    times the pivot part of K_f.
    """
    free, mons = free_monomials(kb), kb.monomials
    scale = lcm(*kb.free_coefficients)
    # The pivot part of each K_f times D / c_f; () when it has none.
    pivot_parts = [
        tuple((mons[j], v * (scale // c)) for j, v in vec.items() if mons[j] not in free)
        for vec, c in zip(kb.coords, kb.free_coefficients)
    ]
    # [x_a, x_b] = -[x_b, x_a]: the table is antisymmetric by construction
    # and ``chevalley.prove_jacobi`` checks it, so column b is minus row b.
    rows = alg.bracket_rows

    violations = []
    for s_idx, vec in enumerate(kb.coords):
        # ad_a(s) for every generator a at once, by the Leibniz rule.
        images: dict[int, dict[tuple[int, ...], int]] = {}
        for col, coeff in vec.items():
            mono = mons[col]
            for j, b in enumerate(mono):
                rest = mono[:j] + mono[j + 1 :]
                for a, entries in rows[b].items():
                    img = images.get(a)
                    if img is None:
                        img = images[a] = {}
                    for c, bc in entries:
                        key = tuple(sorted(rest + (c,)))
                        img[key] = img.get(key, 0) - coeff * bc
        for a, img in images.items():
            residual: dict[tuple[int, ...], int] = {}
            for mono, v in img.items():
                if not v:
                    continue
                f_idx = free.get(mono)
                if f_idx is None:
                    residual[mono] = residual.get(mono, 0) + scale * v
                else:
                    for m, w in pivot_parts[f_idx]:
                        residual[m] = residual.get(m, 0) - v * w
            if any(residual.values()):
                violations.append([a, s_idx])
    violations.sort()
    return {
        "algebra": alg.label,
        "degree": kb.degree,
        "kernel_dim": kb.dim,
        "is_submodule": not violations,
        "violations": violations[:50],
        "violation_count": len(violations),
    }


def weight_decomposition(alg: LieAlgebraTable, kb: KernelBasis) -> dict:
    """Simultaneous Cartan eigenspace dimensions restricted to the kernel.

    dim of the weight-mu component equals the kernel dimension minus the
    certified rank of the basis matrix with the weight-mu monomials removed.
    The multiplicities sum to the kernel dimension exactly when the kernel
    is weight-graded; a shortfall flags non-submodule input.  When every
    basis vector has a single weight, removing the weight-mu columns
    deletes exactly the weight-mu vectors and keeps the rest independent,
    so the multiplicities are counts and no rank is computed.
    """
    weights_present: set[WeightVector] = set()
    col_weight: dict[int, WeightVector] = {}
    # The one weight of each basis vector, None for a vector of several.
    vector_weight: list[WeightVector | None] = []
    for vec in kb.coords:
        for j in vec.keys() - col_weight.keys():
            col_weight[j] = monomial_weight(alg, kb.monomials[j])
        weights = {col_weight[j] for j in vec}
        weights_present |= weights
        vector_weight.append(weights.pop() if len(weights) == 1 else None)
    multiplicities: dict[WeightVector, int] = {}
    if None not in vector_weight:
        multiplicities.update(Counter(vector_weight))
    else:
        import numpy as np

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
        "multiset": sorted(
            [mu for mu, m in multiplicities.items() for _ in range(m)]
        ),
        "total": total,
        "graded": total == kb.dim,
    }


class WeightLattice:
    """Weyl moves in Dynkin-label coordinates, over the datum's cached geometry."""

    def __init__(self, alg: LieAlgebraTable):
        self.rank = alg.rank
        self.geo = geometry(alg.datum)

    @staticmethod
    def is_dominant(lam) -> bool:
        return all(x >= 0 for x in lam)

    def reflect(self, lam, i: int):
        """Simple reflection s_i in label coordinates."""
        c = lam[i]
        if c == 0:
            return tuple(lam)
        a_i = self.geo.simple_labels[i]
        return tuple(lam[j] - c * a_i[j] for j in range(self.rank))

    def dominant_conjugate(self, lam) -> tuple:
        cur = tuple(lam)
        while (i := next((j for j, x in enumerate(cur) if x < 0), None)) is not None:
            cur = self.reflect(cur, i)
        return cur

    def weyl_orbit(self, lam) -> list[tuple]:
        seen = {tuple(lam)}
        frontier = [tuple(lam)]
        while frontier:
            nxt = []
            for w in frontier:
                for i in range(self.rank):
                    r = self.reflect(w, i)
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
            frontier = nxt
        return sorted(seen)


def weyl_dim(alg: LieAlgebraTable, highest_weight: WeightVector) -> int:
    """Weyl dimension formula, exact."""
    geo = geometry(alg.datum)
    if len(highest_weight) != alg.rank:
        raise ValueError("highest weight length must equal the rank")
    if not WeightLattice.is_dominant(highest_weight):
        raise ValueError(f"weight {highest_weight} is not dominant")
    lam_rho, rho = tuple(x + 1 for x in highest_weight), (1,) * alg.rank
    num = prod(geo.coroot_pairing(lam_rho, r) for r in range(len(geo.coroots)))
    den = prod(geo.coroot_pairing(rho, r) for r in range(len(geo.coroots)))
    if num % den:
        raise RuntimeError(
            f"non-integer Weyl dimension for {highest_weight}: {Fraction(num, den)}"
        )
    return num // den


def freudenthal_multiplicities(
    alg: LieAlgebraTable, highest_weight: WeightVector
) -> dict[WeightVector, int]:
    """Multiplicities of the dominant weights of the irrep, by recursion.

    Inner products and heights are det(A) times their true values (see
    ``RootGeometry``), so the recursion runs on integers.
    """
    lat = WeightLattice(alg)
    geo = lat.geo
    lam = tuple(highest_weight)
    if not lat.is_dominant(lam):
        raise ValueError("highest weight must be dominant")
    rank = alg.rank

    def norm_rho(mu: WeightVector) -> int:
        """det(A) (mu + rho, mu + rho)."""
        mu_rho = tuple(x + 1 for x in mu)
        return geo.dot(mu_rho, mu_rho)

    c_top = norm_rho(lam)

    # The dominant weights below lam, each reached from lam through dominant
    # weights by subtracting positive roots (Stembridge, "The partial order
    # of dominant weights", 1998).
    dominant = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for beta_labels in geo.labels:
                cand = tuple(m - b for m, b in zip(mu, beta_labels))
                if cand not in dominant and lat.is_dominant(cand):
                    dominant.add(cand)
                    nxt.append(cand)
        frontier = nxt

    mult: dict[WeightVector, int] = {}
    for mu in sorted(dominant, key=lambda mu: (-geo.height(mu), mu)):
        if mu == lam:
            mult[mu] = 1
            continue
        denom = c_top - norm_rho(mu)
        total = 0
        for r, beta_labels in enumerate(geo.labels):
            k = 1
            while True:
                nu = tuple(mu[i] + k * beta_labels[i] for i in range(rank))
                nu_dom = lat.dominant_conjugate(nu)
                if norm_rho(nu_dom) > c_top:
                    break
                m_nu = mult.get(nu_dom, 0)
                if m_nu:
                    total += m_nu * (geo.dot_root(mu, r) + k * geo.norm2[r])
                k += 1
        num = 2 * total * geo.det
        if num % denom:
            raise RuntimeError(f"non-integer multiplicity at {mu}: {Fraction(num, denom)}")
        if num // denom > 0:
            mult[mu] = num // denom
    return mult


def irrep_weight_multiset(
    alg: LieAlgebraTable, highest_weight: WeightVector
) -> dict[WeightVector, int]:
    """All weights of the irrep with multiplicities (Weyl-orbit expansion)."""
    lat = WeightLattice(alg)
    dom = freudenthal_multiplicities(alg, highest_weight)
    out: dict[WeightVector, int] = {}
    for mu, m in dom.items():
        for w in lat.weyl_orbit(mu):
            out[w] = out.get(w, 0) + m
    return out


@dataclass
class IrrepSummand:
    highest_weight: WeightVector
    dim: int
    multiplicity: int

    def as_dict(self) -> dict:
        # JSON writes a tuple as a list anyway; the list is for callers that
        # compare the record in process, as the decomposition golden's test does.
        return {**asdict(self), "highest_weight": list(self.highest_weight)}


def decompose_character(
    alg: LieAlgebraTable, weights: dict[WeightVector, int] | list[WeightVector]
) -> list[IrrepSummand]:
    """Greedy highest-weight peeling of a Weyl-symmetric weight multiset.

    After the symmetry check only the dominant weights are kept: a weight of
    maximal height in a Weyl-symmetric multiset is dominant, and every
    remainder stays Weyl-symmetric, so subtracting the dominant part of each
    irreducible character (its Freudenthal multiplicities) peels the same
    summands as subtracting the whole character.
    """
    lat = WeightLattice(alg)
    if isinstance(weights, list):
        counts = dict(Counter(map(tuple, weights)))
    else:
        counts = {tuple(k): v for k, v in weights.items() if v}
    for w, m in list(counts.items()):
        for i in range(alg.rank):
            r = lat.reflect(w, i)
            if counts.get(r, 0) != m:
                raise ValueError(
                    f"weight multiset is not Weyl-symmetric at {w} vs {r}"
                )
    counts = {w: m for w, m in counts.items() if lat.is_dominant(w)}

    summands: list[IrrepSummand] = []
    while counts:
        top = max(counts, key=lambda w: (lat.geo.height(w), w))
        mult = counts[top]
        if mult < 0:
            raise ValueError(
                f"negative multiplicity {mult} at {top}; input was not a module character"
            )
        for w, m in freudenthal_multiplicities(alg, top).items():
            new = counts.get(w, 0) - mult * m
            if new:
                counts[w] = new
            else:
                counts.pop(w, None)
        summands.append(IrrepSummand(top, weyl_dim(alg, top), mult))
    return summands
