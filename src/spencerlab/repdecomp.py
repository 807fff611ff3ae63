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

The submodule check needs no elimination: ``is_g_submodule`` takes ad_a(s)
for every generator x_a and kernel vector s from ``operators.ad_images``
(the Leibniz rule, one chunk of whole vectors at a time, rows indexed by
``sym.rank_weights`` with no sort) and reads span membership off the
free-variable form with ``kernels.outside_span``; each sum is one stable
argsort and ``add.reduceat`` in ``linalg.csc``.  Values are int64 when a
bound on every sum, computed in Python ints, is below 2^63, as
``linalg.value_dtype`` decides, and Python ints in object arrays otherwise,
in the same code: k |[x_b, x_a]|_1 |s|_1 for the images, and the largest
image entry times the longest image column times the larger of D and the
largest scaled pivot entry for the residuals, D being the lcm of the free
coefficients.  ``weight_decomposition`` gets each monomial's weight from one
gather of the generator weights and a sum; only a kernel that is not
weight-graded takes certified ranks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain
from math import prod

from .cartan import geometry
from .chevalley import LieAlgebraTable
from .kernels import KernelBasis, outside_span
from .linalg import csc, kernel_with_certificate, value_dtype
from .operators import ad_images

WeightVector = tuple[int, ...]


def monomial_weight(alg: LieAlgebraTable, mono: tuple[int, ...]) -> WeightVector:
    rank = alg.rank
    acc = [0] * rank
    for idx in mono:
        w = alg.weights[idx]
        for i in range(rank):
            acc[i] += w[i]
    return tuple(acc)


def is_g_submodule(alg: LieAlgebraTable, kb: KernelBasis) -> dict:
    """Check ad-stability of the kernel span; failures list (x, s) pairs.

    Every ad_a(s), from ``operators.ad_images``, is tested against the span
    by ``kernels.outside_span``, in integers (module docs).
    """
    import numpy as np

    outside = outside_span(kb)
    # Each violation (a, s) as a * dim K + s, so that one sort orders them.
    violations = [np.zeros(0, np.int64)]
    for first, images in ad_images(alg, kb.coords, kb.monomials):
        s, a = np.divmod(outside(images), alg.dim)
        violations.append(a * kb.dim + s + first)
    violations = np.concatenate(violations)
    first_violations = violations[np.argsort(violations, kind="stable")[:50]].tolist()
    return {
        "algebra": alg.label,
        "degree": kb.degree,
        "kernel_dim": kb.dim,
        "is_submodule": not len(violations),
        "violations": [[v // kb.dim, v % kb.dim] for v in first_violations],
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
    import numpy as np

    row = np.fromiter(chain.from_iterable(kb.coords), np.int64)
    mono = np.fromiter(chain.from_iterable(map(kb.monomials.__getitem__, row.tolist())),
                       np.int64).reshape(len(row), kb.degree)
    # Each entry's monomial weight: one gather of generator weights, summed.
    gen_weight = np.array(alg.weights, np.int64).reshape(alg.dim, alg.rank)
    weight = list(map(tuple, gen_weight[mono].sum(axis=1).tolist()))
    bounds = np.cumsum([0] + list(map(len, kb.coords))).tolist()
    # The one weight of each basis vector, None for a vector of several.
    vector_weight = []
    for lo, hi in zip(bounds, bounds[1:]):
        weights = set(weight[lo:hi])
        vector_weight.append(weights.pop() if len(weights) == 1 else None)
    multiplicities: dict[WeightVector, int] = {}
    if None not in vector_weight:
        multiplicities.update(Counter(vector_weight))
    else:
        vector = np.repeat(np.arange(kb.dim), np.diff(bounds))
        values = list(chain.from_iterable(vec.values() for vec in kb.coords))
        value = np.array(values, value_dtype(max(map(abs, values))))
        for mu in sorted(set(weight)):
            keep = np.array([w != mu for w in weight])
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
    # No weight of V(lam) is longer than lam, and for dominant mu and a
    # positive root beta, (mu + k beta, mu + k beta) grows with k: a root
    # string stops at its first weight longer than lam.
    lam_norm = geo.dot(lam, lam)

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
                if geo.dot(nu, nu) > lam_norm:
                    break
                m_nu = mult.get(lat.dominant_conjugate(nu), 0)
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
