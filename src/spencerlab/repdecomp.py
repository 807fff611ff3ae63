"""Module structure of Spencer kernels: weights, irreps, character peeling.

Weights are recorded as Cartan eigenvalue vectors (Dynkin labels with
respect to the chosen simple roots).  The Cartan generators act diagonally
on the monomial basis, so a subspace is weight-graded exactly when it is
stable under them; the decomposition routines verify this instead of
assuming it, and mark the output advisory when it fails.

Irrep dimensions come from the Weyl dimension formula and inner weight
multiplicities from the Freudenthal recursion, both over exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cartan import symmetrizer
from .chevalley import LieAlgebraTable
from .kernels import KernelBasis
from .linalg import Eliminator, rref_dense, span_rank
from .sym import SymElement

WeightVector = tuple[int, ...]


def basis_weight(alg: LieAlgebraTable, index: int) -> WeightVector:
    return alg.weights[index]


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
    """Check ad-stability of the kernel span; failures list (x, s) pairs."""
    span = Eliminator(el.terms for el in kb.basis)
    violations = []
    for a in range(alg.dim):
        x = SymElement.basis_vector(alg.dim, a)
        for s_idx, s in enumerate(kb.basis):
            img = ad_action_on_sym(alg, x, s)
            if img.is_zero():
                continue
            if span.reduce(img.terms):
                violations.append([a, s_idx])
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
    rank of the basis matrix with the weight-mu monomial columns removed.
    The multiplicities sum to the kernel dimension exactly when the kernel
    is weight-graded; a shortfall flags non-submodule input.
    """
    weights_present: set[WeightVector] = set()
    mono_weight: dict[tuple[int, ...], WeightVector] = {}
    for el in kb.basis:
        for mono in el.terms:
            if mono not in mono_weight:
                mono_weight[mono] = monomial_weight(alg, mono)
            weights_present.add(mono_weight[mono])
    multiplicities: dict[WeightVector, int] = {}
    for mu in sorted(weights_present):
        r = span_rank(
            {m: v for m, v in el.terms.items() if mono_weight[m] != mu} for el in kb.basis
        )
        d = kb.dim - r
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
    """Exact inner products and Weyl moves in Dynkin-label coordinates."""

    def __init__(self, alg: LieAlgebraTable):
        self.alg = alg
        self.rank = alg.rank
        cartan = alg.datum.cartan_matrix
        self.cartan = cartan
        self.d = symmetrizer(cartan)
        # alpha_i in label coordinates is column i of the Cartan matrix.
        self.simple_labels = [
            tuple(cartan[j][i] for j in range(self.rank)) for i in range(self.rank)
        ]
        # Gram matrix of the fundamental weights: (A^-1 D) with D_i = d_i.
        n = self.rank
        red, _ = rref_dense([
            [Fraction(cartan[i][j]) for j in range(n)]
            + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)
        ])
        self.ainv = ainv = [row[n:] for row in red]
        # (omega_i, omega_j) = sum_k Ainv[k][i] * d_k * A[k][l] * Ainv[l][j]
        # reduces to Ainv[j][i] * d_j ... computed directly below.
        self.gram = [
            [
                sum(
                    ainv[k][i] * self.d[k] * cartan[k][l] * ainv[l][j]
                    for k in range(n)
                    for l in range(n)
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        self.rho = tuple(1 for _ in range(n))
        # coroot coefficient table for positive roots, for the Weyl formula.
        pos = alg.root_system.positive_roots
        self.pos_coroots = []
        for beta in pos:
            norm2 = Fraction(0)
            for i in range(n):
                for j in range(n):
                    norm2 += beta[i] * beta[j] * self.d[i] * cartan[i][j]
            co = [Fraction(beta[i]) * self.d[i] / (norm2 / 2) for i in range(n)]
            self.pos_coroots.append(tuple(co))
        # positive roots in label coordinates, for Freudenthal sums.
        self.pos_labels = [
            tuple(
                sum(beta[k] * cartan[j][k] for k in range(n)) for j in range(n)
            )
            for beta in pos
        ]
        self.pos_norm2 = [
            sum(
                beta[i] * beta[j] * self.d[i] * cartan[i][j]
                for i in range(n)
                for j in range(n)
            )
            for beta in pos
        ]

    def dot(self, lam: WeightVector, mu: WeightVector) -> Fraction:
        total = Fraction(0)
        for i in range(self.rank):
            if lam[i]:
                for j in range(self.rank):
                    if mu[j]:
                        total += lam[i] * mu[j] * self.gram[i][j]
        return total

    def dot_root(self, lam, pos_index: int) -> Fraction:
        """(lam, beta) for the pos_index-th positive root, lam in labels."""
        # (lam, beta) = sum_i lam_i (omega_i, beta); (omega_i, beta) = c_i(beta) d_i.
        beta = self.alg.root_system.positive_roots[pos_index]
        return sum(
            Fraction(lam[i]) * beta[i] * self.d[i] for i in range(self.rank)
        )

    def pairing_coroot(self, lam, pos_index: int) -> Fraction:
        """<lam, beta^vee> for lam in label coordinates."""
        co = self.pos_coroots[pos_index]
        return sum(Fraction(lam[i]) * co[i] for i in range(self.rank))

    def is_dominant(self, lam) -> bool:
        return all(x >= 0 for x in lam)

    def reflect(self, lam, i: int):
        """Simple reflection s_i in label coordinates."""
        c = lam[i]
        if c == 0:
            return tuple(lam)
        a_i = self.simple_labels[i]
        return tuple(lam[j] - c * a_i[j] for j in range(self.rank))

    def dominant_conjugate(self, lam) -> tuple:
        cur = tuple(lam)
        while True:
            i = next((j for j in range(self.rank) if cur[j] < 0), None)
            if i is None:
                return cur
            cur = self.reflect(cur, i)

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
    lat = WeightLattice(alg)
    if len(highest_weight) != alg.rank:
        raise ValueError("highest weight length must equal the rank")
    if not lat.is_dominant(highest_weight):
        raise ValueError(f"weight {highest_weight} is not dominant")
    num = Fraction(1)
    den = Fraction(1)
    lam_rho = tuple(highest_weight[i] + 1 for i in range(alg.rank))
    for r in range(len(lat.pos_coroots)):
        num *= lat.pairing_coroot(lam_rho, r)
        den *= lat.pairing_coroot(lat.rho, r)
    out = num / den
    if out.denominator != 1:
        raise RuntimeError(f"non-integer Weyl dimension for {highest_weight}: {out}")
    return int(out)


def freudenthal_multiplicities(
    alg: LieAlgebraTable, highest_weight: WeightVector
) -> dict[WeightVector, int]:
    """Multiplicities of the dominant weights of the irrep, by recursion."""
    lat = WeightLattice(alg)
    lam = tuple(highest_weight)
    if not lat.is_dominant(lam):
        raise ValueError("highest weight must be dominant")
    rank = alg.rank
    rho = lat.rho
    lam_rho = tuple(lam[i] + rho[i] for i in range(rank))
    c_top = lat.dot(lam_rho, lam_rho)

    # Enumerate dominant weights mu <= lam by walking down simple roots.
    dominant: set[WeightVector] = set()
    seen: set[WeightVector] = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            if lat.is_dominant(mu):
                dominant.add(mu)
            for labels in lat.simple_labels:
                cand = tuple(mu[i] - labels[i] for i in range(rank))
                if cand in seen:
                    continue
                dom = lat.dominant_conjugate(cand)
                cand_rho = tuple(dom[i] + rho[i] for i in range(rank))
                if lat.dot(cand_rho, cand_rho) <= c_top:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt

    def level(mu: WeightVector) -> Fraction:
        diff = tuple(lam[i] - mu[i] for i in range(rank))
        coords = [
            sum(lat.ainv[k][i] * diff[i] for i in range(rank)) for k in range(rank)
        ]
        return sum(coords, Fraction(0))

    ordered = sorted(dominant, key=lambda mu: (level(mu), mu))
    mult: dict[WeightVector, int] = {}
    for mu in ordered:
        if mu == lam:
            mult[mu] = 1
            continue
        lv = level(mu)
        if lv.denominator != 1 or lv < 0:
            continue  # not in the root-lattice cone below lam
        mu_rho = tuple(mu[i] + rho[i] for i in range(rank))
        denom = c_top - lat.dot(mu_rho, mu_rho)
        if denom == 0:
            continue
        total = Fraction(0)
        for r, beta_labels in enumerate(lat.pos_labels):
            k = 1
            while True:
                nu = tuple(mu[i] + k * beta_labels[i] for i in range(rank))
                nu_dom = lat.dominant_conjugate(nu)
                m_nu = mult.get(nu_dom, 0)
                nu_rho = tuple(nu_dom[i] + rho[i] for i in range(rank))
                if lat.dot(nu_rho, nu_rho) > c_top:
                    break
                if m_nu:
                    total += m_nu * (lat.dot_root(mu, r) + k * lat.pos_norm2[r])
                k += 1
        value = 2 * total / denom
        if value.denominator != 1:
            raise RuntimeError(f"non-integer multiplicity at {mu}: {value}")
        if value > 0:
            mult[mu] = int(value)
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
        return {
            "highest_weight": list(self.highest_weight),
            "dim": self.dim,
            "multiplicity": self.multiplicity,
        }


def decompose_character(
    alg: LieAlgebraTable, weights: dict[WeightVector, int] | list[WeightVector]
) -> list[IrrepSummand]:
    """Greedy highest-weight peeling of a Weyl-symmetric weight multiset."""
    lat = WeightLattice(alg)
    if isinstance(weights, list):
        counts: dict[WeightVector, int] = {}
        for w in weights:
            counts[tuple(w)] = counts.get(tuple(w), 0) + 1
    else:
        counts = {tuple(k): v for k, v in weights.items() if v}
    for w, m in list(counts.items()):
        for i in range(alg.rank):
            r = lat.reflect(w, i)
            if counts.get(r, 0) != m:
                raise ValueError(
                    f"weight multiset is not Weyl-symmetric at {w} vs {r}"
                )

    def height_key(w: WeightVector):
        coords = [
            sum(lat.ainv[k][i] * w[i] for i in range(alg.rank))
            for k in range(alg.rank)
        ]
        return (sum(coords, Fraction(0)), w)

    summands: list[IrrepSummand] = []
    while counts:
        top = max(counts, key=height_key)
        mult = counts[top]
        if not lat.is_dominant(top):
            raise ValueError(f"maximal weight {top} is not dominant; not a character")
        if mult < 0:
            raise ValueError(
                f"negative multiplicity {mult} at {top}; input was not a module character"
            )
        char = irrep_weight_multiset(alg, top)
        for w, m in char.items():
            new = counts.get(w, 0) - mult * m
            if new:
                counts[w] = new
            else:
                counts.pop(w, None)
        summands.append(IrrepSummand(top, weyl_dim(alg, top), mult))
    return summands
