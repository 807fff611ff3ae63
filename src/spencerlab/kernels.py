"""Exact nullspaces of Spencer matrices and the dimension-tension verdict.

The tension report pins a kernel dimension between two bounds: a
representation-theoretic lower bound (a nonzero module contains at least one
irreducible summand, so its dimension is at least the minimal nontrivial
irrep dimension of the group) and a geometric upper bound supplied by the
caller as a Hodge number.  When the two bounds coincide the dimension is
forced; when the lower bound exceeds the upper one, the hypotheses can only
be saved by a zero kernel.  The upper bound is an input parameter here, not
something computed from the algebra, and the report says so.

A kernel is kept in one form, ``KernelBasis.coords``: the free-variable
basis from ``linalg``, over columns in lexicographic monomial order, each
vector K_f primitive in integers with a coefficient c_f > 0 at its largest
column, its free monomial f.  The free columns increase along the list and
no vector touches another's f; the K_f / c_f are the reduced echelon form
of the span, so two kernels are equal exactly when their ``coords`` lists
are.  And x lies in the span K exactly when x = sum_f (x[f] / c_f) * K_f,
since the difference vanishes on every f and the only such vector is 0;
``outside_span`` tests many vectors this way at once, in integers, as the
nonzero columns of one ``linalg.product``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .cartan import CartanDatum, CartanError
from .chevalley import LieAlgebraTable
from .linalg import (
    CertificationError,
    RankCertificate,
    RankDisagreement,
    csc,
    kernel_with_certificate,
    product,
    value_dtype,
)
from .operators import DualVector, SpencerMatrix, delta_constrained, neg_dual
from .sym import DEFAULT_BASIS_CAP, SymElement, enumerate_basis


@dataclass
class KernelBasis:
    degree: int
    algebra_label: str
    dim: int  # kernel dimension
    coords: list[dict[int, int]] = field(repr=False)  # free-variable form, by column
    monomials: list[tuple[int, ...]] = field(repr=False)  # the columns, enumerate_basis order
    algebra_dim: int

    @property
    def free_coefficients(self) -> list[int]:
        """Each vector's coefficient at its free monomial, its largest column."""
        return [vec[max(vec)] for vec in self.coords]

    @property
    def basis(self) -> list[SymElement]:
        """The K_f / c_f (module docs) as Sym^k elements, for the report; built on each read."""
        mons = self.monomials
        return [SymElement(self.degree, self.algebra_dim,
                           {mons[j]: Fraction(v, d) for j, v in vec.items()})
                for vec, d in zip(self.coords, self.free_coefficients)]


def kernel(mat: SpencerMatrix) -> tuple[KernelBasis, RankCertificate]:
    """Exact nullspace of a Spencer matrix with its rank certificate."""
    vectors, cert = kernel_with_certificate(mat.cols, mat.nrows, mat.ncols, mat.denominator)
    kb = KernelBasis(degree=mat.k_from, algebra_label=mat.algebra_label, dim=len(vectors),
                     coords=vectors, monomials=enumerate_basis(mat.dim, mat.k_from),
                     algebra_dim=mat.dim)
    if cert.rank + kb.dim != mat.ncols:
        raise RankDisagreement(
            f"rank {cert.rank} plus kernel dimension {kb.dim} is not the "
            f"column count {mat.ncols}"
        )
    return kb, cert


def free_monomials(kb: KernelBasis) -> dict[tuple[int, ...], int]:
    """The free monomial of each kernel vector, mapped to the vector's index.

    Raises ``CertificationError`` unless ``coords`` is in free-variable form
    (module docs); as the free columns increase, one O(nnz) pass checks it.
    """
    free, mons, last = {}, kb.monomials, -1
    for i, vec in enumerate(kb.coords):
        f = max(vec, default=last)
        if f <= last:
            raise CertificationError(f"kernel vector {i} is zero or out of free-monomial order")
        if vec[f] <= 0 or gcd(*vec.values()) != 1:
            raise CertificationError(
                f"kernel vector {i} has coefficient {vec[f]} at its free monomial {mons[f]}"
                "; the form needs a primitive vector, positive there"
            )
        for mono in map(mons.__getitem__, vec):
            if mono in free:
                raise CertificationError(
                    f"kernel vector {i} touches the free monomial {mono} of vector {free[mono]}"
                )
        free[mons[f]], last = i, f
    return free


def outside_span(kb: KernelBasis):
    """The span test of the free-variable form, as a function of a matrix.

    The returned function takes a ``linalg.CSC`` y whose rows are kb's
    monomials and returns the indices, ascending, of the columns of y that
    lie outside the span.  With D the lcm of the free coefficients c_f, a
    column x lies in the span exactly when D x[j] = sum_f x[f] (D / c_f)
    K_f[j] at every pivot column j (module docs): exactly when Z x = 0 for
    the matrix Z that holds D at each pivot monomial and -(D / c_f) times
    the pivot part of K_f at each free monomial f.  So the columns outside
    are the nonzero columns of ``linalg.product(Z, y)``.  Raises
    ``CertificationError`` unless kb is in free-variable form, before any
    column is read.
    """
    import numpy as np

    free_monomials(kb)
    free_cols = [max(vec) for vec in kb.coords]
    scale = lcm(*kb.free_coefficients)
    free = np.zeros(len(kb.monomials), np.int64)
    free[free_cols] = 1
    pivots = np.flatnonzero(free == 0)
    parts = [(f, j, -v * (scale // vec[f])) for vec, f in zip(kb.coords, free_cols)
             for j, v in vec.items() if j != f]
    values = [scale] * len(pivots) + [v for *_, v in parts]
    col, row = np.array([(f, j) for f, j, _ in parts], np.int64).reshape(-1, 2).T
    z = csc(len(free), [(np.concatenate((pivots, col)), np.concatenate((pivots, row)),
                         np.array(values, value_dtype(max(map(abs, values), default=0))))])
    return lambda y: np.flatnonzero(np.diff(product(z, y).indptr))


def kernel_of_constrained(
    alg: LieAlgebraTable, lam: DualVector, k: int, cap: int = DEFAULT_BASIS_CAP
) -> tuple[KernelBasis, RankCertificate]:
    return kernel(delta_constrained(alg, lam, k, cap))


def mirror_stability_check(
    alg: LieAlgebraTable, lam: DualVector, k: int, cap: int = DEFAULT_BASIS_CAP
) -> dict:
    """Verdict on ker delta(lam) = ker delta(-lam) as exact subspaces (module docs)."""
    kb_plus, _ = kernel_of_constrained(alg, lam, k, cap)
    kb_minus, _ = kernel_of_constrained(alg, neg_dual(lam), k, cap)
    free_monomials(kb_plus)
    free_monomials(kb_minus)
    return {
        "algebra": alg.label,
        "k": k,
        "dim_plus": kb_plus.dim,
        "dim_minus": kb_minus.dim,
        "kernels_equal": kb_plus.coords == kb_minus.coords,
    }


# Minimal nontrivial irrep dimensions.  The exceptional G2/F4/E7/E8 values
# are the core table; E6 and the classical families are standard extensions
# kept for testing and flagged as such in reports.
_MIN_IRREP_CORE = {("G", 2): 7, ("F", 4): 26, ("E", 7): 56, ("E", 8): 248}
_MIN_IRREP_EXT = {("E", 6): 27}


def min_irrep_dim(family: str, rank: int) -> int:
    dim, _ = min_irrep_entry(family, rank)
    return dim


def min_irrep_entry(family: str, rank: int) -> tuple[int, str]:
    """(dimension, provenance) where provenance is 'core' or 'extension'."""
    key = (family, rank)
    if key in _MIN_IRREP_CORE:
        return _MIN_IRREP_CORE[key], "core"
    if key in _MIN_IRREP_EXT:
        return _MIN_IRREP_EXT[key], "extension"
    if family == "A" and rank >= 1:
        return rank + 1, "extension"
    if family == "B" and rank >= 2:
        # B2 has the 4-dimensional spin representation below the vector one.
        return 4 if rank == 2 else 2 * rank + 1, "extension"
    if family == "C" and rank >= 3:
        return 2 * rank, "extension"
    if family == "D" and rank >= 4:
        return 2 * rank, "extension"
    raise CartanError(f"no minimal-irrep table entry for {family}{rank}")


@dataclass
class TensionReport:
    algebra: str
    h11: int
    min_irrep_dim: int
    min_irrep_source: str
    lower_bound: int
    upper_bound: int
    verdict: str  # forced_match | infeasible | unconstrained
    forced_dim: int | None
    kernel_dim_measured: int | None
    measurement_consistent: bool | None
    notes: list[str]

    def as_dict(self) -> dict:
        return asdict(self)


def tension_report(
    algebra_label: str, h11: int, kernel_dim: int | None = None
) -> TensionReport:
    """Bound comparison between the minimal-irrep dimension and h11.

    The lower bound applies only under the hypothesis that the kernel is a
    nonzero module; the zero-kernel escape hatch is stated in the notes
    rather than hidden.  The report names the algebra by its canonical
    label, e.g. E7 for " e7".
    """
    if h11 < 0:
        raise ValueError("h11 must be nonnegative")
    datum = CartanDatum.from_label(algebra_label)
    mdim, source = min_irrep_entry(datum.family, datum.rank)
    lower, upper = mdim, h11
    if lower == upper:
        verdict, forced = "forced_match", lower
    elif lower > upper:
        verdict, forced = "infeasible", None
    else:
        verdict, forced = "unconstrained", None
    notes = [
        "lower bound assumes the kernel is a nonzero module; a zero kernel "
        "evades it",
        "upper bound h11 is a user-supplied Hodge number, not computed from "
        "the algebra",
    ]
    consistent: bool | None = None
    if kernel_dim is not None:
        if verdict == "forced_match":
            consistent = kernel_dim == forced or kernel_dim == 0
        elif verdict == "infeasible":
            consistent = kernel_dim == 0
        else:
            consistent = kernel_dim == 0 or lower <= kernel_dim <= upper
        if not consistent:
            notes.append(
                f"measured kernel dimension {kernel_dim} is outside the verdict "
                "bounds; either the module hypothesis or the h11 input fails "
                "for this configuration"
            )
    return TensionReport(
        algebra=datum.label,
        h11=h11,
        min_irrep_dim=mdim,
        min_irrep_source=source,
        lower_bound=lower,
        upper_bound=upper,
        verdict=verdict,
        forced_dim=forced,
        kernel_dim_measured=kernel_dim,
        measurement_consistent=consistent,
        notes=notes,
    )
