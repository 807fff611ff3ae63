"""Discrete Spencer complex over a cubical flat torus.

The base complex is T^d with N subdivisions per axis; k-cells are pairs
(position, sorted axis subset).  Cochains valued in Sym^q(g) carry a
bidegree (p, q); the coupled differential is exposed as its two components
(d alpha (x) s, +/- alpha (x) delta(s)) of bidegrees (p+1, q) and (p, q+1).
On cochains whose algebra part lies in the degenerate kernel the second
component vanishes identically and the complex collapses to forms tensored
with the kernel, whose cohomology is computed honestly (certified ranks of
the sparse Kronecker operators d (x) I) and compared against the product
prediction b_k * dim(kernel).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations, product

from .chevalley import LieAlgebraTable
from .kernels import KernelBasis, free_monomials, kernel_of_constrained
from .linalg import (
    CSC,
    CertificationError,
    Eliminator,
    csc,
    kernel_with_certificate,
    verify_kernel_vectors,
)
from .operators import DualVector, GeneratorImages, apply_delta, generator_images
from .sym import DEFAULT_BASIS_CAP, ResourceCapExceeded, SymElement, checked_power


Cell = tuple[tuple[int, ...], tuple[int, ...]]  # (position, axes)


@dataclass
class CellComplex:
    dimension: int
    subdivisions: int
    cells: dict[int, list[Cell]] = field(repr=False)
    index: dict[int, dict[Cell, int]] = field(repr=False)

    @classmethod
    def torus(cls, d: int, n: int, cap: int = DEFAULT_BASIS_CAP) -> "CellComplex":
        """T^d with n subdivisions per axis; its (2n)^d cells are checked
        against cap before any is built."""
        if d < 1 or n < 1:
            raise ValueError("torus needs dimension >= 1 and subdivisions >= 1")
        size = checked_power(2 * n, d, cap)
        if size is None or size > cap:
            shown = f"more than {cap}" if size is None else str(size)
            raise ResourceCapExceeded(
                f"a d={d}, n={n} torus has {shown} cells ((2n)^d), exceeding the cap of {cap}"
            )
        cells: dict[int, list[Cell]] = {}
        index: dict[int, dict[Cell, int]] = {}
        positions = sorted(product(range(n), repeat=d))
        for k in range(d + 1):
            lst: list[Cell] = []
            for pos in positions:
                for axes in combinations(range(d), k):
                    lst.append((pos, axes))
            cells[k] = lst
            index[k] = {c: i for i, c in enumerate(lst)}
        return cls(d, n, cells, index)

    def n_cells(self, k: int) -> int:
        return len(self.cells.get(k, []))

    def shift(self, pos: tuple[int, ...], axis: int) -> tuple[int, ...]:
        out = list(pos)
        out[axis] = (out[axis] + 1) % self.subdivisions
        return tuple(out)

    def coboundary_columns(self, k: int) -> CSC:
        """Sparse columns of d_k, one per k-cell; all empty for k >= dimension."""
        import numpy as np

        entries = []  # (row, column, sign)
        idx_k = self.index.get(k)
        for row, (pos, axes) in enumerate(self.cells.get(k + 1, [])):
            for j, axis in enumerate(axes):
                rest, sign = axes[:j] + axes[j + 1 :], -1 if j % 2 else 1
                entries += [(row, idx_k[(self.shift(pos, axis), rest)], sign),
                            (row, idx_k[(pos, rest)], -sign)]
        row, col, sign = np.array(entries, np.int64).reshape(-1, 3).T
        return csc(self.n_cells(k), [(col, row, sign)])

    def betti_numbers(self) -> list[int]:
        """de Rham Betti numbers over the rationals, by certified ranks."""
        return _cohomology_dims(self, 1)


def _cohomology_dims(complex_: CellComplex, kappa: int) -> list[int]:
    """dim H^p of the forms tensored with Q^kappa, for each p.

    Each rank is the certified rank of d_p (x) I_kappa itself, not kappa *
    rank d_p, so the product identity stays a real check."""
    import numpy as np

    ranks = [0]  # ranks[p] is the rank of d_{p-1} (x) I_kappa; d_{-1} and d_d are zero
    s = np.arange(kappa)
    for p in range(complex_.dimension):
        # column j*kappa + s of d_p (x) I_kappa is column j of d_p on coordinate s
        col, row, value = complex_.coboundary_columns(p).entries()
        ncols = complex_.n_cells(p) * kappa
        cols = csc(ncols, [((col[:, None] * kappa + s).ravel(), (row[:, None] * kappa + s).ravel(),
                            np.repeat(value, kappa))])
        _, cert = kernel_with_certificate(cols, complex_.n_cells(p + 1) * kappa, ncols)
        ranks.append(cert.rank)
    ranks.append(0)
    return [complex_.n_cells(p) * kappa - ranks[p + 1] - ranks[p] for p in range(len(ranks) - 1)]


@dataclass
class SpencerCochain:
    """(p, q) cochain: p-cells carrying degree-q algebra elements."""

    p: int
    q: int
    dim: int  # algebra dimension
    values: dict[int, SymElement] = field(default_factory=dict)

    def __post_init__(self):
        for cell, el in list(self.values.items()):
            if el.degree != self.q or el.dim != self.dim:
                raise ValueError(f"cell {cell} carries an element of wrong type")
            if el.is_zero():
                del self.values[cell]

    def is_zero(self) -> bool:
        return not self.values


def coboundary(complex_: CellComplex, c: SpencerCochain) -> SpencerCochain:
    """Cubical coboundary applied cell-wise; the algebra part is untouched."""
    d = complex_.coboundary_columns(c.p)
    out: dict[int, SymElement] = {}
    for col, el in c.values.items():
        rows, signs = d[col]
        for row, sign in zip(rows.tolist(), signs.tolist()):
            contrib = el.scale(sign)
            out[row] = out[row].add(contrib) if row in out else contrib
    return SpencerCochain(c.p + 1, c.q, c.dim, {k: v for k, v in out.items() if not v.is_zero()})


def spencer_differential(
    complex_: CellComplex,
    alg: LieAlgebraTable,
    lam: DualVector,
    c: SpencerCochain,
    images: GeneratorImages | None = None,
) -> tuple[SpencerCochain, SpencerCochain]:
    """Both components of the coupled differential on a (p, q) cochain.

    Returns (d alpha (x) s, (-1)^p alpha (x) delta(s)) with bidegrees
    (p+1, q) and (p, q+1).
    """
    first = coboundary(complex_, c)
    if images is None:
        images = generator_images(alg, lam)
    sign = -1 if c.p % 2 else 1
    second_vals: dict[int, SymElement] = {}
    for cell, el in c.values.items():
        img = apply_delta(alg, lam, el, images).scale(sign)
        if not img.is_zero():
            second_vals[cell] = img
    second = SpencerCochain(c.p, c.q + 1, c.dim, second_vals)
    return first, second


@dataclass
class CohomologyReport:
    torus_dimension: int
    subdivisions: int
    algebra: str
    degree: int
    kernel_dim: int
    betti: list[int]
    degenerate_dims: list[int]
    euler_characteristic: int
    product_identity_holds: bool

    def as_dict(self) -> dict:
        return asdict(self)


def degenerate_cohomology(
    alg: LieAlgebraTable,
    lam: DualVector,
    k: int,
    complex_: CellComplex,
    kb: KernelBasis | None = None,
    cap: int = DEFAULT_BASIS_CAP,
) -> CohomologyReport:
    """Cohomology of forms valued in the degenerate kernel, checked exactly.

    The per-degree dimensions are computed from certified ranks of the
    actual Kronecker operators d_p (x) I_kappa and then checked equal to
    b_p * dim(kernel); a mismatch raises ``CertificationError``, since the
    identity is forced for a product complex.
    """
    if kb is None:
        kb, _ = kernel_of_constrained(alg, lam, k, cap)
    kappa = kb.dim
    d = complex_.dimension
    betti = complex_.betti_numbers()
    dims = _cohomology_dims(complex_, kappa)
    holds = all(dims[p] == betti[p] * kappa for p in range(d + 1))
    if not holds:
        raise CertificationError(
            f"degenerate cohomology dims {dims} differ from product prediction "
            f"{[b * kappa for b in betti]}"
        )
    return CohomologyReport(
        torus_dimension=d,
        subdivisions=complex_.subdivisions,
        algebra=alg.label,
        degree=k,
        kernel_dim=kappa,
        betti=betti,
        degenerate_dims=dims,
        euler_characteristic=euler_characteristic(dims),
        product_identity_holds=holds,
    )


class DeRhamClasses:
    """Exact cohomology classes of the form complex at a fixed degree."""

    def __init__(self, complex_: CellComplex, p: int):
        self.complex = complex_
        self.p = p
        self.columns = complex_.coboundary_columns(p)
        nrows, ncols = complex_.n_cells(p + 1), complex_.n_cells(p)
        self.cocycles, _ = kernel_with_certificate(self.columns, nrows, ncols)
        self.solver = Eliminator(track=True)
        if p >= 1:
            for j, (rows, values) in enumerate(complex_.coboundary_columns(p - 1)):
                self.solver.insert(zip(rows.tolist(), values.tolist()), ("boundary", j))
        # Representatives of a basis of H^p: cocycles independent mod boundaries.
        self.class_reps: list[dict[int, int]] = []
        for vec in self.cocycles:
            if self.solver.insert(vec, ("class", len(self.class_reps))) is None:
                self.class_reps.append(vec)

    @property
    def betti(self) -> int:
        return len(self.class_reps)

    def is_cocycle(self, vec: dict[int, Fraction]) -> bool:
        return verify_kernel_vectors(self.columns, [vec])

    def class_coordinates(self, vec: dict[int, Fraction]) -> list[Fraction]:
        """Coordinates of [vec] in the chosen H^p basis; vec must be closed."""
        if not self.is_cocycle(vec):
            raise ValueError("representative is not closed")
        combo = self.solver.solve(vec)
        if combo is None:
            raise RuntimeError("closed form failed to reduce to the class basis")
        coords = [Fraction(0)] * len(self.class_reps)
        for (kind, idx), value in combo.items():
            if kind == "class":
                coords[idx] = value
        return coords


def phi_deg(
    complex_: CellComplex,
    kb: KernelBasis,
    c: SpencerCochain,
) -> tuple[dict[int, Fraction], list[Fraction]]:
    """Project a closed kernel-valued cochain to its de Rham class.

    The value on a pure tensor alpha (x) s is [alpha]; linear combinations
    are contracted by summing the coordinates, a value's entries on the free
    monomials (``kernels`` module docs).  Returns (representative cochain,
    class coordinates).  Non-closed input and values outside the span fail.
    """
    free, mons, leads = free_monomials(kb), kb.monomials, kb.free_coefficients
    form: dict[int, Fraction] = {}
    for cell, el in c.values.items():
        coords = {i: el.terms[f] for f, i in free.items() if f in el.terms}
        span_part: dict[tuple[int, ...], Fraction] = {}
        for i, x_f in coords.items():
            for j, v in kb.coords[i].items():
                span_part[mons[j]] = span_part.get(mons[j], 0) + Fraction(x_f * v, leads[i])
        if {m: v for m, v in span_part.items() if v} != el.terms:
            raise ValueError(f"cell {cell} carries a value outside the kernel span")
        total = sum(coords.values(), Fraction(0))
        if total:
            form[cell] = total
    classes = DeRhamClasses(complex_, c.p)
    if not classes.is_cocycle(form):
        raise ValueError("cochain is not closed in the degenerate complex")
    return form, classes.class_coordinates(form)


def euler_characteristic(dims: list[int]) -> int:
    """Alternating sum of per-degree dimensions."""
    return sum((-1) ** k * d for k, d in enumerate(dims))
