"""Spencer extension operators as exact sparse matrices.

Two operator families are assembled over the monomial bases of Sym^k:

* the classical degree-raising derivation built from the bracket alone;
* the constraint-coupled operator, whose action on a generator v is the
  symmetrised double-bracket pairing against a dual vector, converted to an
  element of Sym^2 through the Killing-form identification of the algebra
  with its dual, and extended to higher degrees by the graded Leibniz rule
  with a left-factor-first split of each monomial.

The companion evaluator ``generator_form_equivalent`` (the double bracket
plus half commutator formula) is kept as an independent second route and is
never substituted for the primary one; agreement between the two is a test
obligation, not an assumption.  Likewise the nilpotency audit reports the
composite of consecutive operators exactly as measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .chevalley import LieAlgebraTable
from .linalg import SparseCol, span_rank
from .sym import (
    DEFAULT_BASIS_CAP,
    SymElement,
    guard_sym_dim,
    monomial_rank,
    mul_monomial,
)

DualVector = tuple[Fraction, ...]

_FRAC_POOL: dict[tuple[int, int], Fraction] = {}


def _intern(v: Fraction) -> Fraction:
    key = (v.numerator, v.denominator)
    cached = _FRAC_POOL.get(key)
    if cached is None:
        if len(_FRAC_POOL) < 1_000_000:
            _FRAC_POOL[key] = v
        return v
    return cached


def check_dual_vector(alg: LieAlgebraTable, lam: DualVector) -> DualVector:
    if len(lam) != alg.dim:
        raise ValueError(f"dual vector has length {len(lam)}, algebra dim is {alg.dim}")
    return tuple(Fraction(x) for x in lam)


def neg_dual(lam: DualVector) -> DualVector:
    return tuple(-x for x in lam)


def _lambda_ad_pairings(alg: LieAlgebraTable, lam: DualVector) -> list[list[tuple[int, Fraction]]]:
    """For each basis index m, the list of (a, <lam, [x_a, x_m]>) entries."""
    dim = alg.dim
    by_m: list[list[tuple[int, Fraction]]] = [[] for _ in range(dim)]
    for a in range(dim):
        for m, entries in alg.bracket_rows[a].items():
            val = Fraction(0)
            for c, coeff in entries:
                if lam[c]:
                    val += coeff * lam[c]
            if val:
                by_m[m].append((a, val))
    return by_m


def _double_bracket_form(
    alg: LieAlgebraTable, lam: DualVector, v: SymElement
) -> dict[tuple[int, int], Fraction]:
    """U[a, b] = <lam, [x_a, [x_b, v]]> as a sparse dictionary."""
    by_m = _lambda_ad_pairings(alg, lam)
    u: dict[tuple[int, int], Fraction] = {}
    for (g,), vg in v.terms.items():
        for b in range(alg.dim):
            inner = alg.bracket_basis(b, g)
            if not inner:
                continue
            for m, coeff in inner:
                w = vg * coeff
                for a, pair_val in by_m[m]:
                    key = (a, b)
                    newv = u.get(key, Fraction(0)) + w * pair_val
                    if newv:
                        u[key] = newv
                    else:
                        u.pop(key, None)
    return u


def generator_form(
    alg: LieAlgebraTable, lam: DualVector, v: SymElement
) -> dict[tuple[int, int], Fraction]:
    """Symmetric bilinear form (w1, w2) -> (1/2)(<lam,[w1,[w2,v]]> + <lam,[w2,[w1,v]]>)."""
    if v.degree != 1:
        raise ValueError(f"generator action needs a degree-1 element, got degree {v.degree}")
    u = _double_bracket_form(alg, lam, v)
    b: dict[tuple[int, int], Fraction] = {}
    half = Fraction(1, 2)
    for (i, j), val in u.items():
        for key in ((i, j), (j, i)):
            newv = b.get(key, Fraction(0)) + half * val
            if newv:
                b[key] = newv
            else:
                b.pop(key, None)
    return b


def generator_form_equivalent(
    alg: LieAlgebraTable, lam: DualVector, v: SymElement
) -> dict[tuple[int, int], Fraction]:
    """Second evaluator: (w1, w2) -> <lam,[w2,[w1,v]]> + (1/2)<lam,[[w1,w2],v]>."""
    if v.degree != 1:
        raise ValueError(f"generator action needs a degree-1 element, got degree {v.degree}")
    u = _double_bracket_form(alg, lam, v)
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), val in u.items():
        key = (j, i)
        newv = out.get(key, Fraction(0)) + val
        if newv:
            out[key] = newv
        else:
            out.pop(key, None)
    # <lam, [x_m, v]> for every m, for the commutator half-term.
    pair_with_v: dict[int, Fraction] = {}
    for (g,), vg in v.terms.items():
        for m in range(alg.dim):
            ent = alg.bracket_basis(m, g)
            if not ent:
                continue
            val = Fraction(0)
            for c, coeff in ent:
                if lam[c]:
                    val += coeff * lam[c]
            if val:
                newv = pair_with_v.get(m, Fraction(0)) + vg * val
                if newv:
                    pair_with_v[m] = newv
                else:
                    pair_with_v.pop(m, None)
    half = Fraction(1, 2)
    for a in range(alg.dim):
        for b_idx, entries in alg.bracket_rows[a].items():
            val = Fraction(0)
            for m, coeff in entries:
                pm = pair_with_v.get(m)
                if pm:
                    val += coeff * pm
            if val:
                key = (a, b_idx)
                newv = out.get(key, Fraction(0)) + half * val
                if newv:
                    out[key] = newv
                else:
                    out.pop(key, None)
    return out


def _kinv_sparse_columns(alg: LieAlgebraTable) -> list[list[tuple[int, Fraction]]]:
    cols: list[list[tuple[int, Fraction]]] = []
    kinv = alg.killing_inverse
    for c in range(alg.dim):
        col = [(r, kinv[r][c]) for r in range(alg.dim) if kinv[r][c]]
        cols.append(col)
    return cols


def form_to_sym2(
    alg: LieAlgebraTable, form: dict[tuple[int, int], Fraction]
) -> SymElement:
    """Raise both slots of a bilinear form with the inverse Killing form."""
    kinv_cols = _kinv_sparse_columns(alg)
    out = SymElement.zero(2, alg.dim)
    for (c, d), val in form.items():
        for a, va in kinv_cols[c]:
            for b, vb in kinv_cols[d]:
                mono = (a, b) if a <= b else (b, a)
                out.add_term(mono, va * val * vb)
    return out


def delta_on_generator(alg: LieAlgebraTable, lam: DualVector, v: SymElement) -> SymElement:
    """Generator action of the constraint-coupled operator, landed in Sym^2."""
    lam = check_dual_vector(alg, lam)
    return form_to_sym2(alg, generator_form(alg, lam, v))


def delta_equivalent(alg: LieAlgebraTable, lam: DualVector, v: SymElement) -> SymElement:
    """Generator action via the independent second formula."""
    lam = check_dual_vector(alg, lam)
    return form_to_sym2(alg, generator_form_equivalent(alg, lam, v))


def generator_images(
    alg: LieAlgebraTable, lam: DualVector, formula: str = "symmetrized"
) -> list[SymElement]:
    """delta applied to every basis generator."""
    lam = check_dual_vector(alg, lam)
    if formula == "symmetrized":
        builder = generator_form
    elif formula == "equivalent":
        builder = generator_form_equivalent
    else:
        raise ValueError(f"unknown generator formula {formula!r}")
    out = []
    for a in range(alg.dim):
        v = SymElement.basis_vector(alg.dim, a)
        out.append(form_to_sym2(alg, builder(alg, lam, v)))
    return out


def _delta_monomial(
    mono: tuple[int, ...],
    dim: int,
    images: list[SymElement],
    memo: dict[tuple[int, ...], SymElement],
) -> SymElement:
    """Left-factor-first Leibniz recursion on a sorted monomial."""
    cached = memo.get(mono)
    if cached is not None:
        return cached
    if len(mono) == 1:
        out = images[mono[0]]
    else:
        head, rest = mono[0], mono[1:]
        d_rest = _delta_monomial(rest, dim, images, memo)
        out = mul_monomial(images[head], rest, Fraction(1)).add(
            mul_monomial(d_rest, (head,), Fraction(-1))
        )
    memo[mono] = out
    return out


def apply_delta(
    alg: LieAlgebraTable,
    lam: DualVector,
    s: SymElement,
    images: list[SymElement] | None = None,
) -> SymElement:
    """Constraint-coupled operator applied to one element (no full matrix)."""
    lam = check_dual_vector(alg, lam)
    if images is None:
        images = generator_images(alg, lam)
    memo: dict[tuple[int, ...], SymElement] = {}
    out = SymElement.zero(s.degree + 1, alg.dim)
    for mono, coeff in s.terms.items():
        out = out.add(_delta_monomial(mono, alg.dim, images, memo).scale(coeff))
    return out


@dataclass
class SpencerMatrix:
    """Sparse exact matrix of a Spencer operator between monomial bases."""

    variant: str  # classical | constrained | equivalent-form
    lam: DualVector | None
    k_from: int
    k_to: int
    algebra_label: str
    dim: int
    nrows: int
    ncols: int
    cols: list[SparseCol] = field(repr=False)

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols)

    def is_zero(self) -> bool:
        return all(not c for c in self.cols)

    def max_abs_entry(self) -> Fraction:
        best = Fraction(0)
        for col in self.cols:
            for _, v in col:
                if abs(v) > best:
                    best = abs(v)
        return best

    def add(self, other: "SpencerMatrix") -> "SpencerMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shape mismatch")
        cols: list[SparseCol] = []
        for a, b in zip(self.cols, other.cols):
            acc: dict[int, Fraction] = dict(a)
            for r, v in b:
                newv = acc.get(r, Fraction(0)) + v
                if newv:
                    acc[r] = newv
                else:
                    acc.pop(r, None)
            cols.append(sorted(acc.items()))
        return SpencerMatrix(
            "sum", self.lam, self.k_from, self.k_to, self.algebra_label,
            self.dim, self.nrows, self.ncols, cols,
        )

    def compose(self, inner: "SpencerMatrix") -> "SpencerMatrix":
        """self o inner, requiring inner.k_to == self.k_from."""
        if inner.nrows != self.ncols:
            raise ValueError("composition shape mismatch")
        cols: list[SparseCol] = []
        for col in inner.cols:
            acc: dict[int, Fraction] = {}
            for mid, v in col:
                for r, w in self.cols[mid]:
                    newv = acc.get(r, Fraction(0)) + v * w
                    if newv:
                        acc[r] = newv
                    else:
                        acc.pop(r, None)
            cols.append(sorted(acc.items()))
        return SpencerMatrix(
            "composite", self.lam, inner.k_from, self.k_to, self.algebra_label,
            self.dim, self.nrows, inner.ncols, cols,
        )

    def to_matrix_market(self) -> str:
        lines = [
            "%%MatrixMarket matrix coordinate rational general",
            f"% spencer operator {self.variant} k={self.k_from}->{self.k_to} "
            f"algebra={self.algebra_label}",
            f"{self.nrows} {self.ncols} {self.nnz()}",
        ]
        for j, col in enumerate(self.cols):
            for r, v in col:
                lines.append(f"{r + 1} {j + 1} {v.numerator}/{v.denominator}")
        return "\n".join(lines) + "\n"


def _element_to_col(s: SymElement, n: int, k: int) -> SparseCol:
    return sorted((monomial_rank(n, mono), _intern(v)) for mono, v in s.terms.items())


def delta_constrained(
    alg: LieAlgebraTable,
    lam: DualVector,
    k: int,
    cap: int = DEFAULT_BASIS_CAP,
    formula: str = "symmetrized",
) -> SpencerMatrix:
    """Matrix of the constraint-coupled operator on Sym^k."""
    if k < 1:
        raise ValueError("degree k must be >= 1")
    lam = check_dual_vector(alg, lam)
    n = alg.dim
    ncols = guard_sym_dim(n, k, cap)
    nrows = guard_sym_dim(n, k + 1, cap)
    images = generator_images(alg, lam, formula=formula)
    memo: dict[tuple[int, ...], SymElement] = {}
    cols: list[SparseCol] = []
    from itertools import combinations_with_replacement

    for mono in combinations_with_replacement(range(n), k):
        img = _delta_monomial(mono, n, images, memo)
        cols.append(_element_to_col(img, n, k + 1))
        if k >= 3:
            memo.clear()  # bound the suffix cache at higher degrees
    variant = "constrained" if formula == "symmetrized" else "equivalent-form"
    return SpencerMatrix(variant, lam, k, k + 1, alg.label, n, nrows, ncols, cols)


def delta_classical(
    alg: LieAlgebraTable, k: int, cap: int = DEFAULT_BASIS_CAP
) -> SpencerMatrix:
    """Matrix of the classical Spencer extension operator on Sym^k."""
    if k < 1:
        raise ValueError("degree k must be >= 1")
    n = alg.dim
    ncols = guard_sym_dim(n, k, cap)
    nrows = guard_sym_dim(n, k + 1, cap)
    cols: list[SparseCol] = []
    from itertools import combinations_with_replacement

    for mono in combinations_with_replacement(range(n), k):
        img = classical_image(alg, SymElement.monomial(n, mono))
        cols.append(_element_to_col(img, n, k + 1))
    return SpencerMatrix("classical", None, k, k + 1, alg.label, n, nrows, ncols, cols)


def classical_image(alg: LieAlgebraTable, s: SymElement) -> SymElement:
    """Classical operator applied directly to one element."""
    out = SymElement.zero(s.degree + 1, alg.dim)
    for mono, coeff in s.terms.items():
        for j in range(len(mono)):
            rest = mono[:j] + mono[j + 1 :]
            for i in range(alg.dim):
                ent = alg.bracket_basis(i, mono[j])
                for c, bcoeff in ent:
                    out.add_term(tuple(sorted(rest + (i, c))), coeff * bcoeff)
    return out


def verify_mirror(
    alg: LieAlgebraTable, lam: DualVector, k: int, cap: int = DEFAULT_BASIS_CAP
) -> dict:
    """Check delta(-lam) + delta(lam) = 0 exactly; returns a verdict report."""
    lam = check_dual_vector(alg, lam)
    plus = delta_constrained(alg, lam, k, cap)
    minus = delta_constrained(alg, neg_dual(lam), k, cap)
    total = plus.add(minus)
    max_entry = total.max_abs_entry()
    return {
        "algebra": alg.label,
        "k": k,
        "holds": total.is_zero(),
        "max_abs_entry": f"{max_entry.numerator}/{max_entry.denominator}",
        "shape": [plus.nrows, plus.ncols],
    }


def generator_formula_agreement(alg: LieAlgebraTable, lam: DualVector) -> dict:
    """Cross-check the two generator evaluators on every basis generator.

    Agreement is a consequence of the Jacobi identity; it is measured and
    reported rather than assumed, and any discrepancy names the generator.
    """
    lam = check_dual_vector(alg, lam)
    disagreements = []
    for a in range(alg.dim):
        v = SymElement.basis_vector(alg.dim, a)
        if generator_form(alg, lam, v) != generator_form_equivalent(alg, lam, v):
            disagreements.append(a)
    return {
        "algebra": alg.label,
        "agree": not disagreements,
        "disagreeing_generators": disagreements[:20],
    }


def nilpotency_audit(
    alg: LieAlgebraTable, lam: DualVector, k: int, cap: int = DEFAULT_BASIS_CAP
) -> dict:
    """Exact summary of delta^{k+1} o delta^k; reported, never assumed zero."""
    lam = check_dual_vector(alg, lam)
    lower = delta_constrained(alg, lam, k, cap)
    upper = delta_constrained(alg, lam, k + 1, cap)
    composite = upper.compose(lower)
    max_entry = composite.max_abs_entry()
    rank = span_rank(composite.cols)
    return {
        "algebra": alg.label,
        "k": k,
        "composite_shape": [composite.nrows, composite.ncols],
        "composite_is_zero": composite.is_zero(),
        "composite_rank": rank,
        "max_abs_entry": f"{max_entry.numerator}/{max_entry.denominator}",
        "nnz": composite.nnz(),
    }
