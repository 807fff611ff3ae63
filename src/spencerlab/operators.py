"""Spencer extension operators as exact sparse matrices.

Two operator families are assembled over the monomial bases of Sym^k:

* the classical degree-raising derivation built from the bracket alone;
* the constraint-coupled operator, whose action on a generator v is the
  symmetrised double-bracket pairing against a dual vector, converted to an
  element of Sym^2 through the Killing-form identification of the algebra
  with its dual, and extended to higher degrees by the graded Leibniz rule
  with a left-factor-first split of each monomial.

The companion evaluator ``_form(..., "equivalent")`` (the double bracket
plus half commutator formula) is kept as an independent second route and is
never substituted for the primary one; agreement between the two is measured
by ``generator_formula_agreement``, not assumed.  Likewise the nilpotency
audit reports the composite of consecutive operators exactly as measured;
its rank is the certified rank of ``linalg.kernel_with_certificate``.

Assembly runs in integers.  K^{-1} comes from the Killing form's blocks:
adj(C) / det C on the Cartan block C, and 1 / K(e_r, f_r) between e_r and
f_r.  With lam = lam_num / d_lam and K^{-1} = K_num / d_K over the lcms of
their denominators, either generator form is an integer form over 2 * d_lam,
so every generator image is an integer Sym^2 table over one common scale, a
divisor of 2 * d_lam * d_K^2 (``GeneratorImages``).

Unrolled, the left-first rule delta(x_h r) = delta(x_h) r - delta(r) x_h is
a closed form on a sorted monomial:

    delta(x_{i_0} ... x_{i_{k-1}}) = sum_j (-1)^j delta(x_{i_j}) prod_{l != j} x_{i_l}.

The classical operator is the same sum with every sign +1 and the images
sum_i x_i [x_i, x_g].  One expander, ``_leibniz``, computes every such sum
in integers, rows indexed by ``sym.rank_weights`` with no sort and values
int64 or Python ints from one bound: both matrices with weight 1 per
column, ``apply_delta`` with one element's scaled coefficients as one
owner, and ``ad_images`` with the adjoint action and integer vectors as
owners.  A matrix keeps its integer entries as one ``linalg.CSC``, as sums
and composites (``linalg.product``) do, plus one positive denominator: the
scale with the gcd of it and every entry divided out.  Fractions and (row,
value) tuples appear only at the boundaries: single-element evaluation,
``fraction_columns``, reports and Matrix Market.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from math import gcd, lcm
from operator import itemgetter

from .cartan import adjugate
from .chevalley import LieAlgebraTable
from .linalg import (
    _CHUNK_TERMS,
    CSC,
    _column_chunks,
    _runs,
    csc,
    kernel_with_certificate,
    product,
    value_dtype,
)
from .sym import DEFAULT_BASIS_CAP, SymElement, guard_sym_dim, monomial_at, rank_weights

DualVector = tuple[Fraction, ...]
IntTerms = dict[tuple[int, ...], int]


def check_dual_vector(alg: LieAlgebraTable, lam: DualVector) -> DualVector:
    if len(lam) != alg.dim:
        raise ValueError(f"dual vector has length {len(lam)}, algebra dim is {alg.dim}")
    return tuple(Fraction(x) for x in lam)


def neg_dual(lam: DualVector) -> DualVector:
    return tuple(-x for x in lam)


def _scaled(values) -> tuple[list[int], int]:
    """(d * x for x in values) as integers, with d the lcm of their denominators."""
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _lambda_ad_pairings(alg: LieAlgebraTable, lam_num: list[int]) -> list[list[tuple[int, int]]]:
    """For each basis index m, the list of (a, <lam_num, [x_a, x_m]>) entries."""
    by_m: list[list[tuple[int, int]]] = [[] for _ in range(alg.dim)]
    for a in range(alg.dim):
        for m, entries in alg.bracket_rows[a].items():
            val = sum(coeff * lam_num[c] for c, coeff in entries)
            if val:
                by_m[m].append((a, val))
    return by_m


def _form(
    alg: LieAlgebraTable, by_m: list[list[tuple[int, int]]], g: int, formula: str
) -> dict[tuple[int, int], int]:
    """2 * d_lam times the generator form of x_g, for lam = lam_num / d_lam.

    With U[a, b] = <lam, [x_a, [x_b, x_g]]>:

    * ``symmetrized``: (w1, w2) -> (1/2)(U[w1, w2] + U[w2, w1]);
    * ``equivalent``:  (w1, w2) -> U[w2, w1] + (1/2)<lam, [[w1, w2], x_g]>.
    """
    u: dict[tuple[int, int], int] = {}
    for b in range(alg.dim):
        for m, coeff in alg.bracket_basis(b, g):
            for a, pair_val in by_m[m]:
                key = (a, b)
                u[key] = u.get(key, 0) + coeff * pair_val
    out: dict[tuple[int, int], int] = {}
    if formula == "symmetrized":
        for (i, j), val in u.items():
            out[(i, j)] = out.get((i, j), 0) + val
            out[(j, i)] = out.get((j, i), 0) + val
    elif formula == "equivalent":
        for (i, j), val in u.items():
            out[(j, i)] = out.get((j, i), 0) + 2 * val
        # <lam, [x_m, x_g]> for every m, for the commutator half-term.
        pair_with_v = dict(by_m[g])
        for a in range(alg.dim):
            for b, entries in alg.bracket_rows[a].items():
                val = sum(coeff * pair_with_v.get(m, 0) for m, coeff in entries)
                if val:
                    out[(a, b)] = out.get((a, b), 0) + val
    else:
        raise ValueError(f"unknown generator formula {formula!r}")
    return {key: val for key, val in out.items() if val}


def _kinv_columns(alg: LieAlgebraTable) -> tuple[list[list[tuple[int, int]]], int]:
    """Sparse columns of d_K * K^{-1} in integers, and d_K (lcm of reduced denominators)."""
    det, adj = adjugate(alg.killing_cartan)
    pairs = alg.killing_pairs
    d_k = lcm(*(det // gcd(det, x) for row in adj for x in row), *pairs)
    cols = [[(r, x * d_k // det) for r, x in enumerate(col) if x] for col in zip(*adj)]
    cols += [[(alg.f_index(r), d_k // p)] for r, p in enumerate(pairs)]
    cols += [[(alg.e_index(r), d_k // p)] for r, p in enumerate(pairs)]
    return cols, d_k


def _form_to_sym2(kinv_cols: list[list[tuple[int, int]]], form: dict) -> IntTerms:
    """Raise both slots of an integer bilinear form with the integer K^{-1} columns."""
    out: IntTerms = {}
    for (c, d), val in form.items():
        for a, va in kinv_cols[c]:
            left = va * val
            for b, vb in kinv_cols[d]:
                mono = (a, b) if a <= b else (b, a)
                out[mono] = out.get(mono, 0) + left * vb
    return {mono: val for mono, val in out.items() if val}


@dataclass(frozen=True)
class GeneratorImages:
    """The constraint-coupled operator on every basis generator, in integers.

    Generator a goes to sum_m tables[a][m] / scale * m in Sym^2.  The common
    scale is 2 * d_lam * d_K^2 with the gcd of it and every table entry
    divided out.  Indexing returns an image as a ``SymElement`` with
    Fraction coefficients.
    """

    dim: int
    tables: tuple[IntTerms, ...]
    scale: int

    def __getitem__(self, a: int) -> SymElement:
        terms = {mono: Fraction(v, self.scale) for mono, v in self.tables[a].items()}
        return SymElement(2, self.dim, terms)


def generator_images(
    alg: LieAlgebraTable, lam: DualVector, formula: str = "symmetrized"
) -> GeneratorImages:
    """delta applied to every basis generator."""
    lam_num, d_lam = _scaled(check_dual_vector(alg, lam))
    by_m = _lambda_ad_pairings(alg, lam_num)
    kinv_cols, d_k = _kinv_columns(alg)
    tables = [_form_to_sym2(kinv_cols, _form(alg, by_m, g, formula)) for g in range(alg.dim)]
    scale = 2 * d_lam * d_k * d_k
    c = gcd(scale, *[v for t in tables for v in t.values()])
    if c > 1:
        tables = [{mono: v // c for mono, v in t.items()} for t in tables]
    return GeneratorImages(alg.dim, tuple(tables), scale // c)


def _largest_run(keys, values) -> int:
    """The largest sum of |values| over a run of equal keys (keys >= 0), in Python ints."""
    import numpy as np

    # Summed as an object array: a list of partial sums made one int per
    # entry and left the assembly's heap about 0.45 MiB larger on E7 k=2.
    heads = np.flatnonzero(np.diff(keys, prepend=-1))
    return np.add.reduceat(np.array(list(map(abs, values)), object), heads).max(initial=0)


def _leibniz(images, width: int, entries, signs: list[int]):
    """Terms of sum_q signs[q] * w * image(x_{m_q}) * prod_{l != q} x_{m_l} per entry (w, m).

    ``images`` is (sizes, offset, inserted, values) in CSR form: the image
    of generator g is the next sizes[g] entries, each its integer value
    times the monomial of its t sorted ``inserted`` indices (t = 1 or 2, a
    row of the 2-d array) in output column ``offset``, the entries of one
    (g, offset) adjacent.  ``entries`` is (owner, monomials, weights): the
    integer w times the sorted k-tuple m (k = len(signs)) is one term of its
    owner's input, owners ascending.  A term lands in column
    owner * width + offset, its row indexed over Sym^{k - 1 + t} by
    ``sym.rank_weights`` with no sort.  Each chunk of whole owners within
    ``linalg._CHUNK_TERMS`` terms is yielded as (first owner, stop, the
    ``linalg.csc`` triple).  Values are int64 when k times the largest
    |image|_1 into one output column times the largest |weights|_1 of one
    owner, a bound on every sum, is below 2^63, and Python ints otherwise.
    """
    # Not a module-level import: loading numpy ahead of the engine modules
    # shifted heap layout and raised the benchmark workloads' peak RSS.
    import numpy as np

    sizes, offset, inserted, values = images
    owner, mono, weights = entries
    n, k, t = len(sizes), len(signs), inserted.shape[1]
    column = np.repeat(np.arange(n), sizes) * width + offset
    dtype = value_dtype(k * _largest_run(column, values) * _largest_run(owner, weights))
    value, weight = np.array(values, dtype), np.array(weights, dtype)
    start = np.cumsum(sizes) - sizes
    bounds = np.concatenate(([0], np.cumsum(np.bincount(owner))))
    terms = np.concatenate(([0], np.cumsum(sizes[mono].sum(axis=1))))[bounds]
    # table[p * stride + c]: the rank weight of index c at position p.
    stride = n + 1
    table = np.array(rank_weights(n, k - 1 + t), np.int64).ravel()
    pos, shifts = np.arange(k - 1), np.arange(t + 1)[:, None, None]

    for first, stop in _column_chunks(np.diff(terms)):
        lo, hi = bounds[first], bounds[stop]
        block = mono[lo:hi]
        cols, rows, vals = [], [], []
        for q, sign in enumerate(signs):
            rest = block[:, [l for l in range(k) if l != q]]
            # The inserted index v_j lands after the c_j = #(rest < v_j)
            # smaller rest entries and v_0..v_{j-1}; a rest entry moves one
            # place up per inserted index before it, s = 0..t places in all.
            # With P_s the prefix sums of the rest's weights at shift s, its
            # part of the row is sum_j (P_j - P_{j+1})[c_j] + P_t[k - 1]: one
            # lookup per inserted index, with no sort.
            prefix = np.zeros((t + 1, hi - lo, k), np.int64)
            prefix[:, :, 1:] = np.cumsum(table[(shifts + pos) * stride + rest], axis=2)
            step = prefix[:-1] - prefix[1:]
            step[-1] += prefix[-1][:, -1:]
            term, e = _runs(start[block[:, q]], sizes[block[:, q]])
            row = 0
            for j in range(t):
                v = inserted[term, j]
                c = (rest[e] < v[:, None]).sum(axis=1)
                row += table[(c + j) * stride + v] + step[j].ravel()[e * k + c]
            cols.append(owner[lo:hi][e] * width + offset[term])
            rows.append(row)
            vals.append(value[term] * (sign * weight[lo:hi])[e])
        yield first, stop, (np.concatenate(cols), np.concatenate(rows), np.concatenate(vals))


def _sym2_images(tables: tuple[IntTerms, ...]):
    """Sym^2 image tables as ``_leibniz`` takes them: offset 0, pairs inserted."""
    import numpy as np

    sizes = np.array([len(t) for t in tables], np.int64)
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(tables)), np.int64,
                        2 * int(sizes.sum())).reshape(-1, 2)
    return sizes, np.zeros(len(pairs), np.int64), pairs, [v for t in tables for v in t.values()]


def _assemble(tables: tuple[IntTerms, ...], ncols: int, signs: list[int]) -> CSC:
    """The integer columns sum_q signs[q] * tables[m_q] * prod_{l != q} x_{m_l},
    one per monomial m of Sym^k (k = len(signs)) in ``enumerate_basis`` order,
    by ``_leibniz`` with weight 1."""
    import numpy as np

    k = len(signs)
    basis = chain.from_iterable(combinations_with_replacement(range(len(tables)), k))
    # Only the expander holds the monomials, and each chunk is passed on, not
    # kept: both are freed before csc concatenates the chunks.
    chunks = _leibniz(_sym2_images(tables), 1, (
        np.arange(ncols), np.fromiter(basis, np.int64, ncols * k).reshape(-1, k), [1] * ncols), signs)
    return csc(ncols, map(itemgetter(2), chunks))


def ad_images(alg: LieAlgebraTable, vectors: list[dict[int, int]],
              monomials: list[tuple[int, ...]]):
    """ad_a(s) for every generator x_a and every integer vector s, over Sym^k.

    Each s maps columns of ``monomials``, the Sym^k basis in
    ``enumerate_basis`` order, to integers.  ad_a is a derivation, so
    ad_a(s) replaces one factor x_b of each monomial at a time by
    [x_a, x_b] = -[x_b, x_a]: the table is antisymmetric by construction and
    ``chevalley.prove_jacobi`` checks it, so row b serves as column b.  The
    expansion is ``_leibniz`` with the vectors as owners and every sign +1;
    per chunk of whole vectors this yields (first, images): column
    (i - first) * dim + a of the ``linalg.CSC`` images is ad_a(vectors[i]).
    """
    import numpy as np

    n, k = alg.dim, len(monomials[0])
    rows = alg.bracket_rows
    # The image of x_b: x_c times the coefficient of x_c in [x_a, x_b], in
    # output column a, one run per bracket [x_b, x_a].
    brackets = list(chain.from_iterable(row.values() for row in rows))
    length = np.fromiter(map(len, brackets), np.int64, len(brackets))
    offset = np.repeat(np.fromiter(chain.from_iterable(rows), np.int64, len(brackets)), length)
    target, coeff = np.fromiter(chain.from_iterable(chain.from_iterable(brackets)),
                                np.int64).reshape(-1, 2).T
    sizes = np.array([sum(map(len, row.values())) for row in rows], np.int64)
    images = (sizes, offset, target[:, None], (-1 * coeff).tolist())
    owner = np.repeat(np.arange(len(vectors)), list(map(len, vectors)))
    mono = np.fromiter(chain.from_iterable(monomials[j] for vec in vectors for j in vec),
                       np.int64, len(owner) * k).reshape(-1, k)
    weights = [v for vec in vectors for v in vec.values()]
    for first, stop, (col, row, val) in _leibniz(images, n, (owner, mono, weights), [1] * k):
        yield first, csc((stop - first) * n, [(col - first * n, row, val)])


def apply_delta(
    alg: LieAlgebraTable,
    lam: DualVector,
    s: SymElement,
    images: GeneratorImages | None = None,
) -> SymElement:
    """Constraint-coupled operator applied to one element (no full matrix).

    Expands the element, its coefficients scaled to integers, as the one
    owner of ``_leibniz``; Sym^{k+1} must be within the default basis cap.
    """
    import numpy as np

    lam = check_dual_vector(alg, lam)
    if images is None:
        images = generator_images(alg, lam)
    n, k = alg.dim, s.degree
    if k < 1:
        raise ValueError("degree k must be >= 1")
    guard_sym_dim(n, k + 1)
    coeffs, d = _scaled(s.terms.values())
    mono = np.fromiter(chain.from_iterable(s.terms), np.int64, len(coeffs) * k).reshape(-1, k)
    entries = (np.zeros(len(coeffs), np.int64), mono, coeffs)
    chunks = _leibniz(_sym2_images(images.tables), 1, entries, [(-1) ** j for j in range(k)])
    rows, values = csc(1, map(itemgetter(2), chunks))[0]
    terms = {monomial_at(n, k + 1, r): Fraction(v, images.scale * d)
             for r, v in zip(rows.tolist(), values.tolist())}
    return SymElement(k + 1, n, terms)


def _reduced(cols: CSC, scale: int) -> tuple[CSC, int]:
    """(cols, scale) with the gcd of scale and every entry divided out.

    The returned denominator is then the lcm of the reduced denominators of
    the entries cols / scale (1 for a zero matrix).
    """
    if not len(cols.values):
        # Dividing even an empty int64 array by a scale past 2^63 overflows.
        return cols, 1
    # Python's gcd over slices, stopping at 1: calling numpy's gcd loop mapped
    # one more 64 KiB window of numpy's code and raised peak RSS.
    g = scale
    for start in range(0, len(cols.values), _CHUNK_TERMS):
        if g == 1:
            break
        g = gcd(g, *cols.values[start : start + _CHUNK_TERMS].tolist())
    if g == 1:
        return cols, scale
    return CSC(cols.indptr, cols.rows, cols.values // g), scale // g


@dataclass
class SpencerMatrix:
    """Sparse exact matrix of a Spencer operator between monomial bases.

    ``cols`` holds integers in the ``linalg.CSC`` layout; the matrix is
    cols / denominator, and the denominator is the lcm of the entries'
    reduced denominators.
    """

    variant: str  # classical | constrained | equivalent-form
    lam: DualVector | None
    k_from: int
    k_to: int
    algebra_label: str
    dim: int
    nrows: int
    ncols: int
    cols: CSC = field(repr=False)
    denominator: int = 1

    def nnz(self) -> int:
        return int(self.cols.indptr[-1])

    def is_zero(self) -> bool:
        return not self.cols.values.any()

    def fraction_columns(self) -> list[list[tuple[int, Fraction]]]:
        """The columns as (row, Fraction) pairs, for reports and Matrix Market."""
        den = self.denominator
        return [[(r, Fraction(v, den)) for r, v in zip(rows.tolist(), values.tolist())]
                for rows, values in self.cols]

    def max_abs_entry(self) -> Fraction:
        return Fraction(self.cols.max_abs(), self.denominator)

    def add(self, other: "SpencerMatrix") -> "SpencerMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shape mismatch")
        import numpy as np

        den = lcm(self.denominator, other.denominator)
        sa, sb = den // self.denominator, den // other.denominator
        a, b = self.cols, other.cols
        # sa and sb bound it too: even an empty int64 array rejects a factor past 2^63.
        dtype = value_dtype(max(sa, sb, sa * a.max_abs() + sb * b.max_abs()))

        def chunk(start, stop):
            (ca, ra, va), (cb, rb, vb) = a.entries(start, stop), b.entries(start, stop)
            return (np.concatenate((ca, cb)), np.concatenate((ra, rb)),
                    np.concatenate((va.astype(dtype) * sa, vb.astype(dtype) * sb)))

        # In column chunks, so the sum's temporaries stay small.
        chunks = (chunk(*r) for r in _column_chunks(np.diff(a.indptr) + np.diff(b.indptr)))
        return SpencerMatrix(
            "sum", self.lam, self.k_from, self.k_to, self.algebra_label,
            self.dim, self.nrows, self.ncols, *_reduced(csc(self.ncols, chunks), den),
        )

    def compose(self, inner: "SpencerMatrix") -> "SpencerMatrix":
        """self o inner, requiring inner.k_to == self.k_from."""
        if inner.nrows != self.ncols:
            raise ValueError("composition shape mismatch")
        return SpencerMatrix(
            "composite", self.lam, inner.k_from, self.k_to, self.algebra_label,
            self.dim, self.nrows, inner.ncols,
            *_reduced(product(self.cols, inner.cols), self.denominator * inner.denominator),
        )

    def to_matrix_market(self) -> str:
        lines = [
            "%%MatrixMarket matrix coordinate rational general",
            f"% spencer operator {self.variant} k={self.k_from}->{self.k_to} "
            f"algebra={self.algebra_label}",
            f"{self.nrows} {self.ncols} {self.nnz()}",
        ]
        for j, col in enumerate(self.fraction_columns()):
            for r, v in col:
                lines.append(f"{r + 1} {j + 1} {v.numerator}/{v.denominator}")
        return "\n".join(lines) + "\n"


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
    cols = _assemble(images.tables, ncols, [(-1) ** j for j in range(k)])
    variant = "constrained" if formula == "symmetrized" else "equivalent-form"
    return SpencerMatrix(
        variant, lam, k, k + 1, alg.label, n, nrows, ncols, *_reduced(cols, images.scale)
    )


def _classical_images(alg: LieAlgebraTable) -> tuple[IntTerms, ...]:
    """sum_i x_i [x_i, x_g] for every generator g, as integer Sym^2 terms."""
    tables = []
    for g in range(alg.dim):
        out: IntTerms = {}
        for i in range(alg.dim):
            for c, bcoeff in alg.bracket_basis(i, g):
                key = (i, c) if i <= c else (c, i)
                out[key] = out.get(key, 0) + bcoeff
        tables.append({m: v for m, v in out.items() if v})
    return tuple(tables)


def delta_classical(
    alg: LieAlgebraTable, k: int, cap: int = DEFAULT_BASIS_CAP
) -> SpencerMatrix:
    """Matrix of the classical Spencer extension operator on Sym^k."""
    if k < 1:
        raise ValueError("degree k must be >= 1")
    n = alg.dim
    ncols = guard_sym_dim(n, k, cap)
    nrows = guard_sym_dim(n, k + 1, cap)
    cols = _assemble(_classical_images(alg), ncols, [1] * k)
    return SpencerMatrix("classical", None, k, k + 1, alg.label, n, nrows, ncols, cols)


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
    by_m = _lambda_ad_pairings(alg, _scaled(check_dual_vector(alg, lam))[0])
    disagreements = [
        g for g in range(alg.dim)
        if _form(alg, by_m, g, "symmetrized") != _form(alg, by_m, g, "equivalent")
    ]
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
    _, cert = kernel_with_certificate(
        composite.cols, composite.nrows, composite.ncols, composite.denominator
    )
    return {
        "algebra": alg.label,
        "k": k,
        "composite_shape": [composite.nrows, composite.ncols],
        "composite_is_zero": composite.is_zero(),
        "composite_rank": cert.rank,
        "max_abs_entry": f"{max_entry.numerator}/{max_entry.denominator}",
        "nnz": composite.nnz(),
    }
