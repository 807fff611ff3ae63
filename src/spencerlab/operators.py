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
sum_i x_i [x_i, x_g].  One assembly, ``_assemble``, builds the columns of
both matrices and of the single-element evaluator ``apply_delta``: it holds
the image tables as CSR arrays and, per chunk of columns and per position j,
expands the terms and indexes each term's row by ``sym.rank_weights``
lookups; ``linalg.csc`` sums duplicate entries.  Its values are int64 when k
times the largest sum of |entries| of one table is below 2^63, which bounds
every entry's sum of absolute values, and Python ints in object arrays
otherwise, in the same code.  ``ad_images`` expands the adjoint action of
every generator on integer vectors over Sym^k by the same rule and indexing,
a single index in place of a pair.  A matrix keeps its integer entries as one
``linalg.CSC``, as sums and composites do, plus one positive denominator:
the scale with the gcd of it and every entry divided out.  Fractions and
(row, value) tuples appear only at the boundaries: single-element
evaluation, ``fraction_columns``, reports and Matrix Market.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from math import gcd, lcm

from .cartan import adjugate
from .chevalley import LieAlgebraTable
from .linalg import CSC, csc, kernel_with_certificate, value_dtype
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


# Expanded image terms per assembly chunk.  Each term holds about a dozen
# int64 temporaries, so a chunk's arrays stay under 1 MiB whatever the matrix.
_CHUNK_TERMS = 1 << 13


def _column_chunks(sizes):
    """Column ranges (start, stop) whose sizes, plus one per column (so empty
    columns fill chunks too), stay within ``_CHUNK_TERMS``; a column with
    more is a chunk alone."""
    import numpy as np

    per_col = sizes + 1
    ends = np.cumsum(per_col)
    start = 0
    while start < len(per_col):
        limit = ends[start] - per_col[start] + _CHUNK_TERMS
        stop = max(int(np.searchsorted(ends, limit, side="right")), start + 1)
        yield start, stop
        start = stop


def _runs(starts, counts):
    """(indices, owners): the index ranges [starts[i], starts[i] + counts[i])
    concatenated, and the i each index came from."""
    import numpy as np

    ends = np.cumsum(counts)
    return (np.repeat(starts + counts - ends, counts) + np.arange(ends[-1] if len(ends) else 0),
            np.repeat(np.arange(len(counts)), counts))


def _assemble(
    tables: tuple[IntTerms, ...],
    monomials: Iterable[tuple[int, ...]],
    signs: list[int],
):
    """Entries of the integer columns sum_j signs[j] * tables[m_j] * prod_{l != j} x_{m_l}.

    One column per sorted k-tuple m of ``monomials`` (k = len(signs)); every
    table is a Sym^2 image keyed by sorted pairs.  Rows are indexed by
    ``sym.rank_weights`` over Sym^{k+1}.
    Columns are cut into chunks whose expanded terms, plus one per column,
    stay within ``_CHUNK_TERMS`` (a column with more is a chunk alone); each
    chunk is yielded as the (columns, rows, values) arrays ``linalg.csc`` takes.
    Values are int64 when k times the largest sum of |entries| of one table
    is below 2^63, so no sum can overflow, and Python ints otherwise.
    """
    # Not a module-level import: loading numpy ahead of the engine modules
    # shifted heap layout and raised the benchmark workloads' peak RSS.
    import numpy as np

    k, n = len(signs), len(tables)
    mono = np.fromiter(chain.from_iterable(monomials), np.int64).reshape(-1, k)
    bound = k * max((sum(map(abs, t.values())) for t in tables), default=0)
    dtype = value_dtype(bound)
    sizes = np.array([len(t) for t in tables], np.int64)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    first = np.fromiter((a for t in tables for a, _ in t), np.int64, indptr[-1])
    second = np.fromiter((b for t in tables for _, b in t), np.int64, indptr[-1])
    values = np.array([v for t in tables for v in t.values()], dtype)
    # weights[q * stride + c]: the rank weight of index c at position q.
    stride = n + 1
    weights = np.array(rank_weights(n, k + 1), np.int64).ravel()
    pos = np.arange(k - 1)
    shifts = np.arange(3)[:, None, None]

    for start, stop in _column_chunks(sizes[mono].sum(axis=1)):
        block = mono[start:stop]
        width = stop - start
        cols, rows, vals = [], [], []
        for j, sign in enumerate(signs):
            gen = block[:, j]
            rest = block[:, [l for l in range(k) if l != j]]
            # The merged (k+1)-tuple puts a after the rest's ca = #(rest < a)
            # smaller entries and b after cb = #(rest < b) of them plus a; a
            # rest entry at i then moves 0, 1 or 2 places.  Prefix sums of the
            # rest's weights at each shift give its part of the row as two
            # lookups, lo[ca] + hi[cb], with no sort.
            prefix = np.zeros((3, width, k), np.int64)
            prefix[:, :, 1:] = np.cumsum(weights[(shifts + pos) * stride + rest], axis=2)
            lo = (prefix[0] - prefix[1]).ravel()
            hi = (prefix[1] - prefix[2] + prefix[2][:, -1:]).ravel()
            term, col = _runs(indptr[gen], sizes[gen])
            a, b = first[term], second[term]
            ca = (rest[col] < a[:, None]).sum(axis=1)
            cb = (rest[col] < b[:, None]).sum(axis=1)
            row = weights[ca * stride + a] + weights[(cb + 1) * stride + b]
            row += lo[col * k + ca] + hi[col * k + cb]
            cols.append(col + start)
            rows.append(row)
            vals.append(values[term] * sign)
        yield np.concatenate(cols), np.concatenate(rows), np.concatenate(vals)


def ad_images(alg: LieAlgebraTable, vectors: list[dict[int, int]],
              monomials: list[tuple[int, ...]]):
    """ad_a(s) for every generator x_a and every integer vector s, over Sym^k.

    Each s maps columns of ``monomials``, the Sym^k basis in
    ``enumerate_basis`` order, to integers.  ad_a is a derivation, so
    ad_a(s) replaces one factor x_b of each monomial at a time by
    [x_a, x_b] = -[x_b, x_a]: the table is antisymmetric by construction and
    ``chevalley.prove_jacobi`` checks it, so row b serves as column b.  The
    vectors are cut into chunks whose terms stay within ``_CHUNK_TERMS`` (a
    vector with more is a chunk alone), and per chunk this yields (first,
    images): column (i - first) * dim + a of the ``linalg.CSC`` images is
    ad_a(vectors[i]), its rows indexed by ``sym.rank_weights`` with no sort.
    Values are int64 when k times the largest |[x_b, x_a]|_1 times the
    largest |s|_1, a bound on every sum, is below 2^63, and Python ints
    otherwise.
    """
    import numpy as np

    n, k = alg.dim, len(monomials[0])
    rows = alg.bracket_rows
    # One (c, coefficient) tuple per bracket [x_b, x_a]; row b becomes one
    # run of (a, c, coefficient of x_c in [x_a, x_b]).
    brackets = list(chain.from_iterable(row.values() for row in rows))
    length = np.fromiter(map(len, brackets), np.int64, len(brackets))
    gen = np.repeat(np.fromiter(chain.from_iterable(rows), np.int64, len(brackets)), length)
    target, coeff = np.fromiter(chain.from_iterable(chain.from_iterable(brackets)),
                                np.int64).reshape(-1, 2).T
    coeff = -1 * coeff
    row_end = np.concatenate(([0], np.cumsum(length)))[np.cumsum([len(row) for row in rows])]
    row_len = np.diff(row_end, prepend=0)
    values = list(chain.from_iterable(vec.values() for vec in vectors))
    vec_len = np.fromiter(map(len, vectors), np.int64, len(vectors))
    # |[x_b, x_a]|_1 and |s|_1 are at most their largest entries times length.
    value = np.array(values, value_dtype(
        k * max(int(coeff.max(initial=0)), -int(coeff.min(initial=0))) * int(length.max(initial=0))
        * max(map(abs, values), default=0) * int(vec_len.max(initial=0))))
    columns = chain.from_iterable(vectors)
    mono = np.fromiter(chain.from_iterable(map(monomials.__getitem__, columns)),
                       np.int64, len(values) * k).reshape(-1, k)
    bounds = np.concatenate(([0], np.cumsum(vec_len)))
    terms = np.concatenate(([0], np.cumsum(row_len[mono].sum(axis=1))))
    # weights[q * stride + c]: the rank weight of index c at position q.
    stride = n + 1
    weights = np.array(rank_weights(n, k), np.int64).ravel()
    for first, stop in _column_chunks(terms[bounds[1:]] - terms[bounds[:-1]]):
        lo, hi = bounds[first], bounds[stop]
        block, owner = mono[lo:hi], np.repeat(np.arange(stop - first), vec_len[first:stop])
        chunk = []
        for q in range(k):
            # x_c replaces the factor at q and lands after the ca = #(rest < c)
            # smaller rest entries; the rest entries from place ca on move one
            # place up, so the row index needs no sort.
            term, entry = _runs(row_end[block[:, q]] - row_len[block[:, q]], row_len[block[:, q]])
            c, rest = target[term], block[entry][:, [l for l in range(k) if l != q]]
            ca = (rest < c[:, None]).sum(axis=1)
            row = weights[ca * stride + c]
            for i in range(k - 1):
                row += weights[(i + (ca <= i)) * stride + rest[:, i]]
            chunk.append((owner[entry] * n + gen[term], row, value[lo + entry] * coeff[term]))
        yield first, csc((stop - first) * n, [tuple(map(np.concatenate, zip(*chunk)))])


def apply_delta(
    alg: LieAlgebraTable,
    lam: DualVector,
    s: SymElement,
    images: GeneratorImages | None = None,
) -> SymElement:
    """Constraint-coupled operator applied to one element (no full matrix).

    Assembles the columns of the element's monomials and combines them with
    its coefficients; Sym^{k+1} must be within the default basis cap.
    """
    lam = check_dual_vector(alg, lam)
    if images is None:
        images = generator_images(alg, lam)
    n, k = alg.dim, s.degree
    guard_sym_dim(n, k + 1)
    cols = csc(len(s.terms), _assemble(images.tables, s.terms, [(-1) ** j for j in range(k)]))
    acc: dict[int, Fraction] = {}
    for (rows, values), coeff in zip(cols, s.terms.values()):
        for r, v in zip(rows.tolist(), values.tolist()):
            acc[r] = acc.get(r, 0) + coeff * v
    terms = {monomial_at(n, k + 1, r): Fraction(c, images.scale) for r, c in acc.items() if c}
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
        import numpy as np

        outer, right = self.cols, inner.cols
        # Entry (r, j) sums at most len(column j) products of one entry each.
        longest = int(np.diff(right.indptr).max(initial=0))
        dtype = value_dtype(outer.max_abs() * right.max_abs() * longest)
        # Each inner entry (j, mid, v) meets every entry of outer column mid.
        j, mid, v = right.entries()
        count = np.diff(outer.indptr)[mid]
        owner = np.repeat(np.arange(len(mid)), count)
        at = np.repeat(outer.indptr[mid] - (np.cumsum(count) - count), count)
        at += np.arange(len(at))
        values = v.astype(dtype)[owner] * outer.values.astype(dtype)[at]
        entries = (j[owner], outer.rows[at], values)
        return SpencerMatrix(
            "composite", self.lam, inner.k_from, self.k_to, self.algebra_label,
            self.dim, self.nrows, inner.ncols,
            *_reduced(csc(inner.ncols, [entries]), self.denominator * inner.denominator),
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
    monomials = combinations_with_replacement(range(n), k)
    cols = csc(ncols, _assemble(images.tables, monomials, [(-1) ** j for j in range(k)]))
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
    monomials = combinations_with_replacement(range(n), k)
    cols = csc(ncols, _assemble(_classical_images(alg), monomials, [1] * k))
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
