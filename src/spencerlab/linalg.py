"""Exact rational and modular linear algebra for sparse operator matrices.

Every sparse elimination goes through one class, :class:`Eliminator`.  It
reduces vectors (dicts keyed by any totally ordered hashables) over the
rationals or over F_p with one fixed pivot rule: vectors are reduced in the
order given, a vector's lead is its smallest key, and a new pivot row is
stored normalised with its lead entry removed.  Optionally each pivot also
records the combination of inserted vectors (by caller tag) that produced
it, which yields kernels and exact solves.

The kernel pipeline takes a rational matrix as integer columns plus one
positive denominator D (the matrix is the columns divided by D, and D is
the lcm of the reduced entry denominators):

* small matrices are eliminated exactly at once;
* larger ones get a sparse rank modulo at least three word-size primes
  (entries are reduced as ``v % p``, since for p not dividing D the rank of
  the integer columns mod p is that of the matrix; primes dividing D are
  skipped; retried with fresh primes on disagreement).  The kernel is then
  lifted from one tracked elimination mod the first of those primes p, in
  the natural row and column order: each column that reduces to zero
  yields its relation to earlier pivot columns mod p, and every residue is
  lifted to a fraction n/d with |n|, d <= sqrt(p/2) by rational
  reconstruction (Wang, 1981).  Scaling every column by D leaves the
  free-variable kernel basis unchanged.

The lifted vectors are accepted only if each passes the exact membership
check.  That is a certificate: the tracked pass has the rank r mod p, so it
yields m = ncols - r vectors; vectors in free-variable form are
independent, so the nullity is at least m, and a modular rank bounds the
rank from below, so rank + m = ncols pins both.  Each accepted vector ties
a column to earlier columns only, so every column free mod p is free over
Q; both free sets have m elements, so they are equal and the vectors are
the rational free-variable basis, vector for vector.  If a reconstruction
or a check fails, the kernel is eliminated over Q instead, so a failed
lift costs one tracked pass.  Combining several primes by the Chinese
remainder theorem (Dixon, Numer. Math. 1982) would lift larger
coefficients, but one prime lifts every kernel of the benchmark
workloads.  "exact" in the method ``multi-modular+exact`` names an exact
rational basis with an exact check, whichever way it was found.

The modular rank passes let the sparsest row lead (Markowitz, 1957): row r
is keyed ``count[r] * nrows + r``, with count[r] its number of entries, so
the smallest key is a row with the fewest entries, which keeps fill low on
operators whose dense rows would otherwise lead.  A rank depends on neither
row nor column order, so the keys change no modular rank.  The kernel
passes keep the natural order: a kernel basis depends only on the column
order, so the kernel vectors do not change either.

Either way every returned kernel vector is re-multiplied through the matrix
and checked against zero, in integers, before the result is handed back; a
failed check or a rank that cannot be certified raises
:class:`CertificationError`.  ``rref_dense`` is the one dense exact routine,
for small systems such as matrix inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence


# Fixed pool of 30-bit primes; three are consumed per attempt, in order, so
# that reruns of the same computation use the same primes.
PRIME_POOL = (
    1073741789, 1073741783, 1073741741, 1073741723, 1073741719,
    1073741717, 1073741689, 1073741671, 1073741663, 1073741651,
    1073741621, 1073741567, 1073741561, 1073741527, 1073741477,
)

DENSE_ENTRY_LIMIT = 20_000


class CertificationError(RuntimeError):
    """A kernel or rank could not be certified."""


class RankDisagreement(CertificationError):
    """Modular ranks kept disagreeing after retries with fresh primes."""


@dataclass
class RankCertificate:
    primes_used: list[int]
    modular_ranks: list[int]
    exact_confirmed: bool
    method: str
    rank: int

    def as_dict(self) -> dict:
        return {
            "primes_used": self.primes_used,
            "modular_ranks": self.modular_ranks,
            "exact_confirmed": self.exact_confirmed,
            "method": self.method,
            "rank": self.rank,
        }


# Sparse column as sorted (row, value) pairs; Fraction values on the exact
# paths, integer values on the modular path and in operator matrices.
SparseCol = list[tuple[int, int | Fraction]]


def _sub_scaled(dst: dict, factor, src: dict, p: int | None) -> None:
    """dst -= factor * src in place, dropping entries that cancel."""
    if p is None:
        for r, v in src.items():
            newv = dst.get(r, 0) - factor * v
            if newv:
                dst[r] = newv
            else:
                dst.pop(r, None)
    else:
        for r, v in src.items():
            newv = (dst.get(r, 0) - factor * v) % p
            if newv:
                dst[r] = newv
            else:
                dst.pop(r, None)


class Eliminator:
    """Sparse exact elimination over Q (``p=None``, Fraction values) or F_p.

    ``pivots`` maps each lead key to its normalised row without the lead
    entry and, with ``track=True``, the combination of inserted vectors, by
    tag, that equals the full pivot row.  Vectors given to the constructor
    are inserted under their positions as tags.
    """

    def __init__(self, vectors: Iterable = (), p: int | None = None, track: bool = False):
        self.p = p
        self.track = track
        self.pivots: dict = {}
        for i, vec in enumerate(vectors):
            self.insert(vec, i)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _scaled(self, vec: dict, c) -> dict:
        if self.p is None:
            return {r: v * c for r, v in vec.items()}
        return {r: v * c % self.p for r, v in vec.items()}

    def _eliminate(self, cur: dict, hist: dict | None):
        """Reduce cur in place, mirroring every step on hist.

        Returns the first lead without a pivot row, or None once cur is zero.
        """
        pivots, p = self.pivots, self.p
        while cur:
            lead = min(cur)
            piv = pivots.get(lead)
            if piv is None:
                return lead
            factor = cur.pop(lead)
            row, comb = piv
            _sub_scaled(cur, factor, row, p)
            if hist is not None:
                _sub_scaled(hist, factor, comb, p)
        return None

    def insert(self, vec, tag=None) -> dict | None:
        """Add vec (a dict or (key, value) pairs) to the span.

        Returns None when the span grew.  Otherwise vec is dependent and the
        result is its relation: coefficients by tag, vec's own being 1, of
        inserted vectors that sum to zero (empty when not tracking).
        """
        cur = dict(vec)
        hist = {tag: Fraction(1) if self.p is None else 1} if self.track else None
        lead = self._eliminate(cur, hist)
        if lead is None:
            return {} if hist is None else hist
        factor = cur.pop(lead)
        inv = 1 / Fraction(factor) if self.p is None else pow(factor, -1, self.p)
        comb = None if hist is None else self._scaled(hist, inv)
        self.pivots[lead] = (self._scaled(cur, inv), comb)
        return None

    def reduce(self, vec) -> dict:
        """Remainder of vec after reduction; empty exactly when vec is in the span."""
        cur = dict(vec)
        self._eliminate(cur, None)
        return cur

    def solve(self, target) -> dict | None:
        """Coefficients by tag with sum(c_t * vec_t) == target, or None.

        None means target lies outside the span.  Needs ``track=True``.
        """
        cur = dict(target)
        neg: dict = {}
        if self._eliminate(cur, neg) is not None:
            return None
        return self._scaled(neg, -1)


def rref_dense(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    mat = [row[:] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        scale = mat[r][c]
        mat[r] = [x / scale for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def _columns_mod_p(cols: Iterable[Iterable[tuple]], p: int):
    for col in cols:
        d: dict[int, int] = {}
        for r, v in col:
            val = v % p
            if val:
                d[r] = val
        yield d


def dense_rank_modp(cols: Sequence[SparseCol], nrows: int, ncols: int, p: int) -> int:
    """Vectorised row-echelon rank mod p of integer columns, on the transpose.

    Not on the kernel path: the tests keep it as an independent reference
    for :func:`sparse_rank_modp`.
    """
    import numpy as np

    a = np.zeros((ncols, nrows), dtype=np.int64)
    for j, col in enumerate(cols):
        for r, v in col:
            a[j, r] = v % p
    rank = 0
    for c in range(nrows):
        if rank == ncols:
            break
        nz = np.nonzero(a[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), -1, p)
        a[rank] = (a[rank] * inv) % p
        rest = np.nonzero(a[rank + 1 :, c])[0]
        if rest.size:
            rows = rank + 1 + rest
            a[rows] = (a[rows] - np.outer(a[rows, c], a[rank])) % p
        rank += 1
    return rank


def sparse_rank_modp(cols: Iterable[Iterable[tuple]], p: int) -> int:
    """Rank modulo p of integer columns, given as (row key, value) pairs."""
    return Eliminator(_columns_mod_p(cols, p), p=p).rank


class _SparsestRowLeads:
    """Integer columns with row r re-keyed ``count[r] * nrows + r``.

    Rows are counted once, on construction; each iteration (one per prime)
    re-keys the columns lazily, so no keyed copy of the matrix is kept.
    """

    def __init__(self, cols: Sequence[SparseCol], nrows: int):
        count = [0] * nrows
        for col in cols:
            for r, _ in col:
                count[r] += 1
        self.cols, self.nrows, self.count = cols, nrows, count

    def __iter__(self):
        count, nrows = self.count, self.nrows
        for col in self.cols:
            yield ((count[r] * nrows + r, v) for r, v in col)


def _relations(cols: Iterable, p: int | None) -> tuple[list[dict], int]:
    """Relations of the columns that reduce to zero, and the rank.

    Column j is inserted under tag j into a tracked elimination over Q or
    F_p; its relation is supported on j (coefficient 1) and earlier pivot
    columns.
    """
    elim = Eliminator(p=p, track=True)
    relations = []
    for j, col in enumerate(cols):
        relation = elim.insert(col, j)
        if relation is not None:
            relations.append(relation)
    return relations, elim.rank


def sparse_kernel_exact(cols: Sequence[SparseCol]) -> tuple[list[dict[int, Fraction]], int]:
    """Exact kernel in reduced (free-variable) form, and the rank, over Q.

    Deterministic; the fallback when a modular lift fails.
    """
    return _relations(cols, None)


def _rational_reconstruction(u: int, m: int) -> Fraction | None:
    """The fraction n/d with n = d*u mod m and |n|, d <= sqrt(m/2), or None.

    Wang's half-extended Euclidean algorithm (1981); the fraction is unique
    when it exists.
    """
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _lifted_kernel(cols: Sequence[SparseCol], p: int) -> list[dict[int, Fraction]] | None:
    """Kernel vectors lifted from one tracked pass mod p, or None.

    The lift is returned only when every vector passes the exact membership
    check (see the module docs).  Residues are replaced in place, so the
    residues and the fractions are not held side by side.
    """
    vectors, _ = _relations(_columns_mod_p(cols, p), p)
    for vec in vectors:
        for j, u in vec.items():
            vec[j] = _rational_reconstruction(u, p)
            if vec[j] is None:
                return None
    return vectors if verify_kernel_vectors(cols, vectors) else None


def verify_kernel_vectors(
    cols: Sequence[SparseCol], vectors: Iterable[dict[int, Fraction]]
) -> bool:
    """Exact check that each combination of columns is the zero vector.

    Each vector is scaled by the lcm of its coefficient denominators, so
    integer columns are combined in integers.
    """
    for vec in vectors:
        # A list, not a generator: unpacking a generator builds an oversized
        # tuple and leaves one 1-tuple per call in the interpreter's free list.
        scale = lcm(*[c.denominator for c in vec.values()])
        acc: dict = {}
        for j, c in vec.items():
            c = c.numerator * (scale // c.denominator)
            for r, v in cols[j]:
                acc[r] = acc.get(r, 0) + c * v
        if any(acc.values()):
            return False
    return True


def kernel_with_certificate(
    cols: Sequence[SparseCol], nrows: int, ncols: int, denominator: int = 1
) -> tuple[list[dict[int, Fraction]], RankCertificate]:
    """Kernel basis plus the rank certificate described in the module docs.

    ``cols`` holds integers and the matrix is cols / denominator, with the
    denominator the lcm of the reduced entry denominators.  Scaling by it
    changes neither the kernel nor, for a prime not dividing it, the rank
    mod p.
    """
    if nrows * ncols <= DENSE_ENTRY_LIMIT:
        vectors, rank = sparse_kernel_exact(cols)
        if not verify_kernel_vectors(cols, vectors):
            raise CertificationError("dense kernel failed the exact membership check")
        # "dense-exact" names the small-matrix tier in the report format.
        return vectors, RankCertificate([], [], True, "dense-exact", rank)

    pool = [p for p in PRIME_POOL if denominator % p]
    keyed = _SparsestRowLeads(cols, nrows)
    for attempt in range(4):
        primes = pool[attempt * 3 : attempt * 3 + 3]
        if len(primes) < 3:
            raise RankDisagreement("prime pool exhausted")
        ranks = [sparse_rank_modp(keyed, p) for p in primes]
        if len(set(ranks)) == 1:
            break
    else:
        raise RankDisagreement(f"modular ranks disagree persistently: {ranks}")
    # Free the row counts: the tracked pass below sets the peak memory.
    del keyed

    if ranks[0] == ncols:
        # Full column rank is already exact: the rank over the rationals is
        # bounded below by any modular rank and above by the column count.
        cert = RankCertificate(primes, ranks, True, "multi-modular+full-column-rank", ncols)
        return [], cert

    vectors = _lifted_kernel(cols, primes[0])
    if vectors is None:
        vectors, exact_rank = sparse_kernel_exact(cols)
        if not verify_kernel_vectors(cols, vectors):
            raise CertificationError("exact kernel failed the membership check")
        if exact_rank != ranks[0] or exact_rank + len(vectors) != ncols:
            raise RankDisagreement(
                f"exact rank {exact_rank} does not confirm modular ranks {ranks}"
            )
    return vectors, RankCertificate(primes, ranks, True, "multi-modular+exact", ranks[0])


def span_rank(vectors: Iterable) -> int:
    """Exact rank of sparse vectors (dicts or (key, value) pairs)."""
    return Eliminator(vectors).rank


def same_subspace(basis_a: Sequence[dict], basis_b: Sequence[dict]) -> bool:
    """Exact subspace equality: equal ranks and basis_b inside span(basis_a)."""
    span_a = Eliminator(basis_a)
    if span_rank(basis_b) != span_a.rank:
        return False
    return not any(span_a.reduce(vec) for vec in basis_b)
