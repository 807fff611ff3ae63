"""Exact rational and modular linear algebra for sparse operator matrices.

Every sparse elimination goes through one class, :class:`Eliminator`.  It
reduces vectors (dicts keyed by any totally ordered hashables) over the
rationals or modulo M with one fixed pivot rule: vectors are reduced in the
order given, a vector's lead is its smallest key, and a new pivot row is
stored as found, with its lead entry removed and the lead's inverse kept
beside it; a later vector that meets the lead subtracts the row times its
own lead coefficient times that inverse, so no work goes into a row that no
later vector uses.  Optionally each pivot also records the combination of
inserted vectors (by caller tag) that produced it, which yields kernels and
exact solves.

Every matrix has one layout, :class:`CSC`, built by :func:`csc` alone.  The
certified pass (:meth:`Eliminator.insert_columns`) takes it whole: numpy
finds every column's lead and lead value first, and a column whose lead is
not yet a pivot becomes one unreduced, so it is stored as its column index
and read into a dict only when a later column meets its lead.  Most pivots
of a large operator are never met again (7657 of the 8776 of the E7 k=2
flagship), and their columns are never read.

The kernel pipeline takes a rational matrix as integer columns plus one
positive denominator D (the matrix is the columns divided by D, and D is
the lcm of the reduced entry denominators):

* small matrices are eliminated exactly at once;
* larger ones get one tracked elimination modulo M = p1*p2*p3, the product
  of three word-size primes that do not divide D (entries enter as they
  are when every |v| < M, as int64 entries always are, and as ``v % M``
  otherwise; for p not dividing D the rank of the integer columns mod p is
  that of the matrix).  That one pass yields the three modular ranks, the
  kernel relations and, below, the lift.

Why one pass mod M is the elimination mod each prime: Z/M is isomorphic to
F_p1 x F_p2 x F_p3 (Chinese remainder theorem), and every step of the pass
(subtract a multiple of a pivot row, scale by the inverse of a lead) acts
componentwise.  A new pivot is kept only if its lead is a unit mod M, that
is nonzero mod every p_i; otherwise the pass stops and the attempt moves on
to the next three pool primes (at most four attempts, then
:class:`RankDisagreement`).  So every pivot row, reduced mod p_i, is an
echelon row with a nonzero lead, every vector that reduced to zero mod M
reduced to zero mod p_i, and the pivot count is the rank mod each p_i: the
three modular ranks are equal by construction.  A column that reduces to
zero yields its relation to earlier pivot columns mod M; the pivot columns
are those that raise the rank of the columns before them, which depends on
the column order only, so the relation reduced mod p_i is the unique one a
tracked pass mod p_i alone would give (Dixon, Numer. Math. 1982; Stein,
*Modular Forms: A Computational Approach*, 2007, ch. 7).

The pass lets the sparsest row lead (Markowitz, 1957), which keeps fill low
on operators whose dense rows would otherwise lead: one ``bincount`` of the
row indices per matrix gives each row's entry count, and the pass keys row r
of nrows by count[r] * nrows + r, so the smallest key is the row with fewest
entries, ties to the smaller row index.  The keys are formed per entry, with
no sort and no table of nrows keys, and stay below 10^14 under the default
10^7 cap on rows and columns.  Relations are over columns, so neither a rank nor a
relation depends on which row leads a pivot.

Every residue of a relation is lifted to a fraction n/d with
|n|, d <= sqrt(M/2), about 2^44, by rational reconstruction (Wang, 1981).
Scaling every column by D leaves the free-variable kernel basis unchanged.
The lifted vectors are accepted only if each passes the exact membership
check.  That is a certificate: the pass has the rank r mod p1, so it yields
m = ncols - r vectors; vectors in free-variable form are independent, so
the nullity is at least m, and a modular rank bounds the rank from below,
so rank + m = ncols pins both.  Each accepted vector ties a column to
earlier columns only, so every column free mod p1 is free over Q; both free
sets have m elements, so they are equal and the vectors are the rational
free-variable basis, vector for vector.  If a reconstruction or a check
fails, the kernel is eliminated over Q instead, so a failed lift costs one
tracked pass.  Each vector is returned as its primitive integer multiple,
which ``kernels`` relies on.  "exact" in the method
``multi-modular+exact`` names an exact rational basis with an exact check,
whichever way it was found.

Either way every returned kernel vector is re-multiplied through the matrix
and checked against zero, in integers, before the result is handed back; a
failed check or a rank that cannot be certified raises
:class:`CertificationError`.  Every rank the package reports is certified
this way (kernels, the nilpotency audit, torus cohomology, weight
multiplicities).  ``rref_dense``, a dense exact Fraction
elimination, has no caller in the package: the tests keep it as an
independent reference for ranks, spans and inverses, as they keep
``sparse_rank_modp`` and ``dense_rank_modp`` for modular ranks and
``same_subspace`` for subspace equality; the bench's span table names all four.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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
        return asdict(self)


def value_dtype(bound: int):
    """The dtype of values below bound in absolute value: int64 or Python ints."""
    return "int64" if bound < 2**63 else object


@dataclass(frozen=True, eq=False)
class CSC:
    """Compressed sparse columns: column j holds ``rows[indptr[j]:indptr[j + 1]]``
    (int64, ascending) and the nonzero ``values`` at the same positions, int64
    or, per :func:`value_dtype`, Python ints (or Fractions) in an object array."""

    indptr: np.ndarray
    rows: np.ndarray
    values: np.ndarray

    def __getitem__(self, j: int):
        a, b = self.indptr[j], self.indptr[j + 1]
        return self.rows[a:b], self.values[a:b]

    def __iter__(self):
        bounds = self.indptr.tolist()
        return ((self.rows[a:b], self.values[a:b]) for a, b in zip(bounds, bounds[1:]))

    def entries(self, start: int = 0, stop: int | None = None):
        """(columns, rows, values) of the entries of columns start..stop-1."""
        import numpy as np

        stop = len(self.indptr) - 1 if stop is None else stop
        lo, hi = self.indptr[start], self.indptr[stop]
        cols = np.repeat(np.arange(start, stop), np.diff(self.indptr[start : stop + 1]))
        return cols, self.rows[lo:hi], self.values[lo:hi]

    def max_abs(self) -> int:
        # Not abs(values): numpy's int64 abs loop faults in more of its code and raised peak RSS.
        return max(int(self.values.max(initial=0)), -int(self.values.min(initial=0)))


def csc(ncols: int, chunks: Iterable[tuple]) -> CSC:
    """The matrix of (columns, rows, values) array triples, duplicates summed and
    zeros dropped, values in the chunks' dtype.  A column's entries lie in one
    chunk and chunks come in column order, so callers can keep chunks small."""
    # A local import: loading numpy ahead of the engine modules raised peak RSS.
    import numpy as np

    counts = np.zeros(ncols, np.int64)
    rows, values = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for col, row, val in chunks:
        stride = int(row.max()) + 1 if len(row) else 1
        key = col * stride + row
        order = np.argsort(key, kind="stable")
        key, val = key[order], val[order]
        heads = np.flatnonzero(np.diff(key, prepend=-1))
        key, val = key[heads], np.add.reduceat(val, heads)
        nonzero = np.flatnonzero(val)
        col, row = np.divmod(key[nonzero], stride)
        counts += np.bincount(col, minlength=ncols)
        rows.append(row)
        values.append(val[nonzero])
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return CSC(indptr, np.concatenate(rows), np.concatenate(values))


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


class _NonUnitPivot(ArithmeticError):
    """A new pivot's lead is not a unit modulo the eliminator's modulus."""


class Eliminator:
    """Sparse exact elimination over Q (``p=None``, Fraction values) or Z/p.

    The modulus p is a prime, or a product of distinct primes: while every
    new pivot's lead is a unit, the elimination mod the product is the
    elimination mod each prime factor (see the module docs).  A lead that is
    not a unit raises ``_NonUnitPivot`` from :meth:`insert` and
    :meth:`insert_columns`.

    ``pivots`` maps each lead key to a triple: the pivot row without its
    lead entry, as reduced and not rescaled; with ``track=True``, the
    combination of inserted vectors, by tag, that equals the full pivot row
    (else None); and the inverse of the lead entry (mod p, or a Fraction).
    A vector with coefficient c at that lead subtracts (c * inverse) times
    the row and the combination: after reduction mod p the same residues,
    and over Q the same Fractions, as subtracting c times a row normalised
    at insertion, so every pivot, relation and remainder is unchanged by
    the deferral.  :meth:`insert_columns` may instead map a lead to the
    index j of a column that became a pivot unreduced; the first vector
    that meets that lead reads column j into the triple (row, {j: 1},
    inverse) that inserting it would have stored.  Vectors given to the
    constructor are inserted under their positions as tags.  The lead of a
    vector is its smallest key.
    """

    def __init__(self, vectors: Iterable = (), p: int | None = None, track: bool = False):
        self.p = p
        self.track = track
        self.pivots: dict = {}
        self._read = None
        for i, vec in enumerate(vectors):
            self.insert(vec, i)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _check_unit(self, lead, value) -> None:
        """Raise ``_NonUnitPivot`` if a new pivot's lead value is not a unit."""
        if self.p is not None and gcd(value, self.p) != 1:
            raise _NonUnitPivot(f"pivot at {lead!r} is not a unit modulo {self.p}")

    def _inverse(self, value):
        return 1 / Fraction(value) if self.p is None else pow(value, -1, self.p)

    def _history(self, tag) -> dict | None:
        return {tag: Fraction(1) if self.p is None else 1} if self.track else None

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
            if type(piv) is int:
                row = self._read(piv)
                piv = pivots[lead] = (row, self._history(piv), self._inverse(row.pop(lead)))
            row, comb, inv = piv
            factor = cur.pop(lead) * inv
            if p is not None:
                factor %= p
            _sub_scaled(cur, factor, row, p)
            if hist is not None:
                _sub_scaled(hist, factor, comb, p)
        return None

    def _insert(self, cur: dict, tag) -> dict | None:
        hist = self._history(tag)
        lead = self._eliminate(cur, hist)
        if lead is None:
            return {} if hist is None else hist
        value = cur.pop(lead)
        self._check_unit(lead, value)
        self.pivots[lead] = (cur, hist, self._inverse(value))
        return None

    def insert(self, vec, tag=None) -> dict | None:
        """Add vec (a dict or (key, value) pairs) to the span.

        Returns None when the span grew.  Otherwise vec is dependent and the
        result is its relation: coefficients by tag, vec's own being 1, of
        inserted vectors that sum to zero (empty when not tracking).  Raises
        ``_NonUnitPivot`` if the span would grow by a lead that is not a unit.
        """
        return self._insert(dict(vec), tag)

    def insert_columns(self, cols: CSC, row_counts=None) -> list[dict]:
        """Insert column j of cols under tag j, in order; the relations found.

        Rows are keyed by :func:`_row_keys` of ``row_counts``, each row's
        entry count in the matrix (by row index when None).  Modulo p, the
        columns enter as :func:`_residues` gives them, and the keys are formed
        from the entries it returns.  Each column's lead
        and lead value are found at once; a column whose lead has no pivot
        yet becomes one unreduced, after the same unit check as
        :meth:`insert`, and is stored as its index, so only a column that
        meets a pivot, or a pivot a later column meets, is read into a dict.
        """
        import numpy as np

        if self.p is not None:
            cols = _residues(cols, self.p)
        keys = cols.rows if row_counts is None else _row_keys(cols.rows, row_counts)
        bounds = cols.indptr.tolist()
        counts = np.diff(cols.indptr)
        nonempty = np.flatnonzero(counts)
        lead = np.full(len(counts), -1, np.int64)
        value = np.zeros(len(counts), cols.values.dtype)
        if nonempty.size:
            lead[nonempty] = np.minimum.reduceat(keys, cols.indptr[nonempty])
            value[nonempty] = cols.values[keys == np.repeat(lead[nonempty], counts[nonempty])]
        # One key object per row read, shared by every dict that holds it: a
        # fresh object per entry made small dense passes use more memory.
        interned: dict[int, int] = {}

        def read(j: int) -> dict:
            at = keys[bounds[j] : bounds[j + 1]].tolist()
            return dict(zip(map(interned.setdefault, at, at),
                            cols.values[bounds[j] : bounds[j + 1]].tolist()))

        self._read = read
        pivots = self.pivots
        relations = []
        for j, (key, val) in enumerate(zip(lead.tolist(), value.tolist())):
            if key >= 0 and key not in pivots:
                self._check_unit(key, val)
                pivots[key] = j
                continue
            relation = self._insert(read(j), j)
            if relation is not None:
                relations.append(relation)
        return relations

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
        if self.p is None:
            return {t: -c for t, c in neg.items()}
        return {t: -c % self.p for t, c in neg.items()}


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


def _residues(cols: CSC, p: int) -> CSC:
    """cols modulo p, zero residues dropped; cols itself when every |entry| < p.

    A nonzero entry below p in absolute value stays nonzero mod p, and the
    pass reduces every entry it touches, so such columns enter as they are.
    """
    if cols.max_abs() < p:
        return cols
    col, row, value = cols.entries()
    return csc(len(cols.indptr) - 1, [(col, row, value % p)])


def dense_rank_modp(cols: CSC, nrows: int, ncols: int, p: int) -> int:
    """Vectorised row-echelon rank mod p of integer columns, on the transpose.

    Not on the kernel path: the tests keep it as an independent reference
    rank, like :func:`sparse_rank_modp`.
    """
    import numpy as np

    a = np.zeros((ncols, nrows), dtype=np.int64)
    col, row, value = cols.entries()
    a[col, row] = value % p
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


def sparse_rank_modp(cols: CSC, p: int) -> int:
    """Rank modulo p of integer columns.

    Not on the kernel path: the tests keep it as the per-prime reference
    rank, like :func:`dense_rank_modp`, so it reduces the columns itself.
    """
    vectors = ({r: v % p for r, v in zip(rows.tolist(), values.tolist()) if v % p}
               for rows, values in cols)
    return Eliminator(vectors, p=p).rank


def _row_keys(rows, row_counts):
    """The key count[r] * nrows + r of each row index r in rows.

    ``row_counts`` holds the entry count of each of the nrows rows, so the
    keys order rows by fewest entries, then by index, and no two rows share
    a key.
    """
    return row_counts[rows] * len(row_counts) + rows


def _relations(cols: CSC, p: int | None, row_counts=None) -> tuple[list[dict], int]:
    """Relations of the columns that reduce to zero, and the rank.

    Column j is inserted under tag j into a tracked elimination over Q or Z/p
    (:meth:`Eliminator.insert_columns`, rows keyed by ``row_counts``); its
    relation is supported on j (coefficient 1) and earlier pivot columns.
    """
    elim = Eliminator(p=p, track=True)
    relations = elim.insert_columns(cols, row_counts)
    return relations, elim.rank


def _clear_denominators(vec: dict) -> None:
    """Scale vec (coefficient 1 at its free column) in place to its primitive integer multiple."""
    scale = lcm(*[c.denominator for c in vec.values()])
    for j, c in vec.items():
        vec[j] = c.numerator * (scale // c.denominator)


def sparse_kernel_exact(cols: CSC) -> tuple[list[dict[int, int]], int]:
    """Exact kernel as primitive integer vectors (module docs), and the rank, over Q.

    Deterministic; the fallback when a modular lift fails.
    """
    vectors, rank = _relations(cols, None)
    for vec in vectors:
        _clear_denominators(vec)
    return vectors, rank


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


def _reconstruct(relations: list[dict], m: int) -> bool:
    """Lift each relation mod m to its primitive integer vector, in place; False on failure.

    In place, so the residues and the fractions are not held side by side.
    """
    for vec in relations:
        for j, u in vec.items():
            vec[j] = _rational_reconstruction(u, m)
            if vec[j] is None:
                return False
        _clear_denominators(vec)
    return True


def verify_kernel_vectors(cols: CSC, vectors: Iterable[dict]) -> bool:
    """Exact check that each combination of columns is the zero vector.

    Coefficients multiply the column slices as given: integers stay integers.
    """
    for vec in vectors:
        acc: dict = {}
        for j, c in vec.items():
            rows, values = cols[j]
            for r, v in zip(rows.tolist(), values.tolist()):
                acc[r] = acc.get(r, 0) + c * v
        if any(acc.values()):
            return False
    return True


def kernel_with_certificate(
    cols: CSC, nrows: int, ncols: int, denominator: int = 1
) -> tuple[list[dict[int, int]], RankCertificate]:
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

    import numpy as np

    pool = [p for p in PRIME_POOL if denominator % p]
    row_counts = np.bincount(cols.rows, minlength=nrows)
    for attempt in range(4):
        primes = pool[attempt * 3 : attempt * 3 + 3]
        if len(primes) < 3:
            raise RankDisagreement("prime pool exhausted")
        modulus = primes[0] * primes[1] * primes[2]
        try:
            vectors, rank = _relations(cols, modulus, row_counts)
            break
        except _NonUnitPivot:
            continue
    else:
        raise RankDisagreement(
            f"modular eliminations disagree persistently: in each of {attempt + 1} "
            "prime triples a pivot vanished modulo some but not all of the primes"
        )
    ranks = [rank] * 3

    if rank == ncols:
        # Full column rank is already exact: the rank over the rationals is
        # bounded below by any modular rank and above by the column count.
        cert = RankCertificate(primes, ranks, True, "multi-modular+full-column-rank", ncols)
        return [], cert

    if not (_reconstruct(vectors, modulus) and verify_kernel_vectors(cols, vectors)):
        vectors, exact_rank = sparse_kernel_exact(cols)
        if not verify_kernel_vectors(cols, vectors):
            raise CertificationError("exact kernel failed the membership check")
        if exact_rank != rank or exact_rank + len(vectors) != ncols:
            raise RankDisagreement(
                f"exact rank {exact_rank} does not confirm modular ranks {ranks}"
            )
    return vectors, RankCertificate(primes, ranks, True, "multi-modular+exact", rank)


def same_subspace(basis_a: Sequence[dict], basis_b: Sequence[dict]) -> bool:
    """Exact subspace equality: equal ranks and basis_b inside span(basis_a)."""
    span_a = Eliminator(basis_a)
    if Eliminator(basis_b).rank != span_a.rank:
        return False
    return not any(span_a.reduce(vec) for vec in basis_b)
