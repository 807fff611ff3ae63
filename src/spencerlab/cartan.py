"""Cartan data and root system enumeration for the semisimple families.

A ``CartanDatum`` is a Cartan type, its family letter and rank, checked when
it is constructed; parsing a label builds nothing else.  Everything derived
from the type (the Cartan matrix, the positive roots and the root and weight
geometry) comes from ``geometry(datum)``, the one source of root data.

Conventions used throughout the package:

* Cartan matrix entries are ``A[i][j] = <alpha_j, alpha_i^vee>``, i.e. row i
  pairs the other simple roots against the i-th coroot.
* Roots are stored as integer coordinate tuples in the simple-root basis.
* Weights are stored as Dynkin labels ``lambda_i = <lambda, alpha_i^vee>``.
* The invariant form is normalised so that short roots have squared length 2.

``geometry(datum)`` computes the root and weight geometry of a datum once per
process and keeps it in integers; every positive root, squared length,
coroot, pairing and weight inner product in the package is read from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence


class CartanError(ValueError):
    """Raised for invalid Cartan data (bad family, rank, or label)."""


FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# Minimal admissible rank per family; avoids the low-rank coincidences
# (B1 = A1, C2 = B2, D3 = A3).
_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"E": 8, "F": 4, "G": 2}


def _check_type(family: str, rank: int) -> None:
    if family not in FAMILIES:
        raise CartanError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if rank < _MIN_RANK[family]:
        raise CartanError(f"{family}{rank}: rank must be >= {_MIN_RANK[family]}")
    if family in _MAX_RANK and rank > _MAX_RANK[family]:
        raise CartanError(f"{family}{rank}: rank must be <= {_MAX_RANK[family]}")


def standard_cartan_matrix(family: str, rank: int) -> list[list[int]]:
    """Return the standard Cartan matrix for the given family and rank."""
    _check_type(family, rank)
    a = [[2 * (i == j) for j in range(rank)] for i in range(rank)]

    def chain(i: int, j: int) -> None:
        a[i][j] = -1
        a[j][i] = -1

    if family in ("A", "B", "C"):
        for i in range(rank - 1):
            chain(i, i + 1)
        if family == "B" and rank >= 2:
            # alpha_rank is short: its coroot row carries the -2.
            a[rank - 1][rank - 2] = -2
        if family == "C":
            # alpha_rank is long.
            a[rank - 2][rank - 1] = -2
    elif family == "D":
        for i in range(rank - 3):
            chain(i, i + 1)
        chain(rank - 3, rank - 2)
        chain(rank - 3, rank - 1)
    elif family == "E":
        # Node 2 hangs off node 4 of the chain 1-3-4-5-...-rank (1-based).
        edges = [(0, 2), (1, 3), (2, 3)] + [(i, i + 1) for i in range(3, rank - 1)]
        for i, j in edges:
            chain(i, j)
    elif family == "F":
        chain(0, 1)
        chain(2, 3)
        a[1][2] = -1
        a[2][1] = -2  # alpha_3, alpha_4 short
    elif family == "G":
        a[0][1] = -3  # alpha_1 short, alpha_2 long
        a[1][0] = -1
    return a


@dataclass(frozen=True)
class CartanDatum:
    """A Cartan type; its matrix and roots are read from ``geometry(datum)``."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        _check_type(self.family, self.rank)

    @classmethod
    def from_label(cls, label: str) -> "CartanDatum":
        """Parse labels like ``A1``, ``E7``, ``G2``."""
        label = label.strip()
        if len(label) < 2 or label[0].upper() not in FAMILIES:
            raise CartanError(f"cannot parse algebra label {label!r}")
        try:
            rank = int(label[1:])
        except ValueError as exc:
            raise CartanError(f"cannot parse rank in label {label!r}") from exc
        return cls(label[0].upper(), rank)

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        return geometry(self).cartan


def symmetrizer(cartan_matrix: Sequence[Sequence[int]]) -> list[Fraction]:
    """Rationals d_i with d_i A[i][j] = d_j A[j][i], short roots at d = 1.

    d_i is half the squared length of alpha_i.
    """
    n = len(cartan_matrix)
    d: list[Fraction | None] = [None] * n
    # Propagate over the Dynkin graph; connected components each get a seed.
    for seed in range(n):
        if d[seed] is not None:
            continue
        d[seed] = Fraction(1)
        stack = [seed]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and cartan_matrix[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * cartan_matrix[i][j] / cartan_matrix[j][i]
                    stack.append(j)
    dmin = min(d)  # type: ignore[type-var]
    return [x / dmin for x in d]  # type: ignore[operator]


def _pairing(cartan_matrix, beta: tuple[int, ...], i: int) -> int:
    """<beta, alpha_i^vee> for beta in simple-root coordinates."""
    row = cartan_matrix[i]
    return sum(c * row[j] for j, c in enumerate(beta))


def _positive_roots(a) -> tuple[tuple[int, ...], ...]:
    """Enumerate all positive roots by closure under simple-root addition.

    A candidate beta + alpha_i is accepted when the alpha_i-string through
    beta ascends, i.e. q - <beta, alpha_i^vee> > 0 with q the largest k such
    that beta - k*alpha_i is already a root.  The roots come in (height, lex)
    order.
    """
    n = len(a)
    simple = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    known: set[tuple[int, ...]] = set(simple)
    level = list(simple)
    ordered: list[tuple[int, ...]] = []
    while level:
        ordered.extend(sorted(level))
        nxt: set[tuple[int, ...]] = set()
        for beta in level:
            for i in range(n):
                if beta == simple[i]:
                    continue  # 2*alpha_i is never a root
                q = 0
                down = tuple(beta[j] - simple[i][j] for j in range(n))
                while down in known:
                    q += 1
                    down = tuple(down[j] - simple[i][j] for j in range(n))
                if q - _pairing(a, beta, i) > 0:
                    cand = tuple(beta[j] + simple[i][j] for j in range(n))
                    if cand not in known:
                        nxt.add(cand)
        known.update(nxt)
        level = list(nxt)
    return tuple(ordered)


def root_height(beta: tuple[int, ...]) -> int:
    return sum(beta)


def _integral(values: list[Fraction], message: str) -> tuple[int, ...]:
    if any(x.denominator != 1 for x in values):
        raise CartanError(message)
    return tuple(int(x) for x in values)


def adjugate(matrix) -> tuple[int, list[list[int]]]:
    """det A and adj A = det(A) A^-1 by fraction-free Gauss-Jordan elimination.

    Divisions are exact and need no pivoting: the k-th pivot is the k-th
    leading principal minor, positive for a finite-type Cartan matrix and
    for an integer positive definite Gram matrix.
    """
    n = len(matrix)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    prev = 1
    for k in range(n):
        piv = m[k][k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(piv * x - f * y) // prev for x, y in zip(m[i], m[k])]
        prev = piv
    return prev, [row[n:] for row in m]


class RootGeometry:
    """Root and weight geometry of one Cartan datum, in integers.

    ``cartan`` is the standard Cartan matrix and ``positive_roots`` lists the
    positive roots in (height, lex) order.  Per positive root beta:
    ``labels`` holds
    <beta, alpha_i^vee>, ``norm2`` holds (beta, beta) and ``coroots`` holds
    beta^vee = 2 beta / (beta, beta) on the simple coroots.  A weight with
    labels lambda has root coordinates A^-1 lambda, and (omega_i, omega_j) =
    A^-1[i][j] d_i; ``dot`` and ``height`` return det(A) times the inner
    product and the height, through ``adj`` = det(A) A^-1.
    """

    def __init__(self, datum: CartanDatum):
        n = datum.rank
        a = self.cartan = tuple(map(tuple, standard_cartan_matrix(datum.family, n)))
        pos = self.positive_roots = _positive_roots(a)
        self.d = _integral(symmetrizer(a), f"{datum.label}: non-integral symmetrizer")
        # alpha_i in label coordinates is column i of the Cartan matrix.
        self.simple_labels = tuple(tuple(a[j][i] for j in range(n)) for i in range(n))
        self.labels = tuple(tuple(_pairing(a, beta, i) for i in range(n)) for beta in pos)
        self.norm2 = tuple(self.root_norm2(beta) for beta in pos)
        # alpha_i = d_i alpha_i^vee
        self.coroots = tuple(
            _integral([Fraction(2 * c * di, nb) for c, di in zip(beta, self.d)],
                      f"{datum.label}: non-integral coroot for {beta}")
            for beta, nb in zip(pos, self.norm2)
        )
        self.det, adj = adjugate(a)
        self.adj = tuple(map(tuple, adj))
        self.gram = tuple(tuple(x * di for x in row) for row, di in zip(adj, self.d))
        # column i of adj is det(A) omega_i in root coordinates
        self.height_row = tuple(root_height(col) for col in zip(*adj))

    def root_norm2(self, beta: tuple[int, ...]) -> int:
        """(beta, beta) = sum_i beta_i d_i <beta, alpha_i^vee>."""
        return sum(
            c * di * _pairing(self.cartan, beta, i) for i, (c, di) in enumerate(zip(beta, self.d))
        )

    def dot(self, lam: Sequence[int], mu: Sequence[int]) -> int:
        """det(A) (lam, mu) for weights in label coordinates."""
        return sum(
            x * sum(g * y for g, y in zip(row, mu)) for x, row in zip(lam, self.gram) if x
        )

    def height(self, lam: Sequence[int]) -> int:
        """det(A) times the height (coordinate sum in the simple roots) of lam."""
        return sum(h * x for h, x in zip(self.height_row, lam))

    def dot_root(self, lam: Sequence[int], r: int) -> int:
        """(lam, beta) for the r-th positive root: sum_i lam_i beta_i d_i."""
        beta = self.positive_roots[r]
        return sum(x * c * di for x, c, di in zip(lam, beta, self.d))

    def coroot_pairing(self, lam: Sequence[int], r: int) -> int:
        """<lam, beta^vee> for the r-th positive root."""
        return sum(x * c for x, c in zip(lam, self.coroots[r]))


@lru_cache(maxsize=None)
def geometry(datum: CartanDatum) -> RootGeometry:
    """The datum's root and weight geometry, built once per process."""
    return RootGeometry(datum)
