"""Monomial bases and arithmetic for symmetric powers of a Lie algebra.

The basis of Sym^k is the set of size-k index multisets, stored as sorted
tuples and ordered lexicographically (the order produced by
``itertools.combinations_with_replacement``).  Monomials carry coefficient 1;
no multinomial normalisation factors are introduced, which keeps operator
matrices rational with small denominators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb


DEFAULT_BASIS_CAP = 10_000_000


class ResourceCapExceeded(RuntimeError):
    """A basis or array would exceed the configured size cap."""


def checked_power(base: int, exp: int, cap: int) -> int | None:
    """base**exp, or None when base >= 2 and exp exceeds cap's bit length.

    The power is then above cap anyway, and a huge exp never forms it.
    """
    return None if base >= 2 and exp > cap.bit_length() else base**exp


def sym_dim(n: int, k: int) -> int:
    """dim Sym^k of an n-dimensional space: C(n + k - 1, k)."""
    if n < 1 or k < 0:
        raise ValueError(f"sym_dim needs n >= 1 and k >= 0, got n={n}, k={k}")
    return comb(n + k - 1, k)


def guard_sym_dim(n: int, k: int, cap: int = DEFAULT_BASIS_CAP) -> int:
    size = sym_dim(n, k)
    if size > cap:
        raise ResourceCapExceeded(
            f"Sym^{k} basis over a dimension-{n} algebra has {size} monomials, "
            f"exceeding the cap of {cap}"
        )
    return size


def enumerate_basis(n: int, k: int, cap: int = DEFAULT_BASIS_CAP) -> list[tuple[int, ...]]:
    """All degree-k monomials over indices [0, n) in lexicographic order."""
    guard_sym_dim(n, k, cap)
    return list(combinations_with_replacement(range(n), k))


@lru_cache(maxsize=None)
def rank_weights(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Per-position weights of the combinatorial number system for Sym^k.

    The position of a sorted monomial (c_0, ..., c_{k-1}) in the
    enumerate_basis order is the sum of ``weights[q][c_q]``.  With
    T_t[c] = sum_{v < c} C(n - v + t - 1, t), the number of monomials of
    degree t + 1 whose first index is below c, weights[q] = T_{k-q-1} - T_{k-q-2}
    (T_{-1} = 0): the telescoped form of summing, per position, the
    monomials that branch off below it.
    """
    cumulative = []
    for t in range(k):
        row = [0]
        for v in range(n):
            row.append(row[-1] + comb(n - v + t - 1, t))
        cumulative.append(row)
    cumulative.append([0] * (n + 1))  # T_{-1}, read as cumulative[-1]
    return tuple(
        tuple(a - b for a, b in zip(cumulative[k - q - 1], cumulative[k - q - 2]))
        for q in range(k)
    )


def monomial_at(n: int, k: int, index: int) -> tuple[int, ...]:
    """The monomial at ``index`` in the enumerate_basis order of Sym^k.

    The inverse of the ``rank_weights`` index: position by position, skip
    the C(n - v + t - 1, t) monomials whose next index is v, with t indices
    still to follow, until ``index`` falls inside one such block.
    """
    if not 0 <= index < sym_dim(n, k):
        raise ValueError(f"index {index} is outside Sym^{k} of a dimension-{n} space")
    out = []
    v = 0
    for t in range(k - 1, -1, -1):
        while index >= (block := comb(n - v + t - 1, t)):
            index -= block
            v += 1
        out.append(v)
    return tuple(out)


@dataclass
class SymElement:
    """Sparse exact-rational element of Sym^k, keyed by sorted index tuples."""

    degree: int
    dim: int
    terms: dict[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        for mono, coeff in list(self.terms.items()):
            if len(mono) != self.degree:
                raise ValueError(f"monomial {mono} has size {len(mono)}, expected {self.degree}")
            if coeff == 0:
                del self.terms[mono]

    @classmethod
    def zero(cls, degree: int, dim: int) -> "SymElement":
        return cls(degree, dim, {})

    @classmethod
    def monomial(cls, dim: int, mono: tuple[int, ...], coeff=1) -> "SymElement":
        return cls(len(mono), dim, {tuple(sorted(mono)): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, c) -> "SymElement":
        c = Fraction(c)
        if c == 0:
            return SymElement.zero(self.degree, self.dim)
        return SymElement(self.degree, self.dim, {m: v * c for m, v in self.terms.items()})

    def add(self, other: "SymElement") -> "SymElement":
        self._check_compatible(other)
        out = dict(self.terms)
        for m, v in other.terms.items():
            new = out.get(m, Fraction(0)) + v
            if new:
                out[m] = new
            else:
                out.pop(m, None)
        return SymElement(self.degree, self.dim, out)

    def add_term(self, mono: tuple[int, ...], coeff: Fraction) -> None:
        new = self.terms.get(mono, Fraction(0)) + coeff
        if new:
            self.terms[mono] = new
        else:
            self.terms.pop(mono, None)

    def _check_compatible(self, other: "SymElement") -> None:
        if self.dim != other.dim:
            raise ValueError(f"elements over different algebras (dim {self.dim} vs {other.dim})")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def serialize(self) -> list:
        """(index-list, numerator, denominator) records in basis order."""
        return [
            [list(m), v.numerator, v.denominator] for m, v in sorted(self.terms.items())
        ]


def sym_product(a: SymElement, b: SymElement) -> SymElement:
    """Symmetric product; degrees add, monomials merge as sorted multisets."""
    if a.dim != b.dim:
        raise ValueError(f"elements over different algebras (dim {a.dim} vs {b.dim})")
    out = SymElement.zero(a.degree + b.degree, a.dim)
    for m1, v1 in a.terms.items():
        for m2, v2 in b.terms.items():
            out.add_term(tuple(sorted(m1 + m2)), v1 * v2)
    return out
