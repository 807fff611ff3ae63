"""Chevalley basis construction with integer structure constants.

``build_chevalley_basis(datum)`` builds the table from the Cartan type
alone, and always proves Jacobi on it: the positive roots, their Dynkin
labels, squared lengths and coroots all come from ``cartan.geometry(datum)``.

Basis order (contractual; all sparse matrices depend on it):
h_1..h_rank, then e_beta for positive roots beta in (height, lex) order,
then f_beta mirrored in the same root order.

Sign convention: for each positive root gamma of height >= 2 the
extraspecial pair (alpha, beta) is the special pair (alpha < beta,
alpha + beta = gamma) with minimal alpha in (height, lex) order; its
structure constant is fixed to +(p + 1) where p is the length of the
descending alpha-string through beta.  Every other constant follows from
antisymmetry, the opposite-root relation N(-x,-y) = -N(x,y), the
invariant-form cycling rule for triples summing to zero, and the Jacobi
identity on root-vector triples.

Before a table is returned, Jacobi is proved on every triple from three
checks on the table itself (``prove_jacobi``).  Let D be the set of x whose
ad_x is a derivation, [x, [y, z]] = [[x, y], z] + [y, [x, z]].  D is a
subspace, and it is closed under the bracket, because ad_[x,y] = [ad_x, ad_y]
when ad_x is a derivation and a commutator of derivations is a derivation.
So if the e_i and f_i generate the algebra and each ad_{e_i}, ad_{f_i} is a
derivation, D is everything; with an antisymmetric bracket the derivation
rule is the Jacobi identity.  The checks are: antisymmetry with [x, x] = 0
on the basis; generation (every root vector of height >= 2 is a nonzero
multiple of [e_i, e_{gamma - alpha_i}], resp. for f, and the h-parts of the
[e_i, f_i] are linearly independent); and the derivation rule for the
2 rank generators on every basis pair.  See Humphreys, *Introduction to Lie
Algebras and Representation Theory* (1972), section 1.3, and de Graaf,
*Lie Algebras: Theory and Algorithms* (2000), on checking structure
constants.  ``check_jacobi``, the check on all basis triples, stays as an
independent oracle.

The Killing form K(x, y) = tr(ad_x ad_y) is kept as integers in its only
nonzero blocks, K(h_i, h_j) and K(e_r, f_r), and every other entry is proved
zero rather than computed.  Give h_i weight 0, e_r the Dynkin labels of root
r and f_r their negatives.  The build checks, in O(nnz), that every term x_c
of [x_a, x_b] has weight wt(a) + wt(b).  Then ad_a ad_b shifts every weight
by wt(a) + wt(b), so its trace is zero unless that sum is zero.  Dynkin
labels are injective on roots (the Cartan matrix is invertible), so the sum
is zero only for (h_i, h_j) and (e_r, f_r); this is K(g_alpha, g_beta) = 0
unless alpha + beta = 0 (Humphreys, section 8.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cartan import CartanDatum, RootGeometry, adjugate, geometry, root_height


class ChevalleyError(RuntimeError):
    """Sign-consistency failure during construction, or a failed Jacobi proof."""


Root = tuple[int, ...]
# A bracket value is a tuple of (basis index, integer coefficient) pairs.
BracketValue = tuple[tuple[int, int], ...]


class _ConstantTable:
    """N(x, y) for all root pairs, built by height induction."""

    def __init__(self, geo: RootGeometry):
        self.pos = geo.positive_roots
        self.pos_index = {b: i for i, b in enumerate(self.pos)}
        self.phi: set[Root] = set(self.pos) | {self._neg(b) for b in self.pos}
        self.norm2 = dict(zip(self.pos, geo.norm2))
        self.special: dict[tuple[Root, Root], int] = {}
        self._build()

    @staticmethod
    def _neg(b: Root) -> Root:
        return tuple(-x for x in b)

    @staticmethod
    def _add(x: Root, y: Root) -> Root:
        return tuple(a + b for a, b in zip(x, y))

    @staticmethod
    def _sub(x: Root, y: Root) -> Root:
        return tuple(a - b for a, b in zip(x, y))

    @staticmethod
    def _is_positive(b: Root) -> bool:
        for x in b:
            if x:
                return x > 0
        return False

    def string_down(self, alpha: Root, beta: Root) -> int:
        """Largest k >= 0 with beta - k*alpha a root."""
        k = 0
        cur = self._sub(beta, alpha)
        while cur in self.phi:
            k += 1
            cur = self._sub(cur, alpha)
        return k

    def n(self, x: Root, y: Root) -> int:
        """Structure constant N(x, y); zero when x + y is not a root."""
        s = self._add(x, y)
        if s not in self.phi:
            return 0
        xpos = self._is_positive(x)
        ypos = self._is_positive(y)
        if xpos and ypos:
            if self.pos_index[x] < self.pos_index[y]:
                return self.special[(x, y)]
            return -self.special[(y, x)]
        if not xpos and not ypos:
            return -self.n(self._neg(x), self._neg(y))
        if not xpos:
            return -self.n(y, x)
        # x positive, y negative; the sum s plays the role of x - (-y).
        z = self._neg(y)
        if self._is_positive(s):
            num, den = -self.norm2[s] * self.n(z, s), self.norm2[x]
        else:
            v = self._neg(s)
            num, den = -self.norm2[v] * self.n(x, v), self.norm2[z]
        val, rem = divmod(num, den)
        if rem:
            raise ChevalleyError(f"non-integer constant for pair {x}, {y}: {num}/{den}")
        return val

    def _build(self) -> None:
        # Positive roots come in (height, lex) order, so comparing positions
        # compares roots, and the pairs below are found in increasing order.
        for g, gamma in enumerate(self.pos):
            if root_height(gamma) < 2:
                continue
            pairs = []
            for j, delta in enumerate(self.pos[:g]):
                eta = self._sub(gamma, delta)
                if self.pos_index.get(eta, -1) > j:
                    pairs.append((delta, eta))
            if not pairs:
                raise ChevalleyError(f"no special pair found for root {gamma}")
            alpha, beta = pairs[0]
            self.special[(alpha, beta)] = self.string_down(alpha, beta) + 1
            for delta, eta in pairs[1:]:
                # Jacobi on (e_delta, e_eta, e_{-alpha}), read off on the
                # gamma - alpha root space.
                term = 0
                if self._sub(eta, alpha) in self.phi:
                    term += self.n(eta, self._neg(alpha)) * self.n(delta, self._sub(eta, alpha))
                if self._sub(delta, alpha) in self.phi:
                    term += self.n(self._neg(alpha), delta) * self.n(eta, self._sub(delta, alpha))
                denom = self.n(self._neg(alpha), gamma)
                if denom == 0:
                    raise ChevalleyError(f"vanishing extraspecial constant at {gamma}")
                val, rem = divmod(-term, denom)
                if rem or val == 0:
                    raise ChevalleyError(
                        f"sign-consistency failure at triple {delta}, {eta}, {gamma}: "
                        f"{-term}/{denom}"
                    )
                self.special[(delta, eta)] = val


@dataclass
class LieAlgebraTable:
    """Bracket and Killing tables for a semisimple algebra in a Chevalley basis."""

    datum: CartanDatum
    dim: int
    basis_labels: tuple[str, ...]
    # bracket[a][b] lists (c, coeff) with [x_a, x_b] = sum coeff * x_c.
    bracket_rows: tuple[dict[int, BracketValue], ...]
    # The Killing form K(x_a, x_b) = tr(ad_a ad_b) is zero off these blocks
    # (module docstring): K(h_i, h_j), and K(e_r, f_r) = K(f_r, e_r) per root.
    killing_cartan: tuple[tuple[int, ...], ...] = field(repr=False)
    killing_pairs: tuple[int, ...] = field(repr=False)
    weights: tuple[tuple[int, ...], ...] = field(repr=False)
    jacobi_checked: bool = False  # set only after prove_jacobi passes

    @property
    def rank(self) -> int:
        return self.datum.rank

    @property
    def label(self) -> str:
        return self.datum.label

    @property
    def n_positive(self) -> int:
        return len(geometry(self.datum).positive_roots)

    def bracket_basis(self, a: int, b: int) -> BracketValue:
        return self.bracket_rows[a].get(b, ())

    def e_index(self, r: int) -> int:
        return self.rank + r

    def f_index(self, r: int) -> int:
        return self.rank + self.n_positive + r


def _check_graded(
    rows: Sequence[dict[int, BracketValue]], weights: Sequence[tuple[int, ...]]
) -> None:
    """Every term x_c of [x_a, x_b] has weight wt(a) + wt(b), in O(nnz)."""
    for a, row in enumerate(rows):
        for b, entries in row.items():
            want = tuple(x + y for x, y in zip(weights[a], weights[b]))
            bad = next((c for c, _ in entries if weights[c] != want), None)
            if bad is not None:
                raise ChevalleyError(
                    f"bracket of basis pair ({a}, {b}) has a term x_{bad} "
                    f"outside the weight space {want}"
                )


def _trace_ad_ad(rows: Sequence[dict[int, BracketValue]], a: int, b: int) -> int:
    """tr(ad_a ad_b) from the sparse bracket table."""
    total = 0
    row_b = rows[b]
    for c, entries in rows[a].items():  # [x_a, x_c] = sum coeff x_d
        for d, coeff in entries:
            for c2, coeff2 in row_b.get(d, ()):
                if c2 == c:
                    total += coeff * coeff2
    return total


def _killing_blocks(
    rows: Sequence[dict[int, BracketValue]],
    weights: Sequence[tuple[int, ...]],
    rank: int,
    n_pos: int,
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """K(h_i, h_j) and the K(e_r, f_r), after proving every other entry is zero."""
    _check_graded(rows, weights)
    cartan = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            cartan[i][j] = cartan[j][i] = _trace_ad_ad(rows, i, j)
    pairs = tuple(_trace_ad_ad(rows, rank + r, rank + n_pos + r) for r in range(n_pos))
    # K is positive definite on the real span of the coroots, so adjugate
    # needs no pivoting and its determinant is positive.
    try:
        det, _ = adjugate(cartan)
    except ZeroDivisionError:  # a vanishing leading minor
        det = 0
    if det <= 0:
        raise ChevalleyError("Killing form not positive definite on the Cartan block")
    for r, pairing in enumerate(pairs):
        if pairing == 0:
            raise ChevalleyError(f"degenerate (e, f) Killing pairing at root index {r}")
    return tuple(map(tuple, cartan)), pairs


def jacobi_residual(table: LieAlgebraTable, a: int, b: int, c: int) -> dict[int, int]:
    """[x_a,[x_b,x_c]] + [x_b,[x_c,x_a]] + [x_c,[x_a,x_b]] as a sparse vector."""
    acc: dict[int, int] = {}

    def add_double(x: int, inner: BracketValue, sign: int) -> None:
        row = table.bracket_rows[x]
        for m, coeff in inner:
            out = row.get(m)
            if out:
                for n_idx, coeff2 in out:
                    acc[n_idx] = acc.get(n_idx, 0) + sign * coeff * coeff2

    add_double(a, table.bracket_basis(b, c), 1)
    add_double(b, table.bracket_basis(c, a), 1)
    add_double(c, table.bracket_basis(a, b), 1)
    return {k: v for k, v in acc.items() if v}


def check_jacobi(table: LieAlgebraTable) -> int:
    """Verify the Jacobi identity on every basis triple; returns triple count."""
    dim = table.dim
    count = 0
    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                count += 1
                bad = jacobi_residual(table, a, b, c)
                if bad:
                    raise ChevalleyError(
                        f"Jacobi identity fails on basis triple ({a}, {b}, {c}): {bad}"
                    )
    return count


def _vector(entries: BracketValue) -> dict[int, int]:
    out: dict[int, int] = {}
    for c, v in entries:
        out[c] = out.get(c, 0) + v
    return {c: v for c, v in out.items() if v}


def _check_antisymmetric(rows: Sequence[dict[int, BracketValue]]) -> None:
    """[x_b, x_a] = -[x_a, x_b] and [x_a, x_a] = 0 on the basis, in O(nnz)."""
    for a, row in enumerate(rows):
        for b, entries in row.items():
            val = _vector(entries)
            if b == a and val:
                raise ChevalleyError(f"[x_{a}, x_{a}] is not zero: {val}")
            if _vector(rows[b].get(a, ())) != {c: -v for c, v in val.items()}:
                raise ChevalleyError(f"bracket is not antisymmetric on basis pair ({a}, {b})")


def _check_generated(table: LieAlgebraTable, simple: list[int]) -> None:
    """The e_i, f_i generate the algebra, as read from the table.

    ``simple[i]`` is the positive-root index of alpha_i.
    """
    rank = table.rank
    pos = geometry(table.datum).positive_roots
    pos_index = {b: r for r, b in enumerate(pos)}
    rows = table.bracket_rows
    for r, gamma in enumerate(pos):
        if root_height(gamma) < 2:
            continue
        # (i, s) with gamma - alpha_i = pos[s]
        splits = []
        for i in range(rank):
            s = pos_index.get(tuple(g - (j == i) for j, g in enumerate(gamma)))
            if s is not None:
                splits.append((i, s))
        for index in (table.e_index, table.f_index):
            if not any(
                _vector(rows[index(simple[i])].get(index(s), ())).keys() == {index(r)}
                for i, s in splits
            ):
                raise ChevalleyError(
                    f"{table.basis_labels[index(r)]} is not a nonzero multiple of any "
                    f"[x_i, x_(gamma - alpha_i)]: the generators do not generate the algebra"
                )
    h_parts = []
    for i in simple:
        val = _vector(rows[table.e_index(i)].get(table.f_index(i), ()))
        h_parts.append([val.get(j, 0) for j in range(rank)])
    try:
        det, _ = adjugate(h_parts)
    except ZeroDivisionError:  # a vanishing leading minor: not certified
        det = 0
    if det == 0:
        raise ChevalleyError(
            "the h-parts of the [e_i, f_i] are not certified to span the Cartan subalgebra"
        )


def _check_derivation(table: LieAlgebraTable, g: int) -> None:
    """[ad_g, ad_y] = ad_[g,y] for every basis y, i.e. J(g, y, z) = 0 for all y, z."""
    rows = table.bracket_rows
    dim = table.dim
    ad_g = rows[g]
    for y, row_y in enumerate(rows):
        # acc[z * dim + c]: coefficient of x_c in [[ad_g, ad_y] - ad_[g,y]] x_z.
        acc: dict[int, int] = {}
        for z, inner in row_y.items():
            for m, v in inner:
                for c, w in ad_g.get(m, ()):
                    key = z * dim + c
                    acc[key] = acc.get(key, 0) + v * w
        for z, inner in ad_g.items():
            for m, v in inner:
                for c, w in row_y.get(m, ()):
                    key = z * dim + c
                    acc[key] = acc.get(key, 0) - v * w
        for m, v in ad_g.get(y, ()):
            for z, inner in rows[m].items():
                for c, w in inner:
                    key = z * dim + c
                    acc[key] = acc.get(key, 0) - v * w
        bad = next((key for key, v in acc.items() if v), None)
        if bad is not None:
            z = bad // dim
            raise ChevalleyError(
                f"Jacobi identity fails on basis triple ({g}, {y}, {z}): "
                f"ad of generator {table.basis_labels[g]} is not a derivation"
            )


def prove_jacobi(table: LieAlgebraTable) -> int:
    """Prove Jacobi on every basis triple from the 2 rank Chevalley generators.

    Checks antisymmetry, generation by the e_i and f_i, and that each
    generator acts by a derivation (the module docstring has the argument);
    raises :class:`ChevalleyError` on the first failure.  Returns the number
    of derivations checked.
    """
    pos = geometry(table.datum).positive_roots
    simple = [pos.index(tuple(int(i == j) for j in range(table.rank))) for i in range(table.rank)]
    _check_antisymmetric(table.bracket_rows)
    _check_generated(table, simple)
    generators = [table.e_index(r) for r in simple] + [table.f_index(r) for r in simple]
    for g in generators:
        _check_derivation(table, g)
    return len(generators)


def build_chevalley_basis(datum: CartanDatum) -> LieAlgebraTable:
    """Build the full bracket table for the datum's algebra and prove Jacobi on it."""
    rank = datum.rank
    geo = geometry(datum)
    pos = geo.positive_roots
    n_pos = len(pos)
    dim = rank + 2 * n_pos
    consts = _ConstantTable(geo)

    pos_index = consts.pos_index
    e_of = lambda r: rank + r
    f_of = lambda r: rank + n_pos + r

    rows: list[dict[int, BracketValue]] = [dict() for _ in range(dim)]

    def put(a: int, b: int, entries: list[tuple[int, int]]) -> None:
        entries = [(c, v) for c, v in entries if v]
        if not entries:
            return
        entries.sort()
        rows[a][b] = tuple(entries)
        rows[b][a] = tuple((c, -v) for c, v in entries)

    for i in range(rank):
        for r, labels in enumerate(geo.labels):
            p = labels[i]
            if p:
                put(i, e_of(r), [(e_of(r), p)])
                put(i, f_of(r), [(f_of(r), -p)])
    for r, coroot in enumerate(geo.coroots):
        put(e_of(r), f_of(r), list(enumerate(coroot)))
    neg = consts._neg
    add = consts._add
    for r, br in enumerate(pos):
        for s in range(r + 1, n_pos):
            bs = pos[s]
            tot = add(br, bs)
            if tot in pos_index:
                nval = consts.n(br, bs)
                put(e_of(r), e_of(s), [(e_of(pos_index[tot]), nval)])
                put(f_of(r), f_of(s), [(f_of(pos_index[tot]), -nval)])
        for s in range(n_pos):
            if s == r:
                continue
            bs = pos[s]
            diff = consts._sub(br, bs)
            if diff in consts.phi:
                nval = consts.n(br, neg(bs))
                if consts._is_positive(diff):
                    put(e_of(r), f_of(s), [(e_of(pos_index[diff]), nval)])
                else:
                    put(e_of(r), f_of(s), [(f_of(pos_index[neg(diff)]), nval)])

    labels = (
        tuple(f"h{i + 1}" for i in range(rank))
        + tuple(f"e[{','.join(map(str, b))}]" for b in pos)
        + tuple(f"f[{','.join(map(str, b))}]" for b in pos)
    )
    weights = (
        tuple(tuple(0 for _ in range(rank)) for _ in range(rank))
        + geo.labels
        + tuple(tuple(-p for p in labels) for labels in geo.labels)
    )

    killing_cartan, killing_pairs = _killing_blocks(rows, weights, rank, n_pos)

    table = LieAlgebraTable(
        datum=datum,
        dim=dim,
        basis_labels=labels,
        bracket_rows=tuple(rows),
        killing_cartan=killing_cartan,
        killing_pairs=killing_pairs,
        weights=weights,
    )
    prove_jacobi(table)
    table.jacobi_checked = True
    return table


_algebra = lru_cache(maxsize=16)(build_chevalley_basis)


def algebra(label: str) -> LieAlgebraTable:
    """Build (and cache, by parsed datum) the algebra for a label like ``A1`` or ``E7``."""
    return _algebra(CartanDatum.from_label(label))


def killing_determinant_sign(table: LieAlgebraTable) -> int:
    """Sign of det K, using the Cartan-block / (e,f)-pair shape.

    K is positive definite on the real span of the coroots h_i, so the
    Cartan block's leading principal minors are positive and ``adjugate``
    needs no pivoting.  Each (e, f) pair adds a block of determinant
    -K(e, f)^2.
    """
    det, _ = adjugate(table.killing_cartan)
    for pairing in table.killing_pairs:
        det *= -(pairing * pairing)
    return (det > 0) - (det < 0)


def bracket(table: LieAlgebraTable, x, y):
    """Bilinear bracket of two degree-1 elements over the same algebra."""
    from .sym import SymElement

    if not isinstance(x, SymElement) or not isinstance(y, SymElement):
        raise TypeError("bracket expects SymElement arguments")
    if x.dim != table.dim or y.dim != table.dim:
        raise ValueError(
            f"element dims ({x.dim}, {y.dim}) do not match algebra dim {table.dim}"
        )
    if x.degree != 1 or y.degree != 1:
        raise ValueError("bracket is defined on degree-1 elements")
    out = SymElement.zero(1, table.dim)
    for (a,), va in x.terms.items():
        row = table.bracket_rows[a]
        for (b,), vb in y.terms.items():
            ent = row.get(b)
            if ent:
                w = va * vb
                for c, coeff in ent:
                    out.add_term((c,), w * coeff)
    return out


def coadjoint(table: LieAlgebraTable, x, lam: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """(ad*_x lam)(y) = -lam([x, y]) for a degree-1 element x, evaluated exactly."""
    from .sym import SymElement

    if not isinstance(x, SymElement) or x.dim != table.dim or x.degree != 1:
        raise ValueError("coadjoint expects a degree-1 element over the same algebra")
    if len(lam) != table.dim:
        raise ValueError(f"dual vector length {len(lam)} does not match dim {table.dim}")
    out = [Fraction(0)] * table.dim
    for (a,), va in x.terms.items():
        for b, entries in table.bracket_rows[a].items():
            total = Fraction(0)
            for c, coeff in entries:
                if lam[c]:
                    total += coeff * lam[c]
            if total:
                out[b] -= va * total
    return tuple(out)


def serialize_table(table: LieAlgebraTable) -> dict:
    """Versioned JSON document for the algebra table."""
    triples = []
    for a in range(table.dim):
        for b, entries in sorted(table.bracket_rows[a].items()):
            if b <= a:
                continue
            for c, v in entries:
                triples.append([a, b, c, int(v), 1])
    # [a, b, numerator, denominator] for a <= b: the Cartan upper triangle
    # row by row, then (e_r, f_r) in root order.
    killing = [[i, j, v, 1] for i, row in enumerate(table.killing_cartan)
               for j, v in enumerate(row[i:], i) if v]
    killing += [[table.e_index(r), table.f_index(r), v, 1]
                for r, v in enumerate(table.killing_pairs)]
    return {
        "format": "lie-table",
        "format_version": 1,
        "algebra": table.label,
        "dim": table.dim,
        "basis_labels": list(table.basis_labels),
        "bracket_triples": triples,
        "killing": killing,
    }
