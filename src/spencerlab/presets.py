"""Named dual-vector presets and the --lambda specification grammar.

Accepted forms:

* ``preset:zero``             -- the zero dual vector
* ``preset:cartanK``          -- dual of the K-th Cartan generator (1-based)
* ``preset:random:SEED``      -- sparse random rational vector, deterministic
* ``file:PATH``               -- JSON list of [numerator, denominator] pairs
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from .chevalley import LieAlgebraTable
from .operators import DualVector


def zero_dual(alg: LieAlgebraTable) -> DualVector:
    return tuple(Fraction(0) for _ in range(alg.dim))


def cartan_dual(alg: LieAlgebraTable, k: int) -> DualVector:
    """Dual basis vector of the k-th Cartan generator (1-based)."""
    if not 1 <= k <= alg.rank:
        raise ValueError(f"cartan index {k} out of range 1..{alg.rank}")
    return tuple(Fraction(int(i == k - 1)) for i in range(alg.dim))


def random_dual(alg: LieAlgebraTable, seed: int, density: int = 4) -> DualVector:
    """Sparse random rational dual vector; identical for identical seeds."""
    rng = random.Random(seed)
    support_size = min(alg.dim, density)
    support = sorted(rng.sample(range(alg.dim), support_size))
    out = [Fraction(0)] * alg.dim
    for i in support:
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.choice([1, 2, 3])
        out[i] = Fraction(num, den)
    return tuple(out)


def parse_lambda_spec(alg: LieAlgebraTable, spec: str) -> DualVector:
    spec = spec.strip()
    if spec.startswith("preset:"):
        name = spec[len("preset:"):]
        if name == "zero":
            return zero_dual(alg)
        if name.startswith("cartan"):
            try:
                k = int(name[len("cartan"):])
            except ValueError as exc:
                raise ValueError(f"bad cartan preset {spec!r}") from exc
            return cartan_dual(alg, k)
        if name.startswith("random:"):
            try:
                seed = int(name[len("random:"):])
            except ValueError as exc:
                raise ValueError(f"bad random preset {spec!r}") from exc
            return random_dual(alg, seed)
        raise ValueError(f"unknown preset {spec!r}")
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError("dual vector file must hold a JSON list of entries")
        if len(data) != alg.dim:
            raise ValueError(
                f"dual vector file has {len(data)} entries, algebra dim is {alg.dim}"
            )
        for i, entry in enumerate(data):
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(type(x) is int for x in entry)):
                raise ValueError(f"dual vector file entry {i} is {json.dumps(entry)}; "
                                 "expected [numerator, denominator] with integer values")
            if entry[1] == 0:
                raise ValueError("dual vector file has an entry with denominator 0")
        return tuple(Fraction(n, d) for n, d in data)
    raise ValueError(f"cannot parse lambda spec {spec!r}")


def describe_lambda(lam: DualVector) -> list[list[int]]:
    return [[v.numerator, v.denominator] for v in lam]
