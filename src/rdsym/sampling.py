"""Deterministic low-discrepancy sampling.

All sampling-based checks (numeric equality, symmetry verification, grid
sweeps) draw from the same Halton sequence so results are reproducible.
The environment variable RDSYM_SEED, a non-negative integer, shifts the
start index.
"""

from __future__ import annotations

import os
from functools import lru_cache

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)

# skip the strongly correlated head of the sequence
_BASE_OFFSET = 101


def _seed_offset() -> int:
    raw = os.environ.get("RDSYM_SEED", "")
    if not raw:
        return 0
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    # a negative start index would put every Halton point at the origin
    if seed < 0:
        raise ValueError(f"RDSYM_SEED must be a non-negative integer, got {raw!r}")
    return seed


def _radical_inverse(i: int, base: int) -> float:
    f = 1.0
    r = 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


@lru_cache(maxsize=256)
def _halton_cached(dim: int, n: int, offset: int) -> tuple[tuple[float, ...], ...]:
    if dim > len(_PRIMES):
        raise ValueError(f"at most {len(_PRIMES)} sampling dimensions supported")
    bases = _PRIMES[:dim]
    return tuple(
        tuple(_radical_inverse(i, b) for b in bases)
        for i in range(offset, offset + n)
    )


def halton_points(dim: int, n: int) -> tuple[tuple[float, ...], ...]:
    """n points of the dim-dimensional Halton sequence in (0,1)^dim."""
    return _halton_cached(dim, n, _BASE_OFFSET + _seed_offset())


def halton_scaled(box: list[tuple[float, float]], n: int) -> list[tuple[float, ...]]:
    """n Halton points scaled into the given interval box."""
    pts = halton_points(len(box), n)
    return [
        tuple(lo + (hi - lo) * c for (lo, hi), c in zip(box, pt))
        for pt in pts
    ]


@lru_cache(maxsize=256)
def _line_cached(lo: float, hi: float, n: int, offset: int) -> tuple[float, ...]:
    return tuple(lo + (hi - lo) * pt[0] for pt in _halton_cached(1, n, offset))


def line_samples(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """The coordinates of halton_scaled([(lo, hi)], n), kept per
    (lo, hi, n, start index)."""
    return _line_cached(lo, hi, n, _BASE_OFFSET + _seed_offset())
