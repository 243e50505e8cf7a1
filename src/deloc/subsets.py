"""Bitmask encoding of coordinate subsets.

Subsets of [n] are represented as Python integers with bit i set when
coordinate i is a member.  Arbitrary-precision ints make this exact for
any n, and union/intersection become single bitwise ops.
"""

from __future__ import annotations

from typing import Iterable


def mask_from(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        if i < 0:
            raise ValueError(f"negative coordinate index {i}")
        m |= 1 << i
    return m


def indices_from(mask: int) -> tuple[int, ...]:
    """The set bits of mask, lowest first, one step per bit: m & -m is the lowest."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def size(mask: int) -> int:
    return mask.bit_count()


def as_mask(u, n: int | None = None) -> int:
    """Accept either a bitmask int or an iterable of indices."""
    m = u if isinstance(u, int) else mask_from(u)
    if n is not None and m >> n:
        raise ValueError(f"subset {indices_from(m)} not contained in range({n})")
    return m


def sorted_indices(u: Iterable[int], n: int) -> list[int]:
    """The distinct members of u in ascending order; a ValueError if u is
    empty or has a member outside range(n)."""
    idx = sorted(set(int(i) for i in u))
    if not idx:
        raise ValueError("marginal over the empty set is undefined")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValueError(f"subset {idx} out of range for dimension {n}")
    return idx
