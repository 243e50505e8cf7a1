"""Coordinate subsets: the one rule for what a subset is, and its bitmask form.

A subset of [n] comes either as a bitmask, an integer that is not a bool with
bit i set when coordinate i is a member, or as a list of indices.  Either way
it must be non-empty; an index is an integer >= 0 by _json's count rule (0.7,
True and "1" break it, 2.0 and np.int64(2) read as 2), the indices are
distinct, and each lies in range(n) wherever n is known.  `as_mask` and
`sorted_indices` are the rule's two forms; each checks u in the form it came
in, so a mask is never expanded and a list never becomes a mask to be checked.
Arbitrary-precision ints make masks exact for any n, and union/intersection
become single bitwise ops.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ._json import _check, _is_indices


def _subset(u, n: int | None, what: str, masks: bool) -> int | list[int]:
    """u read by the subset rule: a bitmask (when masks) as an int, an index
    list as its members in ascending order; a ValueError naming `what` if it
    breaks the rule."""
    if masks and isinstance(u, (int, np.integer)) and not isinstance(u, bool):
        u = int(u)
        if u < 0:
            raise ValueError(f"{what} bitmask must be >= 0, got {u}")
        outside = n is not None and u >> n
    else:
        if not _is_indices(u):
            _check(u, "indices", what)  # raises the indices rule's message
        u = sorted(map(int, u))
        outside = n is not None and bool(u) and u[-1] >= n
    if not u:
        raise ValueError(f"{what} must be nonempty")
    if outside:
        members = indices_from(u) if isinstance(u, int) else tuple(u)
        raise ValueError(f"{what} {members} not contained in range({n})")
    return u


def as_mask(u, n: int | None = None, what: str = "subset") -> int:
    """The bitmask of the subset u, a bitmask or an index list."""
    u = _subset(u, n, what, masks=True)
    return u if isinstance(u, int) else mask_from(u)


def sorted_indices(u, n: int | None = None, what: str = "subset") -> list[int]:
    """The members of the index list u in ascending order."""
    return _subset(u, n, what, masks=False)


def _pair(u, n: int, what: str) -> list[int]:
    """The members of u, two distinct indices in range(n) by the subset rule, ascending."""
    pair = sorted_indices(u, n, what)
    if len(pair) != 2:
        raise ValueError(f"{what} must be two distinct indices, got {u!r}")
    return pair


def mask_from(indices: Iterable[int]) -> int:
    """The bitmask of indices that the subset rule has read."""
    m = 0
    for i in indices:
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
