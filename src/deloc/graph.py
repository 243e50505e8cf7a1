"""Interaction graph of a structured potential and neighbourhood growth.

Vertices are coordinates; an edge joins i and j whenever some factor with
positive Lipschitz weight has both in its support.  That is a conservative
superset of {mixed second derivative not identically zero}, and it is the
graph all bound machinery consumes.

Neighbourhoods N_k(u) expand along edges: N_0(u) = u and N_{k+1}(u) is
N_k(u) together with everything adjacent to it.  Subsets travel as
bitmasks (see subsets.py), and per-subset neighbourhood chains are
memoized up to their stabilization index (InteractionGraph.chain).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from ._json import _check
from .potential import StructuredPotential
from .subsets import _pair, as_mask, indices_from, size

__all__ = [
    "InteractionGraph",
    "GrowthCertificate",
    "GrowthReport",
    "build_graph",
    "verify_growth",
]


class InteractionGraph:
    """Undirected simple graph on [n].  Each edge is two distinct indices in range(n),
    read by the subset rule; the adjacency, one bitmask per vertex, is private."""

    def __init__(self, n: int, edges: Iterable):
        self.n = _check(n, "positive-integer", "n")
        adj = [0] * self.n
        for edge in edges:
            i, j = _pair(edge, self.n, "edge")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self._adj = tuple(adj)
        self._chains: dict[int, tuple[int, ...]] = {}

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, m in enumerate(self._adj) for j in indices_from(m) if i < j]

    # -- neighbourhoods ------------------------------------------------------

    def chain(self, u) -> tuple[int, ...]:
        """Masks (N_0(u), ..., N_J(u)), J the first with N_J(u) = N_{J+1}(u); cached."""
        u_mask = as_mask(u, self.n)
        cached = self._chains.get(u_mask)
        if cached is not None:
            return cached
        chain = [u_mask]
        cur = rest = u_mask
        while True:
            # adj(N_{k-1}) lies in N_k, so only the frontier N_k \ N_{k-1} can grow it
            nxt = cur
            for i in indices_from(rest):
                nxt |= self._adj[i]
            if nxt == cur:
                break
            chain.append(nxt)
            cur, rest = nxt, nxt & ~cur
        self._chains[u_mask] = chain = tuple(chain)
        return chain


def build_graph(pot: StructuredPotential) -> InteractionGraph:
    pairs = (ij for t in pot.active_terms for ij in itertools.combinations(t.support, 2))
    return InteractionGraph(pot.n, pairs)


# -- growth certificates -------------------------------------------------------


@dataclass(frozen=True)
class GrowthCertificate:
    """Claim |N_{k+1}(i)| <= c (1 + k^p) (polynomial) or <= c r^k
    (exponential) for every vertex i and every k >= 0.  c, and p or r,
    must be >= 1."""

    mode: str  # "polynomial" | "exponential"
    c: float
    exponent: float  # p or r

    def __post_init__(self):
        if self.mode not in ("polynomial", "exponential"):
            raise ValueError(f"unknown growth mode {self.mode!r}")
        _check(self.c, "at-least-1", "growth certificate c")
        _check(self.exponent, "at-least-1", "growth certificate exponent")

    def vertex_bound(self, k: int) -> float:
        poly = self.mode == "polynomial"
        try:
            return self.c * ((1.0 + float(k) ** self.exponent) if poly else self.exponent**k)
        except OverflowError:  # k^p or r^k above every float: no size reaches the bound
            return math.inf


@dataclass(frozen=True)
class GrowthReport:
    passed: bool
    first_violation: tuple[int, int] | None  # (vertex, k)
    checked_up_to: int  # largest stabilization index, the k range checked


def _growth(g: InteractionGraph, unit: GrowthCertificate) -> Iterator[tuple]:
    """(i, J, k, |N_{k+1}(i)|, unit.vertex_bound(k)) for each vertex i and k from 0 up
    to J, its stabilization index; vertex_bound is evaluated once per k."""
    bounds: list[float] = []
    for i in range(g.n):
        chain = g.chain(1 << i)
        J = len(chain) - 1
        bounds += [unit.vertex_bound(k) for k in range(len(bounds), J + 1)]
        for k in range(J + 1):
            yield i, J, k, size(chain[min(k + 1, J)]), bounds[k]


def verify_growth(g: InteractionGraph, cert: GrowthCertificate) -> GrowthReport:
    """Exhaustively check the certificate for every vertex, for k from 0 up
    to each vertex's stabilization index.  Beyond stabilization the
    neighbourhood size is constant while the bound is nondecreasing, so
    this range is exhaustive."""
    checked = 0
    for i, J, k, got, bound in _growth(g, cert):
        checked = max(checked, J)
        if got > bound + 1e-12:
            return GrowthReport(False, (i, k), checked)
    return GrowthReport(True, None, checked)


def _least_c(g: InteractionGraph, mode: str, exponent: float) -> float:
    """The least c for which GrowthCertificate(mode, c, exponent) holds on g: the largest
    |N_{k+1}(i)| / vertex_bound(k) at c = 1 over the range verify_growth checks, each
    ratio stepped up one ulp where its product with vertex_bound(k) falls short."""
    c = 1.0  # |N_1(i)| >= 1 = vertex_bound(0) at c = 1
    for _, _, _, got, bound in _growth(g, GrowthCertificate(mode, 1.0, exponent)):
        ratio = got / bound
        c = max(c, ratio if ratio * bound >= got else math.nextafter(ratio, math.inf))
    return c
