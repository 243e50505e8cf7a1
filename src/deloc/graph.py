"""Interaction graph of a structured potential and neighbourhood growth.

Vertices are coordinates; an edge joins i and j whenever some factor with
positive Lipschitz weight has both in its support.  That is a conservative
superset of {mixed second derivative not identically zero}, and it is the
graph all bound machinery consumes.

Neighbourhoods N_k(u) expand along edges: N_0(u) = u and N_{k+1}(u) adds
everything adjacent to N_k(u), so N_k(u) holds the vertices within k hops of
u, read from hop distances over one CSR adjacency (scipy.sparse.csgraph,
imported on first use).  Subsets travel as bitmasks (see subsets.py).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from scipy import sparse

from ._json import _check
from .potential import StructuredPotential
from .subsets import _pair, as_mask, indices_from, mask_from

__all__ = [
    "InteractionGraph",
    "GrowthCertificate",
    "GrowthReport",
    "build_graph",
    "verify_growth",
]


class InteractionGraph:
    """Undirected simple graph on [n].  Each edge is two distinct indices in range(n),
    read by the subset rule; the adjacency, one symmetric CSR array, is private."""

    def __init__(self, n: int, edges: Iterable):
        self.n = _check(n, "positive-integer", "n")
        ij = np.array([_pair(e, self.n, "edge") for e in edges], dtype=np.intp).reshape(-1, 2)
        rows, cols = np.concatenate([ij, ij[:, ::-1]]).T  # from COO: repeats merge, rows sort
        self._adj = sparse.csr_array((np.ones(rows.size), (rows, cols)), shape=(self.n, self.n))

    def edges(self) -> list[tuple[int, int]]:
        upper = sparse.triu(self._adj, 1, format="coo")  # row by row, each row by column
        return list(zip(upper.row.tolist(), upper.col.tolist()))

    def _hops(self, sources, each: bool = False) -> np.ndarray:
        """Hop distances, inf where unreachable, from the nearest source or (each) from each."""
        from scipy.sparse.csgraph import dijkstra  # import deloc does not load csgraph
        return dijkstra(self._adj, unweighted=True, indices=sources, min_only=not each)

    # -- neighbourhoods ------------------------------------------------------

    def _rings(self, u) -> tuple[np.ndarray, np.ndarray]:
        """(the vertices u reaches, nearest first, and how many lie k hops from u)."""
        hops = self._hops(list(indices_from(as_mask(u, self.n))))
        counts = np.bincount(hops[np.isfinite(hops)].astype(np.intp))
        return np.argsort(hops, kind="stable")[: counts.sum()], counts

    def chain(self, u) -> tuple[int, ...]:
        """Masks (N_0(u), ..., N_J(u)), J the first with N_J(u) = N_{J+1}(u)."""
        order, counts = self._rings(u)
        rings = (mask_from(ring.tolist()) for ring in np.split(order, counts.cumsum()[:-1]))
        return tuple(itertools.accumulate(rings))  # disjoint rings: N_k(u) is their sum


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
    """(J, got, bound) for each block of vertices in order: J[r] is the stabilization
    index of the block's r-th vertex i, got[r, k] = |N_{k+1}(i)| for k <= J[r] and 0
    past it, up to the block's largest J, and bound[k] = unit.vertex_bound(k), evaluated
    once per k.  Ball sizes come from hop distances; no mask is built, nothing kept."""
    bounds: list[float] = []
    rows = max(1, (1 << 18) // g.n)  # a block holds rows x n hop distances
    for first in range(0, g.n, rows):
        hops = g._hops(np.arange(first, min(first + rows, g.n)), each=True)
        J = np.where(np.isfinite(hops), hops, 0.0).max(axis=1).astype(np.intp)
        K = int(J.max()) + 1
        # row r counts its vertices k hops away in column k (unreached: K + 1), summed up
        cols = np.minimum(hops, K + 1).astype(np.intp) + (K + 2) * np.arange(len(J))[:, None]
        rings = np.bincount(cols.ravel(), minlength=len(J) * (K + 2)).reshape(len(J), K + 2)
        got = rings.cumsum(axis=1)[:, 1 : K + 1]
        got[np.arange(K) > J[:, None]] = 0
        bounds += [unit.vertex_bound(k) for k in range(len(bounds), K)]
        yield J, got, np.array(bounds[:K])


def verify_growth(g: InteractionGraph, cert: GrowthCertificate) -> GrowthReport:
    """Exhaustively check the certificate for every vertex, for k from 0 up to each
    vertex's stabilization index.  Beyond stabilization the neighbourhood size is
    constant while the bound is nondecreasing, so this range is exhaustive."""
    checked = walked = 0
    for J, got, bound in _growth(g, cert):
        bad = got > bound + 1e-12
        if bad.any():
            r = int(bad.any(axis=1).argmax())
            return GrowthReport(False, (walked + r, int(bad[r].argmax())),
                                max(checked, int(J[: r + 1].max())))
        checked, walked = max(checked, int(J.max())), walked + len(J)
    return GrowthReport(True, None, checked)


def _least_c(g: InteractionGraph, mode: str, exponent: float) -> float:
    """The least c for which GrowthCertificate(mode, c, exponent) holds on g: the largest
    |N_{k+1}(i)| / vertex_bound(k) at c = 1 over the range verify_growth checks, each
    ratio stepped up one ulp where its product with vertex_bound(k) falls short."""
    c = 1.0  # |N_1(i)| >= 1 = vertex_bound(0) at c = 1
    with np.errstate(invalid="ignore"):  # 0 * inf where vertex_bound overflows
        for _, got, bound in _growth(g, GrowthCertificate(mode, 1.0, exponent)):
            ratio, up = got / bound, np.nextafter(got / bound, np.inf)
            c = max(c, float(np.where(ratio * bound >= got, ratio, up).max()))
    return c
