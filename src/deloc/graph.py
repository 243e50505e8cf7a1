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

from dataclasses import dataclass
from typing import Iterable

from ._json import _check
from .potential import StructuredPotential
from .subsets import as_mask, indices_from, mask_from, size

__all__ = [
    "InteractionGraph",
    "GrowthCertificate",
    "GrowthReport",
    "build_graph",
    "verify_growth",
]


class InteractionGraph:
    """Undirected simple graph on [n] with bitmask adjacency."""

    def __init__(self, n: int, adj_masks: Iterable[int]):
        self.n = n
        self.adj_masks = tuple(adj_masks)
        if len(self.adj_masks) != n:
            raise ValueError(f"expected {n} adjacency masks, got {len(self.adj_masks)}")
        for i, m in enumerate(self.adj_masks):
            if m >> n:
                raise ValueError(f"adjacency of vertex {i} leaves range({n})")
            if m & (1 << i):
                raise ValueError(f"self-loop at vertex {i}")
            for j in indices_from(m):
                if not self.adj_masks[j] & (1 << i):
                    raise ValueError(f"asymmetric adjacency between {i} and {j}")
        self._chains: dict[int, tuple[int, ...]] = {}

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "InteractionGraph":
        adj = [0] * n
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(n, adj)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n):
            for j in indices_from(self.adj_masks[i]):
                if i < j:
                    out.append((i, j))
        return out

    # -- neighbourhoods ------------------------------------------------------

    def chain(self, u) -> tuple[int, ...]:
        """Masks (N_0(u), N_1(u), ..., N_J(u)) up to stabilization, cached."""
        u_mask = as_mask(u, self.n)
        cached = self._chains.get(u_mask)
        if cached is not None:
            return cached
        chain = [u_mask]
        cur = rest = u_mask
        while True:
            # adj(N_{k-1}) lies in N_k, so only the frontier N_k \ N_{k-1} can grow it
            nxt = cur
            while rest:
                i = (rest & -rest).bit_length() - 1
                nxt |= self.adj_masks[i]
                rest &= rest - 1
            if nxt == cur:
                break
            chain.append(nxt)
            cur, rest = nxt, nxt & ~cur
        self._chains[u_mask] = chain = tuple(chain)
        return chain

    def stabilization_index(self, u) -> int:
        """Smallest J with N_J(u) = N_{J+1}(u) (component closure reached)."""
        m = as_mask(u, self.n)
        if m == 0:
            raise ValueError("stabilization index of the empty set is undefined")
        return len(self.chain(m)) - 1


def build_graph(pot: StructuredPotential) -> InteractionGraph:
    adj = [0] * pot.n
    for t in pot.active_terms:
        m = mask_from(t.support)
        for i in t.support:
            adj[i] |= m & ~(1 << i)
    return InteractionGraph(pot.n, adj)


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
        if self.mode == "polynomial":
            return self.c * (1.0 + float(k) ** self.exponent)
        return self.c * self.exponent**k


@dataclass(frozen=True)
class GrowthReport:
    passed: bool
    first_violation: tuple[int, int] | None  # (vertex, k)
    checked_up_to: int  # largest stabilization index, the k range checked
    certificate: GrowthCertificate


def verify_growth(g: InteractionGraph, cert: GrowthCertificate) -> GrowthReport:
    """Exhaustively check the certificate for every vertex, for k from 0 up
    to each vertex's stabilization index.  Beyond stabilization the
    neighbourhood size is constant while the bound is nondecreasing, so
    this range is exhaustive.  Certificates are verified, never fitted.
    """
    checked = 0
    for i in range(g.n):
        chain = g.chain(1 << i)
        J = len(chain) - 1
        checked = max(checked, J)
        for k in range(J + 1):
            got = size(chain[min(k + 1, J)])
            if got > cert.vertex_bound(k) + 1e-12:
                return GrowthReport(False, (i, k), checked, cert)
    return GrowthReport(True, None, checked, cert)

