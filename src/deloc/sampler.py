"""Langevin Monte Carlo driver.

One LMC step is x <- x - h grad V(x) + sqrt(2h) z with z standard normal.
With substeps m > 1 (the "langevin-reference" mode) each recorded step is m
Euler substeps of size h/m, approximating the continuous-time flow at
matched wall-clock time; lmc is its m = 1 case, and both run the same step
loop.

All chains step together as one (C, n) block, one chain per row.  The
drift x - (h/m) grad V(x) is applied to the whole block at once and picks
its path from the potential:

  dense quadratic   I - (h/m) A times each chain, by a stacked matmul
  sparse quadratic  the same matrix in CSR when at most one of its entries
                    in 16 is nonzero, times the transposed block
  callable          the gradient, chain by chain

Each path does the same arithmetic on a chain whatever the number of
chains C.  The block's sup-norm is checked after every recorded step, and
a chain that reaches DIVERGENCE_LIMIT or turns non-finite stops the run.

Noise stream layout (documented so composed-map tests can replay it):
each chain owns an independent generator spawned from the config seed;
per recorded step the chain draws one (m, n) normal block, with m = 1 in
lmc mode, and substep j uses row j.  Chain c's stream depends only on
(seed, c), never on the number of chains.  The sampler draws t recorded
steps at once as one (t, m, n) block, which yields the same numbers as t
successive (m, n) draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import sparse

from ._json import read
from .potential import StructuredPotential
from .subsets import sorted_indices

__all__ = [
    "SamplerConfig",
    "SampleStore",
    "DivergenceError",
    "run_chain",
    "marginal_samples",
]


DIVERGENCE_LIMIT = 1e8  # a chain whose |x|_inf reaches this has diverged
# Noise is drawn in chunks of whole recorded steps holding about this many
# normals over all chains together: 64 KB, small enough for malloc to reuse
# one heap block instead of mapping fresh pages for every chunk.
_NOISE_CHUNK = 1 << 13
# A quadratic steps by a CSR matrix when at most 1 in this many entries of
# I - hA is nonzero, which needs n >= 16; denser or smaller ones step faster
# dense, where the sparse product's call overhead outweighs its savings.
_SPARSE_RATIO = 16


class DivergenceError(RuntimeError):
    def __init__(self, chain: int, step: int, sup: float):
        self.chain, self.step, self.sup = chain, step, sup
        why = f"exceeds {DIVERGENCE_LIMIT:.0e}" if math.isfinite(sup) else "is not finite"
        super().__init__(f"chain {chain} diverged at iterate {step}: |x|_inf = {sup:.3e} {why}")


@dataclass(frozen=True)
class SamplerConfig:
    h: float
    iterations: int
    burn_in: int | None = None  # default: ceil(iterations / 10)
    num_chains: int = 1
    seed: int = 0
    substeps: int = 1  # Euler substeps per recorded step; m > 1 is langevin-reference
    thinning: int = 1

    def __post_init__(self):
        read(vars(self), "h", "sampler config", "positive")
        for name in ("iterations", "burn_in", "num_chains", "seed", "substeps", "thinning"):
            kind = {"burn_in": "count", "seed": "integer"}.get(name, "positive-integer")
            if name != "burn_in" or self.burn_in is not None:
                object.__setattr__(self, name, read(vars(self), name, "sampler config", kind))
        if self.effective_burn_in >= self.iterations:
            raise ValueError(
                f"burn_in={self.effective_burn_in} leaves no samples from "
                f"{self.iterations} iterations"
            )

    @property
    def mode(self) -> str:
        """Derived from substeps: "lmc" at one substep, else "langevin-reference"."""
        return "lmc" if self.substeps == 1 else "langevin-reference"

    @property
    def effective_burn_in(self) -> int:
        if self.burn_in is not None:
            return self.burn_in
        return math.ceil(self.iterations / 10)

    @property
    def kept_per_chain(self) -> int:
        return math.ceil((self.iterations - self.effective_burn_in) / self.thinning)


@dataclass(frozen=True, eq=False)
class SampleStore:
    samples: np.ndarray  # (num_chains, kept, n)
    config: SamplerConfig

    @property
    def n(self) -> int:
        return self.samples.shape[2]

    def rows(self) -> np.ndarray:
        """(num_chains * kept, n) view, chains concatenated in order."""
        c, t, n = self.samples.shape
        return self.samples.reshape(c * t, n)


def _step_matrix(A, h: float):
    """I - hA for the CSR matrix A, with the entries of the dense
    np.eye(n) - h * A.toarray() bit for bit: in CSR when A is sparse enough,
    without any n-by-n array, else dense."""
    n = A.shape[0]
    if (A.count_nonzero() + n) * _SPARSE_RATIO > n * n:
        return np.eye(n) - h * A.toarray()
    i = np.arange(n)
    return sparse.csr_array((np.ones(n), (i, i)), shape=(n, n)) - h * A


def _block_drift(pot: StructuredPotential, h: float):
    """The map from a (C, n) block of chains X to X - h grad V(X), chain by chain."""
    A = pot.quadratic_matrix
    if A is None:
        return lambda X: np.array([x - h * pot.gradient(x) for x in X])
    M = _step_matrix(A, h)
    if sparse.issparse(M):
        # CSR times a dense block: every column gets the matvec's arithmetic
        return lambda X: (M @ X.T).T
    # a stacked matmul, unlike X @ M.T, computes each row as M @ x does
    return lambda X: np.matmul(M, X[:, :, None])[:, :, 0]


def _simulate(pot: StructuredPotential, config: SamplerConfig, starts: np.ndarray) -> np.ndarray:
    """Kept states (C, kept, n) of the chains started at the rows of `starts`."""
    C, n = starts.shape
    m = config.substeps
    hs = config.h / m
    sigma = math.sqrt(2.0 * hs)
    drift = _block_drift(pot, hs)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(C)]

    kept = np.empty((C, config.kept_per_chain, n))
    burn = config.effective_burn_in
    thin = config.thinning
    X = np.array(starts, dtype=float)
    chunk = max(1, _NOISE_CHUNK // (C * m * n))
    for k0 in range(0, config.iterations, chunk):
        # sigma z for the next t recorded steps, chain by chain: (C, t, m, n)
        sz = np.empty((C, min(chunk, config.iterations - k0), m, n))
        for c, rng in enumerate(rngs):
            rng.standard_normal(out=sz[c])
        sz *= sigma
        for i in range(sz.shape[1]):
            k = k0 + i + 1
            for j in range(m):
                X = drift(X) + sz[:, i, j]
            if not float(np.abs(X).max()) < DIVERGENCE_LIMIT:
                sups = np.abs(X).max(axis=1)
                c = int(np.flatnonzero(~(sups < DIVERGENCE_LIMIT))[0])
                raise DivergenceError(c, k, float(sups[c]))
            if k > burn and (k - burn - 1) % thin == 0:
                kept[:, (k - burn - 1) // thin] = X
    return kept


def run_chain(pot: StructuredPotential, config: SamplerConfig, x0) -> SampleStore:
    """Run num_chains independent LMC chains from x0.

    x0 may be a single (n,) start shared by all chains or a (num_chains, n)
    array of per-chain starts.  Deterministic: identical (potential, config,
    x0) give bit-identical stores.  A chain that diverges raises
    DivergenceError naming the first iterate at which any chain reached the
    limit and the lowest such chain.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape == (pot.n,):
        starts = np.broadcast_to(x0, (config.num_chains, pot.n))
    elif x0.shape == (config.num_chains, pot.n):
        starts = x0
    else:
        raise ValueError(
            f"x0 shape {x0.shape} matches neither ({pot.n},) nor ({config.num_chains}, {pot.n})"
        )
    chains = _simulate(pot, config, starts)
    return SampleStore(samples=chains, config=config)


def marginal_samples(store: SampleStore, u: Iterable[int]) -> np.ndarray:
    """Column-sliced copy of the retained states; sample order preserved."""
    idx = sorted_indices(u, store.n)
    return store.rows()[:, idx].copy()
