"""Langevin Monte Carlo driver.

One LMC step is x <- x - h grad V(x) + sqrt(2h) z with z standard normal.
With substeps m > 1 (the "langevin-reference" mode) each recorded step is m
Euler substeps of size h/m, approximating the continuous-time flow at
matched wall-clock time; lmc is its m = 1 case, and both run the same step
loop.

All chains step together as one (C, n, 1) stack of columns, one chain per
column.  The drift x - (h/m) grad V(x) is applied to the whole stack at
once, written straight into the buffer slot of the next state, and picks
its path from the potential:

  dense quadratic   I - (h/m) A times each chain, by a stacked matmul
  sparse quadratic  the same matrix in CSR when at most one of its entries
                    in 16 is nonzero, times the transposed block
  callable          the gradient, chain by chain

Each path does the same arithmetic on a chain whatever the number of
chains C.  A chain that reaches DIVERGENCE_LIMIT or turns non-finite stops
the run, which names the first recorded step at which any chain did and
the lowest such chain.  The states of a noise chunk are kept in one buffer;
on the quadratic paths the buffer's sup-norm is checked once per chunk,
and a chain past the limit steps on, with numpy's overflow and invalid
warnings silenced, to the end of the chunk.  A gradient's chains are
checked after every recorded step, so no gradient sees a state past the
limit, and gradients run under the caller's numpy error state.  Every
state after burn-in is kept, copied out of the buffer as one slice per
chunk; a caller that wants fewer thins the store.

Noise stream layout (documented so composed-map tests can replay it):
each chain owns an independent generator spawned from the config seed;
per recorded step the chain draws one (m, n) normal block, with m = 1 in
lmc mode, and substep j uses row j.  Chain c's stream depends only on
(seed, c), never on the number of chains.  The sampler draws t recorded
steps at once as one (t, m, n) block, which yields the same numbers as t
successive (m, n) draws.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ._json import read
from .potential import StructuredPotential

__all__ = [
    "SamplerConfig",
    "SampleStore",
    "DivergenceError",
    "run_chain",
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

    def __post_init__(self):
        read(vars(self), "h", "sampler config", "positive")
        for name in ("iterations", "burn_in", "num_chains", "seed", "substeps"):
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
        return self.iterations - self.effective_burn_in


@dataclass(frozen=True, eq=False)
class SampleStore:
    samples: np.ndarray  # (num_chains, kept, n)

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
    """The map drift(X, out) that writes X - h grad V(X) into out, chain by chain, for
    (C, n, 1) stacks X and out of chains; out may be X."""
    A = pot.quadratic_matrix
    if A is None:
        def drift(X, out):
            out[:, :, 0] = [x - h * pot.gradient(x) for x in X[:, :, 0]]
        return drift
    M = _step_matrix(A, h)
    if sparse.issparse(M):
        def drift(X, out):
            # CSR times a dense block: every column gets the matvec's arithmetic
            out[:, :, 0] = (M @ X[:, :, 0].T).T
        return drift
    # a stacked matmul, unlike X @ M.T, computes each chain as M @ x does
    return functools.partial(np.matmul, M)


def _check_divergence(states: np.ndarray, k0: int) -> None:
    """Raise DivergenceError at the first of the (s, C, n, 1) states, those of steps
    k0 + 1, ..., k0 + s, at which a chain reached the limit, naming the lowest such chain."""
    if float(np.abs(states).max()) < DIVERGENCE_LIMIT:
        return
    sups = np.abs(states).max(axis=(2, 3))
    bad = ~(sups < DIVERGENCE_LIMIT)
    i = int(np.flatnonzero(bad.any(axis=1))[0])
    c = int(np.flatnonzero(bad[i])[0])
    raise DivergenceError(c, k0 + i + 1, float(sups[i, c]))


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
    X = np.array(starts, dtype=float)[:, :, None]
    chunk = max(1, _NOISE_CHUNK // (C * m * n))
    # a quadratic's chains are checked once per chunk, a gradient's after every step
    quadratic = pot.quadratic_matrix is not None
    stride = chunk if quadratic else 1
    with np.errstate(over="ignore", invalid="ignore") if quadratic else contextlib.nullcontext():
        for k0 in range(0, config.iterations, chunk):
            t = min(chunk, config.iterations - k0)
            # z for the next t recorded steps, chain by chain: (C, t, m, n)
            z = np.empty((C, t, m, n))
            for c, rng in enumerate(rngs):
                rng.standard_normal(out=z[c])
            # sigma z of substep j of step i as one (C, n, 1) stack: noise[i, j]
            noise = np.ascontiguousarray(z.transpose(1, 2, 0, 3))[..., None]
            noise *= sigma
            states = np.empty((t, C, n, 1))  # the chains after each of the t steps
            for s0 in range(0, t, stride):
                for i in range(s0, min(s0 + stride, t)):
                    out = states[i]
                    for j in range(m):
                        drift(X, out)
                        out += noise[i, j]
                        X = out
                _check_divergence(states[s0 : s0 + stride], k0 + s0)
            if k0 + t > burn:  # the kept steps k > burn of this chunk, at once
                skip = max(0, burn - k0)
                kept[:, k0 + skip - burn : k0 + t - burn] = states[skip:, :, :, 0].swapaxes(0, 1)
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
    return SampleStore(_simulate(pot, config, starts))
