"""Langevin Monte Carlo driver.

One LMC step is x <- x - h grad V(x) + sqrt(2h) z with z standard normal.
"langevin-reference" mode runs m Euler substeps of size h/m per recorded
step, approximating the continuous-time flow at matched wall-clock time;
lmc is its m = 1 case, and both run the same step loop.  A quadratic
potential steps by the assembled matrix I - (h/m) A, any other by its
gradient.

Noise stream layout (documented so composed-map tests can replay it):
each chain owns an independent generator spawned from the config seed;
per recorded step the chain draws one (m, n) normal block, with m = 1 in
lmc mode, and substep j uses row j.  Chain c's stream depends only on
(seed, c), never on the number of chains.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .potential import StructuredPotential

__all__ = [
    "SamplerConfig",
    "SampleStore",
    "DivergenceError",
    "lmc_step",
    "run_chain",
    "marginal_samples",
    "load_store",
]


DIVERGENCE_LIMIT = 1e8  # a chain whose |x|_inf reaches this has diverged


class DivergenceError(RuntimeError):
    def __init__(self, chain: int, step: int, sup: float):
        self.chain = chain
        self.step = step
        self.sup = sup
        super().__init__(
            f"chain {chain} diverged at iterate {step}: "
            f"|x|_inf = {sup:.3e} exceeds {DIVERGENCE_LIMIT:.0e}"
        )


@dataclass(frozen=True)
class SamplerConfig:
    h: float
    iterations: int
    burn_in: int | None = None  # default: ceil(iterations / 10)
    num_chains: int = 1
    seed: int = 0
    mode: str = "lmc"  # "lmc" | "langevin-reference"
    substeps: int = 1
    thinning: int = 1
    h_star: float | None = None  # theorem step ceiling, warn when exceeded

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError(f"step size must be > 0, got {self.h}")
        if self.iterations <= 0:
            raise ValueError("iterations must be > 0")
        if self.num_chains <= 0 or self.thinning <= 0 or self.substeps <= 0:
            raise ValueError("num_chains, thinning and substeps must be >= 1")
        if self.mode not in ("lmc", "langevin-reference"):
            raise ValueError(f"unknown sampler mode {self.mode!r}")
        if self.mode == "lmc" and self.substeps != 1:
            raise ValueError(
                f"substeps={self.substeps} needs mode='langevin-reference'; lmc takes one step"
            )
        if self.effective_burn_in >= self.iterations:
            raise ValueError(
                f"burn_in={self.effective_burn_in} leaves no samples from "
                f"{self.iterations} iterations"
            )
        if self.h_star is not None and self.h > self.h_star:
            warnings.warn(
                f"step h={self.h} exceeds the certified ceiling h*={self.h_star}",
                stacklevel=2,
            )

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
    potential_hash: str

    @property
    def n(self) -> int:
        return self.samples.shape[2]

    @property
    def num_chains(self) -> int:
        return self.samples.shape[0]

    def rows(self) -> np.ndarray:
        """(num_chains * kept, n) view, chains concatenated in order."""
        c, t, n = self.samples.shape
        return self.samples.reshape(c * t, n)

    def save(self, path) -> None:
        """Binary export: one JSON header line, then column-major float64."""
        c, t, n = self.samples.shape
        header = {
            "format": "deloc-store",
            "version": 1,
            "n": n,
            "chains": c,
            "kept": t,
            "dtype": "float64",
            "order": "F",
            "h": self.config.h,
            "mode": self.config.mode,
            "seed": self.config.seed,
            "thinning": self.config.thinning,
            "potential_hash": self.potential_hash,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            f.write(self.rows().flatten(order="F").tobytes())

    def save_csv(self, path) -> None:
        c, t, n = self.samples.shape
        with open(path, "w") as f:
            f.write("chain,step," + ",".join(f"x{i}" for i in range(n)) + "\n")
            for ci in range(c):
                for ti in range(t):
                    coords = ",".join(repr(float(v)) for v in self.samples[ci, ti])
                    f.write(f"{ci},{ti},{coords}\n")


def load_store(path) -> tuple[np.ndarray, dict]:
    """Read a binary store export; returns (rows array, header dict)."""
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode())
        raw = np.frombuffer(f.read(), dtype=np.float64)
    rows = header["chains"] * header["kept"]
    return raw.reshape((rows, header["n"]), order="F").copy(), header


def lmc_step(pot: StructuredPotential, x: np.ndarray, h: float, noise: np.ndarray) -> np.ndarray:
    """x - h grad V(x) + sqrt(2h) noise, with a finiteness guard on the gradient."""
    g = pot.gradient(x)
    if not np.all(np.isfinite(g)):
        raise FloatingPointError(f"non-finite gradient at x with |x|_inf={np.max(np.abs(x)):.3e}")
    return x - h * g + math.sqrt(2.0 * h) * noise


def _simulate_chain(pot, config, x0, rng, chain_index) -> np.ndarray:
    n = pot.n
    m = config.substeps  # validated to be 1 in lmc mode
    hs = config.h / m
    A = pot.quadratic_matrix
    if A is not None:
        M = np.eye(n) - hs * A
        sigma = math.sqrt(2.0 * hs)
        substep = lambda x, z: M @ x + sigma * z
    else:
        substep = lambda x, z: lmc_step(pot, x, hs, z)

    kept = np.empty((config.kept_per_chain, n))
    burn = config.effective_burn_in
    thin = config.thinning
    x = np.array(x0, dtype=float, copy=True)
    for k in range(1, config.iterations + 1):
        z = rng.standard_normal((m, n))
        for j in range(m):
            x = substep(x, z[j])
        sup = float(np.abs(x).max())
        if not sup < DIVERGENCE_LIMIT:
            raise DivergenceError(chain_index, k, sup)
        if k > burn and (k - burn - 1) % thin == 0:
            kept[(k - burn - 1) // thin] = x
    return kept


def run_chain(pot: StructuredPotential, config: SamplerConfig, x0) -> SampleStore:
    """Run num_chains independent LMC chains from x0.

    x0 may be a single (n,) start shared by all chains or a (num_chains, n)
    array of per-chain starts.  Deterministic: identical (potential, config,
    x0) give bit-identical stores.
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
    seeds = np.random.SeedSequence(config.seed).spawn(config.num_chains)
    chains = np.empty((config.num_chains, config.kept_per_chain, pot.n))
    for c in range(config.num_chains):
        rng = np.random.default_rng(seeds[c])
        chains[c] = _simulate_chain(pot, config, starts[c], rng, c)
    return SampleStore(samples=chains, config=config, potential_hash=pot.content_hash())


def marginal_samples(store: SampleStore, u: Iterable[int]) -> np.ndarray:
    """Column-sliced copy of the retained states; sample order preserved."""
    idx = sorted(set(int(i) for i in u))
    if not idx:
        raise ValueError("marginal over the empty set is undefined")
    if idx[0] < 0 or idx[-1] >= store.n:
        raise ValueError(f"subset {idx} out of range for n={store.n}")
    return store.rows()[:, idx].copy()
