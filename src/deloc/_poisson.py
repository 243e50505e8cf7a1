"""Poisson weights for series over a stabilizing neighbourhood chain.

The sparse bounds all evaluate E F(N_{min(Lambda, J)}(u)) for Lambda
Poisson(mu): neighbourhoods stop growing at index J, so the Poisson tail
mass P(Lambda >= J) multiplies F(N_J(u)).  chain_mean is that series, read
by the sparse semigroup and the continuous-time bound; shift_kernel holds
it for every start index of the chain at once, for the certified curve.
The weak semigroup uses the same weights, truncated at a tail tolerance,
for uniformization.  The weights are built once per argument tuple, cached
and returned read-only; the kernel, (J+1)^2 floats, is not cached.

pmf and tail come from scipy.special, the same expressions scipy's
Poisson distribution evaluates, so importing deloc does not load scipy's
statistics package.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import gammaln, pdtrc, xlogy


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _pmf(mu: float, count: int) -> np.ndarray:
    """P(Lambda = k) for k = 0 .. count-1."""
    k = np.arange(count)
    return np.exp(xlogy(k, mu) - gammaln(k + 1) - mu)


@lru_cache(maxsize=1024)
def stopped_weights(mu: float, J: int) -> np.ndarray:
    """Law of min(Lambda, J): pmf(j) for j < J, then P(Lambda >= J).
    pdtrc(-1, mu) is NaN, hence the J = 0 case."""
    w = np.empty(J + 1)
    w[:J] = _pmf(mu, J)
    w[J] = pdtrc(J - 1, mu) if J > 0 else 1.0
    return _frozen(w)


def chain_mean(chain, mu: float, F) -> float:
    """E F(chain[min(Lambda, J)]) for Lambda Poisson(mu), J = len(chain) - 1."""
    return float(stopped_weights(mu, len(chain) - 1) @ np.array([F(m) for m in chain]))


def shift_kernel(mu: float, J: int) -> np.ndarray:
    """(J+1) x (J+1) upper-triangular K with (K v)[m] = E v[min(m + Lambda, J)]:
    K[m, m+j] = pmf(j) for j < J-m and K[m, J] = P(Lambda >= J-m); built on each call."""
    K = np.zeros((J + 1, J + 1))
    for m in range(J + 1):
        K[m, m:] = stopped_weights(mu, J - m)
    return K


@lru_cache(maxsize=64)
def truncated_pmf(mu: float, tail_tol: float) -> np.ndarray:
    """pmf(0 .. M) with M - 1 the first k where P(Lambda > k) <= tail_tol."""
    count = int(mu + 10.0 * np.sqrt(mu) + 16.0)
    while True:
        hit = np.flatnonzero(pdtrc(np.arange(count), mu) <= tail_tol)
        if hit.size:
            return _frozen(_pmf(mu, int(hit[0]) + 2))
        count *= 2
