"""Poisson weights for series over a stabilizing neighbourhood chain.

The sparse bounds all evaluate E F(N_{min(Lambda, J)}(u)) for Lambda
Poisson(mu): neighbourhoods stop growing at index J, so the Poisson tail
mass P(Lambda >= J) multiplies F(N_J(u)).  stopped_weights weighs that series
for the sparse semigroup and the continuous-time bound; shift_kernel holds
it for every start index of the chain at once, for the certified curve.
The weak semigroup uses the same weights, truncated at a tail tolerance,
for uniformization.  The weights are built once per argument tuple, cached
and returned read-only.  A kernel reads one cached law, that for its J, and
one tail vector P(Lambda >= s), s = 1 .. J; neither the tails nor the
kernel, (J+1)^2 floats, is cached.

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


def shift_kernel(mu: float, J: int) -> np.ndarray:
    """(J+1) x (J+1) upper-triangular K with (K v)[m] = E v[min(m + Lambda, J)]:
    K[m, m+j] = pmf(j) for j < J-m and K[m, J] = P(Lambda >= J-m).  Row m is the law
    of min(Lambda, J-m), so every row takes its pmf from the one cached law
    stopped_weights(mu, J) and its tail from one pdtrc vector; built on each call."""
    pmf = stopped_weights(mu, J)[:J]
    K = np.zeros((J + 1, J + 1))
    for m in range(J):
        K[m, m:J] = pmf[: J - m]
    K[:, J] = np.append(1.0, pdtrc(np.arange(J), mu))[::-1]  # pdtrc(J-m-1, mu), 1 at m = J
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
