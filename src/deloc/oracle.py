"""Exact Gaussian ground truth for Langevin Monte Carlo experiments.

For a Gaussian target pi = N(0, A^{-1}) the LMC chain
x_{k+1} = (I - hA) x_k + sqrt(2h) xi is itself Gaussian, and its stationary
covariance S = (I - hA) S (I - hA) + 2h I has the closed form
S = (A (I - hA/2))^{-1}; Smith's doubling iteration is kept as an independent
oracle for it.  One reader, _precision, checks every A that comes in.

Every law here lives in A's eigenbasis Q.  A stationary covariance is
Q diag(1/d) Q' with the divisor d = lambda for pi and lambda (1 - h lambda/2)
for LMC, 0 < h < 2/lambda_max.  A law evolved from x0 ~ law0 is
E x0 + N(0, S - E S E) with E = Q diag(e) Q', the decay e being exp(-lambda t)
for the OU process and (1 - h lambda)^k after k LMC steps.

W_{2,linf} between Gaussians has no closed form; the metrics module estimates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from ._json import _check
from .subsets import sorted_indices

__all__ = [
    "GaussianLaw",
    "GaussianTarget",
    "lmc_stationary_law",
    "lyapunov_fixed_point",
    "lmc_transient_law",
    "ou_law",
    "marginal",
    "w2sq_gaussian",
    "kl_gaussian",
    "sample",
]

LYAPUNOV_TOL = 1e-14  # Smith doubling stops at this relative Frobenius norm of the update
LYAPUNOV_MAX_ITER = 200_000  # or raises after this many doubling steps


class GaussianLaw:
    """N(mean, cov), immutable.  GaussianLaw(mean, cov) requires a finite mean and
    a finite, symmetric positive-definite cov, and takes `chol`, its lower
    Cholesky factor, on construction; W2, KL and sample reuse it.

    A law built from a GaussianTarget is spectral: N(0, Q diag(1/d) Q') with the
    target's eigenbasis Q and a positive divisor d.  Its `cov`, _sym((Q / d) @ Q'),
    and then `chol` are formed on first read; until then W2 against a law on the
    same Q and `variances` work from Q and d."""

    def __init__(self, mean, cov):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(f"need mean (n,) and cov (n, n), got shapes {mean.shape}, {cov.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        if not np.allclose(cov, cov.T, atol=1e-12, rtol=0):
            raise ValueError("covariance must be symmetric (tol 1e-12)")
        vars(self).update(mean=mean, cov=cov, chol=_cholesky(cov), _basis=None, _divisor=None)

    @classmethod
    def _spectral(cls, basis: np.ndarray, divisor: np.ndarray) -> GaussianLaw:
        if not (np.isfinite(divisor).all() and (divisor > 0).all()):
            raise ValueError("covariance must be positive definite")
        with np.errstate(over="ignore"):  # 1/d of a subnormal d
            if not np.isfinite(1.0 / divisor).all():
                raise ValueError("mean and covariance must be finite")
        law = cls.__new__(cls)
        vars(law).update(mean=np.zeros(basis.shape[0]), _basis=basis, _divisor=divisor)
        return law

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussianLaw is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussianLaw is immutable: cannot delete {name!r}")

    @cached_property
    def cov(self) -> np.ndarray:
        return _sym((self._basis / self._divisor) @ self._basis.T)

    @cached_property
    def chol(self) -> np.ndarray:
        return _cholesky(self.cov)

    @cached_property
    def variances(self) -> np.ndarray:
        """The diagonal of cov, read-only."""
        if self._basis is None:
            return np.diag(self.cov)
        var = np.square(self._basis) @ (1.0 / self._divisor)
        var.flags.writeable = False
        return var

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _cholesky(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("covariance must be positive definite") from None


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _precision(A) -> np.ndarray:
    """A read as a precision matrix: a non-empty square, finite matrix that is
    symmetric to 1e-10, returned exactly symmetric."""
    raw = np.asarray(A, dtype=float)
    A = np.atleast_2d(raw)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"precision must be a non-empty square matrix, got shape {raw.shape}")
    if not np.isfinite(A).all():
        raise ValueError("precision must be finite")
    if not np.allclose(A, A.T, atol=1e-10, rtol=0):
        raise ValueError("precision matrix must be symmetric")
    return _sym(A)


@dataclass(frozen=True, eq=False)
class GaussianTarget:
    """Target N(0, A^{-1}) described by its precision matrix."""

    precision: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "precision", _precision(self.precision))
        if self._eigs[0][0] <= 0:
            raise ValueError("precision must be positive definite")

    @cached_property
    def _eigs(self):
        return np.linalg.eigh(self.precision)  # (lam, Q)

    @property
    def alpha(self) -> float:
        return float(self._eigs[0][0])

    @property
    def beta(self) -> float:
        return float(self._eigs[0][-1])

    @property
    def dim(self) -> int:
        return self.precision.shape[0]

    def law(self) -> GaussianLaw:
        return GaussianLaw._spectral(self._eigs[1], self._eigs[0])


def _target(A) -> GaussianTarget:
    return A if isinstance(A, GaussianTarget) else GaussianTarget(A)


def _lmc_divisor(tgt: GaussianTarget, h: float) -> np.ndarray:
    """LMC's divisor d = lambda (1 - h lambda / 2), for h in (0, 2 / lambda_max)."""
    hmax = 2.0 / tgt.beta
    if not 0.0 < h < hmax:
        raise ValueError(f"step h={h} outside the stability region (0, 2/lambda_max) = (0, {hmax})")
    lam = tgt._eigs[0]
    return lam * (1.0 - 0.5 * h * lam)


def _evolve(tgt: GaussianTarget, decay: np.ndarray, divisor: np.ndarray, law0) -> GaussianLaw:
    """E x0 + N(0, S - E S E), x0 ~ law0, E = Q diag(decay) Q', S = Q diag(1/divisor) Q'."""
    if law0.dim != tgt.dim:
        raise ValueError(f"law0 has dimension {law0.dim} but A is {tgt.dim} x {tgt.dim}")
    Q = tgt._eigs[1]
    E = (Q * decay) @ Q.T
    noise = (Q * ((1.0 - decay**2) / divisor)) @ Q.T
    return GaussianLaw(E @ law0.mean, _sym(E @ law0.cov @ E + noise))


def lmc_stationary_law(A, h: float) -> GaussianLaw:
    """Closed-form stationary law of LMC on N(0, A^{-1}), A a GaussianTarget or
    a precision matrix: S_h = (A (I - hA/2))^{-1}, for 0 < h < 2 / lambda_max(A)."""
    tgt = _target(A)
    return GaussianLaw._spectral(tgt._eigs[1], _lmc_divisor(tgt, h))


def lyapunov_fixed_point(A, h: float) -> np.ndarray:
    """Independent oracle for the stationary covariance S = sum_k M^k (2h I) M^k',
    M = I - hA, by Smith's doubling iteration: S <- S + M S M', M <- M^2, so
    step j adds the next 2^j terms.  LYAPUNOV_TOL and LYAPUNOV_MAX_ITER,
    read at call time, stop it."""
    A = _precision(A)
    n = A.shape[0]
    M = np.eye(n) - h * A
    if np.max(np.abs(np.linalg.eigvalsh(M))) >= 1.0:
        raise ValueError("fixed-point iteration diverges: |1 - h lambda| >= 1 for some mode")
    S = 2.0 * h * np.eye(n)
    for _ in range(LYAPUNOV_MAX_ITER):
        update = M @ S @ M.T
        S = _sym(S + update)
        if np.linalg.norm(update) <= LYAPUNOV_TOL * max(1.0, np.linalg.norm(S)):
            return S
        M = M @ M
    raise RuntimeError(f"Lyapunov doubling missed tol={LYAPUNOV_TOL} in {LYAPUNOV_MAX_ITER} steps")


def lmc_transient_law(A, h: float, k: int, law0: GaussianLaw) -> GaussianLaw:
    """Exact law of the LMC chain on N(0, A^{-1}) after k steps from law0, A a
    GaussianTarget or a precision matrix and 0 < h < 2 / lambda_max(A): mean
    (I - hA)^k m0, covariance (I - hA)^k (cov0 - S_h) (I - hA)^k + S_h."""
    k = _check(k, "count", "k")
    tgt = _target(A)
    hl = h * tgt._eigs[0]
    # below h lambda = 1/2, 1 - h lambda rounds, and its k-th power would grow that k-fold
    decay = np.where(hl < 0.5, np.exp(k * np.log1p(-np.minimum(hl, 0.5))), (1.0 - hl) ** k)
    return _evolve(tgt, decay, _lmc_divisor(tgt, h), law0)


def ou_law(A, t: float, law0: GaussianLaw) -> GaussianLaw:
    """Law at time t of dX = -A X dt + sqrt(2) dW from law0, A a GaussianTarget or a
    precision matrix: mean e^{-At} m0, covariance e^{-At} cov0 e^{-At} + A^{-1}(I - e^{-2At})."""
    _check(t, "non-negative", "t")
    tgt = _target(A)
    lam = tgt._eigs[0]
    return _evolve(tgt, np.exp(-lam * t), lam, law0)


def marginal(law: GaussianLaw, u) -> GaussianLaw:
    idx = sorted_indices(u, law.dim)
    return GaussianLaw(law.mean[idx], law.cov[np.ix_(idx, idx)])


def w2sq_gaussian(law1: GaussianLaw, law2: GaussianLaw) -> float:
    """Squared 2-Wasserstein distance (Bures):
    |m1 - m2|^2 + tr(S1 + S2 - 2 (S2^{1/2} S1 S2^{1/2})^{1/2}); the last
    matrix is similar to L2' S1 L2 (S2 = L2 L2'), whose eigenvalues are used.
    Two laws on the same eigenbasis object commute, and the trace term is
    sum_i (s1_i^{1/2} - s2_i^{1/2})^2 over their eigenvalues s = 1/d."""
    if law1.dim != law2.dim:
        raise ValueError(f"dimension mismatch: {law1.dim} vs {law2.dim}")
    d2 = float(np.sum((law1.mean - law2.mean) ** 2))
    if law1._basis is not None and law1._basis is law2._basis:
        gap = np.sqrt(1.0 / law1._divisor) - np.sqrt(1.0 / law2._divisor)
        return d2 + float(np.sum(gap**2))
    L2 = law2.chol
    inner = _sym(L2.T @ law1.cov @ L2)
    lam = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    cross = float(np.sum(np.sqrt(lam)))
    val = d2 + float(np.trace(law1.cov) + np.trace(law2.cov)) - 2.0 * cross
    return max(val, 0.0)


def kl_gaussian(law1: GaussianLaw, law2: GaussianLaw) -> float:
    """KL(law1 || law2) for Gaussians:
    (tr(S2^{-1} S1) - k + (m2-m1)' S2^{-1} (m2-m1) + lndet S2 - lndet S1) / 2,
    each term from the Cholesky factors L1, L2."""
    if law1.dim != law2.dim:
        raise ValueError(f"dimension mismatch: {law1.dim} vs {law2.dim}")
    k = law1.dim
    L1, L2 = law1.chol, law2.chol
    tr = float(np.sum(solve_triangular(L2, L1, lower=True) ** 2))
    z = solve_triangular(L2, law2.mean - law1.mean, lower=True)
    ld1 = 2.0 * float(np.sum(np.log(np.diag(L1))))
    ld2 = 2.0 * float(np.sum(np.log(np.diag(L2))))
    val = 0.5 * (tr - k + float(z @ z) + ld2 - ld1)
    return max(val, 0.0)


def sample(law: GaussianLaw, m: int, rng: np.random.Generator) -> np.ndarray:
    """m exact draws, shape (m, dim): mean + z L' with the stored Cholesky factor."""
    return law.mean + rng.standard_normal((m, law.dim)) @ law.chol.T
