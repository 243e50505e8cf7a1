"""Exact Gaussian ground truth for Langevin Monte Carlo experiments.

For a Gaussian target pi = N(0, A^{-1}) the LMC chain
x_{k+1} = (I - hA) x_k + sqrt(2h) xi is itself Gaussian, and its stationary
covariance S = (I - hA) S (I - hA) + 2h I has the closed form
S = (A (I - hA/2))^{-1}; Smith's doubling iteration is kept as an independent
oracle for it.  Every A that comes in, dense or scipy.sparse, is read by the
one symmetric-matrix rule (_json._symmetric, to PRECISION_TOL).

Every law here lives in A's eigenbasis Q.  A stationary covariance is
Q diag(1/d) Q' with the divisor d = lambda for pi and lambda (1 - h lambda/2)
for LMC, 0 < h < 2/lambda_max.  A law evolved from x0 ~ law0 is
E x0 + N(0, S - E S E) with E = Q diag(e) Q', the decay e being exp(-lambda t)
for the OU process and (1 - h lambda)^k after k LMC steps.

Three structures have Q in closed form, and every other A takes a dense eigh:

- a sparse A that is constant tridiagonal (a on the diagonal, b beside it) is
  diagonalized by the discrete sine transform (Strang, "The discrete cosine
  transform", SIAM Review 41, 1999): lambda_k = a + 2b cos(pi k/(n+1)) and
  Q_ik = sqrt(2/(n+1)) sin(pi i k/(n+1)), i, k = 1..n;
- a diagonal A (n = 1 included) by Q = I, with lambda = diag(A);
- p I + q (11' - I), q != 0 (the mean-field precision, or a product target
  rotated so that its odd axis is 1/sqrt(n)), by the orthonormal DCT-II, whose
  first column is 1/sqrt(n): lambda_0 = p + (n-1) q and lambda_k = p - q.

Laws on these bases hold no n x n array: variances are one real FFT of 1/d (or
1/d itself for Q = I), W2 and KL between two of them are sums over their
divisors, and a marginal reads the basis rows of its coordinates.  Only cov,
chol, sample and the evolved laws form Q.

W_{2,linf} between Gaussians has no closed form; the metrics module estimates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft
from scipy import sparse
from scipy.linalg import solve_triangular

from ._json import MATRIX_TOL, PRECISION_TOL, _check, _dense, _symmetric
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
    """N(mean, cov), immutable.  GaussianLaw(mean, cov) requires a finite mean and a
    positive-definite cov, dense or scipy.sparse, symmetric to MATRIX_TOL (kept as the
    array (cov + cov')/2), and takes
    `chol`, its lower Cholesky factor, on construction; W2, KL and sample reuse it.

    A law built from a GaussianTarget is spectral: N(0, Q diag(1/d) Q') with the
    target's eigenbasis Q (a _DenseBasis, or a closed-form _SineBasis,
    _IdentityBasis or _CosineBasis) and a positive divisor d.  Its `cov`,
    _sym((Q / d) @ Q'), and then `chol` are formed on first read;
    until then W2 and KL against a law on the same basis, `variances` and
    `marginal` work from the basis and d."""

    def __init__(self, mean, cov):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = _dense(_symmetric(cov, "covariance", MATRIX_TOL))
        if mean.shape != cov.shape[:1]:
            raise ValueError(f"need mean (n,) and cov (n, n), got shapes {mean.shape}, {cov.shape}")
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite")
        vars(self).update(mean=mean, cov=cov, chol=_cholesky(cov), _basis=None, _divisor=None)

    @classmethod
    def _spectral(cls, basis: np.ndarray, divisor: np.ndarray) -> GaussianLaw:
        if not (np.isfinite(divisor).all() and (divisor > 0).all()):
            raise ValueError("covariance must be positive definite")
        with np.errstate(over="ignore"):  # 1/d of a subnormal d
            if not np.isfinite(1.0 / divisor).all():
                raise ValueError("covariance must be finite")
        law = cls.__new__(cls)
        vars(law).update(mean=np.zeros(basis.n), _basis=basis, _divisor=divisor)
        return law

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussianLaw is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussianLaw is immutable: cannot delete {name!r}")

    @cached_property
    def cov(self) -> np.ndarray:
        Q = self._basis.Q
        return _sym((Q / self._divisor) @ Q.T)

    @cached_property
    def chol(self) -> np.ndarray:
        return _cholesky(self.cov)

    @cached_property
    def variances(self) -> np.ndarray:
        """The diagonal of cov, read-only."""
        if self._basis is None:
            return np.diag(self.cov)
        var = self._basis.variances(1.0 / self._divisor)
        var.flags.writeable = False
        return var

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


class _DenseBasis:
    """An orthonormal eigenbasis held as its n x n array Q."""

    def __init__(self, Q: np.ndarray):
        self.n, self.Q = Q.shape[0], Q

    def rows(self, idx) -> np.ndarray:
        return self.Q[idx]

    def variances(self, w: np.ndarray) -> np.ndarray:
        """diag(Q diag(w) Q')."""
        return np.square(self.Q) @ w


class _IdentityBasis:
    """Q = I: the eigenbasis of every diagonal matrix of order n, formed only when
    Q is read."""

    def __init__(self, n: int):
        self.n = n

    def rows(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        Q_u = np.zeros((idx.size, self.n))
        Q_u[np.arange(idx.size), idx] = 1.0
        return Q_u

    @cached_property
    def Q(self) -> np.ndarray:
        return np.eye(self.n)

    def variances(self, w: np.ndarray) -> np.ndarray:
        """diag(Q diag(w) Q') = w."""
        return w


class _CosineBasis:
    """Q_ik = c_k cos(pi (2i+1) k/(2n)), i, k = 0..n-1, c_0 = sqrt(1/n) and
    c_k = sqrt(2/n) otherwise (the orthonormal DCT-II): its first column is
    1/sqrt(n) and the rest span the complement of 11', so it is the eigenbasis of
    every p I + q (11' - I) of order n.  Formed only when Q is read."""

    def __init__(self, n: int):
        self.n = n

    def rows(self, idx) -> np.ndarray:
        n = self.n
        # (2i+1) k reduced mod 4n in integers keeps the cosine's argument in [0, 2 pi)
        ik = np.outer(2 * np.asarray(idx) + 1, np.arange(n)) % (4 * n)
        Q_u = math.sqrt(2.0 / n) * np.cos(ik * (np.pi / (2 * n)))
        Q_u[:, 0] = math.sqrt(1.0 / n)
        return Q_u

    @cached_property
    def Q(self) -> np.ndarray:
        return self.rows(np.arange(self.n))

    def variances(self, w: np.ndarray) -> np.ndarray:
        """diag(Q diag(w) Q')_i = (w_0 + sum_{k>0} w_k (1 + cos(pi (2i+1) k/n))) / n:
        the real parts of one real FFT of length 2n of (0, w_1, .., w_{n-1}), read at
        m = 2i+1 and at 2n - m."""
        n = self.n
        re = scipy.fft.rfft(np.concatenate(([0.0], w[1:])), 2 * n).real
        m = 2 * np.arange(n) + 1
        return (w[0] + re[0] + re[np.minimum(m, 2 * n - m)]) / n


class _SineBasis:
    """Q_ik = sqrt(2/(n+1)) sin(pi i k/(n+1)), i, k = 1..n: the eigenbasis of every
    constant tridiagonal matrix of order n, formed only when Q is read."""

    def __init__(self, n: int):
        self.n = n

    def rows(self, idx) -> np.ndarray:
        N = self.n + 1
        # i k reduced mod 2N in integers keeps the sine's argument in [0, 2 pi)
        ik = np.outer(np.asarray(idx) + 1, np.arange(1, N)) % (2 * N)
        return math.sqrt(2.0 / N) * np.sin(ik * (np.pi / N))

    @cached_property
    def Q(self) -> np.ndarray:
        return self.rows(np.arange(self.n))

    def variances(self, w: np.ndarray) -> np.ndarray:
        """diag(Q diag(w) Q')_i = sum_k w_k (1 - cos(2 pi i k/N)) / N, N = n + 1: the
        real parts of one real FFT of (0, w), read at i and at N - i."""
        N = self.n + 1
        re = scipy.fft.rfft(np.concatenate(([0.0], w))).real
        i = np.arange(1, N)
        return (re[0] - re[np.minimum(i, N - i)]) / N


def _closed_form(A):
    """(lambda, basis) of a checked precision A whose eigenbasis is known, lambda in
    the basis's column order; None when A needs a dense eigh.

    A sparse A with a on its diagonal, b on the two beside it and zeros elsewhere
    takes the sine basis, and any other sparse A with no nonzero off its diagonal
    the identity basis, both read in O(nnz).  Otherwise A, densified, is read for
    off-diagonal entries all equal to one q: q = 0 is a diagonal A on the identity
    basis, and q != 0 with p on the whole diagonal is p I + q (11' - I) on the
    cosine basis, with lambda = (p + (n-1) q, p - q, ..., p - q)."""
    n = A.shape[0]
    if sparse.issparse(A):
        coo = A.tocoo()
        diag, off = A.diagonal(), A.diagonal(1)
        gap = np.abs(coo.row - coo.col)
        banded = not np.any(coo.data[gap > 1])
        if banded and np.all(diag == diag[0]) and np.all(off == off[:1]):
            a, b = float(diag[0]), float(off[0]) if off.size else 0.0
            return a + 2.0 * b * np.cos(np.arange(1, n + 1) * (np.pi / (n + 1))), _SineBasis(n)
        if not np.any(coo.data[gap > 0]):
            return diag, _IdentityBasis(n)
        A = A.toarray()
    # the flat entries between two diagonal ones, n - 1 runs of n
    off = A.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]
    q = off[0, 0] if off.size else 0.0
    if np.any(off != q):
        return None
    diag = np.diag(A)
    if q == 0.0:
        return diag, _IdentityBasis(n)
    p = diag[0]
    if np.any(diag != p):
        return None
    lam = np.full(n, p - q)
    lam[0] = p + (n - 1) * q
    return lam, _CosineBasis(n)


def _cholesky(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("covariance must be positive definite") from None


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


@dataclass(frozen=True, eq=False)
class GaussianTarget:
    """Target N(0, A^{-1}) described by its precision matrix A, an array or a
    scipy.sparse matrix (kept as CSR).  Three structures take their spectrum in
    closed form: a sparse constant tridiagonal A on the sine basis, a diagonal A
    on the identity and p I + q (11' - I) on the cosine basis.  Any other A takes
    a dense eigh."""

    precision: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "precision", _symmetric(self.precision, "precision", PRECISION_TOL))
        if self.alpha <= 0:
            raise ValueError("precision must be positive definite")

    @cached_property
    def _eigs(self):
        """(lambda, basis), lambda in the basis's column order."""
        closed = _closed_form(self.precision)
        if closed is not None:
            return closed
        lam, Q = np.linalg.eigh(_dense(self.precision))
        return lam, _DenseBasis(Q)

    @property
    def alpha(self) -> float:
        return float(np.min(self._eigs[0]))

    @property
    def beta(self) -> float:
        return float(np.max(self._eigs[0]))

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
    Q = tgt._eigs[1].Q
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
    A = _dense(_symmetric(A, "precision", PRECISION_TOL))
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
    """The law of the coordinates u; a spectral law reads only the basis rows
    Q_u of u, as (Q_u / d) Q_u'."""
    idx = sorted_indices(u, law.dim)
    if law._basis is None:
        return GaussianLaw(law.mean[idx], law.cov[np.ix_(idx, idx)])
    Q_u = law._basis.rows(idx)
    return GaussianLaw(law.mean[idx], _sym((Q_u / law._divisor) @ Q_u.T))


def w2sq_gaussian(law1: GaussianLaw, law2: GaussianLaw) -> float:
    """Squared 2-Wasserstein distance (Bures) in Procrustes form (Bhatia, Jain & Lim,
    Expo. Math. 37, 2019): |m1 - m2|^2 + min over orthogonal R of ||L1 - L2 R||_F^2,
    S = L L', at the polar factor R = U V' of L2' L1 = U diag(s) V'; no O(1) traces
    cancel.  Two laws on the same eigenbasis object commute, and the term is
    sum_i (s1_i^{1/2} - s2_i^{1/2})^2 over their eigenvalues s = 1/d."""
    if law1.dim != law2.dim:
        raise ValueError(f"dimension mismatch: {law1.dim} vs {law2.dim}")
    d2 = float(np.sum((law1.mean - law2.mean) ** 2))
    if law1._basis is not None and law1._basis is law2._basis:
        gap = np.sqrt(1.0 / law1._divisor) - np.sqrt(1.0 / law2._divisor)
        return d2 + float(np.sum(gap**2))
    L1, L2 = law1.chol, law2.chol
    U, _, Vt = np.linalg.svd(L2.T @ L1)
    return d2 + float(np.sum((L1 - L2 @ (U @ Vt)) ** 2))


def kl_gaussian(law1: GaussianLaw, law2: GaussianLaw) -> float:
    """KL(law1 || law2) for Gaussians:
    (tr(S2^{-1} S1) - k + (m2-m1)' S2^{-1} (m2-m1) + lndet S2 - lndet S1) / 2.
    With W = L2^{-1} L1 from the Cholesky factors, the trace and log-determinant
    terms are sum_i (r_i - 1 - log r_i) over the eigenvalues r of W W', summed as
    x - log1p(x), x = r - 1, so that no O(1) traces cancel; when some r < 1/2 the
    terms are summed as written, with log-determinants from L1 and L2.  Two laws on
    the same eigenbasis object have mean 0, and r = d2/d1 are the ratios of their
    divisors.  A KL that overflows is a ValueError."""
    if law1.dim != law2.dim:
        raise ValueError(f"dimension mismatch: {law1.dim} vs {law2.dim}")
    k = law1.dim
    if law1._basis is not None and law1._basis is law2._basis:
        d1, d2 = law1._divisor, law2._divisor
        with np.errstate(over="ignore", invalid="ignore"):
            tr, zz = float(np.sum(d2 / d1)), 0.0
            x = (d2 - d1) / d1  # r - 1 without the rounding of r
            val = 0.5 * float(np.sum(x - np.log1p(x)))
    else:
        L1, L2 = law1.chol, law2.chol
        with np.errstate(over="ignore"):
            W = solve_triangular(L2, L1, lower=True)
            tr = float(np.sum(W**2))
            z = solve_triangular(L2, law2.mean - law1.mean, lower=True)
            zz = float(z @ z)
            val = math.inf
            if math.isfinite(tr + zz):  # then every entry of W W' is finite too
                x = np.linalg.eigvalsh(W @ W.T) - 1.0  # which reads the lower triangle
                if x[0] > -0.5:
                    val = 0.5 * (float(np.sum(x - np.log1p(x))) + zz)
                else:
                    # an r < 1/2 puts the KL above 0.09, so cancelling traces costs
                    # little, and the Cholesky log-determinants keep the digits that
                    # eigvalsh loses on a small r
                    ld1 = 2.0 * float(np.sum(np.log(np.diag(L1))))
                    ld2 = 2.0 * float(np.sum(np.log(np.diag(L2))))
                    val = 0.5 * (tr - k + zz + ld2 - ld1)
    if not math.isfinite(val):
        raise ValueError(
            f"the KL divergence of two {k}-dim Gaussian laws overflows: "
            f"trace term {tr}, mean term {zz}"
        )
    return max(val, 0.0)


def sample(law: GaussianLaw, m: int, rng: np.random.Generator) -> np.ndarray:
    """m exact draws, shape (m, dim): mean + z L' with the stored Cholesky factor."""
    return law.mean + rng.standard_normal((_check(m, "count", "m"), law.dim)) @ law.chol.T
