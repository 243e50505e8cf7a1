import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.linalg import expm

from deloc import oracle
from deloc.oracle import (
    GaussianLaw,
    GaussianTarget,
    kl_gaussian,
    lmc_stationary_law,
    lmc_transient_law,
    lyapunov_fixed_point,
    marginal,
    ou_law,
    sample,
    w2sq_gaussian,
)
from deloc.harness import _rotated_precision
from deloc.potential import (
    PairwiseSpec, chain_pairwise, gaussian_potential, mean_field, potential_from_dict,
    quadratic_term,
)

from conftest import random_spd, tridiagonal_precision


def test_law_validation():
    with pytest.raises(ValueError):
        GaussianLaw(np.zeros(2), np.array([[1.0, 0.2], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        GaussianLaw(np.zeros(2), -np.eye(2))  # not PD
    with pytest.raises(ValueError):
        GaussianLaw(np.zeros(2), np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError):
        GaussianLaw(np.zeros(2), np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        GaussianLaw(np.array([np.nan, 0.0]), np.eye(2))
    with pytest.raises(ValueError):
        GaussianLaw(np.array([0.0, np.inf]), np.eye(2))
    with pytest.raises(ValueError, match=r"got shapes \(2, 2\), \(2, 2\)"):
        GaussianLaw(np.zeros((2, 2)), np.eye(2))


def test_law_keeps_cholesky_factor(rng):
    law = GaussianLaw(rng.standard_normal(5), random_spd(rng, 5))
    np.testing.assert_array_equal(law.chol, np.tril(law.chol))
    np.testing.assert_allclose(law.chol @ law.chol.T, law.cov, rtol=0, atol=1e-14)


def test_target_spectrum():
    A = tridiagonal_precision(4)
    tgt = GaussianTarget(A)
    lam = np.linalg.eigvalsh(A)
    assert tgt.alpha == pytest.approx(lam[0])
    assert tgt.beta == pytest.approx(lam[-1])
    np.testing.assert_allclose(tgt.law().cov @ A, np.eye(4), atol=1e-12)


def test_target_validation():
    with pytest.raises(ValueError):
        GaussianTarget(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        GaussianTarget(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError):
        GaussianTarget(np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        GaussianTarget(-np.eye(2))  # not PD


@pytest.mark.parametrize("shape", [(1, 3), (2, 3), (0, 0)])
def test_target_rejects_non_square_precision(shape):
    with pytest.raises(ValueError, match=rf"square matrix, got shape \({shape[0]}, {shape[1]}\)"):
        GaussianTarget(np.ones(shape))


def test_stationary_law_1d_closed_form():
    # A = 1, h = 0.1: var = 1 / (1 - h/2) = 1/0.95
    law = lmc_stationary_law(np.array([[1.0]]), 0.1)
    assert law.cov[0, 0] == pytest.approx(1.0 / 0.95, abs=1e-15)


def test_stationary_law_frozen_1d_bias():
    # frozen oracle values for the 1D running example (A=1, h=0.1)
    tgt = GaussianTarget(np.array([[1.0]]))
    law_h = lmc_stationary_law(tgt, 0.1)
    assert w2sq_gaussian(law_h, tgt.law()) == pytest.approx(6.74874777060186e-4, rel=1e-12)
    assert kl_gaussian(law_h, tgt.law()) == pytest.approx(6.691422799089408e-4, rel=1e-12)


def test_stationary_law_rejects_unstable_step():
    A = tridiagonal_precision(3)
    beta = GaussianTarget(A).beta
    with pytest.raises(ValueError, match="stability"):
        lmc_stationary_law(A, 2.0 / beta)


def test_stationary_matches_lyapunov_iteration(rng):
    for _ in range(5):
        n = int(rng.integers(2, 9))
        A = random_spd(rng, n)
        h = 0.5 / np.linalg.eigvalsh(A)[-1]
        closed = lmc_stationary_law(A, h).cov
        fixed = lyapunov_fixed_point(A, h)
        np.testing.assert_allclose(closed, fixed, atol=1e-11)


def test_lyapunov_doubling_on_slow_mode(monkeypatch):
    # |1 - h lambda_min| = 1 - 1e-5: plain iteration would need ~10^6 steps
    A = np.diag([1e-3, 0.5, 1.0])
    h = 1e-2
    S = lyapunov_fixed_point(A, h)
    np.testing.assert_allclose(S, lmc_stationary_law(A, h).cov, rtol=1e-10)
    monkeypatch.setattr(oracle, "LYAPUNOV_MAX_ITER", 3)
    with pytest.raises(RuntimeError):
        lyapunov_fixed_point(A, h)


def test_stationary_bias_identity():
    # Sigma_h - Sigma = (h/2) (I - hA/2)^{-1} exactly
    A = tridiagonal_precision(5)
    h = 0.08
    tgt = GaussianTarget(A)
    gap = lmc_stationary_law(tgt, h).cov - tgt.law().cov
    np.testing.assert_allclose(
        gap, 0.5 * h * np.linalg.inv(np.eye(5) - 0.5 * h * A), atol=1e-12
    )


def test_transient_law_reaches_stationary():
    A = tridiagonal_precision(4)
    h = 0.05
    law0 = GaussianLaw(np.ones(4), 3.0 * np.eye(4))
    law_k = lmc_transient_law(A, h, 4000, law0)
    law_inf = lmc_stationary_law(A, h)
    np.testing.assert_allclose(law_k.cov, law_inf.cov, atol=1e-10)
    np.testing.assert_allclose(law_k.mean, 0.0, atol=1e-10)


def test_transient_law_single_step_recursion(rng):
    A = random_spd(rng, 3)
    h = 0.1
    law0 = GaussianLaw(rng.standard_normal(3), random_spd(rng, 3))
    one = lmc_transient_law(A, h, 1, law0)
    M = np.eye(3) - h * A
    np.testing.assert_allclose(one.mean, M @ law0.mean, atol=1e-14)
    np.testing.assert_allclose(one.cov, M @ law0.cov @ M.T + 2 * h * np.eye(3), atol=1e-14)


def test_transient_law_rejects_negative_steps_and_wrong_dimension():
    A = tridiagonal_precision(3)
    with pytest.raises(ValueError, match="k must be an integer >= 0"):
        lmc_transient_law(A, 0.1, -2, GaussianLaw(np.zeros(3), np.eye(3)))
    with pytest.raises(ValueError, match="dimension 2"):
        lmc_transient_law(A, 0.1, 1, GaussianLaw(np.zeros(2), np.eye(2)))
    # the stationary law's step domain: the divisor lambda (1 - h lambda / 2) must stay positive
    with pytest.raises(ValueError, match="stability"):
        lmc_transient_law(A, 2.0 / GaussianTarget(A).beta, 1, GaussianLaw(np.zeros(3), np.eye(3)))


def _k_step_reference(A, h, k, law0):
    """The LMC law after k steps by the dense recursion, O(k n^3):
    mean <- M mean, cov <- M cov M' + 2h I with M = I - hA."""
    n = A.shape[0]
    M = np.eye(n) - h * A
    mean, cov = law0.mean, law0.cov
    for _ in range(k):
        mean = M @ mean
        cov = M @ cov @ M.T + 2.0 * h * np.eye(n)
        cov = 0.5 * (cov + cov.T)
    return mean, cov


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 32])
def test_transient_law_matches_k_step_recursion(n):
    rng = np.random.default_rng(n)
    A = random_spd(rng, n)
    law0 = GaussianLaw(rng.standard_normal(n), random_spd(rng, n))
    beta = np.linalg.eigvalsh(A)[-1]
    for h in np.array([1e-3, 0.3, 0.5, 1.0, 1.2, 1.99]) / beta:
        for k in (0, 1, 2, 10, 100, 1000):
            law = lmc_transient_law(A, h, k, law0)
            mean, cov = _k_step_reference(A, h, k, law0)
            # the mean decays, so its error is measured against the start's
            assert np.linalg.norm(law.mean - mean) <= 1e-12 * np.linalg.norm(law0.mean)
            assert np.linalg.norm(law.cov - cov) <= 1e-12 * np.linalg.norm(cov)


def test_ou_law_against_expm(rng):
    A = random_spd(rng, 4)
    cov0 = random_spd(rng, 4)
    m0 = rng.standard_normal(4)
    t = 0.7
    law = ou_law(A, t, GaussianLaw(m0, cov0))
    E = expm(-A * t)
    np.testing.assert_allclose(law.mean, E @ m0, atol=1e-12)
    expected = E @ cov0 @ E.T + np.linalg.inv(A) @ (np.eye(4) - expm(-2 * A * t))
    np.testing.assert_allclose(law.cov, expected, atol=1e-11)


def test_ou_law_rejects_a_start_of_another_dimension():
    with pytest.raises(ValueError, match="law0 has dimension 2 but A is 3 x 3"):
        ou_law(np.eye(3), 0.5, GaussianLaw(np.zeros(2), np.eye(2)))


def test_ou_law_limits():
    A = tridiagonal_precision(3)
    law0 = GaussianLaw(np.zeros(3), 2.0 * np.eye(3))
    at0 = ou_law(A, 0.0, law0)
    np.testing.assert_allclose(at0.cov, law0.cov, atol=1e-14)
    late = ou_law(A, 60.0, law0)
    np.testing.assert_allclose(late.cov, GaussianTarget(A).law().cov, atol=1e-12)


def test_ou_law_double_cov_initial():
    # from cov0 = 2 A^{-1}, cov(t) = A^{-1}(I + e^{-2At}) in closed form
    A = tridiagonal_precision(4)
    Ainv = np.linalg.inv(A)
    t = 0.4
    law = ou_law(A, t, GaussianLaw(np.zeros(4), 2.0 * Ainv))
    np.testing.assert_allclose(law.cov, Ainv @ (np.eye(4) + expm(-2 * A * t)), atol=1e-12)


def test_marginal_slices_mean_cov():
    law = GaussianLaw(np.array([1.0, 2.0, 3.0]), np.diag([1.0, 4.0, 9.0]))
    m = marginal(law, (0, 2))
    np.testing.assert_allclose(m.mean, [1.0, 3.0])
    np.testing.assert_allclose(m.cov, np.diag([1.0, 9.0]))
    with pytest.raises(ValueError):
        marginal(law, ())


def test_w2sq_gaussian_identical_is_zero():
    law = GaussianTarget(tridiagonal_precision(4)).law()
    assert w2sq_gaussian(law, law) == pytest.approx(0.0, abs=1e-12)


def test_w2sq_gaussian_mean_shift():
    cov = np.eye(2)
    a = GaussianLaw(np.zeros(2), cov)
    b = GaussianLaw(np.array([3.0, 4.0]), cov)
    assert w2sq_gaussian(a, b) == pytest.approx(25.0)


def test_w2sq_gaussian_1d_formula():
    a = GaussianLaw(np.zeros(1), np.array([[4.0]]))
    b = GaussianLaw(np.zeros(1), np.array([[1.0]]))
    assert w2sq_gaussian(a, b) == pytest.approx((2.0 - 1.0) ** 2)


def test_w2sq_gaussian_commuting_covariances():
    # diagonal covariances: W2^2 = sum (sqrt(d1) - sqrt(d2))^2
    d1 = np.array([1.0, 4.0, 9.0])
    d2 = np.array([4.0, 1.0, 16.0])
    a = GaussianLaw(np.zeros(3), np.diag(d1))
    b = GaussianLaw(np.zeros(3), np.diag(d2))
    assert w2sq_gaussian(a, b) == pytest.approx(np.sum((np.sqrt(d1) - np.sqrt(d2)) ** 2))


def test_kl_gaussian_1d_formula():
    s2 = 1.3
    a = GaussianLaw(np.zeros(1), np.array([[s2]]))
    b = GaussianLaw(np.zeros(1), np.array([[1.0]]))
    assert kl_gaussian(a, b) == pytest.approx(0.5 * (s2 - 1.0 - np.log(s2)))


def test_kl_gaussian_1d_mean_shift():
    s1, s2, m1, m2 = 0.7, 1.9, 0.4, -1.1
    a = GaussianLaw(np.array([m1]), np.array([[s1]]))
    b = GaussianLaw(np.array([m2]), np.array([[s2]]))
    expected = 0.5 * (s1 / s2 - 1.0 - np.log(s1 / s2) + (m1 - m2) ** 2 / s2)
    assert kl_gaussian(a, b) == pytest.approx(expected, rel=1e-14)


def test_kl_gaussian_names_an_overflow():
    # every term finite, but the trace sum overflows; a far mean overflows z'z
    wide = GaussianLaw(np.zeros(3), 1e308 * np.eye(3))
    with pytest.raises(ValueError, match="overflows: trace term inf, mean term 0.0"):
        kl_gaussian(wide, GaussianLaw(np.zeros(3), np.eye(3)))
    far = GaussianLaw(np.full(2, 1e200), np.eye(2))
    with pytest.raises(ValueError, match="trace term 2.0, mean term inf"):
        kl_gaussian(far, GaussianLaw(np.zeros(2), np.eye(2)))


@pytest.mark.parametrize("h", [1e-3, 1e-2])
def test_kl_gaussian_of_marginals_matches_mpmath(h):
    """The dense KL of a marginal of the LMC law against the target's: a bias of
    1e-7 or less, which tr - k + log-det differences would cancel to 1e-10."""
    mpmath = pytest.importorskip("mpmath")
    n = 8
    A = tridiagonal_precision(n)
    tgt = GaussianTarget(sparse.csr_array(A))
    law, law_h = tgt.law(), lmc_stationary_law(tgt, h)
    with mpmath.workdps(50):
        Am, hh = mpmath.matrix(A.tolist()), mpmath.mpf(h)
        S = Am**-1
        S_h = (Am * (mpmath.eye(n) - hh / 2 * Am)) ** -1
        for u in [(0,), (3,), (3, 4), (0, 7)]:
            k = len(u)
            S1 = mpmath.matrix([[S_h[i, j] for j in u] for i in u])
            S2 = mpmath.matrix([[S[i, j] for j in u] for i in u])
            M = S2**-1 * S1
            want = (sum(M[i, i] for i in range(k)) - k - mpmath.log(mpmath.det(M))) / 2
            got = kl_gaussian(marginal(law_h, u), marginal(law, u))
            assert abs(got - want) <= 1e-12 * want, (u, got, want)


@pytest.mark.parametrize("h", [1e-3, 1e-2])
def test_w2sq_gaussian_of_marginals_matches_mpmath(h):
    """The dense Bures W2^2 of a marginal of the LMC law against the target's: a bias
    of 1e-7 or less, which tr S1 + tr S2 - 2 tr(...)^{1/2} would cancel to 1e-9.  The
    bound is 2e-12: the exact Bures W2^2 of the float64 marginal covariances is itself
    up to 1.2e-12 off (u = (0, 7), h = 1e-3), and the Procrustes sum is within 1.1e-12."""
    mpmath = pytest.importorskip("mpmath")
    n = 8
    A = tridiagonal_precision(n)
    tgt = GaussianTarget(sparse.csr_array(A))
    law, law_h = tgt.law(), lmc_stationary_law(tgt, h)
    with mpmath.workdps(50):
        Am, hh = mpmath.matrix(A.tolist()), mpmath.mpf(h)
        S = Am**-1
        S_h = (Am * (mpmath.eye(n) - hh / 2 * Am)) ** -1
        for u in [(3,), (3, 4), (0, 7), (0, 3, 4, 7)]:
            S1 = mpmath.matrix([[S_h[i, j] for j in u] for i in u])
            S2 = mpmath.matrix([[S[i, j] for j in u] for i in u])
            R2 = mpmath.sqrtm(S2)
            cross = mpmath.sqrtm(R2 * S1 * R2)
            want = sum(S1[i, i] + S2[i, i] - 2 * cross[i, i] for i in range(len(u)))
            got = w2sq_gaussian(marginal(law_h, u), marginal(law, u))
            assert abs(got - want) <= 2e-12 * want, (u, got, want)


def test_kl_gaussian_of_a_narrow_law_matches_mpmath():
    """Covariance ratios down to 1e-8: eigvalsh knows the smallest only to 1e-8
    relative, so the log-determinants come from the Cholesky factors."""
    mpmath = pytest.importorskip("mpmath")
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 5)))
    cov = (Q * np.logspace(0.0, -8.0, 5)) @ Q.T
    narrow = GaussianLaw(np.zeros(5), 0.5 * (cov + cov.T))
    with mpmath.workdps(50):
        S1 = mpmath.matrix(narrow.cov.tolist())
        want = (sum(S1[i, i] for i in range(5)) - 5 - mpmath.log(mpmath.det(S1))) / 2
    got = kl_gaussian(narrow, GaussianLaw(np.zeros(5), np.eye(5)))
    assert abs(got - want) <= 1e-11 * want, (got, want)


def _w2sq_reference(a, b):
    # Bures formula with the symmetric square root of S2 from eigh
    lam, Q = np.linalg.eigh(b.cov)
    root = (Q * np.sqrt(lam)) @ Q.T
    inner = root @ a.cov @ root
    cross = np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.T)), 0.0, None)))
    return np.sum((a.mean - b.mean) ** 2) + np.trace(a.cov) + np.trace(b.cov) - 2.0 * cross


def _kl_reference(a, b):
    dm = b.mean - a.mean
    tr = np.trace(np.linalg.solve(b.cov, a.cov))
    quad = dm @ np.linalg.solve(b.cov, dm)
    return 0.5 * (tr - a.dim + quad + np.linalg.slogdet(b.cov)[1] - np.linalg.slogdet(a.cov)[1])


def test_factor_formulas_match_dense_references(rng):
    for n in (1, 2, 3, 5, 8):
        for _ in range(4):
            a = GaussianLaw(rng.standard_normal(n), random_spd(rng, n) if n > 1 else [[0.3]])
            b = GaussianLaw(rng.standard_normal(n), random_spd(rng, n) if n > 1 else [[1.7]])
            assert w2sq_gaussian(a, b) == pytest.approx(_w2sq_reference(a, b), rel=1e-12)
            assert kl_gaussian(a, b) == pytest.approx(_kl_reference(a, b), rel=1e-12)


def test_kl_gaussian_asymmetric(rng):
    a = GaussianLaw(np.zeros(3), random_spd(rng, 3))
    b = GaussianLaw(np.zeros(3), random_spd(rng, 3))
    assert kl_gaussian(a, b) != pytest.approx(kl_gaussian(b, a))
    assert kl_gaussian(a, a) == pytest.approx(0.0, abs=1e-12)


def test_frozen_n3_values():
    # frozen: tridiagonal(2, -0.5) n=3, h=0.05
    tgt = GaussianTarget(tridiagonal_precision(3))
    law_h = lmc_stationary_law(tgt, 0.05)
    assert w2sq_gaussian(law_h, tgt.law()) == pytest.approx(0.0010193674798326668, rel=1e-10)
    assert kl_gaussian(law_h, tgt.law()) == pytest.approx(0.0021988775338860345, rel=1e-10)
    assert w2sq_gaussian(
        marginal(law_h, (0, 1)), marginal(tgt.law(), (0, 1))
    ) == pytest.approx(0.000657919325275369, rel=1e-10)


def test_talagrand_on_gaussian_pairs(rng):
    # W2^2 <= (2/alpha) KL, alpha = lambda_min of the reference precision
    for _ in range(10):
        A = random_spd(rng, 4)
        tgt = GaussianTarget(A)
        h = 0.4 / tgt.beta
        law_h = lmc_stationary_law(tgt, h)
        w2 = w2sq_gaussian(law_h, tgt.law())
        kl = kl_gaussian(law_h, tgt.law())
        assert w2 <= (2.0 / tgt.alpha) * kl + 1e-12


def test_sample_moments(rng):
    law = GaussianLaw(np.array([1.0, -2.0]), np.array([[2.0, 0.6], [0.6, 1.0]]))
    x = sample(law, 200_000, rng)
    np.testing.assert_allclose(x.mean(axis=0), law.mean, atol=0.02)
    np.testing.assert_allclose(np.cov(x.T), law.cov, atol=0.03)


def test_sample_uses_cholesky_draws_bit_for_bit(rng):
    law = GaussianLaw(rng.standard_normal(4), random_spd(rng, 4))
    x = sample(law, 50, np.random.default_rng(9))
    z = np.random.default_rng(9).standard_normal((50, 4))
    np.testing.assert_array_equal(x, law.mean + z @ np.linalg.cholesky(law.cov).T)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    hfrac=st.floats(min_value=0.05, max_value=0.9),
)
def test_property_closed_form_solves_lyapunov(n, seed, hfrac):
    # Sigma_h satisfies (I-hA) S (I-hA) + 2hI = S identically
    rng = np.random.default_rng(seed)
    A = random_spd(rng, n) if n > 1 else np.array([[rng.uniform(0.2, 2.0)]])
    h = hfrac * 2.0 / np.linalg.eigvalsh(A)[-1] * 0.99
    S = lmc_stationary_law(A, h).cov
    M = np.eye(n) - h * A
    np.testing.assert_allclose(M @ S @ M.T + 2 * h * np.eye(n), S, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_property_w2sq_symmetry_and_triangleish(seed):
    rng = np.random.default_rng(seed)
    a = GaussianLaw(rng.standard_normal(3), random_spd(rng, 3))
    b = GaussianLaw(rng.standard_normal(3), random_spd(rng, 3))
    ab = w2sq_gaussian(a, b)
    assert ab == pytest.approx(w2sq_gaussian(b, a), rel=1e-8, abs=1e-12)
    assert ab >= 0
    assert np.sqrt(ab) >= abs(np.linalg.norm(a.mean - b.mean)) - 1e-8 - np.trace(a.cov + b.cov)


def _targets():
    rng = np.random.default_rng(2024)
    for n in (1, 2, 3, 5, 8, 16, 33, 64):
        yield random_spd(rng, n)
    for n in (2, 9, 64):
        yield tridiagonal_precision(n)


@pytest.mark.parametrize("A", list(_targets()), ids=lambda A: f"n={A.shape[0]}")
def test_spectral_laws_match_dense_laws(A):
    tgt = GaussianTarget(A)
    # the basis the target took: eigh's, or a closed form (n = 1 and the two-level
    # tridiagonal n = 2); either way the laws must be the dense constructor's
    lam, basis = tgt._eigs
    Q = basis.Q
    h = 0.9 / tgt.beta
    for d, law in ((lam, tgt.law()), (lam * (1.0 - 0.5 * h * lam), lmc_stationary_law(tgt, h))):
        n = law.dim
        cov = (Q / d) @ Q.T
        cov = 0.5 * (cov + cov.T)
        dense = GaussianLaw(np.zeros(n), cov)
        np.testing.assert_allclose(law.variances, np.diag(cov), rtol=1e-12, atol=0)
        assert not law.variances.flags.writeable
        # a marginal's block sums the same n products Q_ik Q_jk / d_k as cov but in
        # another order, and each sum is within n eps max(1/d) of the exact one
        tol = 2 * n * np.finfo(float).eps * np.max(1.0 / d)
        for u in [(0,), (n - 1,), tuple(range(0, n, 2)), tuple(range(n))]:
            got, want = marginal(law, u), marginal(dense, u)
            np.testing.assert_array_equal(got.mean, want.mean)
            np.testing.assert_allclose(got.cov, want.cov, rtol=0, atol=tol)
        # the dense forms, once read, are the dense constructor's to the bit
        np.testing.assert_array_equal(law.cov, cov)
        np.testing.assert_array_equal(law.chol, np.linalg.cholesky(cov))
        np.testing.assert_array_equal(
            sample(law, 9, np.random.default_rng(n)), sample(dense, 9, np.random.default_rng(n))
        )


@pytest.mark.parametrize("A", list(_targets()), ids=lambda A: f"n={A.shape[0]}")
def test_w2sq_on_one_eigenbasis_matches_bures(A):
    tgt = GaussianTarget(A)
    h = 0.9 / tgt.beta
    pairs = [
        (lmc_stationary_law(tgt, h), tgt.law()),
        (lmc_stationary_law(tgt, h), lmc_stationary_law(tgt, 0.3 * h)),
    ]
    for a, b in pairs:
        fast = w2sq_gaussian(a, b)
        assert "cov" not in vars(a) and "cov" not in vars(b)  # no dense form was needed
        bures = w2sq_gaussian(GaussianLaw(a.mean, a.cov), GaussianLaw(b.mean, b.cov))
        assert fast == pytest.approx(bures, rel=1e-10, abs=0)


def test_w2sq_across_two_targets_takes_the_bures_path(rng):
    A = random_spd(rng, 6)
    a, b = lmc_stationary_law(GaussianTarget(A), 0.5), GaussianTarget(A).law()
    got = w2sq_gaussian(a, b)
    assert "cov" in vars(a) and "cov" in vars(b)
    assert got == w2sq_gaussian(GaussianLaw(a.mean, a.cov), GaussianLaw(b.mean, b.cov))


def test_law_is_immutable():
    for law in (GaussianLaw(np.zeros(2), np.eye(2)), GaussianTarget(np.eye(2)).law()):
        with pytest.raises(AttributeError):
            law.mean = np.ones(2)
        law.cov  # a spectral law caches its dense form on first read
        for name in ("mean", "cov", "chol"):
            with pytest.raises(AttributeError):
                delattr(law, name)
        np.testing.assert_array_equal(law.cov, np.eye(2))


def test_laws_reject_a_covariance_that_overflows():
    # the covariance 1/1e-310 is inf although the precision is finite and positive
    tgt = GaussianTarget(np.array([[1e-310]]))
    with pytest.raises(ValueError, match="must be finite"):
        tgt.law()
    with pytest.raises(ValueError, match="must be finite"):
        lmc_stationary_law(tgt, 0.1)
    with pytest.raises(ValueError, match="must be finite"):
        GaussianLaw(np.zeros(1), [[np.inf]])


def _json_term(kind: str, key: str, A):
    """A through a JSON potential file's `kind` term, its matrix under params[key]."""
    k = max(len(A), 1)
    term = {"kind": kind, "support": list(range(k)), "params": {key: np.asarray(A).tolist()}}
    return potential_from_dict({"n": k, "smoothness": {"alpha": 1.0}, "terms": [term]})


def _builtin_gaussian(A):
    return _json_term("builtin:gaussian", "precision", A)


_START = GaussianLaw(np.zeros(2), np.eye(2))
PRECISION_ENTRY_POINTS = {
    "GaussianTarget": GaussianTarget,
    "lmc_stationary_law": lambda A: lmc_stationary_law(A, 0.1),
    "lmc_transient_law": lambda A: lmc_transient_law(A, 0.1, 1, _START),
    "ou_law": lambda A: ou_law(A, 0.5, _START),
    "lyapunov_fixed_point": lambda A: lyapunov_fixed_point(A, 0.1),
    "gaussian_potential": gaussian_potential,
    "builtin:gaussian": _builtin_gaussian,
}
# every entry point the symmetric-matrix rule reads: (call, what it names, tol)
MATRIX_ENTRY_POINTS = {
    **{e: (call, "precision", 1e-10) for e, call in PRECISION_ENTRY_POINTS.items()},
    "quadratic_term": (lambda M: quadratic_term(range(max(len(M), 1)), M),
                       "quadratic factor matrix", 1e-12),
    "JSON quadratic": (lambda M: _json_term("quadratic", "matrix", M),
                       "quadratic factor matrix", 1e-12),
    "PairwiseSpec": (lambda M: PairwiseSpec(len(M), np.zeros(len(M)), M),
                     "interaction_bounds", 1e-12),
    "GaussianLaw": (lambda M: GaussianLaw(np.zeros(len(M)), M), "covariance", 1e-12),
}
# fault: (the matrix, given the entry's tolerance; the end of the message after "<what> must be ")
MATRIX_FAULTS = {
    "non-square": (lambda tol: np.ones((1, 3)), r"a non-empty square matrix, got shape \(1, 3\)"),
    "empty": (lambda tol: np.ones((0, 0)), r"a non-empty square matrix, got shape \(0, 0\)"),
    "nan": (lambda tol: [[1.0, np.nan], [np.nan, 1.0]], "finite"),
    "+inf": (lambda tol: [[np.inf]], "finite"),
    "-inf": (lambda tol: [[1.0, -np.inf], [-np.inf, 1.0]], "finite"),
    "asymmetric": (lambda tol: [[1.0, 0.5], [0.0, 1.0]], "symmetric to "),
    "asymmetric beyond the tolerance": (lambda tol: [[1.0, 0.5 + 2 * tol], [0.5, 1.0]],
                                        "symmetric to "),
    "not positive definite": (lambda tol: -np.eye(2), None),
    "sparse non-finite": (lambda tol: sparse.csr_array([[np.nan, 0.0], [0.0, 1.0]]), "finite"),
    "sparse asymmetric": (lambda tol: sparse.csr_array([[1.0, 0.5], [0.0, 1.0]]), "symmetric to "),
    # constant tridiagonal, so the sine spectrum finds lambda_min < 0
    "sparse not positive definite": (
        lambda tol: sparse.csr_array(tridiagonal_precision(8, 1.0, -0.6)), None),
}


def _faulted(entry: str, fault: str) -> bool:
    """Whether the entry point reads this fault: only a precision must be positive
    definite (lyapunov_fixed_point reads A alone, and a builtin term is one factor
    of a sum), only a precision may be sparse, and a JSON file holds no sparse matrix."""
    precision = entry in PRECISION_ENTRY_POINTS and entry != "builtin:gaussian"
    if fault.endswith("not positive definite"):
        return precision and entry != "lyapunov_fixed_point"
    return precision or "sparse" not in fault


@pytest.mark.parametrize(
    "entry, fault", [(e, f) for e in MATRIX_ENTRY_POINTS for f in MATRIX_FAULTS if _faulted(e, f)]
)
def test_every_entry_point_rejects_each_precision_fault(entry, fault):
    call, what, tol = MATRIX_ENTRY_POINTS[entry]
    make, end = MATRIX_FAULTS[fault]
    message = "positive definite" if end is None else f"{what} must be {end}"
    if entry in ("builtin:gaussian", "JSON quadratic") and "asymmetric" not in fault:
        message = "must be a square list of number lists"  # the JSON reader's rule comes first
    if "asymmetric" in fault:
        message += f"{tol:g}"
    with pytest.raises(ValueError, match=message):
        call(make(tol))


# entry: what it keeps of the matrix it read (the law functions keep none)
_READ_BACK = {
    "GaussianTarget": lambda tgt: tgt.precision,
    "gaussian_potential": lambda pot: pot.quadratic_matrix.toarray(),
    "builtin:gaussian": lambda pot: pot.quadratic_matrix.toarray(),
    "quadratic_term": lambda term: term.matrix,
    "JSON quadratic": lambda pot: pot.terms[0].matrix,
    "PairwiseSpec": lambda spec: spec.interaction_bounds,
    "GaussianLaw": lambda law: law.cov,
}


@pytest.mark.parametrize("entry", MATRIX_ENTRY_POINTS)
def test_every_entry_point_takes_a_matrix_asymmetric_within_its_tolerance(entry):
    call, _, tol = MATRIX_ENTRY_POINTS[entry]
    diag = 0.0 if entry == "PairwiseSpec" else 2.0  # pairwise bounds have a zero diagonal
    M = np.array([[diag, 0.5 + 0.75 * tol], [0.5, diag]])
    got = call(M)
    if entry in _READ_BACK:
        read = _READ_BACK[entry](got)
        assert read.tobytes() == (0.5 * (M + M.T)).tobytes()
        assert read[0, 1] == read[1, 0]


def test_a_sparse_factor_block_covariance_or_pairwise_bound_reads_as_its_dense_form():
    M, B = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([[0.0, 0.5], [0.5, 0.0]])
    term, law = quadratic_term((0, 1), M), GaussianLaw(np.zeros(2), M)
    for to_sparse in (sparse.csr_array, sparse.coo_matrix):
        got = quadratic_term((0, 1), to_sparse(M))
        assert type(got.matrix) is np.ndarray and got.matrix.tobytes() == term.matrix.tobytes()
        assert got.lipschitz == term.lipschitz
        got = GaussianLaw(np.zeros(2), to_sparse(M))
        assert type(got.cov) is np.ndarray and got.cov.tobytes() == law.cov.tobytes()
        assert got.chol.tobytes() == law.chol.tobytes()
        got = PairwiseSpec(2, np.zeros(2), to_sparse(B)).interaction_bounds
        assert type(got) is np.ndarray and got.tobytes() == B.tobytes()


def test_the_symmetric_reader_averages_strip_by_strip():
    """Past 64 rows the rule reads M in strips; it must give (M + M')/2 bit for bit,
    and M itself where M is symmetric, so an entry near the overflow stays finite."""
    from deloc._json import _symmetric

    rng = np.random.default_rng(5)
    for n in (1, 63, 64, 65, 200):
        S = rng.standard_normal((n, n))
        S = S + S.T
        M = S + 1e-13 * rng.uniform(-1.0, 1.0, (n, n))
        for A in (S, M, sparse.csr_array(M)):
            got = _symmetric(A, "m", 1e-12)
            want = 0.5 * (A + A.T)
            assert type(got) is type(want)
            got, want = (sparse.csr_array(got).toarray(), sparse.csr_array(want).toarray())
            assert got.tobytes() == want.tobytes()
            np.testing.assert_array_equal(got, got.T)
    huge = np.full((70, 70), 1.5e308)
    np.testing.assert_array_equal(_symmetric(huge, "m", 1e-12), huge)


def test_a_matrix_near_the_overflow_reads_finite_in_either_form():
    """(M + M')/2 overflows only where M' = M, and M is kept there: a CSR read comes
    back finite, canonical and with no stored zero, and gives the dense form's alpha
    and beta; a dense strip with a small asymmetry keeps its huge entries too."""
    from deloc._json import _symmetric

    huge = np.diag([1e308, 1e308])
    for read in (lambda A: gaussian_potential(A).smoothness, GaussianTarget):
        dense, csr = read(huge), read(sparse.csr_array(huge))
        assert (csr.alpha, csr.beta) == (dense.alpha, dense.beta) == (1e308, 1e308)
    M = np.array([[1.7e308, 0.5 + 1e-13, 0.0], [0.5, 0.0, 1.0], [0.0, 1.0, -1.7e308]])
    want = M.copy()
    want[0, 1] = want[1, 0] = 0.5 * (M[0, 1] + M[1, 0])
    # rows unsorted, with duplicate entries and a stored zero
    vals = [M[0, 1], M[0, 0], 0.5, 0.5, 0.5, 0.0, -0.85e308, 1.0, -0.85e308]
    cols, starts = [1, 0, 0, 2, 2, 1, 2, 1, 2], [0, 2, 6, 9]
    for A in (M, sparse.csr_array((vals, cols, starts), shape=(3, 3))):
        got = _symmetric(A, "m", 1e-12)
        if sparse.issparse(got):
            assert got.has_canonical_format and np.all(got.data != 0)
            got = got.toarray()
        assert got.tobytes() == want.tobytes()


# -- closed-form eigenbases ----------------------------------------------------------
#
# A sparse constant tridiagonal precision takes the sine basis, a diagonal one the
# identity and p I + q (11' - I) the cosine basis.  Each of these paths and the
# dense eigh path are independent oracles: the closed form runs here with
# np.linalg.eigh refused, the dense path with the closed forms refused, and their
# answers must agree to 1e-13 relative.

SINE_DIMS = (1, 2, 3, 17, 256, 1024)
SINE_BANDS = ((2.0, -0.5), (2.0, 0.0), (3.0, 0.5))  # (3, 0.5): descending lambda_k
SINE_H = 0.05


def _refuse_eigh(*args, **kwargs):
    raise AssertionError("np.linalg.eigh called on a closed-form path")


def _refuse_toarray(*args, **kwargs):
    raise AssertionError("a sparse precision densified")


def _dense_target(A) -> GaussianTarget:
    """GaussianTarget(A) through the dense eigh, whatever A's structure."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "_closed_form", lambda A: None)
        tgt = GaussianTarget(A)  # which reads and caches _eigs
    assert isinstance(tgt._eigs[1], oracle._DenseBasis)
    return tgt


def _closed_form_target(A, basis: type) -> GaussianTarget:
    with pytest.MonkeyPatch.context() as m:
        m.setattr(np.linalg, "eigh", _refuse_eigh)
        tgt = GaussianTarget(A)
    assert isinstance(tgt._eigs[1], basis)
    return tgt


def _relative_gap(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _quantities(tgt: GaussianTarget, n: int, blocks_of_cov: bool = False, h=SINE_H) -> dict:
    """What the tests compare; blocks_of_cov takes each marginal from the dense cov."""
    law, law_h = tgt.law(), lmc_stationary_law(tgt, h)
    dense = (lambda law: GaussianLaw(law.mean, law.cov)) if blocks_of_cov else (lambda law: law)
    out = {
        "alpha": tgt.alpha, "beta": tgt.beta,
        "variances": law.variances, "variances_h": law_h.variances,
        "w2sq": w2sq_gaussian(law_h, law), "kl": kl_gaussian(law_h, law),
    }
    # as sets, so a small n gives each subset's distinct members once
    for u in {tuple(sorted(set(u))) for u in ((0,), (n - 1,), (n // 2, min(n // 2 + 1, n - 1)),
                                              (0, n // 3, n - 1))}:
        out[f"marginal {u}"] = marginal(dense(law), u).cov
        out[f"marginal_h {u}"] = marginal(dense(law_h), u).cov
    if n <= 256:  # the evolved laws and the samples form dense n x n products
        # a start mean along 1 as well: the rotated target's 1 - h lambda is 0 on 1's
        # complement at h = 0.02, where a mean would vanish to rounding
        law0 = GaussianLaw(np.linspace(2.0, 0.0, n), 2.0 * np.eye(n))
        transient = lmc_transient_law(tgt, h, 7, law0)
        ou = ou_law(tgt, 0.3, law0)
        out.update(transient_mean=transient.mean, transient_cov=transient.cov,
                   ou_mean=ou.mean, ou_cov=ou.cov,
                   sample=sample(law_h, 9, np.random.default_rng(n)))
    return out


def _assert_paths_agree(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key in want:
        assert _relative_gap(got[key], want[key]) <= 1e-13, key


@pytest.mark.parametrize("band", SINE_BANDS, ids=lambda b: f"diag={b[0]},off={b[1]}")
@pytest.mark.parametrize("n", SINE_DIMS)
def test_sine_path_matches_the_dense_path_without_eigh(n, band):
    A = tridiagonal_precision(n, *band)
    want = _quantities(_dense_target(A), n, blocks_of_cov=True)
    got = _quantities(_closed_form_target(sparse.csr_array(A), oracle._SineBasis), n)
    _assert_paths_agree(got, want)


def _two_level(n: int, p: float, q: float) -> np.ndarray:
    return (p - q) * np.eye(n) + q * np.ones((n, n))


# q scales like 1/n, as in mean field: with ||A|| growing like n, the dense eigh
# spreads the (n-1)-fold eigenvalue p - q by eps ||A|| and its variances drift
# (2e-13 relative at n = 1024, q = 0.4), while the cosine path stays exact; see
# test_cosine_variances_are_exact_where_eigh_drifts
CLOSED_FORMS = {  # precision of order n, the basis it takes for n > 1, and h
    "diagonal": (lambda n: np.diag(np.linspace(1.0, 4.0, n)), oracle._IdentityBasis, SINE_H),
    "q>0": (lambda n: _two_level(n, 2.0, 0.9 / n), oracle._CosineBasis, SINE_H),
    "q<0": (lambda n: _two_level(n, 2.0, -0.9 / n), oracle._CosineBasis, SINE_H),
    # delocalization-failure's default target and step
    "rotated": (lambda n: _rotated_precision(n, 1.0, 50.0), oracle._CosineBasis, 0.02),
    "mean-field": (lambda n: 2.0 * np.eye(n) - 1.0 / n, oracle._CosineBasis, SINE_H),
}


@pytest.mark.parametrize("kind", CLOSED_FORMS)
@pytest.mark.parametrize("n", (1, 2, 3, 16, 128, 1024))
def test_closed_form_paths_match_the_dense_path_without_eigh(n, kind):
    build, basis, h = CLOSED_FORMS[kind]
    A = build(n)
    want = _quantities(_dense_target(A), n, blocks_of_cov=True, h=h)
    got = _quantities(_closed_form_target(A, oracle._IdentityBasis if n == 1 else basis), n, h=h)
    _assert_paths_agree(got, want)


def test_cosine_variances_are_exact_where_eigh_drifts():
    n, p, q = 1024, 3.0, 0.4
    A = _two_level(n, p, q)
    exact = (1.0 / (p + (n - 1) * q) + (n - 1) / (p - q)) / n
    var = _closed_form_target(A, oracle._CosineBasis).law().variances
    assert np.max(np.abs(var - exact)) <= 2 * np.finfo(float).eps * exact
    dense = _dense_target(A).law().variances
    assert np.max(np.abs(dense - exact)) > 1e-14 * exact


@pytest.mark.parametrize("confine, strength", [(1.0, 1.0), (0.5, 3.0)])
@pytest.mark.parametrize("n", (2, 3, 8, 17, 64))
def test_mean_field_target_is_exact_on_the_cosine_basis(n, confine, strength):
    A = mean_field(n, confine, strength).quadratic_matrix.toarray()
    off = A[~np.eye(n, dtype=bool)]
    assert np.all(off == off[0]) and np.all(np.diag(A) == A[0, 0])  # two-level to the bit
    tgt = _closed_form_target(A, oracle._CosineBasis)
    lam = tgt._eigs[0]
    # 1/sqrt(n) feels only the confinement; every contrast feels the coupling too
    np.testing.assert_allclose(lam[0], confine, rtol=1e-14)
    np.testing.assert_allclose(lam[1:], confine + strength, rtol=1e-14)
    _assert_paths_agree(_quantities(tgt, n), _quantities(_dense_target(A), n, blocks_of_cov=True))


_CHAIN = chain_pairwise(6).quadratic_matrix.toarray()  # end entries 1.5, inner 2.0
_PENTADIAGONAL = sparse.diags_array([0.1, -0.5, 2.0, -0.5, 0.1], offsets=(-2, -1, 0, 1, 2),
                                    shape=(6, 6), format="csr")
_ALMOST_TWO_LEVEL = _two_level(6, 2.0, -0.1)
_ALMOST_TWO_LEVEL[0, 5] = _ALMOST_TWO_LEVEL[5, 0] = -0.2
EIGH_SKIPS = {  # precision -> the basis it takes, None for the dense eigh
    "sparse tridiagonal": (sparse.csr_array(tridiagonal_precision(6)), oracle._SineBasis),
    "sparse constant diagonal": (sparse.csr_array(3.0 * np.eye(6)), oracle._SineBasis),
    "dense tridiagonal": (tridiagonal_precision(6), None),
    "dense tridiagonal n=2": (tridiagonal_precision(2), oracle._CosineBasis),
    "sparse chain": (sparse.csr_array(_CHAIN), None),
    "dense chain": (_CHAIN, None),
    "sparse pentadiagonal": (_PENTADIAGONAL, None),
    "1 x 1": (np.array([[2.5]]), oracle._IdentityBasis),
    "diagonal": (np.diag([1.0, 50.0, 50.0, 3.0]), oracle._IdentityBasis),
    "sparse diagonal": (sparse.diags_array([1.0, 2.0, 3.0], format="csr"), oracle._IdentityBasis),
    "sparse product": (sparse.diags_array([1.0] + [50.0] * 7, format="csr"), oracle._IdentityBasis),
    "two-level": (_two_level(6, 2.0, -0.1), oracle._CosineBasis),
    "sparse two-level": (sparse.csr_array(_two_level(6, 2.0, 0.1)), oracle._CosineBasis),
    "rotated": (_rotated_precision(6, 1.0, 50.0), oracle._CosineBasis),
    "mean field": (mean_field(6).quadratic_matrix.toarray(), oracle._CosineBasis),
    "constant off-diagonal, varying diagonal": (
        _two_level(4, 2.0, 0.1) + np.diag([0.0, 0.0, 0.0, 1.0]), None),
    "one off-diagonal pair apart": (_ALMOST_TWO_LEVEL, None),
}


@pytest.mark.parametrize("name", EIGH_SKIPS)
def test_which_precisions_skip_eigh(name, monkeypatch):
    A, basis = EIGH_SKIPS[name]
    if sparse.issparse(A) and basis in (oracle._SineBasis, oracle._IdentityBasis):
        # read in O(nnz): no n x n array is formed
        monkeypatch.setattr(sparse.csr_array, "toarray", _refuse_toarray)
    if basis is not None:
        _closed_form_target(A, basis)
    else:
        monkeypatch.setattr(np.linalg, "eigh", _refuse_eigh)
        with pytest.raises(AssertionError, match="eigh called"):
            GaussianTarget(A)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_the_identity_basis_forms_q_from_its_rows_as_the_identity(n):
    Q, eye = oracle._IdentityBasis(n).Q, np.eye(n)
    assert (Q.dtype, Q.shape, Q.tobytes()) == (eye.dtype, eye.shape, eye.tobytes())


def test_a_sparse_precision_off_the_sine_path_is_densified():
    """The same structure reader and the same eigh as its dense form: the same laws.
    (A sparse diagonal is read on the identity basis, and gives them too.)"""
    for sparse_A in (sparse.csr_array(_CHAIN), _PENTADIAGONAL,
                     sparse.diags_array([1.0, 2.0, 3.0], format="csr")):
        np.testing.assert_array_equal(
            GaussianTarget(sparse_A).law().variances,
            GaussianTarget(sparse_A.toarray()).law().variances,
        )
