import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
from deloc.potential import gaussian_potential, potential_from_dict, tridiagonal_precision

from conftest import random_spd


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
    lam, Q = np.linalg.eigh(tgt.precision)
    h = 0.9 / tgt.beta
    for d, law in ((lam, tgt.law()), (lam * (1.0 - 0.5 * h * lam), lmc_stationary_law(tgt, h))):
        n = law.dim
        cov = (Q / d) @ Q.T
        cov = 0.5 * (cov + cov.T)
        dense = GaussianLaw(np.zeros(n), cov)
        np.testing.assert_allclose(law.variances, np.diag(cov), rtol=1e-12, atol=0)
        assert not law.variances.flags.writeable
        for u in [(0,), (n - 1,), tuple(range(0, n, 2)), tuple(range(n))]:
            got, want = marginal(law, u), marginal(dense, u)
            np.testing.assert_array_equal(got.mean, want.mean)
            np.testing.assert_array_equal(got.cov, want.cov)
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


def _builtin_gaussian(A):
    """A through a JSON potential file's builtin:gaussian term."""
    k = max(len(A), 1)
    term = {"kind": "builtin:gaussian", "support": list(range(k)),
            "params": {"precision": np.asarray(A).tolist()}}
    return potential_from_dict({"n": k, "smoothness": {"alpha": 1.0}, "terms": [term]})


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
PRECISION_FAULTS = {
    "non-square": (np.ones((1, 3)), r"non-empty square matrix, got shape \(1, 3\)"),
    "empty": (np.ones((0, 0)), r"non-empty square matrix, got shape \(0, 0\)"),
    "non-finite": ([[np.inf]], "precision must be finite"),
    "asymmetric": ([[1.0, 0.5], [0.0, 1.0]], "precision matrix must be symmetric"),
    "not positive definite": (-np.eye(2), "positive definite"),
}


@pytest.mark.parametrize(
    "entry, fault",
    [(e, f) for e in PRECISION_ENTRY_POINTS for f in PRECISION_FAULTS
     # only a target is positive definite: lyapunov_fixed_point reads A alone, and a
     # builtin term is one factor of a sum
     if f != "not positive definite" or e not in ("lyapunov_fixed_point", "builtin:gaussian")],
)
def test_every_entry_point_rejects_each_precision_fault(entry, fault):
    A, message = PRECISION_FAULTS[fault]
    if entry == "builtin:gaussian" and fault != "asymmetric":
        message = "must be a square list of number lists"  # the JSON reader's rule comes first
    with pytest.raises(ValueError, match=message):
        PRECISION_ENTRY_POINTS[entry](A)
