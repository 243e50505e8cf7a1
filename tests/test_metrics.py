import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deloc.metrics import (
    MAX_ASSIGNMENT_DIM,
    MAX_ASSIGNMENT_SAMPLES,
    subadditivity_check,
    w2sq_1d,
    w2sq_assignment,
)
from deloc.oracle import (
    GaussianLaw,
    GaussianTarget,
    lmc_stationary_law,
    marginal,
    sample,
    w2sq_gaussian,
)
from deloc.potential import tridiagonal_precision

from conftest import serial_w2sq_assignment


def test_w2sq_1d_identical_samples_zero(rng):
    x = rng.standard_normal(500)
    est = w2sq_1d(x, x.copy())
    assert est.value == pytest.approx(0.0, abs=1e-15)
    assert est.method == "quantile"


def test_w2sq_1d_known_shift():
    # point masses shifted by delta: W2^2 = delta^2
    x = np.zeros(100)
    y = np.full(100, 2.5)
    est = w2sq_1d(x, y)
    assert est.value == pytest.approx(6.25)


def test_w2sq_1d_permutation_invariant(rng):
    x = rng.standard_normal(400)
    y = rng.standard_normal(400) * 1.4
    a = w2sq_1d(x, y).value
    b = w2sq_1d(rng.permutation(x), rng.permutation(y)).value
    assert a == pytest.approx(b, rel=1e-14)


def test_w2sq_1d_converges_to_bures(rng):
    # large-sample 1D estimate approaches the closed form
    s1, s2 = 1.0, 1.5
    truth = (np.sqrt(s1) - np.sqrt(s2)) ** 2
    x = rng.normal(0.0, np.sqrt(s1), size=200_000)
    y = rng.normal(0.0, np.sqrt(s2), size=200_000)
    est = w2sq_1d(x, y, rng=rng)
    assert est.value == pytest.approx(truth, rel=0.05)
    assert abs(est.value - truth) <= 4 * est.standard_error + 1e-4


def test_w2sq_1d_bootstrap_se_reasonable(rng):
    # the bootstrap SE should track the spread of independent replications
    s1, s2 = 1.0, 2.0
    reps = [
        w2sq_1d(
            rng.normal(0, 1.0, 4000), rng.normal(0, np.sqrt(s2), 4000), n_boot=100, rng=rng
        )
        for _ in range(30)
    ]
    emp_sd = np.std([r.value for r in reps], ddof=1)
    mean_se = np.mean([r.standard_error for r in reps])
    assert 0.4 * emp_sd <= mean_se <= 2.5 * emp_sd


def test_w2sq_1d_unequal_sizes(rng):
    x = rng.standard_normal(1000)
    y = rng.standard_normal(3001)
    est = w2sq_1d(x, y)
    assert est.sample_sizes == (1000, 3001)
    assert np.isfinite(est.value)


def test_w2sq_1d_needs_two_samples():
    with pytest.raises(ValueError):
        w2sq_1d([1.0], [1.0, 2.0])


def test_assignment_identical_zero(rng):
    x = rng.standard_normal((64, 3))
    est = w2sq_assignment(x, x.copy(), n_boot=0)
    assert est.value == pytest.approx(0.0, abs=1e-15)
    assert est.method == "assignment"


def test_assignment_matches_1d_quantile(rng):
    # in one dimension the optimal assignment is the sorted coupling
    x = rng.standard_normal(300)
    y = 1.3 * rng.standard_normal(300) + 0.5
    a = w2sq_assignment(x[:, None], y[:, None], n_boot=0).value
    b = w2sq_1d(x, y, n_boot=0).value
    assert a == pytest.approx(b, rel=1e-12)


def test_assignment_translation(rng):
    # translating one cloud by v adds exactly |v|^2 under l2 when the
    # clouds are matched copies
    x = rng.standard_normal((128, 2))
    v = np.array([2.0, -1.0])
    est = w2sq_assignment(x, x + v, n_boot=0)
    assert est.value == pytest.approx(float(v @ v), rel=1e-12)


def test_assignment_linf_cost(rng):
    x = np.zeros((32, 2))
    y = np.tile([3.0, 4.0], (32, 1))
    l2 = w2sq_assignment(x, y, norm="l2", n_boot=0).value
    linf = w2sq_assignment(x, y, norm="linf", n_boot=0).value
    assert l2 == pytest.approx(25.0)
    assert linf == pytest.approx(16.0)  # max(3,4)^2


def test_assignment_beats_any_permutation(rng):
    x = rng.standard_normal((40, 2))
    y = rng.standard_normal((40, 2))
    opt = w2sq_assignment(x, y, n_boot=0).value
    for _ in range(20):
        perm = rng.permutation(40)
        guess = float(np.mean(np.sum((x - y[perm]) ** 2, axis=1)))
        assert opt <= guess + 1e-12


def test_assignment_caps():
    with pytest.raises(ValueError, match="assignment cap"):
        w2sq_assignment(np.zeros((4, MAX_ASSIGNMENT_DIM + 1)), np.zeros((4, MAX_ASSIGNMENT_DIM + 1)))
    big = MAX_ASSIGNMENT_SAMPLES + 1
    with pytest.raises(ValueError, match="assignment cap"):
        w2sq_assignment(np.zeros((big, 2)), np.zeros((big, 2)))


def test_assignment_unequal_sizes_subsample(rng):
    x = rng.standard_normal((200, 2))
    y = rng.standard_normal((300, 2))
    est = w2sq_assignment(x, y, n_boot=0, rng=rng)
    # sizes record what was actually matched after subsampling
    assert est.sample_sizes == (200, 200)
    assert np.isfinite(est.value)


@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("n_boot", [0, 2, 5])
def test_assignment_matches_the_serial_reference_bit_for_bit(norm, n_boot):
    # unequal sizes, so the subsampling draws come before the replicates' draws
    x = np.random.default_rng(1).standard_normal((70, 3))
    y = np.random.default_rng(2).standard_normal((90, 3))
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    est = w2sq_assignment(x, y, norm=norm, n_boot=n_boot, rng=rng)
    value, se = serial_w2sq_assignment(x, y, norm, n_boot, ref_rng)
    assert est.value == value
    assert est.standard_error == se or n_boot == 0 and math.isnan(est.standard_error)
    # the generator is left where the serial loop leaves it
    assert rng.random() == ref_rng.random()


def test_assignment_reports_a_nan_in_a_cloud_through_the_pool(rng):
    x = rng.standard_normal((20, 2))
    x[3, 1] = np.nan
    with pytest.raises(ValueError, match="invalid numeric entries"):
        w2sq_assignment(x, rng.standard_normal((20, 2)), n_boot=4, rng=rng)


def test_assignment_leaves_no_worker_thread_behind(rng):
    before = threading.active_count()
    w2sq_assignment(rng.standard_normal((30, 2)), rng.standard_normal((30, 2)), n_boot=6, rng=rng)
    assert threading.active_count() == before


def test_assignment_consistent_with_gaussian_truth(rng):
    law1 = GaussianLaw(np.zeros(2), np.array([[1.0, 0.3], [0.3, 1.0]]))
    law2 = GaussianLaw(np.array([0.5, 0.0]), np.eye(2))
    truth = w2sq_gaussian(law1, law2)
    x = sample(law1, 512, rng)
    y = sample(law2, 512, rng)
    est = w2sq_assignment(x, y, n_boot=30, rng=rng)
    assert est.value == pytest.approx(truth, rel=0.25)


def test_subadditivity_exact_gaussian():
    tgt = GaussianTarget(tridiagonal_precision(6))
    law_h = lmc_stationary_law(tgt, 0.05)
    for k in (1, 3, 6):
        rep = subadditivity_check(law_h, tgt.law(), k)
        assert rep.exact
        assert rep.passed
        assert rep.lhs_average <= rep.rhs_share + 1e-9
    full = subadditivity_check(law_h, tgt.law(), 6)
    assert full.lhs_average == pytest.approx(full.rhs_share, abs=1e-10)


def test_subadditivity_empirical(rng):
    tgt = GaussianTarget(tridiagonal_precision(4))
    law_h = lmc_stationary_law(tgt, 0.1)
    x = sample(law_h, 4000, rng)
    y = sample(tgt.law(), 4000, rng)
    rep = subadditivity_check(x, y, 1, rng=rng)
    assert not rep.exact
    assert rep.num_subsets == 4
    assert rep.passed  # statistical tolerance absorbs sampling noise


@pytest.mark.parametrize("n_boot", [0, 1])
def test_the_empirical_subadditivity_check_needs_a_bootstrap_se(n_boot):
    """Its tolerance is 3 combined SEs, so with no SE it used to fail (tolerance NaN)
    although lhs 0.0947 is below rhs 0.2009."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((300, 3)), rng.standard_normal((300, 3))
    with pytest.raises(ValueError, match=f"n_boot must be an integer >= 2 for a bootstrap SE, got {n_boot}"):
        subadditivity_check(a, b, 2, n_boot=n_boot, rng=np.random.default_rng(1))
    rep = subadditivity_check(a, b, 2, n_boot=2, rng=np.random.default_rng(1))
    assert rep.passed and math.isfinite(rep.tolerance) and rep.lhs_average < rep.rhs_share


def test_one_bootstrap_replicate_is_refused_and_none_gives_no_se():
    x = np.random.default_rng(3).standard_normal((40, 2))
    for estimate in (w2sq_1d, w2sq_assignment):
        with pytest.raises(ValueError, match="n_boot must be an integer >= 2 for a bootstrap SE, got 1"):
            estimate(x[:, :1], x[:, 1:], n_boot=1)
        assert math.isnan(estimate(x[:, :1], x[:, 1:], n_boot=0).standard_error)


def test_subadditivity_rejects_bad_k():
    tgt = GaussianTarget(tridiagonal_precision(3))
    law_h = lmc_stationary_law(tgt, 0.05)
    with pytest.raises(ValueError):
        subadditivity_check(law_h, tgt.law(), 0)
    with pytest.raises(ValueError):
        subadditivity_check(law_h, tgt.law(), 4)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scale=st.floats(min_value=0.5, max_value=2.0),
    shift=st.floats(min_value=-1.0, max_value=1.0),
)
def test_property_w2sq_1d_nonneg_and_symmetric(seed, scale, shift):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(200)
    y = scale * rng.standard_normal(200) + shift
    ab = w2sq_1d(x, y, n_boot=0).value
    ba = w2sq_1d(y, x, n_boot=0).value
    assert ab >= 0
    assert ab == pytest.approx(ba, rel=1e-12, abs=1e-15)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_property_assignment_le_identity_coupling(seed):
    # the optimal assignment never exceeds the identity pairing
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((60, 3))
    y = rng.standard_normal((60, 3))
    opt = w2sq_assignment(x, y, n_boot=0).value
    ident = float(np.mean(np.sum((x - y) ** 2, axis=1)))
    assert opt <= ident + 1e-12
