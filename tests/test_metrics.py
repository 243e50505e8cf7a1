import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

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

from conftest import (
    plain_assignment_value,
    serial_w2sq_assignment,
    sorted_values_w2sq_1d,
    tridiagonal_precision,
)


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


@pytest.mark.parametrize(
    "m, m_b, n_boot",
    # one draw block; one block with ties of 0.0 and -0.0 and an unequal side; two blocks
    # of 100 rows; and blocks of 100, 100 and 50 rows
    [(2, 2, 200), (7, 9, 200), (20000, 20000, 200), (20000, 20000, 250)],
)
def test_w2sq_1d_matches_the_sorted_values_bootstrap_bit_for_bit(m, m_b, n_boot):
    x = np.random.default_rng(m).standard_normal(m)
    x[: m // 2] = np.where(np.arange(m // 2) % 2, 0.0, -0.0)
    y = 1.1 * np.random.default_rng(m_b + 1).standard_normal(m_b) + 0.1
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    est = w2sq_1d(x, y, n_boot=n_boot, rng=rng)
    assert (est.value, est.standard_error) == sorted_values_w2sq_1d(x, y, n_boot, ref_rng)
    # the generator is left where the sorted-values bootstrap leaves it
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("workers", [2, 8])
def test_w2sq_1d_gives_the_same_bootstrap_on_any_number_of_workers(workers, monkeypatch):
    # 40 draw blocks of 5 rows each, costed by 2 or 8 workers while the interpreter
    # switches threads often, against the same blocks costed by one worker
    import deloc.metrics as metrics

    monkeypatch.setattr(metrics, "_DRAW_ELEMENTS", 1000)
    x = np.random.default_rng(1).standard_normal(200)
    y = 1.3 * np.random.default_rng(2).standard_normal(200)
    serial_rng, pooled_rng = np.random.default_rng(4), np.random.default_rng(4)
    monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: {0})
    serial = w2sq_1d(x, y, rng=serial_rng)
    monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: set(range(workers)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = w2sq_1d(x, y, rng=pooled_rng)
    finally:
        sys.setswitchinterval(interval)
    assert pooled == serial
    assert pooled_rng.bit_generator.state == serial_rng.bit_generator.state


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


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_assignment_refuses_a_non_finite_cloud_up_front(ndim, norm, bad, rng):
    """scipy's chebyshev distance skips a NaN coordinate, so under linf a NaN cloud
    used to get a finite estimate; an inf gave "cost matrix is infeasible"."""
    x, y = rng.standard_normal((20, 2)), rng.standard_normal((20, 2))
    x[3, 1] = bad
    if ndim == 1:
        x, y = x[:, 1], y[:, 1]
    for a, b, name in ((x, y, "a"), (y, x, "b")):
        with pytest.raises(ValueError, match=f"sample cloud {name} must be finite, got a NaN or infinite"):
            w2sq_assignment(a, b, norm=norm, n_boot=4, rng=rng)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_the_1d_estimate_and_the_empirical_check_refuse_a_non_finite_cloud(ndim, bad, rng):
    x, y = rng.standard_normal((50, 3)), rng.standard_normal((50, 3))
    y[7, 2] = bad
    if ndim == 1:
        x, y = x[:, 2], y[:, 2]
    with pytest.raises(ValueError, match="sample cloud b must be finite"):
        w2sq_1d(x if ndim == 1 else x[:, 2:], y if ndim == 1 else y[:, 2:], rng=rng)
    for k in range(1, 4 if ndim == 2 else 2):
        with pytest.raises(ValueError, match="sample cloud b must be finite"):
            subadditivity_check(x, y, k, n_boot=2, rng=rng)


@pytest.mark.parametrize("norm", ["l2", "linf"])
def test_a_1d_cloud_is_m_samples_of_one_coordinate_in_every_estimate(norm):
    """A 1-D list used to be one sample of dimension 3 to the assignment estimate
    (27.0 from sample sizes (1, 1)); the quantile coupling read it as 3 samples."""
    a, b = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
    est = w2sq_assignment(a, b, norm=norm, n_boot=2)
    assert (est.value, est.sample_sizes) == (9.0, (3, 3))
    assert w2sq_1d(a, b, n_boot=2).value == 9.0
    col = w2sq_assignment(np.array(a)[:, None], np.array(b)[:, None], norm=norm, n_boot=2)
    assert est == col


def test_the_1d_estimate_refuses_a_cloud_of_several_coordinates():
    """An (m, 3) cloud used to be flattened to 3m scalars without a word."""
    with pytest.raises(ValueError, match="need clouds of one coordinate, got k=3 and k=3"):
        w2sq_1d(np.ones((10, 3)), np.zeros((10, 3)))
    with pytest.raises(ValueError, match="need clouds of one coordinate, got k=1 and k=2"):
        w2sq_1d(np.ones(10), np.zeros((10, 2)))


@pytest.mark.parametrize("k", [1, 2])
def test_every_estimate_reads_each_cloud_once(k, monkeypatch):
    """Each cloud is read once, where it enters: the empirical check's subsets and full
    pair, the assignment batch and the quantile coupling read none again."""
    import deloc.metrics as metrics

    reads = []
    read = metrics._cloud
    monkeypatch.setattr(metrics, "_cloud", lambda x, what: reads.append(what) or read(x, what))
    a = np.random.default_rng(1).standard_normal((100, 4))
    b = 1.1 * np.random.default_rng(2).standard_normal((100, 4))
    subadditivity_check(a, b, k, n_boot=2, rng=np.random.default_rng(3))
    w2sq_assignment(a[:, :k], b[:, :k], n_boot=2)
    w2sq_1d(a[:, 0], b[:, 0], n_boot=2)
    assert reads == ["a", "b"] * 3


def test_the_empirical_check_reads_1d_clouds_as_one_coordinate():
    x = np.random.default_rng(4).standard_normal((50, 2))
    y = 1.2 * np.random.default_rng(5).standard_normal((50, 2))
    flat = subadditivity_check(x[:, 0], y[:, 0], 1, n_boot=4, rng=np.random.default_rng(1))
    col = subadditivity_check(x[:, :1], y[:, :1], 1, n_boot=4, rng=np.random.default_rng(1))
    assert flat == col and (flat.n, flat.num_subsets) == (1, 1)
    assert flat.lhs_average == flat.rhs_share  # one coordinate: both sides are one estimate


@pytest.mark.parametrize(
    "cloud, says",
    [
        ([], r"must be \(m,\) or \(m, k\) with m, k > 0, got \(0,\)"),
        (np.zeros((4, 0)), r"got \(4, 0\)"),
        (np.zeros((4, 2, 2)), r"got \(4, 2, 2\)"),
        ([[1.0, 2.0], [3.0]], "must be numeric, got list"),
        ("abc", "must be numeric, got str"),
    ],
    ids=["empty", "no-coordinate", "3-d", "ragged", "text"],
)
def test_every_estimate_refuses_a_cloud_that_breaks_the_rule(cloud, says):
    good = np.zeros((4, 2))
    for estimate in (w2sq_1d, w2sq_assignment):
        with pytest.raises(ValueError, match="sample cloud b .*" + says):
            estimate(good[:, 0] if estimate is w2sq_1d else good, cloud, n_boot=0)
    with pytest.raises(ValueError, match="sample cloud a .*" + says):
        subadditivity_check(cloud, good, 1, n_boot=2)


def test_a_law_paired_with_a_cloud_is_a_value_error():
    law = GaussianLaw(np.zeros(2), np.eye(2))
    cloud = np.random.default_rng(0).standard_normal((20, 2))
    with pytest.raises(ValueError, match="sample cloud a must be numeric, got GaussianLaw"):
        subadditivity_check(law, cloud, 1, n_boot=2)
    with pytest.raises(ValueError, match="sample cloud b must be numeric, got GaussianLaw"):
        subadditivity_check(cloud, law, 1, n_boot=2)


@pytest.mark.parametrize(
    "batch",
    [
        lambda x, y, rng: w2sq_assignment(x, y, n_boot=6, rng=rng),
        lambda x, y, rng: subadditivity_check(x, y, 2, n_boot=3, rng=rng),
        # two draw blocks of the quantile bootstrap, each costed on the pool
        lambda x, y, rng: w2sq_1d(np.resize(x[:, 0], 20000), np.resize(y[:, 0], 20000), rng=rng),
    ],
    ids=["w2sq_assignment", "subadditivity_check", "w2sq_1d"],
)
def test_assignment_leaves_no_worker_thread_behind(batch, rng):
    before = threading.active_count()
    batch(rng.standard_normal((30, 3)), rng.standard_normal((40, 3)), rng)
    assert threading.active_count() == before


def serial_subadditivity(a, b, k, n_boot, rng):
    """(lhs, rhs, tolerance, subsets) of the empirical check with every estimate
    solved in turn by the serial reference: each subset's, then the full cloud's."""
    n = a.shape[1]
    if a.shape[0] > 512:
        a = a[rng.choice(a.shape[0], 512, replace=False)]
    if b.shape[0] > 512:
        b = b[rng.choice(b.shape[0], 512, replace=False)]
    combos = list(itertools.combinations(range(n), k))
    ests = [serial_w2sq_assignment(a[:, u], b[:, u], "l2", n_boot, rng) for u in combos]
    value, se = serial_w2sq_assignment(a, b, "l2", n_boot, rng)
    lhs_se = float(np.sqrt(np.sum(np.square([s for _, s in ests]))) / len(ests))
    tol = 3.0 * math.hypot(lhs_se, (k / n) * se)
    return float(np.mean([v for v, _ in ests])), (k / n) * value, tol, len(combos)


@pytest.mark.parametrize("k", [2, 3])
def test_the_empirical_check_equals_a_serial_loop_bit_for_bit(k):
    # unequal sizes, so every subset's estimate subsamples the larger cloud from rng
    a = np.random.default_rng(1).standard_normal((520, 4))
    b = 1.2 * np.random.default_rng(2).standard_normal((150, 4))
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    rep = subadditivity_check(a, b, k, n_boot=3, rng=rng)
    assert (rep.lhs_average, rep.rhs_share, rep.tolerance, rep.num_subsets) == serial_subadditivity(
        a, b, k, 3, ref_rng
    )
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("d", range(1, MAX_ASSIGNMENT_DIM + 1))
def test_the_reduced_solve_equals_a_plain_solve_on_clouds_with_duplicates(norm, d):
    """Bootstrap duplicates make several optimal matchings of equal cost; the value is
    the fsum mean of the unreduced matched costs, whichever one the solver returns."""
    gen = np.random.default_rng(d)
    x, y = gen.standard_normal((60, d)), gen.standard_normal((60, d))
    x, y = x[gen.integers(0, 60, 60)], y[gen.integers(0, 60, 60)]
    cost = cdist(x, y, "sqeuclidean") if norm == "l2" else cdist(x, y, "chebyshev") ** 2
    assert w2sq_assignment(x, y, norm=norm, n_boot=0).value == plain_assignment_value(cost)


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
