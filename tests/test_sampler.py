import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from deloc.oracle import GaussianTarget, lmc_stationary_law
from deloc.potential import (
    SmoothnessParams,
    StructuredPotential,
    callable_term,
    chain_pairwise,
    gaussian_potential,
)
from deloc.sampler import (
    _NOISE_CHUNK,
    DivergenceError,
    SamplerConfig,
    _step_matrix,
    run_chain,
)

from conftest import tridiagonal_precision


@pytest.fixture
def small_pot():
    return gaussian_potential(tridiagonal_precision(3))


def test_config_defaults_and_validation():
    cfg = SamplerConfig(h=0.01, iterations=1000)
    assert cfg.effective_burn_in == 100
    assert cfg.kept_per_chain == 900
    with pytest.raises(ValueError):
        SamplerConfig(h=0.0, iterations=10)
    with pytest.raises(ValueError):
        SamplerConfig(h=0.01, iterations=10, burn_in=10)


@pytest.mark.parametrize(
    "field, value",
    [("iterations", 10.5), ("num_chains", 2.5), ("num_chains", True), ("substeps", 1.5),
     ("burn_in", 0.5), ("seed", 1.5)],
)
def test_config_rejects_counts_that_are_not_integers(field, value):
    with pytest.raises(ValueError, match=f"sampler config '{field}' must be an integer"):
        SamplerConfig(h=0.01, **{"iterations": 100, field: value})


def test_config_keeps_every_step_after_burn_in():
    cfg = SamplerConfig(h=0.01, iterations=105, burn_in=5)
    assert cfg.kept_per_chain == 100


def test_run_chain_deterministic(small_pot):
    cfg = SamplerConfig(h=0.05, iterations=500, seed=7, num_chains=2)
    a = run_chain(small_pot, cfg, np.zeros(3))
    b = run_chain(small_pot, cfg, np.zeros(3))
    np.testing.assert_array_equal(a.samples, b.samples)


def _cos_ring(n):
    # callable pair terms on a ring: no assembled matrix, so the sampler
    # steps by the gradient
    return StructuredPotential(
        n,
        tuple(
            callable_term(
                tuple(sorted((i, (i + 1) % n))),  # the ring's closing pair is (0, n - 1)
                lambda z: 0.5 * (z[0] ** 2 + z[1] ** 2) + 0.1 * np.cos(z[0] - z[1]),
                lambda z: np.array(
                    [z[0] - 0.1 * np.sin(z[0] - z[1]), z[1] + 0.1 * np.sin(z[0] - z[1])]
                ),
                1.2,
            )
            for i in range(n)
        ),
        SmoothnessParams(alpha=1.6, beta=2.4),
    )


# one potential per drift path of the sampler
DRIFT_PATHS = {
    "dense": lambda: gaussian_potential(tridiagonal_precision(3)),
    "csr": lambda: chain_pairwise(64),
    "callable": lambda: _cos_ring(4),
}


def _replay_substep(pot, h):
    """One substep of a single chain with the arithmetic of pot's drift path."""
    if pot.quadratic_matrix is None:
        return lambda x, z: x - h * pot.gradient(x) + math.sqrt(2.0 * h) * z
    M = np.eye(pot.n) - h * pot.quadratic_matrix.toarray()
    if sparse.issparse(_step_matrix(pot.quadratic_matrix, h)):
        M = sparse.csr_array(M)
    return lambda x, z: M @ x + math.sqrt(2.0 * h) * z


def test_drift_paths_are_the_ones_named():
    h = 0.05
    assert not sparse.issparse(_step_matrix(DRIFT_PATHS["dense"]().quadratic_matrix, h))
    assert sparse.issparse(_step_matrix(DRIFT_PATHS["csr"]().quadratic_matrix, h))
    assert DRIFT_PATHS["callable"]().quadratic_matrix is None


@pytest.mark.parametrize("path", DRIFT_PATHS)
def test_chain_streams_independent_of_chain_count(path):
    # chain c's trajectory depends only on (seed, c): adding chains must
    # not perturb earlier ones
    pot = DRIFT_PATHS[path]()
    x0 = np.zeros(pot.n)
    one = run_chain(pot, SamplerConfig(h=0.05, iterations=300, seed=3), x0)
    three = run_chain(pot, SamplerConfig(h=0.05, iterations=300, seed=3, num_chains=3), x0)
    np.testing.assert_array_equal(one.samples[0], three.samples[0])


def test_seed_changes_stream(small_pot):
    a = run_chain(small_pot, SamplerConfig(h=0.05, iterations=200, seed=0), np.zeros(3))
    b = run_chain(small_pot, SamplerConfig(h=0.05, iterations=200, seed=1), np.zeros(3))
    assert not np.array_equal(a.samples, b.samples)


def test_quadratic_fast_path_matches_generic(small_pot):
    # the same potential built from callable terms must reproduce the
    # assembled-matrix path bit for bit (same noise stream)
    A = small_pot.quadratic_matrix
    generic = StructuredPotential(
        3,
        tuple(
            callable_term(
                t.support,
                (lambda z, M=t.matrix: 0.5 * z @ M @ z),
                (lambda z, M=t.matrix: M @ z),
                lipschitz=t.lipschitz,
            )
            for t in small_pot.terms
        ),
        small_pot.smoothness,
    )
    assert generic.quadratic_matrix is None
    cfg = SamplerConfig(h=0.05, iterations=400, seed=11)
    fast = run_chain(small_pot, cfg, np.zeros(3))
    slow = run_chain(generic, cfg, np.zeros(3))
    np.testing.assert_allclose(fast.samples, slow.samples, atol=1e-12)


def test_x0_shapes(small_pot):
    cfg = SamplerConfig(h=0.05, iterations=100, num_chains=2, seed=0)
    shared = run_chain(small_pot, cfg, np.zeros(3))
    per_chain = run_chain(small_pot, cfg, np.zeros((2, 3)))
    np.testing.assert_array_equal(shared.samples, per_chain.samples)
    with pytest.raises(ValueError, match="x0 shape"):
        run_chain(small_pot, cfg, np.zeros(4))


def test_divergence_raises():
    # concave potential: gradient flow pushes outward, chain must blow up
    pot = StructuredPotential(
        1,
        (
            callable_term(
                (0,), lambda z: -5.0 * z[0] ** 2, lambda z: np.array([-10.0 * z[0]]), 10.0
            ),
        ),
        SmoothnessParams(alpha=1.0, beta=10.0),
    )
    cfg = SamplerConfig(h=0.5, iterations=2000, seed=0)
    with pytest.raises(DivergenceError) as err:
        run_chain(pot, cfg, np.array([1.0]))
    assert err.value.sup >= 1e8
    # reference mode checks once per recorded step, after all 4 substeps;
    # each multiplies x by 1 + 10 h/4 = 2.25 before noise, so the chain
    # crosses 1e8 after about log(1e8)/(4 log 2.25) ~ 5.7 recorded steps
    ref = SamplerConfig(h=0.5, iterations=2000, seed=0, substeps=4)
    with pytest.raises(DivergenceError) as err:
        run_chain(pot, ref, np.array([1.0]))
    assert err.value.sup >= 1e8
    assert 4 <= err.value.step <= 8


def test_a_non_finite_gradient_is_a_divergence_of_its_chain():
    # the gradient is NaN beyond |x| = 1.5, which the chain reaches from x0 = 1 at h = 0.5;
    # x - h grad V(x) is then NaN, and the per-step check names the chain
    def grad(z):
        return np.where(np.abs(z) > 1.5, np.nan, z)

    pot = StructuredPotential(
        1, (callable_term((0,), lambda z: 0.5 * z[0] ** 2, grad, 1.0),),
        SmoothnessParams(alpha=1.0, beta=1.0),
    )
    with pytest.raises(DivergenceError, match=r"chain 0 diverged at iterate \d+: ") as err:
        run_chain(pot, SamplerConfig(h=0.5, iterations=2000, seed=0), np.array([1.0]))
    assert err.value.chain == 0 and math.isnan(err.value.sup)
    assert str(err.value).endswith("|x|_inf = nan is not finite")


def test_burn_in_recording(small_pot):
    # with burn b, recorded iterates are b+1, b+2, ...
    cfg = SamplerConfig(h=0.05, iterations=20, burn_in=4, seed=2)
    store = run_chain(small_pot, cfg, np.zeros(3))
    full = run_chain(small_pot, SamplerConfig(h=0.05, iterations=20, burn_in=0, seed=2), np.zeros(3))
    # full records iterates 1..20 at indices 0..19
    np.testing.assert_array_equal(store.samples[0], full.samples[0][4:])


def test_mode_is_derived_from_substeps():
    # lmc is the one-substep case of the reference loop, so substeps alone picks the mode
    assert SamplerConfig(h=0.05, iterations=200).mode == "lmc"
    for m in (2, 16):
        assert SamplerConfig(h=0.05, iterations=200, substeps=m).mode == "langevin-reference"


def _replay(pot, cfg, x0):
    """The kept states of a run replayed chain by chain and step by step in the
    documented layout: chain c draws from SeedSequence(seed).spawn(C)[c], one (m, n)
    block per recorded step, substep j of size h/m using row j."""
    m, n = cfg.substeps, pot.n
    substep = _replay_substep(pot, cfg.h / m)
    expected = []
    for seq in np.random.SeedSequence(cfg.seed).spawn(cfg.num_chains):
        rng = np.random.default_rng(seq)
        x, kept = x0.copy(), []
        for k in range(1, cfg.iterations + 1):
            z = rng.standard_normal((m, n))
            for j in range(m):
                x = substep(x, z[j])
            if k > cfg.effective_burn_in:
                kept.append(x)
        expected.append(kept)
    return np.array(expected)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("path", DRIFT_PATHS)
def test_noise_layout_replays_bit_for_bit(path, m):
    pot = DRIFT_PATHS[path]()
    cfg = SamplerConfig(
        h=0.07, iterations=23, burn_in=5, num_chains=2, seed=31, substeps=m
    )
    x0 = np.linspace(-1.0, 1.0, pot.n)
    np.testing.assert_array_equal(run_chain(pot, cfg, x0).samples, _replay(pot, cfg, x0))


@pytest.mark.parametrize("path", DRIFT_PATHS)
def test_burn_in_across_noise_chunks_replays_bit_for_bit(path):
    # 4 chains step 8192 / (4 n) steps per noise chunk: 682, 32 and 512 on the three
    # paths, so the 2500 steps span several chunks; burn-in ends inside the first chunk,
    # one step before, at and one step after its end, and after two whole chunks, which
    # keep nothing
    pot = DRIFT_PATHS[path]()
    chunk = _NOISE_CHUNK // (4 * pot.n)
    cfg = SamplerConfig(h=0.07, iterations=2500, burn_in=0, num_chains=4, seed=2)
    assert cfg.iterations > 3 * chunk
    x0 = np.linspace(-1.0, 1.0, pot.n)
    every = _replay(pot, cfg, x0)
    for burn in (0, 7, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        store = run_chain(pot, SamplerConfig(**{**vars(cfg), "burn_in": burn}), x0)
        np.testing.assert_array_equal(store.samples, every[:, burn:])


def test_csr_path_matches_dense_loop():
    # sparse stepping sums each row in another order than the dense matvec:
    # equal to rounding, over 2 chains x 200 steps at n = 1024
    pot = chain_pairwise(1024)
    h = 0.05
    assert sparse.issparse(_step_matrix(pot.quadratic_matrix, h))
    cfg = SamplerConfig(h=h, iterations=200, burn_in=0, num_chains=2, seed=8)
    x0 = np.random.default_rng(0).standard_normal((2, 1024))
    store = run_chain(pot, cfg, x0)
    M = np.eye(1024) - h * pot.quadratic_matrix.toarray()
    for c, seq in enumerate(np.random.SeedSequence(8).spawn(2)):
        rng = np.random.default_rng(seq)
        x = x0[c]
        for k in range(cfg.iterations):
            x = M @ x + math.sqrt(2.0 * h) * rng.standard_normal((1, 1024))[0]
            np.testing.assert_allclose(store.samples[c, k], x, rtol=0, atol=1e-12)


@pytest.mark.parametrize("path", DRIFT_PATHS)
def test_divergence_reports_the_chain_that_diverged(path):
    # h = 1.5 is unstable for every path's potential; chain 1 starts far out
    # and crosses the limit long before chain 0, which starts at 0
    pot = DRIFT_PATHS[path]()
    h, seed = 1.5, 4
    x0 = np.zeros((2, pot.n))
    x0[1] = 1e4 * np.random.default_rng(1).standard_normal(pot.n)
    with pytest.raises(DivergenceError) as err:
        run_chain(pot, SamplerConfig(h=h, iterations=1000, num_chains=2, seed=seed), x0)

    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    substep, x, step = _replay_substep(pot, h), x0[1], 0
    while np.abs(x).max() < 1e8:
        x, step = substep(x, rng.standard_normal((1, pot.n))[0]), step + 1
    assert (err.value.chain, err.value.step) == (1, step)
    assert err.value.sup >= 1e8 and str(err.value).endswith("exceeds 1e+08")


@pytest.mark.parametrize("path", DRIFT_PATHS)
def test_chains_that_diverge_at_one_iterate_name_the_lowest(path):
    # chains 1 and 2 start far out and both reach the limit at iterate 1
    pot = DRIFT_PATHS[path]()
    cfg = SamplerConfig(h=1.5, iterations=1000, num_chains=3, seed=4)
    x0 = np.zeros((3, pot.n))
    x0[1:] = 1e9 * np.random.default_rng(2).standard_normal((2, pot.n))
    with pytest.raises(DivergenceError) as err:
        run_chain(pot, cfg, x0)

    substep = _replay_substep(pot, cfg.h)
    sups = [
        float(np.abs(substep(x, np.random.default_rng(seq).standard_normal((1, pot.n))[0])).max())
        for x, seq in zip(x0, np.random.SeedSequence(cfg.seed).spawn(3))
    ]
    assert sups[0] < 1e8 <= min(sups[1:])
    assert (err.value.step, err.value.chain, err.value.sup) == (1, 1, sups[1])


# an h per drift path at which its potential's chains diverge slowly from 0: past the
# first noise chunk of 4 chains, and inside a chunk
SLOW_DIVERGENCE_H = {"dense": 0.7425, "csr": 0.67, "callable": 1.01}


@pytest.mark.parametrize("path", DRIFT_PATHS)
def test_divergence_in_a_later_chunk_matches_the_per_step_replay(path):
    pot = DRIFT_PATHS[path]()
    cfg = SamplerConfig(h=SLOW_DIVERGENCE_H[path], iterations=20_000, num_chains=4, seed=4)
    with warnings.catch_warnings():
        # a quadratic chain steps past the limit to the end of its chunk, silently
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            run_chain(pot, cfg, np.zeros(pot.n))

    # each chain replayed to its first iterate at the limit: the run names the earliest
    # such iterate and the lowest chain that reaches the limit there
    substep = _replay_substep(pot, cfg.h)
    first = (cfg.iterations + 1, 0, 0.0)  # (step, chain, sup)
    for c, seq in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.num_chains)):
        rng, x = np.random.default_rng(seq), np.zeros(pot.n)
        for k in range(1, first[0] + 1):
            x = substep(x, rng.standard_normal((1, pot.n))[0])
            if not np.abs(x).max() < 1e8:
                first = min(first, (k, c, float(np.abs(x).max())))
                break
    step, chain, sup = first
    chunk = _NOISE_CHUNK // (cfg.num_chains * pot.n)
    assert step > chunk and step % chunk != 0
    assert (err.value.step, err.value.chain, err.value.sup) == (step, chain, sup)


def test_a_gradient_that_warns_at_a_finite_state_still_warns():
    # the gradient's log warns once a coordinate passes 4.5, at a finite state, and its
    # NaN then stops the chain: the gradient runs under the caller's error state
    def grad(z):
        return z + 0.0 * np.log(4.5 - np.abs(z))

    pot = StructuredPotential(
        2, (callable_term((0, 1), lambda z: 0.5 * z @ z, grad, 1.0),),
        SmoothnessParams(alpha=1.0, beta=1.0),
    )
    cfg = SamplerConfig(h=0.5, iterations=5000, num_chains=4, seed=4)
    with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
        with pytest.raises(DivergenceError) as err:
            run_chain(pot, cfg, np.zeros(2))
    assert err.value.step > _NOISE_CHUNK // (cfg.num_chains * pot.n)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        run_chain(pot, cfg, np.zeros(2))


def test_langevin_reference_substeps_reduce_bias(small_pot):
    # finer substeps track the continuous flow: empirical variance moves
    # from the h-biased stationary value toward the target value
    tgt = GaussianTarget(small_pot.quadratic_matrix.toarray())
    h = 0.4
    var_h = lmc_stationary_law(tgt, h).cov[1, 1]
    var_0 = tgt.law().cov[1, 1]
    coarse = run_chain(
        small_pot, SamplerConfig(h=h, iterations=60_000, seed=9), np.zeros(3)
    )
    fine = run_chain(
        small_pot,
        SamplerConfig(h=h, iterations=60_000, seed=9, substeps=16),
        np.zeros(3),
    )
    v_coarse = coarse.rows()[:, 1].var()
    v_fine = fine.rows()[:, 1].var()
    assert abs(v_coarse - var_h) < abs(v_coarse - var_0)
    assert abs(v_fine - var_0) < abs(v_fine - var_h)


def test_stationary_variance_agrees_with_oracle(small_pot):
    # long single chain: empirical covariance close to Sigma_h
    cfg = SamplerConfig(h=0.1, iterations=200_000, seed=13)
    store = run_chain(small_pot, cfg, np.zeros(3))
    emp = np.cov(store.rows().T)
    oracle_cov = lmc_stationary_law(GaussianTarget(small_pot.quadratic_matrix.toarray()), 0.1).cov
    np.testing.assert_allclose(emp, oracle_cov, atol=0.03)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    burn=st.integers(min_value=0, max_value=20),
)
def test_property_recording_rule(seed, burn):
    # kept count always matches the config arithmetic, for any burn-in
    pot = gaussian_potential(tridiagonal_precision(2))
    iters = 50
    cfg = SamplerConfig(h=0.05, iterations=iters, burn_in=burn, seed=seed)
    store = run_chain(pot, cfg, np.zeros(2))
    assert store.samples.shape == (1, cfg.kept_per_chain, 2)
    assert cfg.kept_per_chain == iters - burn
