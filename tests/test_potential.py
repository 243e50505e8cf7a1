import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deloc.bounds import weak_constants
from deloc.potential import (
    PairwiseSpec,
    SmoothnessParams,
    StructuredPotential,
    callable_term,
    chain_pairwise,
    gaussian_potential,
    grid_pairwise,
    interaction_constants,
    load_potential,
    mean_field,
    potential_from_dict,
    quadratic_term,
)

from conftest import (
    assert_same_potential,
    brute_force_gradient,
    brute_force_value,
    dense_term_order_sum,
    finite_difference_gradient,
    tridiagonal_precision,
)


def test_quadratic_term_value_and_grad():
    M = np.array([[2.0, -0.5], [-0.5, 1.0]])
    t = quadratic_term((0, 1), M)
    z = np.array([1.0, -2.0])
    assert t.value(z) == pytest.approx(0.5 * z @ M @ z)
    np.testing.assert_allclose(t.grad(z), M @ z)
    assert t.lipschitz == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(M))))


def test_quadratic_term_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        quadratic_term((0, 1), [[1.0, 0.3], [0.0, 1.0]])


def test_quadratic_term_lipschitz_consistency():
    quadratic_term((0,), [[2.0]], lipschitz=2.0)
    with pytest.raises(ValueError, match="inconsistent"):
        quadratic_term((0,), [[2.0]], lipschitz=1.5)


def test_factor_support_must_be_sorted_unique():
    from deloc.potential import FactorTerm

    with pytest.raises(ValueError, match="sorted"):
        FactorTerm(support=(1, 0), lipschitz=0.0, matrix=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="distinct and non-negative"):
        callable_term((0, 0), lambda z: 0.0, lambda z: z * 0, 1.0)
    with pytest.raises(ValueError, match="distinct and non-negative"):
        quadratic_term((-1, 0), np.eye(2))


def test_an_unsorted_support_is_refused_not_reordered():
    # the block's rows follow the support as written: sorting (2, 0) without
    # permuting diag(4, 1) would put 4 on x_0, so V(e_0) would read 2, not 0.5
    message = r"factor support must be sorted, got \(2, 0\)"
    with pytest.raises(ValueError, match=message):
        quadratic_term((2, 0), np.diag([4.0, 1.0]))
    with pytest.raises(ValueError, match=message):
        callable_term((2, 0), lambda z: 0.0, lambda z: z * 0, 1.0)
    spec = {"n": 3, "smoothness": {"alpha": 1.0, "beta": 4.0},
            "terms": [{"kind": "quadratic", "support": [2, 0],
                       "params": {"matrix": [[4.0, 0.0], [0.0, 1.0]]}}]}
    with pytest.raises(ValueError, match=r"factor support must be sorted, got \[2, 0\]"):
        potential_from_dict(spec)
    spec["terms"][0]["support"] = [0, 2]
    assert potential_from_dict(spec).value(np.array([1.0, 0.0, 0.0])) == 2.0


def test_a_factor_block_must_match_its_support():
    from deloc.potential import FactorTerm

    with pytest.raises(ValueError, match=r"matrix shape \(3, 3\) does not match support size 2"):
        FactorTerm((0, 1), 1.0, np.eye(3))
    with pytest.raises(ValueError, match=r"matrix shape \(1, 1\) does not match support size 2"):
        quadratic_term((0, 1), [[1.0]])


def test_a_quadratic_factor_takes_its_weight_from_the_operator_norm():
    from deloc.potential import FactorTerm

    M = np.diag([3.0, 1.0])
    with pytest.raises(ValueError, match="lipschitz 0.5 inconsistent with operator norm 3.0"):
        FactorTerm((0, 1), 0.5, M)
    with pytest.raises(ValueError, match="inconsistent"):
        FactorTerm((0, 1), 4.0, M)
    assert FactorTerm((0, 1), None, M).lipschitz == FactorTerm((0, 1), 3.0, M).lipschitz == 3.0
    with pytest.raises(ValueError, match="lipschitz must be a number >= 0, got None"):
        FactorTerm((0,), None, value_fn=lambda z: 0.0, grad_fn=lambda z: z * 0)


def test_factor_kind_is_set_from_a_single_payload():
    from deloc.potential import FactorTerm

    f = (lambda z: 0.0, lambda z: z * 0)
    assert FactorTerm((0,), 1.0, matrix=np.eye(1)).kind == "quadratic"
    assert FactorTerm((0,), 1.0, value_fn=f[0], grad_fn=f[1]).kind == "callable"
    with pytest.raises(ValueError, match="needs a matrix"):
        FactorTerm(support=(0,), lipschitz=1.0)
    with pytest.raises(ValueError, match="needs a matrix"):
        FactorTerm(support=(0,), lipschitz=1.0, grad_fn=f[1])
    with pytest.raises(ValueError, match="not both"):
        FactorTerm((0,), 1.0, matrix=np.eye(1), value_fn=f[0], grad_fn=f[1])
    with pytest.raises(TypeError):
        FactorTerm(support=(0,), kind="quadratic", lipschitz=1.0, matrix=np.eye(1))


def test_smoothness_validation():
    with pytest.raises(ValueError):
        SmoothnessParams(alpha=0.0)
    with pytest.raises(ValueError, match=r"^need alpha <= beta, got alpha=2.0 > beta=1.0$"):
        SmoothnessParams(alpha=2.0, beta=1.0)
    with pytest.raises(ValueError):
        SmoothnessParams(alpha=1.0, gamma=0.0)


def test_gradient_matches_term_sum_and_finite_differences(rng):
    A = tridiagonal_precision(6)
    pot = gaussian_potential(A)
    x = rng.standard_normal(6)
    np.testing.assert_allclose(pot.gradient(x), brute_force_gradient(pot, x), atol=1e-12)
    np.testing.assert_allclose(pot.value(x), brute_force_value(pot, x), atol=1e-12)
    np.testing.assert_allclose(
        pot.gradient(x), finite_difference_gradient(pot.value, x), atol=1e-5
    )


def test_flat_gradient_matches_per_term_loop():
    # overlapping supports of sizes 1-3 in no particular order; the flat
    # gather and bincount must give the per-term scatter-add bit for bit
    rng = np.random.default_rng(5)
    n = 7
    terms = []
    for k in range(25):
        support = tuple(sorted(rng.choice(n, size=1 + k % 3, replace=False).tolist()))
        w = rng.standard_normal(len(support))
        terms.append(
            callable_term(
                support,
                lambda z, w=w: float(np.sum(np.log(np.cosh(w * z)))),
                lambda z, w=w: w * np.tanh(w * z) + np.sin(z),
                lipschitz=float(np.sum(w * w)) + 1.0,
            )
        )
    pot = StructuredPotential(n, tuple(terms), SmoothnessParams(alpha=0.1, beta=100.0))
    for _ in range(5):
        x = rng.standard_normal(n)
        np.testing.assert_array_equal(pot.gradient(x), brute_force_gradient(pot, x))


def test_gradient_rejects_a_factor_gradient_of_the_wrong_length():
    # 3 + 1 entries for two pair terms: the total matches, the terms do not
    terms = (
        callable_term((0, 1), lambda z: 0.0, lambda z: np.ones(3), 1.0),
        callable_term((1, 2), lambda z: 0.0, lambda z: np.ones(1), 1.0),
    )
    pot = StructuredPotential(3, terms, SmoothnessParams(alpha=0.5, beta=2.0))
    with pytest.raises(ValueError, match="one entry per support coordinate"):
        pot.gradient(np.zeros(3))


def test_gradient_takes_a_scalar_for_a_one_coordinate_factor():
    terms = (
        callable_term((0,), lambda z: z[0] ** 2, lambda z: 2.0 * z[0], 2.0),
        callable_term((0, 1), lambda z: 0.0, lambda z: np.array([1.0, -1.0]), 1.0),
    )
    pot = StructuredPotential(2, terms, SmoothnessParams(alpha=0.5, beta=3.0))
    np.testing.assert_array_equal(pot.gradient(np.array([3.0, 0.0])), [7.0, -1.0])


def test_quadratic_matrix_assembles_precision():
    A = tridiagonal_precision(5, 2.0, -0.5)
    pot = gaussian_potential(A)
    np.testing.assert_allclose(pot.quadratic_matrix.toarray(), A, atol=1e-12)


def _random_overlapping_terms(rng, n, count):
    terms = []
    for k in range(count):
        u = tuple(sorted(rng.choice(n, size=1 + k % 4, replace=False).tolist()))
        B = rng.standard_normal((len(u), len(u)))
        terms.append(quadratic_term(u, B + B.T))
    return terms


@pytest.mark.parametrize("build", [
    lambda: chain_pairwise(1024),
    lambda: grid_pairwise(9, 13),
    lambda: mean_field(64),
    lambda: gaussian_potential(tridiagonal_precision(40, 2.0, -0.5)),
    lambda: potential_from_dict({"n": 8, "smoothness": {"alpha": 0.1}, "terms": [
        {"kind": "builtin:mean-field", "support": [7, 1, 3, 5]},
        {"kind": "builtin:chain-pairwise", "support": [0, 1, 2, 3]},
        # its zero off-diagonal entries are not stored
        {"kind": "quadratic", "support": [3, 6], "params": {"matrix": [[1.0, 0.0], [0.0, 2.0]]}},
    ]}),
    lambda: StructuredPotential(
        30, tuple(_random_overlapping_terms(np.random.default_rng(7), 30, 240)),
        SmoothnessParams(alpha=0.1, beta=100.0)),
], ids=["chain-1024", "grid-9x13", "mean-field-64", "gaussian-40", "json", "random-240"])
def test_quadratic_matrix_is_the_term_order_dense_sum_bit_for_bit(build):
    pot = build()
    A = pot.quadratic_matrix
    assert A.format == "csr" and A.shape == (pot.n, pot.n)
    assert np.all(A.data != 0)  # no stored zeros
    assert A.toarray().tobytes() == dense_term_order_sum(pot.n, pot.terms).tobytes()


def test_each_support_is_read_once_and_the_matrix_assembled_once(monkeypatch):
    import deloc.potential as potential
    import deloc.subsets as subsets
    from deloc.sampler import SamplerConfig, run_chain

    reads, assemblies = [], []
    read, assemble = subsets._subset, potential._assemble
    monkeypatch.setattr(subsets, "_subset", lambda u, *a, **k: reads.append(u) or read(u, *a, **k))
    monkeypatch.setattr(potential, "_assemble", lambda *a: assemblies.append(1) or assemble(*a))
    pot = chain_pairwise(40)
    assert (len(reads), len(assemblies)) == (len(pot.terms), 1)
    assert pot.quadratic_matrix is pot.quadratic_matrix
    run_chain(pot, SamplerConfig(h=0.1, iterations=3), np.zeros(40))
    assert (len(reads), len(assemblies)) == (len(pot.terms), 1)
    # a builtin entry: its support once, then each of its factors' once
    reads.clear()
    pot = potential_from_dict({"n": 6, "smoothness": {"alpha": 0.5}, "terms": [
        {"kind": "builtin:chain-pairwise", "support": [5, 0, 1, 2, 3, 4]}]})
    assert len(reads) == 1 + len(pot.terms)
    assert len(assemblies) == 1  # a file's potential assembles when the matrix is asked for
    run_chain(pot, SamplerConfig(h=0.1, iterations=3), np.zeros(6))
    assert len(assemblies) == 2
    # a quadratic entry: its support once, by the entry reader, and its factor takes it read
    reads.clear()
    pot = potential_from_dict({"n": 3, "smoothness": {"alpha": 0.5}, "terms": [
        {"kind": "quadratic", "support": [0, 2], "params": {"matrix": [[2.0, 0.5], [0.5, 1.0]]}}]})
    assert len(reads) == 1 and pot.terms[0].support == (0, 2)
    assert type(pot.terms[0].support) is tuple


# -- alpha and beta: the band solver against the dense spectrum ---------------


def _dense_ends(A) -> tuple[float, float]:
    eigs = np.linalg.eigvalsh(A.toarray())
    return float(eigs[0]), float(eigs[-1])


def _banded_spd(seed: int, n: int, b: int):
    """A seeded random symmetric CSR matrix of bandwidth b, shifted to be positive definite."""
    from scipy import sparse

    rng = np.random.default_rng(seed)
    A = sparse.diags_array(rng.uniform(2.0 * b, 2.0 * b + 1.0, n))
    for k in range(1, b + 1):
        off = rng.uniform(-1.0, 1.0, n - k)
        A = A + sparse.diags_array([off, off], offsets=(k, -k), shape=(n, n))
    return sparse.csr_array(A)


@pytest.fixture
def band_calls(monkeypatch):
    """The index-selected eig_banded calls made while the test runs."""
    import scipy.linalg

    calls, eig_banded = [], scipy.linalg.eig_banded
    monkeypatch.setattr(scipy.linalg, "eig_banded",
                        lambda *a, **k: calls.append(k["select_range"]) or eig_banded(*a, **k))
    return calls


@pytest.mark.parametrize("build", [
    lambda: chain_pairwise(64),
    lambda: chain_pairwise(1024, 1.5, 0.7),
    lambda: gaussian_potential(_banded_spd(1, 64, 1)),
    lambda: gaussian_potential(_banded_spd(2, 200, 2)),
    lambda: gaussian_potential(_banded_spd(3, 1024, 3)),
    lambda: gaussian_potential(_banded_spd(4, 128, 3).toarray()),
    lambda: grid_pairwise(40, 5),
], ids=["chain-64", "chain-1024", "band1-64", "band2-200", "band3-1024", "band3-128-dense",
        "grid-40x5"])
def test_a_narrow_band_takes_alpha_and_beta_from_the_band_solver(build, band_calls):
    pot = build()
    assert band_calls == [(0, 0), (pot.n - 1, pot.n - 1)]
    alpha, beta = _dense_ends(pot.quadratic_matrix)
    assert abs(pot.smoothness.alpha - alpha) <= 1e-13 * beta
    assert abs(pot.smoothness.beta - beta) <= 1e-13 * beta


@pytest.mark.parametrize("build", [
    lambda: chain_pairwise(63),
    lambda: grid_pairwise(32, 32),
    lambda: mean_field(64),
    lambda: gaussian_potential(_banded_spd(5, 96, 3)),
    lambda: gaussian_potential([[2.5]]),
], ids=["chain-63", "grid-32x32", "mean-field-64", "band3-96", "n-1"])
def test_a_wide_band_keeps_the_dense_spectrum(build, band_calls):
    pot = build()
    assert band_calls == []
    assert (pot.smoothness.alpha, pot.smoothness.beta) == _dense_ends(pot.quadratic_matrix)


def test_the_band_solver_on_one_coordinate_and_on_every_width(monkeypatch):
    import deloc.potential as potential

    monkeypatch.setattr(potential, "_NARROW", 1)  # every band is narrow
    for A in (_banded_spd(6, 1, 0), _banded_spd(7, 2, 1), _banded_spd(8, 12, 3),
              grid_pairwise(4, 4).quadratic_matrix, mean_field(8).quadratic_matrix):
        alpha, beta = _dense_ends(A)
        got = potential._extremes(A)
        assert abs(got[0] - alpha) <= 1e-13 * beta and abs(got[1] - beta) <= 1e-13 * beta


def test_the_band_solver_refuses_a_precision_that_is_not_positive_definite(band_calls):
    from scipy import sparse

    A = sparse.diags_array([-0.6, 1.0, -0.6], offsets=(-1, 0, 1), shape=(256, 256))
    with pytest.raises(ValueError, match="precision matrix must be positive definite"):
        gaussian_potential(A)
    assert len(band_calls) == 2
    # no terms: a CSR with no nonzeros, on the band path and on the dense one
    for n in (64, 4):
        with pytest.raises(ValueError, match="precision matrix must be positive definite"):
            chain_pairwise(n, 0.0, 0.0)
    assert len(band_calls) == 4


def test_a_chain_builds_at_a_size_no_dense_spectrum_reaches(monkeypatch):
    from scipy import sparse

    def refuse(*args, **kwargs):
        raise AssertionError("an n x n array was asked for")

    eigvalsh = np.linalg.eigvalsh

    def small_eigvalsh(M):
        if M.shape[0] > 64:
            refuse()
        return eigvalsh(M)

    monkeypatch.setattr(sparse.csr_array, "toarray", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", small_eigvalsh)
    n, confine, couple = 8192, 1.0, 0.5
    pot = chain_pairwise(n, confine, couple)
    # the free-end path Laplacian has eigenvalues 2 - 2 cos(pi k / n), k = 0, ..., n - 1
    for got, k in ((pot.smoothness.alpha, 0), (pot.smoothness.beta, n - 1)):
        want = confine + couple * (2.0 - 2.0 * np.cos(np.pi * k / n))
        assert abs(got - want) <= 1e-12 * want


# -- O(nnz) assembly and CSR precisions ---------------------------------------


def test_assembly_drops_the_entries_whose_parts_cancel():
    import deloc.potential as potential

    M = np.array([[1.0, 0.1], [0.1, 0.2]])
    terms = [quadratic_term((0, 1), M), quadratic_term((1, 2), M), quadratic_term((0, 1), -M),
             quadratic_term((2,), [[0.3]]), quadratic_term((1, 2), [[0.0, -0.1], [-0.1, 0.0]])]
    A = potential._assemble(3, terms)
    assert A.toarray().tobytes() == dense_term_order_sum(3, terms).tobytes()
    assert np.all(A.data != 0)
    # only (1, 1) and (2, 2) are left: 0.2 and 1.0 + 0.3
    assert list(zip(*A.nonzero())) == [(1, 1), (2, 2)]
    assert potential._assemble(3, terms[2:3] + terms[:1]).nnz == 0


def test_a_stored_zero_of_a_csr_precision_is_no_term():
    from scipy import sparse
    import deloc.potential as potential
    from deloc.graph import build_graph

    A = tridiagonal_precision(6, 2.0, -0.5)
    A[1, 4] = A[4, 1] = 0.25
    stored = sparse.csr_array(A)
    stored.data[stored.data == 0.25] = 0.0  # (1, 4) and (4, 1) kept as explicit zeros
    dense = stored.toarray()
    assert stored.nnz == np.count_nonzero(dense) + 2
    a, b = gaussian_potential(stored), gaussian_potential(dense)
    assert (1, 4) not in [t.support for t in a.terms]
    assert_same_potential(a, b)
    assert build_graph(a).edges() == build_graph(b).edges()
    stored.data[0] = 0.0  # and a stored zero on the diagonal
    got, want = (potential._gaussian_terms(M, range(6)) for M in (stored, stored.toarray()))
    assert (0,) not in [t.support for t in got]
    assert [(t.support, t.matrix.tobytes()) for t in got] == \
        [(t.support, t.matrix.tobytes()) for t in want]


def test_a_csr_with_unsorted_and_repeated_entries_gives_the_terms_of_its_dense_form():
    from scipy import sparse
    import deloc.potential as potential

    # [[2, 1, 0], [1, 5, 1], [0, 1, 3]], row 1 unsorted and its A_11 stored as 2 + 3
    M = sparse.csr_array((np.array([1.0, 2.0, 1.0, 2.0, 1.0, 3.0, 3.0, 1.0]),
                          np.array([1, 0, 2, 1, 0, 1, 2, 1]), np.array([0, 2, 6, 8])), shape=(3, 3))
    got, want = (potential._gaussian_terms(A, range(3)) for A in (M, M.toarray()))
    assert [(t.support, t.matrix.tobytes()) for t in got] == \
        [(t.support, t.matrix.tobytes()) for t in want]


def test_a_csr_precision_is_read_without_a_dense_copy(monkeypatch):
    from scipy import sparse

    A = _banded_spd(9, 300, 2)
    want = gaussian_potential(A.toarray())
    spec = {"n": 300, "smoothness": {"alpha": 0.5}, "terms": [{
        "kind": "builtin:gaussian", "support": list(range(300)),
        "params": {"precision": tridiagonal_precision(300, 2.5, 0.3).tolist()}}]}
    dense_builtin = potential_from_dict(spec)
    spec["terms"][0]["params"] = {"tridiagonal": {"diag": 2.5, "off": 0.3}}
    refuse = lambda *a, **k: pytest.fail("a dense precision was built")  # noqa: E731
    monkeypatch.setattr(sparse.csr_array, "toarray", refuse)
    assert_same_potential(gaussian_potential(A), want)
    assert_same_potential(potential_from_dict(spec), dense_builtin)


@pytest.mark.parametrize("build", [
    lambda: chain_pairwise(1024),
    lambda: grid_pairwise(9, 13),
    lambda: mean_field(64),
    lambda: gaussian_potential(_banded_spd(10, 512, 3)),
], ids=["chain-1024", "grid-9x13", "mean-field-64", "band3-512"])
def test_a_run_chain_store_is_that_of_the_term_order_dense_sum(build):
    from scipy import sparse
    from deloc.sampler import SamplerConfig, run_chain

    pot = build()
    ref = StructuredPotential(pot.n, pot.terms, pot.smoothness)
    ref.__dict__["quadratic_matrix"] = sparse.csr_array(dense_term_order_sum(pot.n, pot.terms))
    config = SamplerConfig(h=0.05, iterations=20, num_chains=2, seed=11)
    x0 = np.linspace(-1.0, 1.0, pot.n)
    got, want = run_chain(pot, config, x0), run_chain(ref, config, x0)
    assert got.samples.tobytes() == want.samples.tobytes()


def test_gaussian_potential_gradient_is_Ax(rng):
    A = tridiagonal_precision(7)
    pot = gaussian_potential(A)
    x = rng.standard_normal(7)
    np.testing.assert_allclose(pot.gradient(x), A @ x, atol=1e-12)
    assert pot.value(x) == pytest.approx(0.5 * x @ A @ x)


def test_interaction_constants_tridiagonal():
    # interior vertex of the path: one singleton of weight 2 = |diag|,
    # two pair factors of weight 0.5 = |off| each
    pot = gaussian_potential(tridiagonal_precision(4))
    c = pot.interaction_constants
    assert c.M0 == pytest.approx(3.0)
    assert c.M1 == pytest.approx(4.0)
    assert c.R1 == pytest.approx(1.0)


def test_interaction_constants_hand_example():
    # V = quad{0} (L=1) + quad{0,1} (L=2) + quad{1,2,3... } triple (L=0.5):
    # vertex 1 carries the pair and the triple
    terms = (
        quadratic_term((0,), [[1.0]]),
        quadratic_term((0, 1), [[0.0, 2.0], [2.0, 0.0]]),
        quadratic_term((1, 2, 3), 0.5 * np.eye(3)),
    )
    pot = StructuredPotential(3 + 1, terms, SmoothnessParams(alpha=0.1))
    c = pot.interaction_constants
    # M0: vertex0 = 1 + 2 = 3, vertex1 = 2 + 0.5 = 2.5 -> 3
    assert c.M0 == pytest.approx(3.0)
    # M1: vertex0 = 1*1 + 2*2 = 5, vertex1 = 2*2 + 0.5*3 = 5.5 -> 5.5
    assert c.M1 == pytest.approx(5.5)
    # R1: vertex1 = 2*1 + 0.5*2 = 3 -> 3
    assert c.R1 == pytest.approx(3.0)


def test_zero_weight_terms_invisible_to_constants():
    terms = (
        quadratic_term((0,), [[1.0]]),
        callable_term((0, 1), lambda z: 0.0, lambda z: np.zeros(2), lipschitz=0.0),
    )
    pot = StructuredPotential(2, terms, SmoothnessParams(alpha=0.5, beta=1.0))
    assert pot.interaction_constants.R1 == 0.0
    assert len(pot.active_terms) == 1


def test_beta_defaults_to_M0():
    pot = gaussian_potential(tridiagonal_precision(4))
    explicit = pot.beta
    bare = StructuredPotential(4, pot.terms, SmoothnessParams(alpha=1.0))
    assert bare.beta == pytest.approx(bare.interaction_constants.M0)
    assert explicit <= bare.beta  # eigenvalue beta is sharper than M0


def test_weak_condition_eta():
    pot = gaussian_potential(tridiagonal_precision(4))
    sm = pot.smoothness
    c = pot.interaction_constants
    rep = weak_constants(sm.alpha, sm.gamma, c.M0, c.M1, c.R1)
    eta = rep["eta"]
    assert eta == pytest.approx(1.0 - sm.gamma * c.M0 * c.R1 / sm.alpha**2)
    assert rep.valid == (eta > 0)


def test_pairwise_constants_match_display():
    # V_i'' bounded by kappa, V_ij'' bounded by J_ij
    kappa = np.array([1.0, 2.0, 1.5])
    J = np.array([[0.0, 0.3, 0.1], [0.3, 0.0, 0.2], [0.1, 0.2, 0.0]])
    pairs = [(0, 1), (0, 2), (1, 2)]
    c = interaction_constants([(0,), (1,), (2,), *pairs], [*kappa, *(J[p] for p in pairs)])
    rows = J.sum(axis=1)
    assert c.M0 == pytest.approx(np.max(kappa + rows))
    assert c.M1 == pytest.approx(np.max(kappa + 2 * rows))
    assert c.R1 == pytest.approx(np.max(rows))


def test_interaction_constants_from_supports_and_weights():
    # the hand example above as raw (supports, weights); coordinate 4 is untouched
    c = interaction_constants([(0,), (0, 1), (1, 2, 3)], [1.0, 2.0, 0.5])
    assert (c.M0, c.M1, c.R1) == (3.0, 5.5, 3.0)
    assert interaction_constants([], []) == interaction_constants([(2,)], [0.0])
    assert interaction_constants([(2,)], [4.0]) == type(c)(4.0, 4.0, 0.0)


def test_pairwise_constants_match_structured_potential(rng):
    # both descriptions of one pairwise potential give the same constants
    # V_i(s) = a_i s^2 / 2 and V_ij(s) = J_ij s^2 / 2
    coupling = np.triu(rng.uniform(0.0, 0.4, (5, 5)), 1)
    coupling[1, 3] = 0.0
    confine = rng.uniform(0.5, 2.0, 5)
    J = coupling + coupling.T
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5) if coupling[i, j] > 0]
    spec = PairwiseSpec(
        n=5,
        confine_bounds=confine,
        interaction_bounds=J,
        confine_fns=tuple((lambda s, a=a: 0.5 * a * s * s, lambda s, a=a: a * s) for a in confine),
        interaction_fns={
            p: (lambda s, c=J[p]: 0.5 * c * s * s, lambda s, c=J[p]: c * s) for p in pairs
        },
    )
    pot = spec.to_structured(SmoothnessParams(alpha=0.1))
    singles = [(i,) for i in range(5)]
    a = interaction_constants(
        singles + pairs, [*spec.confine_bounds, *(spec.interaction_bounds[p] for p in pairs)]
    )
    b = pot.interaction_constants
    np.testing.assert_allclose([a.M0, a.M1, a.R1], [b.M0, b.M1, b.R1], rtol=1e-15)


def test_pairwise_to_structured_matches_quadratic(rng):
    # quadratic pairwise chain: V_i(s) = s^2 / 2 and V_{i,i+1}(s) = 0.5 s^2 / 2
    # as scalar callables agree pointwise with the closed form
    spec = PairwiseSpec(
        n=4,
        confine_bounds=np.full(4, 1.0),
        interaction_bounds=0.5 * (np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1)),
        confine_fns=((lambda s: 0.5 * s * s, lambda s: s),) * 4,
        interaction_fns={(i, i + 1): (lambda s: 0.25 * s * s, lambda s: 0.5 * s) for i in range(3)},
    )
    pot = spec.to_structured(SmoothnessParams(alpha=0.25))
    x = rng.standard_normal(4)
    expected = 0.5 * np.sum(x**2) + 0.5 * 0.5 * np.sum((x[:-1] - x[1:]) ** 2)
    assert pot.value(x) == pytest.approx(expected)
    np.testing.assert_allclose(
        pot.gradient(x), finite_difference_gradient(pot.value, x), atol=1e-5
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_pairwise_spec_rejects_a_bound_outside_its_domain(bad):
    # NaN and infinities break the number rule that ">= 0" extends
    message = "numbers >= 0" if bad == -1.0 else "numbers, got"
    with pytest.raises(ValueError, match=f"confine_bounds entries must be {message}"):
        PairwiseSpec(2, [bad, 1.0], np.zeros((2, 2)))
    bounds = np.array([[0.0, bad], [bad, 0.0]])
    message = "interaction_bounds must be >= 0" if bad == -1.0 else "interaction_bounds must be finite"
    with pytest.raises(ValueError, match=message):
        PairwiseSpec(2, [1.0, 1.0], bounds)


def test_a_non_finite_quadratic_block_is_named_as_such():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="quadratic factor matrix must be finite"):
            quadratic_term((0,), [[bad]])


def test_pairwise_rejects_interaction_keys_outside_i_lt_j():
    # v(x_i - x_j) is asymmetric, so a key (j, i) would evaluate v at the
    # negated difference on the sorted support
    v = (lambda s: s**3 / 3 + s**2 / 2, lambda s: s**2 + s)

    def spec(key, n=2):
        return PairwiseSpec(
            n=n, confine_bounds=np.zeros(n), interaction_bounds=np.zeros((n, n)),
            confine_fns=((lambda s: 0.0, lambda s: 0.0),) * n, interaction_fns={key: v},
        )

    rule = "must be a list of integers, distinct and non-negative, got"
    faults = {(1, 0): "must be sorted, got (1, 0)", (0, 0): f"{rule} (0, 0)",
              (-1, 1): f"{rule} (-1, 1)", (0, 2): "(0, 2) not contained in range(2)"}
    for key, message in faults.items():
        with pytest.raises(ValueError, match=re.escape(f"interaction key {message}")):
            spec(key)
    pot = spec((0, 1)).to_structured(SmoothnessParams(alpha=0.1, beta=1.0))
    assert pot.value([0.3, 1.2]) == pytest.approx(v[0](0.3 - 1.2))


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"n": 3, "terms": [], "smoothness": {}}, "smoothness missing required key 'alpha'"),
        ({"n": 1, "smoothness": {"alpha": 1.0}, "terms": [{"kind": "quadratic"}]},
         "term missing required key 'support'"),
        ({"n": 1, "smoothness": {"alpha": 1.0}, "terms": [{"support": [0]}]},
         "term missing required key 'kind'"),
        ({"n": 1, "smoothness": {"alpha": 1.0},
          "terms": [{"kind": "quadratic", "support": [0], "params": {}}]},
         "quadratic term params missing required key 'matrix'"),
        ({"n": 4, "smoothness": {"alpha": 0.5},
          "terms": [{"kind": "builtin:grid-pairwise", "support": [0, 1, 2, 3],
                     "params": {"cols": 2}}]},
         "missing required key 'rows'"),
        ({"n": 3, "smoothness": {"alpha": 1.0}, "terms": 3}, "'terms' must be a list"),
        ({"n": 3, "smoothness": {"alpha": 1.0}, "terms": [{"kind": "quadratic", "support": 0}]},
         "'support' must be a list"),
        ({"n": 3, "smoothness": 1.0, "terms": []}, "smoothness must be a JSON object"),
        ([3], "potential spec must be a JSON object"),
        ({"n": [3], "smoothness": {"alpha": 1.0}, "terms": []},
         "potential spec 'n' must be an integer"),
        ({"n": 3, "smoothness": {"alpha": 1.0, "gamma": None}, "terms": []},
         "smoothness 'gamma' must be a number"),
        ({"n": 3, "smoothness": {"alpha": 0.5},
          "terms": [{"kind": "builtin:chain-pairwise", "support": [0, 1, 2],
                     "params": {"couple": "x"}}]},
         "builtin:chain-pairwise params 'couple' must be a number"),
        ({"n": 3, "smoothness": {"alpha": 0.5},
          "terms": [{"kind": "builtin:gaussian", "support": [0, 1, 2],
                     "params": {"tridiagonal": 3}}]},
         "builtin:gaussian params 'tridiagonal' must be a JSON object"),
        # a value that a cast would turn into another problem, and a key the
        # reader would drop, name the field instead
        ({"n": 2.7, "smoothness": {"alpha": 0.5}, "terms": []},
         "potential spec 'n' must be an integer, got 2.7"),
        ({"n": True, "smoothness": {"alpha": 0.5}, "terms": []},
         "potential spec 'n' must be an integer, got True"),
        ({"n": 2, "smoothness": {"alpha": 0.5},
          "terms": [{"kind": "builtin:grid-pairwise", "support": [0, 1],
                     "params": {"rows": 1.9, "cols": 2}}]},
         "builtin:grid-pairwise params 'rows' must be an integer, got 1.9"),
        ({"n": 2, "smoothness": {"alpha": "1.0"}, "terms": []},
         "smoothness 'alpha' must be a number, got '1.0'"),
        ({"n": 2, "smoothness": {"alpha": 1.0, "gamma": True}, "terms": []},
         "smoothness 'gamma' must be a number, got True"),
        ({"n": 2, "smoothness": {"alpha": float("nan")}, "terms": []},
         "smoothness 'alpha' must be a number, got nan"),
        ({"n": 2, "smoothness": {"alpha": 0.5, "gamma": float("inf")}, "terms": []},
         "smoothness 'gamma' must be a number, got inf"),
        ({"n": 2, "smoothness": {"alpha": 0.5},
          "terms": [{"kind": "builtin:chain-pairwise", "support": [0, 1],
                     "params": {"couple": "0.3"}}]},
         "builtin:chain-pairwise params 'couple' must be a number, got '0.3'"),
        ({"n": 2, "smoothness": {"alpha": 0.5},
          "terms": [{"kind": "builtin:gaussian", "support": [0, 1],
                     "params": {"tridiagonal": {"diag": True}}}]},
         "builtin:gaussian params 'tridiagonal' 'diag' must be a number, got True"),
        ({"n": 2, "smoothness": {"alpha": 0.5},
          "terms": [{"kind": "builtin:gaussian", "support": [0, 1],
                     "params": {"precision": [["2", True], [True, "2"]]}}]},
         "builtin:gaussian params 'precision' must be a square list of number lists"),
        ({"n": 1, "smoothness": {"alpha": 0.5},
          "terms": [{"kind": "quadratic", "support": [0], "params": {"matrix": [["1"]]}}]},
         "quadratic term params 'matrix' must be a square list of number lists"),
        ({"n": 2, "smoothness": {"alpha": 0.5},
          "terms": [{"kind": "builtin:chain-pairwise", "support": [0, 1],
                     "parms": {"couple": 0.9}}]},
         r"unknown term keys \['parms'\]"),
        ({"n": 2, "smoothness": {"alpha": 0.5, "gama": 3.0},
          "terms": [{"kind": "builtin:chain-pairwise", "support": [0, 1]}]},
         r"unknown smoothness keys \['gama'\]"),
        ({"n": 2, "smoothness": {"alpha": 0.5}, "terms": [], "beta": 2.0},
         r"unknown potential spec keys \['beta'\]"),
        ({"n": 2, "smoothness": {"alpha": 0.5},
          "terms": [{"kind": "builtin:mean-field", "support": [0, 1],
                     "params": {"couple": 0.9}}]},
         r"unknown term 'params' keys \['couple'\]"),
        ({"n": 2, "smoothness": {"alpha": 0.5},
          "terms": [{"kind": "builtin:chain-pairwise", "support": [0, 1], "lipschitz": 1.0}]},
         r"unknown term keys \['lipschitz'\]"),
        ({"n": 2, "smoothness": {"alpha": 0.5},
          "terms": [{"kind": "quadratic", "support": [0, 0],
                     "params": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}]},
         "term 'support' must be a list of integers, distinct and non-negative"),
        ({"n": 4, "smoothness": {"alpha": 0.5},
          "terms": [{"kind": "builtin:grid-pairwise", "support": [0, 1, 2, 3],
                     "params": {"rows": -2, "cols": -2}}]},
         "grid -2x-2 does not match support size 4"),
        # the precision would win and the tridiagonal block be dropped
        ({"n": 2, "smoothness": {"alpha": 0.5},
          "terms": [{"kind": "builtin:gaussian", "support": [0, 1],
                     "params": {"precision": [[2.0, 0.0], [0.0, 2.0]],
                                "tridiagonal": {"diag": 5.0}}}]},
         "builtin:gaussian needs 'precision' or 'tridiagonal' params, not both"),
        ({"n": 2, "smoothness": {"alpha": 0.5},
          "terms": [{"kind": "builtin:chain-pairwise", "support": [[0], 1]}]},
         "term 'support' must be a list of integers, distinct and non-negative"),
    ],
)
def test_potential_from_dict_names_missing_or_mistyped_keys(spec, message):
    with pytest.raises(ValueError, match=message):
        potential_from_dict(spec)


@pytest.mark.parametrize(
    "kind", ["quadratic", "builtin:gaussian", "builtin:chain-pairwise", "builtin:mean-field"]
)
def test_potential_from_dict_rejects_empty_support_for_every_kind(kind):
    spec = {"n": 2, "smoothness": {"alpha": 0.5, "beta": 1.0},
            "terms": [{"kind": kind, "support": [], "params": {"matrix": []}}]}
    with pytest.raises(ValueError, match="term 'support' must be nonempty"):
        potential_from_dict(spec)


@pytest.mark.parametrize("builder,n", [(chain_pairwise, 5), (mean_field, 4)])
def test_builders_produce_valid_potentials(builder, n, rng):
    pot = builder(n)
    assert pot.n == n
    x = rng.standard_normal(n)
    np.testing.assert_allclose(
        pot.gradient(x), finite_difference_gradient(pot.value, x), atol=1e-5
    )


def test_grid_pairwise_shape(rng):
    pot = grid_pairwise(2, 3)
    assert pot.n == 6
    x = rng.standard_normal(6)
    np.testing.assert_allclose(
        pot.gradient(x), finite_difference_gradient(pot.value, x), atol=1e-5
    )


def test_mean_field_all_pairs():
    pot = mean_field(4)
    pair_supports = {t.support for t in pot.active_terms if len(t.support) == 2}
    assert len(pair_supports) == 6


def test_tridiagonal_precision_structure():
    A = tridiagonal_precision(4, 2.0, -0.5)
    assert A[0, 0] == 2.0 and A[0, 1] == -0.5 and A[0, 2] == 0.0
    np.testing.assert_allclose(A, A.T)


def test_json_round_trip(rng, tmp_path):
    # a file of literal quadratic terms reads back as the potential built from them
    M, L = [[2.0, -0.5], [-0.5, 1.0]], [[1.5]]
    spec = {
        "n": 3,
        "smoothness": {"alpha": 0.5, "beta": 2.5, "gamma": 0.8},
        "terms": [
            {"support": [0, 1], "kind": "quadratic", "params": {"matrix": M}},
            {"support": [2], "kind": "quadratic", "params": {"matrix": L}, "lipschitz": 1.5},
        ],
    }
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(spec))
    pot = load_potential(path)
    want = StructuredPotential(
        n=3,
        terms=(quadratic_term((0, 1), M), quadratic_term((2,), L)),
        smoothness=SmoothnessParams(alpha=0.5, beta=2.5, gamma=0.8),
    )
    assert_same_potential(pot, want)
    x = rng.standard_normal(3)
    assert pot.value(x) == want.value(x)
    np.testing.assert_array_equal(pot.gradient(x), want.gradient(x))


def test_builtin_json_forms(tmp_path):
    spec = {
        "n": 4,
        "smoothness": {"alpha": 0.5},
        "terms": [
            {
                "kind": "builtin:gaussian",
                "support": [0, 1, 2, 3],
                "params": {"tridiagonal": {"diag": 2.0, "off": -0.5}},
            }
        ],
    }
    pot = potential_from_dict(spec)
    np.testing.assert_allclose(pot.quadratic_matrix.toarray(), tridiagonal_precision(4), atol=1e-12)


def test_builtin_support_remap(rng):
    # builtin expanded on a shifted support block acts on those coordinates
    spec = {
        "n": 6,
        "smoothness": {"alpha": 0.5},
        "terms": [
            {
                "kind": "builtin:gaussian",
                "support": [2, 3, 4],
                "params": {"tridiagonal": {"diag": 2.0, "off": -0.5}},
            },
            {"kind": "quadratic", "support": [0], "params": {"matrix": [[1.0]]}},
            {"kind": "quadratic", "support": [1], "params": {"matrix": [[1.0]]}},
            {"kind": "quadratic", "support": [5], "params": {"matrix": [[1.0]]}},
        ],
    }
    pot = potential_from_dict(spec)
    x = rng.standard_normal(6)
    A3 = tridiagonal_precision(3)
    expected = 0.5 * x[2:5] @ A3 @ x[2:5] + 0.5 * (x[0] ** 2 + x[1] ** 2 + x[5] ** 2)
    assert pot.value(x) == pytest.approx(expected)


SHIFTED = [9, 1, 4, 3, 8, 6]  # declared out of order; sorted it is the builtin's coordinates


def _dense_precision():
    A = tridiagonal_precision(6, 3.0, -0.5)
    A[0, 4] = A[4, 0] = 0.2
    return A


@pytest.mark.parametrize(
    "kind,params,build",
    [
        ("gaussian", {"precision": _dense_precision().tolist()},
         lambda: gaussian_potential(_dense_precision())),
        ("gaussian", {"tridiagonal": {"diag": 2.5, "off": 0.3}},
         lambda: gaussian_potential(tridiagonal_precision(6, 2.5, 0.3))),
        ("chain-pairwise", {"confine": 1.5, "couple": 0.7}, lambda: chain_pairwise(6, 1.5, 0.7)),
        ("grid-pairwise", {"rows": 2, "cols": 3, "couple": 0.4},
         lambda: grid_pairwise(2, 3, 1.0, 0.4)),
        ("mean-field", {"confine": 0.5, "strength": 2.0}, lambda: mean_field(6, 0.5, 2.0)),
    ],
)
def test_builtin_on_shifted_support_equals_builder_terms(kind, params, build):
    spec = {
        "n": 10,
        "smoothness": {"alpha": 0.1, "beta": 10.0},
        "terms": [{"kind": f"builtin:{kind}", "support": SHIFTED, "params": params}],
    }
    got, want = potential_from_dict(spec).terms, build().terms
    support = sorted(SHIFTED)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.support == tuple(support[i] for i in w.support)
        assert all(type(i) is int for i in g.support)
        assert (g.kind, g.lipschitz) == (w.kind, w.lipschitz)
        assert g.matrix.tobytes() == w.matrix.tobytes()


def test_builtin_gaussian_rejects_asymmetric_precision():
    spec = {
        "n": 2,
        "smoothness": {"alpha": 0.5},
        "terms": [{"kind": "builtin:gaussian", "support": [0, 1],
                   "params": {"precision": [[2.0, 0.5], [0.0, 2.0]]}}],
    }
    with pytest.raises(ValueError, match="precision must be symmetric to 1e-10"):
        potential_from_dict(spec)
    with pytest.raises(ValueError, match="precision must be symmetric to 1e-10"):
        gaussian_potential(spec["terms"][0]["params"]["precision"])


def test_potential_from_dict_reads_whole_floats_as_integers():
    def spec(n, alpha, support, rows):
        return {"n": n, "smoothness": {"alpha": alpha, "beta": None},
                "terms": [{"kind": "builtin:grid-pairwise", "support": support,
                           "params": {"rows": rows, "cols": 3}}]}

    pot = potential_from_dict(spec(3.0, 1, [2.0, 0, 1], 1.0))
    assert type(pot.n) is int and type(pot.smoothness.alpha) is float
    assert all(type(i) is int for t in pot.terms for i in t.support)
    assert_same_potential(pot, potential_from_dict(spec(3, 1.0, [0, 1, 2], 1)))


def test_potential_from_dict_error_paths():
    with pytest.raises(ValueError, match="missing required key"):
        potential_from_dict({"n": 2, "terms": []})
    with pytest.raises(ValueError, match="unknown term kind"):
        potential_from_dict(
            {"n": 1, "smoothness": {"alpha": 1.0}, "terms": [{"kind": "cubic", "support": [0]}]}
        )


def test_rebuilt_potential_is_the_same_and_other_weights_differ():
    a = gaussian_potential(tridiagonal_precision(4, 2.0, -0.5))
    assert_same_potential(a, gaussian_potential(tridiagonal_precision(4, 2.0, -0.5)))
    with pytest.raises(AssertionError):
        assert_same_potential(a, gaussian_potential(tridiagonal_precision(4, 2.0, -0.4)))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    diag=st.floats(min_value=1.1, max_value=5.0),
    scale=st.floats(min_value=0.05, max_value=0.45),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_gradient_consistency(n, diag, scale, seed):
    # gradient equals sum of factor gradients equals finite differences,
    # for any diagonally dominant tridiagonal instance
    A = tridiagonal_precision(n, diag, -scale * diag)
    pot = gaussian_potential(A)
    x = np.random.default_rng(seed).standard_normal(n)
    np.testing.assert_allclose(pot.gradient(x), brute_force_gradient(pot, x), atol=1e-10)
    np.testing.assert_allclose(
        pot.gradient(x), finite_difference_gradient(pot.value, x), atol=2e-4
    )


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    couple=st.floats(min_value=0.0, max_value=0.4),
)
def test_property_M_R_ordering(n, couple):
    # M1 >= M0 >= R1 always holds for pairwise chains
    pot = chain_pairwise(n, confine=1.0, couple=couple)
    c = pot.interaction_constants
    assert c.M1 >= c.M0
    assert c.M0 >= c.R1  # singleton weights enter M0 but not R1
