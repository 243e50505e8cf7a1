import json

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
    tridiagonal_precision,
)

from conftest import (
    assert_same_potential,
    brute_force_gradient,
    brute_force_value,
    finite_difference_gradient,
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
    with pytest.raises(ValueError, match="sorted"):
        callable_term((0, 0), lambda z: 0.0, lambda z: z * 0, 1.0)
    with pytest.raises(ValueError, match=">= 0"):
        quadratic_term((-1, 0), np.eye(2))
    # the convenience constructor sorts on its own
    t = quadratic_term((1, 0), np.zeros((2, 2)))
    assert t.support == (0, 1)


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
    with pytest.raises(ValueError):
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
    np.testing.assert_allclose(pot.quadratic_matrix, A, atol=1e-12)


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
    assert c.R0 == pytest.approx(1.0)
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
    # R0: vertex1 = 2 + 0.5 -> 2.5
    assert c.R0 == pytest.approx(2.5)
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
    assert c.R0 == pytest.approx(np.max(rows))


def test_interaction_constants_from_supports_and_weights():
    # the hand example above as raw (supports, weights); coordinate 4 is untouched
    c = interaction_constants([(0,), (0, 1), (1, 2, 3)], [1.0, 2.0, 0.5])
    assert (c.M0, c.M1, c.R0, c.R1) == (3.0, 5.5, 2.5, 3.0)
    assert interaction_constants([], []) == interaction_constants([(2,)], [0.0])
    assert interaction_constants([(2,)], [4.0]) == type(c)(4.0, 4.0, 0.0, 0.0)


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
    np.testing.assert_allclose([a.M0, a.M1, a.R0, a.R1], [b.M0, b.M1, b.R0, b.R1], rtol=1e-15)


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


def test_pairwise_rejects_interaction_keys_outside_i_lt_j():
    # v(x_i - x_j) is asymmetric, so a key (j, i) would evaluate v at the
    # negated difference on the sorted support
    v = (lambda s: s**3 / 3 + s**2 / 2, lambda s: s**2 + s)

    def spec(key, n=2):
        return PairwiseSpec(
            n=n, confine_bounds=np.zeros(n), interaction_bounds=np.zeros((n, n)),
            confine_fns=((lambda s: 0.0, lambda s: 0.0),) * n, interaction_fns={key: v},
        )

    for key in ((1, 0), (0, 0), (-1, 1), (0, 2)):
        with pytest.raises(ValueError, match="needs 0 <= i < j < n"):
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
    with pytest.raises(ValueError, match="factor support must be nonempty"):
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
    np.testing.assert_allclose(pot.quadratic_matrix, tridiagonal_precision(4), atol=1e-12)


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
        assert (g.kind, g.lipschitz, g.label) == (w.kind, w.lipschitz, w.label)
        assert g.matrix.tobytes() == w.matrix.tobytes()


def test_builtin_gaussian_rejects_asymmetric_precision():
    spec = {
        "n": 2,
        "smoothness": {"alpha": 0.5},
        "terms": [{"kind": "builtin:gaussian", "support": [0, 1],
                   "params": {"precision": [[2.0, 0.5], [0.0, 2.0]]}}],
    }
    with pytest.raises(ValueError, match="precision matrix must be symmetric"):
        potential_from_dict(spec)
    with pytest.raises(ValueError, match="precision matrix must be symmetric"):
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
    # M1 >= M0 >= R0 and R1 >= R0 always hold for pairwise chains
    pot = chain_pairwise(n, confine=1.0, couple=couple)
    c = pot.interaction_constants
    assert c.M1 >= c.M0 >= c.R0 - 1e-15
    assert c.R1 >= c.R0 - 1e-15
    assert c.M0 >= c.R1  # singleton weights enter M0 but not R1
