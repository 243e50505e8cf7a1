"""Every scalar input is read by a domain rule of deloc._json: NaN, the
infinities, a bool, a value outside the domain and, where a count is read,
a fractional number each raise ValueError or give a valid=False report."""

import math

import numpy as np
import pytest

from deloc import bounds as bnd
from deloc import hierarchy as hie
from deloc import oracle as orc
from deloc.graph import GrowthCertificate, build_graph, verify_growth
from deloc.harness import ExperimentConfig
from deloc.metrics import subadditivity_check, w2sq_1d, w2sq_assignment
from deloc.potential import (
    FactorTerm,
    SmoothnessParams,
    StructuredPotential,
    callable_term,
    chain_pairwise,
    tridiagonal_precision,
)
from deloc.sampler import SamplerConfig

POT = chain_pairwise(4)
GRAPH = build_graph(POT)
WEIGHTS = ((0b11, 1.0), (0b110, 0.5))
SPARSE = hie.SparseParams(alpha=1.0, beta=2.0, gamma=0.5, c=3.0, p=1.0)
WEAK = hie.WeakParams(alpha=1.0, gamma=0.2)
H0 = hie.SubsetFunction.size()
A = tridiagonal_precision(3)
LAW0 = orc.GaussianLaw(np.zeros(3), np.eye(3))
WEAK_DYN = dict(alpha=1.0, gamma=1.0, M0=2.0, M1=3.0, R1=0.25)
SPARSE_DYN = dict(alpha=1.0, beta=2.0, gamma=1.0, c=1.0, p=2.0)
CLOUD = np.random.default_rng(0).standard_normal((8, 2))


def _sparse(**kw):
    return hie.SparseParams(**{"alpha": 1.0, "beta": 2.0, "gamma": 0.5, "c": 3.0, "p": 1.0, **kw})


# (entry point and argument, call with a value, a value inside and one outside the
# domain, whether a count is read)
ENTRY_POINTS = [
    ("sparse_poly_constants alpha",
     lambda v: bnd.sparse_poly_constants(v, 1.4, 0.5, 2.0, 1.5), 1.2, 0.0, 0),
    ("sparse_poly_constants beta",
     lambda v: bnd.sparse_poly_constants(0.9, v, 0.5, 2.0, 1.5), 1.4, -1.0, 0),
    ("sparse_poly_constants gamma",
     lambda v: bnd.sparse_poly_constants(0.9, 1.4, v, 2.0, 1.5), 1.2, 0.0, 0),
    ("sparse_poly_constants c",
     lambda v: bnd.sparse_poly_constants(0.9, 1.4, 0.5, v, 1.5), 1.2, 0.5, 0),
    ("sparse_poly_constants p",
     lambda v: bnd.sparse_poly_constants(0.9, 1.4, 0.5, 2.0, v), 1.2, 0.5, 0),
    ("sparse_exp_constants alpha",
     lambda v: bnd.sparse_exp_constants(v, 1.4, 0.5, 2.0, 1.2), 0.9, -1.0, 0),
    ("sparse_exp_constants c",
     lambda v: bnd.sparse_exp_constants(0.9, 1.4, 0.5, v, 1.2), 1.2, 0.9, 0),
    ("sparse_exp_constants r",
     lambda v: bnd.sparse_exp_constants(0.9, 1.4, 0.5, 2.0, v), 1.1, 0.9, 0),
    ("weak_constants alpha", lambda v: bnd.weak_constants(v, 1.0, 2.0, 3.0, 0.25), 1.2, 0.0, 0),
    ("weak_constants gamma", lambda v: bnd.weak_constants(1.0, v, 2.0, 3.0, 0.25), 1.2, 0.0, 0),
    ("weak_constants M0", lambda v: bnd.weak_constants(1.0, 1.0, v, 3.0, 0.25), 1.2, 0.0, 0),
    ("weak_constants M1", lambda v: bnd.weak_constants(1.0, 1.0, 2.0, v, 0.25), 1.2, -3.0, 0),
    ("weak_constants R1", lambda v: bnd.weak_constants(1.0, 1.0, 2.0, 3.0, v), 0.25, -0.1, 0),
    # a theorem constant that overflows: beta**2, or a division by alpha**2 = 0
    ("sparse_poly_constants finite C",
     lambda v: bnd.sparse_poly_constants(1.0, v, 1.0, 1.0, 1.0), 1.4, 1e200, 0),
    ("sparse_exp_constants finite C",
     lambda v: bnd.sparse_exp_constants(1.0, v, 1.0, 1.0, 1.0), 1.4, 1e200, 0),
    ("weak_constants finite eta",
     lambda v: bnd.weak_constants(v, 1.0, 1.0, 1.0, 0.0), 1.2, 1e-200, 0),
    # a bound or envelope that overflows: (4 beta / alpha)**2, k h with a huge k, C0 |u|
    ("onestep_linf_bound finite bound",
     lambda v: bnd.onestep_linf_bound(v, 0.0, 1e200, 1e-201, 2), 1e199, 1.0, 0),
    ("dynamic_bound finite envelope k",
     lambda v: bnd.dynamic_bound("sparse-dyn-poly", SPARSE_DYN, v, 0.01, 1, 1.0), 1, 10**300, 1),
    ("dynamic_bound finite envelope C0",
     lambda v: bnd.dynamic_bound("weak-dyn", WEAK_DYN, 3, 1e-3, 10, v), 1.2, 1e308, 0),
    ("continuous_time_bound finite bound",
     lambda v: bnd.continuous_time_bound(GRAPH, (1,), 0.5, 0.5, 1.0, 2.0, 1.0, C0=v),
     1.2, 1e308, 0),
    ("onestep_linf_bound alpha",
     lambda v: bnd.onestep_linf_bound(v, 0.5, 2.0, 0.1, 4), 1.0, 0.0, 0),
    ("onestep_linf_bound alpha0",
     lambda v: bnd.onestep_linf_bound(1.0, v, 2.0, 0.1, 4), 0.5, -0.5, 0),
    ("onestep_linf_bound beta",
     lambda v: bnd.onestep_linf_bound(1.0, 0.5, v, 0.1, 4), 2.0, 0.0, 0),
    ("onestep_linf_bound h", lambda v: bnd.onestep_linf_bound(1.0, 0.5, 2.0, v, 4), 0.1, 0.0, 0),
    ("onestep_linf_bound n", lambda v: bnd.onestep_linf_bound(1.0, 0.5, 2.0, 0.1, v), 2, 0, 1),
    ("dynamic_bound k",
     lambda v: bnd.dynamic_bound("weak-dyn", WEAK_DYN, v, 1e-3, 1, 1.0), 2, -1, 1),
    ("dynamic_bound h",
     lambda v: bnd.dynamic_bound("weak-dyn", WEAK_DYN, 3, v, 1, 1.0), 1e-3, 0.0, 0),
    ("dynamic_bound usize",
     lambda v: bnd.dynamic_bound("weak-dyn", WEAK_DYN, 3, 1e-3, v, 1.0), 2, 0, 1),
    ("dynamic_bound C0",
     lambda v: bnd.dynamic_bound("weak-dyn", WEAK_DYN, 3, 1e-3, 1, v), 1.2, -1.0, 0),
    ("continuous_time_bound t",
     lambda v: bnd.continuous_time_bound(GRAPH, (1,), v, 0.5, 1.0, 2.0, 1.0, C0=1.0), 1.2, -1.0, 0),
    ("continuous_time_bound eps",
     lambda v: bnd.continuous_time_bound(GRAPH, (1,), 0.5, v, 1.0, 2.0, 1.0, C0=1.0), 0.5, 1.0, 0),
    ("continuous_time_bound alpha",
     lambda v: bnd.continuous_time_bound(GRAPH, (1,), 0.5, 0.5, v, 2.0, 1.0, C0=1.0), 1.2, 0.0, 0),
    ("continuous_time_bound beta",
     lambda v: bnd.continuous_time_bound(GRAPH, (1,), 0.5, 0.5, 1.0, v, 1.0, C0=1.0), 1.2, 0.0, 0),
    ("continuous_time_bound gamma",
     lambda v: bnd.continuous_time_bound(GRAPH, (1,), 0.5, 0.5, 1.0, 2.0, v, C0=1.0), 1.2, -2.0, 0),
    ("continuous_time_bound C0",
     lambda v: bnd.continuous_time_bound(GRAPH, (1,), 0.5, 0.5, 1.0, 2.0, 1.0, C0=v), 1.2, -1.0, 0),
    ("poisson_moment_bound rate", lambda v: bnd.poisson_moment_bound(v, 1.0, 2), 1.2, -1.0, 0),
    ("poisson_moment_bound t", lambda v: bnd.poisson_moment_bound(1.0, v, 2), 1.2, -1.0, 0),
    ("poisson_moment_bound p", lambda v: bnd.poisson_moment_bound(1.0, 1.0, v), 2, 0, 1),
    ("subgaussian_grad_linf_bound beta",
     lambda v: bnd.subgaussian_grad_linf_bound(v, 3), 1.2, 0.0, 0),
    ("subgaussian_grad_linf_bound n", lambda v: bnd.subgaussian_grad_linf_bound(1.0, v), 2, 0, 1),
    ("SparseGenerator rate", lambda v: hie.SparseGenerator(GRAPH, v), 1.2, -1.0, 0),
    ("SparseGenerator.from_params alpha",
     lambda v: hie.SparseGenerator.from_params(GRAPH, v, 2.0, 1.0, 0.5), 1.2, 0.0, 0),
    ("SparseGenerator.from_params beta",
     lambda v: hie.SparseGenerator.from_params(GRAPH, 1.0, v, 1.0, 0.5), 1.2, -2.0, 0),
    ("SparseGenerator.from_params gamma",
     lambda v: hie.SparseGenerator.from_params(GRAPH, 1.0, 2.0, v, 0.5), 1.2, 0.0, 0),
    ("SparseGenerator.from_params eps",
     lambda v: hie.SparseGenerator.from_params(GRAPH, 1.0, 2.0, 1.0, v), 0.5, 1.0, 0),
    ("WeakGenerator rate_factor", lambda v: hie.WeakGenerator(WEIGHTS, v), 1.2, -1.0, 0),
    ("WeakGenerator weight", lambda v: hie.WeakGenerator(((0b11, v),), 1.0), 1.2, 0.0, 0),
    ("WeakGenerator.from_params alpha",
     lambda v: hie.WeakGenerator.from_params(WEIGHTS, v, 1.0, 0.5), 1.2, 0.0, 0),
    ("WeakGenerator.from_params gamma",
     lambda v: hie.WeakGenerator.from_params(WEIGHTS, 1.0, v, 0.5), 1.2, -1.0, 0),
    ("WeakGenerator.from_params eps",
     lambda v: hie.WeakGenerator.from_params(WEIGHTS, 1.0, 1.0, v), 0.5, 0.0, 0),
    ("semigroup_sparse t",
     lambda v: hie.semigroup_sparse(hie.SparseGenerator(GRAPH, 1.0), v, H0, (1,)), 1.2, -1.0, 0),
    ("semigroup_weak t",
     lambda v: hie.semigroup_weak(hie.WeakGenerator(WEIGHTS, 1.0), v, H0, (1,)), 1.2, -1.0, 0),
    ("SparseParams alpha", lambda v: _sparse(alpha=v), 1.2, 0.0, 0),
    ("SparseParams beta", lambda v: _sparse(beta=v), 2.0, 0.5, 0),
    ("SparseParams gamma", lambda v: _sparse(gamma=v), 1.2, 0.0, 0),
    ("SparseParams c", lambda v: _sparse(c=v), 1.2, 0.5, 0),
    ("SparseParams p", lambda v: _sparse(p=v), 1.2, 0.5, 0),
    ("SparseParams r", lambda v: _sparse(p=None, r=v), 1.2, 0.5, 0),
    ("SparseParams epsilon", lambda v: _sparse(epsilon=v), 0.5, 1.0, 0),
    ("WeakParams alpha", lambda v: hie.WeakParams(v, 0.2), 1.2, 0.0, 0),
    ("WeakParams gamma", lambda v: hie.WeakParams(1.0, v), 1.2, -0.2, 0),
    ("WeakParams epsilon", lambda v: hie.WeakParams(1.0, 0.2, epsilon=v), 0.5, 0.0, 0),
    ("certified_entropy_curve k_max",
     lambda v: hie.certified_entropy_curve("sparse", SPARSE, GRAPH, H0, 1e-3, v, (1,)), 2, -1, 1),
    ("certified_entropy_curve h",
     lambda v: hie.certified_entropy_curve("weak", WEAK, WEIGHTS, H0, v, 5, (0,)), 1e-3, 0.0, 0),
    ("GrowthCertificate c", lambda v: GrowthCertificate("polynomial", v, 1.0), 1.2, 0.5, 0),
    ("GrowthCertificate exponent", lambda v: GrowthCertificate("exponential", 1.0, v), 1.2, 0.9, 0),
    ("FactorTerm lipschitz",
     lambda v: FactorTerm(support=(0,), lipschitz=v, matrix=np.eye(1)), 1.2, -1.0, 0),
    ("SmoothnessParams alpha", lambda v: SmoothnessParams(alpha=v), 1.2, 0.0, 0),
    ("SmoothnessParams beta", lambda v: SmoothnessParams(alpha=1.0, beta=v), 1.5, 0.5, 0),
    ("SmoothnessParams gamma", lambda v: SmoothnessParams(alpha=1.0, gamma=v), 1.2, 0.0, 0),
    ("StructuredPotential n",
     lambda v: StructuredPotential(n=v, terms=(), smoothness=SmoothnessParams(1.0, 1.0)), 2, 0, 1),
    ("SamplerConfig h", lambda v: SamplerConfig(h=v, iterations=10), 0.1, 0.0, 0),
    ("SamplerConfig iterations", lambda v: SamplerConfig(h=0.1, iterations=v), 2, 0, 1),
    ("SamplerConfig burn_in", lambda v: SamplerConfig(h=0.1, iterations=10, burn_in=v), 2, -5, 1),
    ("SamplerConfig num_chains",
     lambda v: SamplerConfig(h=0.1, iterations=10, num_chains=v), 2, 0, 1),
    ("SamplerConfig substeps", lambda v: SamplerConfig(h=0.1, iterations=10, substeps=v), 2, 0, 1),
    ("SamplerConfig thinning", lambda v: SamplerConfig(h=0.1, iterations=10, thinning=v), 2, -1, 1),
    ("lmc_transient_law k", lambda v: orc.lmc_transient_law(A, 0.1, v, LAW0), 2, -2, 1),
    ("ou_law t", lambda v: orc.ou_law(A, v, LAW0), 1.2, -0.5, 0),
    ("subadditivity_check k", lambda v: subadditivity_check(LAW0, LAW0, v), 2, 0, 1),
    ("w2sq_1d n_boot", lambda v: w2sq_1d(CLOUD[:, 0], CLOUD[:, 1], n_boot=v), 2, -1, 1),
    ("w2sq_assignment n_boot", lambda v: w2sq_assignment(CLOUD, CLOUD, n_boot=v), 2, -1, 1),
    ("ExperimentConfig dims", lambda v: ExperimentConfig("gaussian-scaling", dims=(v,)), 2, 0, 1),
    ("ExperimentConfig h_values",
     lambda v: ExperimentConfig("gaussian-scaling", h_values=(v,)), 1.2, -0.01, 0),
]

BAD_VALUES = [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("True", True)]


def _cases():
    for name, call, _, outside, count in ENTRY_POINTS:
        values = BAD_VALUES + [("outside", outside)] + ([("fraction", 2.5)] if count else [])
        for label, value in values:
            yield pytest.param(call, value, id=f"{name}-{label}")


@pytest.mark.parametrize("call, value", _cases())
def test_every_entry_point_rejects_a_value_outside_its_domain(call, value):
    """A ValueError or a valid=False report, either naming the value it got."""
    try:
        result = call(value)
    except ValueError as e:
        message = str(e)
    else:
        assert result.valid is False
        message = result.reason
    assert repr(value) in message


@pytest.mark.parametrize(
    "call, inside", [pytest.param(call, inside, id=name) for name, call, inside, *_ in ENTRY_POINTS]
)
def test_every_entry_point_accepts_a_value_inside_its_domain(call, inside):
    assert getattr(call(inside), "valid", True) is True


# -- each false result of the unchecked comparisons, one by one ---------------------


def test_growth_certificate_with_nan_c_no_longer_passes():
    path = build_graph(chain_pairwise(64))
    assert verify_growth(path, GrowthCertificate("polynomial", 1.0, 1.0)).passed is False
    with pytest.raises(ValueError, match="growth certificate c must be a number >= 1, got nan"):
        verify_growth(path, GrowthCertificate("polynomial", math.nan, 1.0))


@pytest.mark.parametrize(
    "report",
    [
        lambda: bnd.sparse_poly_constants(1.0, 2.0, 1.0, math.nan, 1.0),
        lambda: bnd.sparse_exp_constants(1.0, 2.0, 0.1, 1.0, math.nan),
        lambda: bnd.weak_constants(1.0, 1.0, 2.0, 3.0, math.nan),
    ],
)
def test_theorem_constants_with_nan_are_invalid(report):
    rep = report()
    assert rep.valid is False and rep.outputs == {}
    assert "got nan" in rep.reason


def test_factor_with_nan_lipschitz_is_rejected_not_dropped():
    with pytest.raises(ValueError, match="lipschitz must be a number >= 0, got nan"):
        callable_term((0, 1), lambda z: 0.0, lambda z: np.zeros(2), math.nan)


def test_negative_burn_in_is_rejected():
    with pytest.raises(ValueError, match="'burn_in' must be an integer >= 0, got -5"):
        SamplerConfig(h=0.01, iterations=10, burn_in=-5)


def test_transient_law_takes_whole_steps():
    with pytest.raises(ValueError, match="k must be an integer >= 0, got 2.5"):
        orc.lmc_transient_law(A, 0.1, 2.5, LAW0)
    whole = orc.lmc_transient_law(A, 0.1, 2.0, LAW0)
    np.testing.assert_array_equal(whole.cov, orc.lmc_transient_law(A, 0.1, 2, LAW0).cov)


def test_h_star_is_one_comparison_for_envelope_and_curve():
    """At h = h* (1 + 5e-13) both accept; at h* (1 + 5e-12) both reject."""
    h_star = SPARSE.h_star()
    params = {"alpha": 1.0, "beta": 2.0, "gamma": 0.5, "c": 3.0, "p": 1.0}
    for slack, ok in ((5e-13, True), (5e-12, False)):
        h = h_star * (1.0 + slack)
        assert bnd.dynamic_bound("sparse-dyn-poly", params, 3, h, 1, 1.0).valid is ok
        if ok:
            hie.certified_entropy_curve("sparse", SPARSE, GRAPH, H0, h, 3, (1,))
        else:
            with pytest.raises(ValueError, match="exceeds h\\*"):
                hie.certified_entropy_curve("sparse", SPARSE, GRAPH, H0, h, 3, (1,))


def test_curve_names_a_params_type_that_does_not_match_the_case():
    with pytest.raises(ValueError, match="case 'sparse' takes SparseParams, got WeakParams"):
        hie.certified_entropy_curve("sparse", WEAK, GRAPH, H0, 1e-3, 3, (1,))
    with pytest.raises(ValueError, match="case 'weak' takes WeakParams, got SparseParams"):
        hie.certified_entropy_curve("weak", SPARSE, WEIGHTS, H0, 1e-3, 3, (0,))


def test_onestep_without_a_gap_has_no_bound():
    rep = bnd.onestep_linf_bound(1.0, 1.0, 2.0, 0.1, 4, usize=2)
    assert rep.valid is False
    assert rep.outputs == {"bound_value": None, "full_linf": None, "marginal": None}
    rep = bnd.onestep_linf_bound(1.0, 0.5, 2.0, 0.1, 4, usize=2)
    assert rep.valid and rep["marginal"] == rep["bound_value"] == 2 * rep["full_linf"]
