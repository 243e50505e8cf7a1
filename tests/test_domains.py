"""Every scalar input is read by a domain rule of deloc._json: NaN, the
infinities, a bool, a value outside the domain and, where a count is read,
a fractional number each raise ValueError or give a valid=False report.
Every coordinate subset is read by the one subset rule of deloc.subsets, a
graph edge and a pairwise key by it too, and a run config is read in full
when it is built."""

import contextlib
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest

from deloc import bounds as bnd
from deloc import hierarchy as hie
from deloc import oracle as orc
from deloc.cli import main
from deloc.graph import GrowthCertificate, InteractionGraph, build_graph, verify_growth
from deloc.harness import ExperimentConfig, config_from_dict, resolve_panel, run_experiment
from deloc.metrics import subadditivity_check, w2sq_1d, w2sq_assignment
from deloc.potential import (
    FactorTerm,
    PairwiseSpec,
    SmoothnessParams,
    StructuredPotential,
    callable_term,
    chain_pairwise,
    mean_field,
    potential_from_dict,
    quadratic_term,
)
from deloc.sampler import SamplerConfig, run_chain

from conftest import tridiagonal_precision

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
    ("onestep_linf_bound usize",
     lambda v: bnd.onestep_linf_bound(1.0, 0.5, 2.0, 0.1, 4, usize=v), 2, 0, 1),
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
    ("FactorTerm lipschitz",  # a callable factor's own; a quadratic one's is ||M||_op
     lambda v: FactorTerm(support=(0,), lipschitz=v, value_fn=_zero, grad_fn=_zero), 1.2, -1.0, 0),
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
    ("lmc_transient_law k", lambda v: orc.lmc_transient_law(A, 0.1, v, LAW0), 2, -2, 1),
    ("ou_law t", lambda v: orc.ou_law(A, v, LAW0), 1.2, -0.5, 0),
    ("sample m", lambda v: orc.sample(LAW0, v, np.random.default_rng(0)), 2, -1, 1),
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


# -- one rule for every coordinate subset ---------------------------------------------

MF = mean_field(4, strength=0.1)
MF_WEAK = hie.WeakParams(MF.smoothness.alpha, 1.0)
MF_H = MF_WEAK.h_star(MF.interaction_constants.M0, MF.interaction_constants.M1,
                      MF.interaction_constants.R1) / 2.0
WEIGHTS_H = 1e-3  # below h* of WEAK on WEIGHTS
CHAIN4 = {"n": 4, "smoothness": {"alpha": 0.5, "beta": 2.0},
          "terms": [{"kind": "builtin:chain-pairwise", "support": [0, 1, 2, 3]}]}


def _zero(z):
    return 0.0 * z


def _reported(argv, files):
    """deloc's payload for argv after writing files {name: document} to a fresh
    directory ({dir} in argv names it); a ValueError with its reason on exit 2."""
    with tempfile.TemporaryDirectory() as d:
        for name, doc in files.items():
            with open(os.path.join(d, name), "w") as f:
                json.dump(doc, f)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = main([a.format(dir=d) for a in argv])
        except SystemExit as e:  # argparse's own usage error
            rc, out = e.code, None
    payload = json.loads(out.getvalue()) if out else {"reason": "usage error"}
    if rc == 2:
        raise ValueError(payload.get("reason", payload))
    assert rc == 0
    return payload


def _panel(u):
    config = {"experiment": "continuous-time", "dims": [3], "subsets": [u]}
    return _reported(["run", "{dir}/cfg.json"], {"cfg.json": config})


def _hierarchy(u):
    return _reported(["hierarchy", "{dir}/pot.json", "--subset", *map(json.dumps, u)],
                     {"pot.json": CHAIN4})


def _bounds(u):
    return _reported(["bounds", "continuous-time", "--potential", "{dir}/pot.json",
                      "--subset", *map(json.dumps, u)], {"pot.json": CHAIN4})


# name: (call with a subset u, the n it knows (None: none), whether it takes a
# bitmask, whether u reaches it as JSON)
SUBSET_ENTRY_POINTS = {
    "FactorTerm": (lambda u: FactorTerm(u, 1.0, value_fn=_zero, grad_fn=_zero), None, False, False),
    "quadratic_term": (lambda u: quadratic_term(u, np.eye(max(len(u), 1))), None, False, False),
    "callable_term": (lambda u: callable_term(u, _zero, _zero, 1.0), None, False, False),
    "JSON term support": (
        lambda u: potential_from_dict({**CHAIN4, "terms": [{**CHAIN4["terms"][0], "support": u}]}),
        4, False, False,
    ),
    "StructuredPotential": (
        lambda u: StructuredPotential(4, (callable_term(u, _zero, _zero, 1.0),),
                                      SmoothnessParams(0.5, 2.0)),
        4, False, False,
    ),
    "graph.chain": (GRAPH.chain, 4, True, False),
    "continuous_time_bound": (
        lambda u: bnd.continuous_time_bound(GRAPH, u, 0.5, 0.5, 1.0, 2.0, 1.0, C0=1.0),
        4, True, False,
    ),
    "semigroup_sparse": (
        lambda u: hie.semigroup_sparse(hie.SparseGenerator(GRAPH, 1.0), 0.5, H0, u), 4, True, False
    ),
    "semigroup_weak": (
        lambda u: hie.semigroup_weak(hie.WeakGenerator(WEIGHTS, 1.0), 0.5, H0, u), None, True, False
    ),
    "WeakGenerator weight support": (
        lambda u: hie.WeakGenerator(((u, 1.0),), 1.0), None, True, False
    ),
    "sparse curve": (
        lambda u: hie.certified_entropy_curve("sparse", SPARSE, GRAPH, H0, SPARSE.h_star() / 2, 2, u),
        4, True, False,
    ),
    "weak curve on a potential": (
        lambda u: hie.certified_entropy_curve("weak", MF_WEAK, MF, H0, MF_H, 2, u), 4, True, False
    ),
    "weak curve on a weight list": (
        lambda u: hie.certified_entropy_curve("weak", WEAK, WEIGHTS, H0, WEIGHTS_H, 2, u),
        None, True, False,
    ),
    "marginal": (lambda u: orc.marginal(LAW0, u), 3, False, False),
    "harness panel": (_panel, 3, False, True),
    "resolve_panel": (lambda u: resolve_panel(GRAPH, [u]), 4, False, False),
    "deloc hierarchy --subset": (_hierarchy, 4, False, True),
    "deloc bounds --subset": (_bounds, 4, False, True),
}
# the indices rule of deloc._json, under the subset rule and the run config's panel alike
_RULE = "integers, distinct and non-negative"
# fault: (the subset, a part of the message)
INDEX_FAULTS = {
    "empty": ([], "must be nonempty"),
    "0.7": ([0.7], _RULE),
    "True": ([True], _RULE),
    "-1": ([-1], _RULE),
    "duplicate": ([1, 1], _RULE),
    "string": (["1"], _RULE),
    "out of range": ([9], "(9,) not contained in range("),
}
MASK_FAULTS = {
    "empty mask": (0, "must be nonempty"),
    "True mask": (True, _RULE),
    "-1 mask": (-1, "bitmask must be >= 0, got -1"),
    "0.7 mask": (0.7, _RULE),
    "string mask": ("1", _RULE),
    "out-of-range mask": (1 << 9, "(9,) not contained in range("),
}


def _subset_faults():
    for name, (call, n, masks, _) in SUBSET_ENTRY_POINTS.items():
        faults = {**INDEX_FAULTS, **(MASK_FAULTS if masks else {})}
        for label, (u, part) in faults.items():
            if n is None and "range" in part:
                continue  # nothing to bound u by
            if name.startswith("deloc ") and label == "empty":
                part = "usage error"  # argparse needs a value after --subset
            yield pytest.param(call, u, part, id=f"{name}-{label}")


@pytest.mark.parametrize("call, u, part", _subset_faults())
def test_every_subset_entry_point_rejects_each_fault(call, u, part):
    """A ValueError, a valid=False report or exit 2, naming the fault."""
    try:
        result = call(u)
    except ValueError as e:
        message = str(e)
    else:
        assert result.valid is False
        message = result.reason
    assert part in message


def _subset_inputs():
    for name, (call, _, masks, from_json) in SUBSET_ENTRY_POINTS.items():
        inputs = {"2.0": [2.0]}
        if not from_json:  # JSON has no numpy integers
            inputs["np.int64"] = [np.int64(2)]
            if masks:
                inputs["np.int64 mask"] = np.int64(0b100)
        for label, u in inputs.items():
            yield pytest.param(call, u, id=f"{name}-{label}")


@pytest.mark.parametrize("fault", [f for f in INDEX_FAULTS if f != "out of range"])
def test_a_panel_entry_reads_the_same_when_the_config_or_the_run_sees_it(fault):
    # a config knows no n, so it reads every fault but the range; [[]] used to pass it
    u, part = INDEX_FAULTS[fault]
    messages = []
    for read in (lambda: ExperimentConfig("continuous-time", dims=(3,), subsets=[u]),
                 lambda: resolve_panel(GRAPH, [u])):
        with pytest.raises(ValueError) as e:
            read()
        messages.append(str(e.value))
    assert messages[0] == messages[1] and messages[0].startswith("subsets entry ")
    assert part in messages[0]


@pytest.mark.parametrize("call, u", _subset_inputs())
def test_every_subset_entry_point_reads_a_whole_number_as_its_integer(call, u):
    assert getattr(call(u), "valid", True) is True


def test_a_subset_reads_the_same_in_each_of_its_forms():
    assert GRAPH.chain(np.int64(0b100)) == GRAPH.chain([2.0]) == GRAPH.chain((2,))
    assert quadratic_term([0.0, np.int64(2)], np.eye(2)).support == (0, 2)
    np.testing.assert_array_equal(orc.marginal(LAW0, [2.0, 0]).cov, orc.marginal(LAW0, (0, 2)).cov)


# -- each input read once, where it enters ------------------------------------------

_RULE_GOT = "must be a list of integers, distinct and non-negative, got"
# fault: (an edge or a pairwise key on n = 3, the end of its message)
PAIR_FAULTS = {
    "True": ((True, 2), f"{_RULE_GOT} (True, 2)"),
    "-1": ((-1, 0), f"{_RULE_GOT} (-1, 0)"),
    "1.5": ((0, 1.5), f"{_RULE_GOT} (0, 1.5)"),
    "n": ((0, 3), "(0, 3) not contained in range(3)"),
    "self-loop": ((1, 1), f"{_RULE_GOT} (1, 1)"),
    "3-tuple": ((0, 1, 2), "must be two distinct indices, got (0, 1, 2)"),
}
# what names the pair: a call with it
PAIR_ENTRY_POINTS = {
    "edge": lambda e: InteractionGraph(3, [(0, 1), e]),
    "interaction key": lambda key: PairwiseSpec(
        3, np.zeros(3), np.zeros((3, 3)), interaction_fns={(0, 1): None, key: None}
    ),
}


@pytest.mark.parametrize("entry", PAIR_ENTRY_POINTS)
@pytest.mark.parametrize("fault", PAIR_FAULTS)
def test_every_edge_and_pairwise_key_is_read_by_the_subset_rule(entry, fault):
    pair, end = PAIR_FAULTS[fault]
    with pytest.raises(ValueError, match=re.escape(f"{entry} {end}")):
        PAIR_ENTRY_POINTS[entry](pair)


def test_an_edge_or_pairwise_key_reads_a_whole_number_as_its_integer():
    assert InteractionGraph(3, [(0, 2.0), [np.int64(1), 2]]).edges() == [(0, 2), (1, 2)]
    spec = PairwiseSpec(3, np.zeros(3), np.zeros((3, 3)), interaction_fns={(0.0, np.int64(2)): 1})
    assert list(spec.interaction_fns) == [(0, 2)]


@pytest.mark.parametrize("n", [0, -1, 2.5, "2", True, np.nan])
def test_pairwise_spec_reads_n_as_a_positive_integer(n):
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 1, got {n!r}")):
        PairwiseSpec(n, np.zeros(2), np.zeros((2, 2)))


def test_pairwise_spec_reads_a_whole_number_n_as_its_integer():
    """n = 2.0 used to build and then fail in gradient with a TypeError."""
    fns = ((lambda s: 0.5 * s * s, lambda s: s),) * 2
    spec = PairwiseSpec(2.0, np.ones(2), np.zeros((2, 2)), confine_fns=fns)
    assert type(spec.n) is int
    pot = spec.to_structured(SmoothnessParams(alpha=1.0))
    assert pot.gradient(np.array([1.0, -2.0])).tolist() == [1.0, -2.0]


def test_structured_potential_reads_a_whole_number_n_as_its_integer():
    """n = 3.0 used to pass the integer rule, be kept as 3.0, and then fail in gradient,
    quadratic_matrix and run_chain with numpy's TypeError."""
    terms = [quadratic_term((i,), [[2.0]]) for i in range(3)]
    pot = StructuredPotential(3.0, terms, SmoothnessParams(alpha=2.0, beta=2.0))
    assert type(pot.n) is int
    assert pot.gradient(np.array([1.0, -2.0, 0.5])).tolist() == [2.0, -4.0, 1.0]
    assert pot.quadratic_matrix.toarray().tolist() == (2.0 * np.eye(3)).tolist()
    store = run_chain(pot, SamplerConfig(h=0.1, iterations=5), np.zeros(3))
    assert store.rows().shape[1] == 3


# the integer options of each experiment: each is a count, >= 1 unless its floor is named
COUNT_OPTIONS = {
    "certified-trajectory": {"k": 0},
    "onestep-linf": {"samples": 1, "n_boot": 2},
    "sampler-vs-oracle": {"iterations": 1, "chains": 1, "batches": 2, "thin": 1,
                          "marginal_samples": 1},
}
# a floor that a rule across options refuses: one iteration keeps no row after burn-in
FLOOR_REFUSED = {("sampler-vs-oracle", "iterations"): "burn_in=1 leaves no samples from 1 iterations"}


def _count_faults():
    for experiment, floors in COUNT_OPTIONS.items():
        for key, floor in floors.items():
            for value in sorted({floor - 1, -1}):
                yield pytest.param(experiment, key, floor, value, id=f"{experiment}-{key}-{value}")


@pytest.mark.parametrize("experiment, key, floor, value", _count_faults())
def test_every_count_option_is_refused_below_its_floor_when_the_config_is_built(
    experiment, key, floor, value
):
    with pytest.raises(ValueError) as e:
        config_from_dict({"experiment": experiment, "options": {key: value}})
    assert str(e.value).startswith(f"option {key!r} must be an integer >= {floor}")
    assert str(e.value).endswith(f"got {value}")
    at_floor = {"experiment": experiment, "options": {key: floor}}
    if (experiment, key) in FLOOR_REFUSED:
        with pytest.raises(ValueError, match=FLOOR_REFUSED[experiment, key]):
            config_from_dict(at_floor)
    else:
        config_from_dict(at_floor)


# two chains keep iterations - ceil(iterations / 10) rows each
@pytest.mark.parametrize("iterations, batches, kept", [(2000, 5000, 3600), (112, 201, 200)])
def test_sampler_vs_oracle_refuses_more_batches_than_kept_rows_when_the_config_is_built(
    iterations, batches, kept
):
    """Every cov-entry row used to read valid=false: a batch with no row has an empty mean."""
    options = {"iterations": iterations, "chains": 2, "batches": batches}
    with pytest.raises(ValueError, match=f"option 'batches' must be at most the {kept} rows "
                                         f"the chains keep, got {batches}"):
        config_from_dict({"experiment": "sampler-vs-oracle", "options": options})
    config_from_dict({"experiment": "sampler-vs-oracle", "options": {**options, "batches": kept}})


def test_a_certified_trajectory_of_no_steps_runs():
    rep = run_experiment(ExperimentConfig("certified-trajectory", dims=(3,), options={"k": 0}))
    assert rep.failures() == [] and {r.metric for r in rep.rows} >= {"kl-transient"}


_RANDOM = "subsets 'random'"
# fault: (a panel spec, the end of its message); the config and the run read each alike
PANEL_FAULTS = {
    "unknown part": ("singletons+singleton", "unknown panel spec 'singleton'"),
    **{f"{key} {value}": ({"random": {"size": 2, "count": 2, key: value}},
                          f"{_RANDOM} {key!r} must be an integer >= 1, got {value}")
       for key in ("size", "count") for value in (0, -1, 1.5)},
    "seed 0.5": ({"random": {"size": 2, "count": 2, "seed": 0.5}},
                 f"{_RANDOM} 'seed' must be an integer, got 0.5"),
}


@pytest.mark.parametrize("fault", PANEL_FAULTS)
def test_a_panel_is_read_in_full_when_the_config_is_built(fault):
    spec, end = PANEL_FAULTS[fault]
    for read in (lambda: ExperimentConfig("bound-vs-truth", subsets=spec),
                 lambda: resolve_panel(GRAPH, spec)):
        with pytest.raises(ValueError, match=re.escape(end)):
            read()


def test_a_random_panel_larger_than_n_is_refused_naming_its_size():
    with pytest.raises(ValueError, match=re.escape(f"{_RANDOM} 'size' must be at most n=4, got 5")):
        resolve_panel(GRAPH, {"random": {"size": 5, "count": 1}})
    draw = {"random": {"size": 4, "count": 1}}
    config = {"experiment": "bound-vs-truth", "dims": [3], "subsets": draw}
    with pytest.raises(ValueError, match=re.escape(f"{_RANDOM} 'size' must be at most n=3, got 4")):
        _reported(["run", "{dir}/cfg.json"], {"cfg.json": config})
    assert resolve_panel(GRAPH, draw) == [(0, 1, 2, 3)]


@pytest.mark.parametrize(
    "config",
    [
        {"experiment": "sampler-vs-oracle", "options": {"batches": 0}},
        {"experiment": "sampler-vs-oracle", "options": {"thin": -1}},
        {"experiment": "sampler-vs-oracle", "options": {"marginal_samples": -5}},
        {"experiment": "onestep-linf", "options": {"n_boot": 1}},
        {"experiment": "certified-trajectory", "options": {"k": -1}},
        {"experiment": "bound-vs-truth", "subsets": "singleton"},
        {"experiment": "bound-vs-truth", "subsets": {"random": {"size": -1, "count": 2}}},
        {"experiment": "continuous-time", "subsets": []},
        # a second step for an experiment that takes one, and a panel for one that reads none
        {"experiment": "subadditivity", "h_values": [0.1, 0.2]},
        {"experiment": "onestep-linf", "h_values": [0.1, 0.2]},
        {"experiment": "gaussian-scaling", "dims": [16], "subsets": [[0, 99]]},
        {"experiment": "subadditivity", "subsets": "singletons"},
        {"experiment": "onestep-linf", "subsets": "pairs"},
        {"experiment": "sampler-vs-oracle", "subsets": [[0]]},
        {"experiment": "delocalization-failure", "subsets": {"random": {"size": 1, "count": 1}}},
    ],
)
def test_a_bad_option_or_panel_is_refused_before_any_target_is_built(config, monkeypatch):
    built = []
    init = orc.GaussianTarget.__post_init__
    monkeypatch.setattr(orc.GaussianTarget, "__post_init__",
                        lambda self: built.append(self) or init(self))
    _reported(["run", "{dir}/cfg.json"], {"cfg.json": {"experiment": "subadditivity", "dims": [3]}})
    assert len(built) == 1  # the count sees the target a run builds
    with pytest.raises(ValueError):
        _reported(["run", "{dir}/cfg.json"], {"cfg.json": config})
    assert len(built) == 1
