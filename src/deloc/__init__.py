"""Delocalization of Langevin Monte Carlo bias on structured potentials.

Core pieces: structured potentials built from low-dimensional factor terms
(`potential`), the induced interaction graph with neighbourhood-growth
certificates (`graph`), the LMC sampler (`sampler`), exact Gaussian
reference laws (`oracle`), empirical transport metrics (`metrics`),
closed-form theorem constants and bounds (`bounds`), the subset-function
hierarchy with certified entropy curves (`hierarchy`), and the experiment
harness (`harness`)."""

from .potential import (
    FactorTerm,
    InteractionConstants,
    PairwiseSpec,
    SmoothnessParams,
    StructuredPotential,
    callable_term,
    chain_pairwise,
    gaussian_potential,
    grid_pairwise,
    load_potential,
    mean_field,
    potential_from_dict,
    quadratic_term,
    tridiagonal_precision,
)
from .graph import (
    GrowthCertificate,
    GrowthReport,
    InteractionGraph,
    build_graph,
    verify_growth,
)
from .sampler import (
    DivergenceError,
    SampleStore,
    SamplerConfig,
    marginal_samples,
    run_chain,
)
from .oracle import (
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
from .metrics import (
    DistanceEstimate,
    SubadditivityReport,
    subadditivity_check,
    w2sq_1d,
    w2sq_assignment,
)
from .bounds import (
    BoundReport,
    continuous_time_bound,
    dynamic_bound,
    onestep_linf_bound,
    poisson_moment_bound,
    sparse_exp_constants,
    sparse_poly_constants,
    subgaussian_grad_linf_bound,
    theorem_constants,
    weak_constants,
)
from .hierarchy import (
    SparseGenerator,
    SparseParams,
    SubsetFunction,
    WeakGenerator,
    WeakParams,
    certified_entropy_curve,
    semigroup_sparse,
    semigroup_weak,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    delocalization_failure_demo,
    fit_scaling,
    run_experiment,
)

__version__ = "0.1.0"
