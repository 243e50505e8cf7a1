"""Closed-form bound evaluation: stationary-bias constants, dynamic decay
envelopes, the continuous-time Poisson-series bound, and the one-step
l_inf contraction bound.  The Poisson series over the neighbourhood chain
takes its weights from the kernel shared with the hierarchy module
(_poisson.stopped_weights).

Every evaluator returns a BoundReport.  Parameter-domain violations set
valid=False with a reason instead of raising, so harness sweeps can walk
through invalid regions and report them; genuinely malformed input
(wrong types, negative dimensions) still raises.

Constants implemented:

  sparse-poly   C = 40 c^2 p^p (beta^2/alpha) (8 gamma beta^2/alpha^2 + 1)^p,
                h* = alpha / (4 c beta^2)
  sparse-exp    eta = 1 - (gamma beta^2/alpha^2)(r - 1)  (needs eta > 0),
                C = (10 beta^2 c^2 / (alpha eta^3)) exp(gamma (r-1)/c),
                h* = alpha eta^{3/2} / (5 beta^2 c)
  weak          eta = 1 - gamma M0 R1 / alpha^2          (needs eta > 0),
                C = (10 M0 M1 / (alpha eta^3)) e^gamma,
                h* = alpha eta^{3/2} / (5 M0 M1)

with the decay rate tau = alpha eta^2 / (2 (2 - eta)) for the exp/weak
dynamic envelopes.  THEOREMS maps each name to its routine and parameter
names; theorem_constants(name, params) is how the dynamic envelopes, the
hierarchy and the CLI reach them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._poisson import stopped_weights
from .graph import InteractionGraph
from .subsets import as_mask, size

__all__ = [
    "BoundReport",
    "sparse_poly_constants",
    "sparse_exp_constants",
    "weak_constants",
    "THEOREMS",
    "theorem_constants",
    "onestep_linf_bound",
    "dynamic_bound",
    "continuous_time_bound",
    "poisson_moment_bound",
    "subgaussian_grad_linf_bound",
    "DYNAMIC_THEOREMS",
]

DYNAMIC_THEOREMS = ("sparse-dyn-poly", "sparse-dyn-exp", "weak-dyn")


@dataclass(frozen=True)
class BoundReport:
    theorem: str
    inputs: dict
    outputs: dict
    valid: bool
    reason: str = ""

    def __getitem__(self, key: str) -> float:
        return self.outputs[key]


def _check_positive(**kwargs) -> str:
    for name, v in kwargs.items():
        if not v > 0:
            return f"{name}={v} must be > 0"
    return ""


def sparse_poly_constants(
    alpha: float, beta: float, gamma: float, c: float, p: float
) -> BoundReport:
    inputs = dict(alpha=alpha, beta=beta, gamma=gamma, c=c, p=p)
    reason = _check_positive(alpha=alpha, beta=beta, gamma=gamma)
    if not reason and alpha > beta:
        reason = f"need alpha <= beta, got alpha={alpha} > beta={beta}"
    if not reason and (c < 1 or p < 1):
        reason = f"growth certificate needs c >= 1 and p >= 1, got c={c}, p={p}"
    if reason:
        return BoundReport("sparse-poly", inputs, {}, False, reason)
    C = 40.0 * c**2 * p**p * (beta**2 / alpha) * (8.0 * gamma * beta**2 / alpha**2 + 1.0) ** p
    h_star = alpha / (4.0 * c * beta**2)
    return BoundReport("sparse-poly", inputs, {"C": C, "h_star": h_star}, True)


def sparse_exp_constants(
    alpha: float, beta: float, gamma: float, c: float, r: float
) -> BoundReport:
    inputs = dict(alpha=alpha, beta=beta, gamma=gamma, c=c, r=r)
    reason = _check_positive(alpha=alpha, beta=beta, gamma=gamma)
    if not reason and alpha > beta:
        reason = f"need alpha <= beta, got alpha={alpha} > beta={beta}"
    if not reason and (c < 1 or r < 1):
        reason = f"growth certificate needs c >= 1 and r >= 1, got c={c}, r={r}"
    if reason:
        return BoundReport("sparse-exp", inputs, {}, False, reason)
    r_crit = 1.0 + alpha**2 / (gamma * beta**2)
    eta = 1.0 - (gamma * beta**2 / alpha**2) * (r - 1.0)
    if eta <= 0.0:
        return BoundReport(
            "sparse-exp",
            inputs,
            {"eta": eta, "r_critical": r_crit},
            False,
            f"subcritical growth required: r={r} >= 1 + alpha^2/(gamma beta^2) = {r_crit}",
        )
    C = (10.0 * beta**2 * c**2 / (alpha * eta**3)) * math.exp(gamma * (r - 1.0) / c)
    h_star = alpha * eta**1.5 / (5.0 * beta**2 * c)
    tau = alpha * eta**2 / (2.0 * (2.0 - eta))
    return BoundReport(
        "sparse-exp",
        inputs,
        {"C": C, "h_star": h_star, "eta": eta, "tau": tau, "r_critical": r_crit},
        True,
    )


def weak_constants(alpha: float, gamma: float, M0: float, M1: float, R1: float) -> BoundReport:
    inputs = dict(alpha=alpha, gamma=gamma, M0=M0, M1=M1, R1=R1)
    reason = _check_positive(alpha=alpha, gamma=gamma, M0=M0, M1=M1)
    if not reason and R1 < 0:
        reason = f"R1={R1} must be >= 0"
    if reason:
        return BoundReport("weak", inputs, {}, False, reason)
    eta = 1.0 - gamma * M0 * R1 / alpha**2
    if eta <= 0.0:
        return BoundReport(
            "weak",
            inputs,
            {"eta": eta},
            False,
            f"weak-interaction condition fails: gamma M0 R1 = {gamma * M0 * R1} "
            f">= alpha^2 = {alpha**2}",
        )
    C = (10.0 * M0 * M1 / (alpha * eta**3)) * math.exp(gamma)
    h_star = alpha * eta**1.5 / (5.0 * M0 * M1)
    tau = alpha * eta**2 / (2.0 * (2.0 - eta))
    return BoundReport(
        "weak", inputs, {"C": C, "h_star": h_star, "eta": eta, "tau": tau}, True
    )


THEOREMS = {
    "sparse-poly": (sparse_poly_constants, ("alpha", "beta", "gamma", "c", "p")),
    "sparse-exp": (sparse_exp_constants, ("alpha", "beta", "gamma", "c", "r")),
    "weak": (weak_constants, ("alpha", "gamma", "M0", "M1", "R1")),
}


def theorem_constants(theorem: str, params) -> BoundReport:
    """Report of the named stationary theorem; params maps each of its
    parameter names (THEOREMS[theorem][1]) to a value, extra keys are ignored."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}, expected one of {tuple(THEOREMS)}")
    routine, names = THEOREMS[theorem]
    return routine(*(params[name] for name in names))


def onestep_linf_bound(
    alpha: float, alpha0: float, beta: float, h: float, n: int, usize: int | None = None
) -> BoundReport:
    """W_{2,linf}^2(pi_h, pi) <= h log(2n) (4 beta / (alpha - alpha0))^2 under a
    Hessian decomposition D + M with diagonal D >= alpha - alpha0... more
    precisely beta > alpha > alpha0 >= 0 and ||M||_{inf->inf} <= alpha0,
    for h <= 1/beta.  Marginals of size |u| carry the extra |u| factor."""
    inputs = dict(alpha=alpha, alpha0=alpha0, beta=beta, h=h, n=n, usize=usize)
    reason = ""
    if not (beta > alpha > alpha0 >= 0):
        reason = f"need beta > alpha > alpha0 >= 0, got beta={beta}, alpha={alpha}, alpha0={alpha0}"
    elif h <= 0:
        reason = f"h={h} must be > 0"
    elif h > 1.0 / beta:
        reason = f"h={h} exceeds 1/beta = {1.0 / beta}"
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    gap = alpha - alpha0
    full = h * math.log(2.0 * n) * (4.0 * beta / gap) ** 2 if gap > 0 else math.inf
    outputs = {"bound_value": full if usize is None else usize * full, "full_linf": full}
    if usize is not None:
        outputs["marginal"] = usize * full
    return BoundReport("onestep-linf", inputs, outputs, not reason, reason)


def dynamic_bound(
    theorem: str, params: dict, k: int, h: float, usize: int, C0: float
) -> BoundReport:
    """Per-step decay envelope H_{kh}(u) <= transient(k) |u| + C h |u|.

    theorem:  "sparse-dyn-poly", "sparse-dyn-exp" or "weak-dyn"; params maps
              the names of the stationary theorem without "-dyn" (THEOREMS)
              to values, and only those are read and echoed in inputs.
    Valid only for h <= h* of the matching stationary theorem.
    """
    if theorem not in DYNAMIC_THEOREMS:
        raise ValueError(f"unknown dynamic theorem {theorem!r}, expected one of {DYNAMIC_THEOREMS}")
    if k < 0:
        raise ValueError(f"step count k must be >= 0, got {k}")
    if usize < 1:
        raise ValueError(f"subset size must be >= 1, got {usize}")
    if C0 < 0:
        raise ValueError(f"C0 must be >= 0, got {C0}")
    stationary = theorem.replace("-dyn", "")
    params = {name: params[name] for name in THEOREMS[stationary][1]}
    inputs = dict(theorem=theorem, params=params, k=k, h=h, usize=usize, C0=C0)

    base = theorem_constants(stationary, params)
    if not base.valid:
        return BoundReport(theorem, inputs, dict(base.outputs), False, base.reason)

    outputs = dict(base.outputs)
    alpha = params["alpha"]
    kh = k * h
    if theorem == "sparse-dyn-poly":
        lam = 2.0 * params["gamma"] * params["beta"] ** 2 / alpha
        transient = (
            2.0 * params["c"] * C0 * math.exp(-alpha * kh / 2.0) * (lam * kh + 1.0) ** params["p"]
        )
    elif theorem == "sparse-dyn-exp":
        transient = params["c"] * C0 * math.exp(-base["tau"] * kh)
    else:
        transient = C0 * math.exp(-base["tau"] * kh)
    outputs["transient"] = transient * usize
    outputs["stationary"] = base["C"] * h * usize
    outputs["bound_value"] = outputs["transient"] + outputs["stationary"]

    valid, reason = True, ""
    if h <= 0:
        valid, reason = False, f"h={h} must be > 0"
    elif h > base["h_star"]:
        valid, reason = False, f"h={h} exceeds h* = {base['h_star']}"
    return BoundReport(theorem, inputs, outputs, valid, reason)


def continuous_time_bound(
    graph: InteractionGraph,
    u,
    t: float,
    eps: float,
    alpha: float,
    beta: float,
    gamma: float,
    H0=None,
    C0: float | None = None,
) -> BoundReport:
    """Continuous-time marginal bound

        H_t(u) <= exp(-2 alpha (1-eps) t) * E H_0(N_{Lambda(t/eps)}(u)),

    with Lambda Poisson of rate gamma beta^2 / (2 alpha).  The expectation
    is an exact finite series: neighbourhoods stabilize at index J, so the
    Poisson tail mass P(Lambda >= J) multiplies H_0(N_J(u)).

    H0 is a callable on subset bitmasks, monotone under set inclusion;
    when omitted, the size-linear default H0(w) = C0 |w| is used.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    reason = _check_positive(alpha=alpha, beta=beta, gamma=gamma)
    u_mask = as_mask(u, graph.n)
    if size(u_mask) == 0:
        raise ValueError("subset must be nonempty")
    if H0 is None:
        if C0 is None:
            raise ValueError("provide either H0 (callable on masks) or C0 for the linear default")
        H0 = lambda w: C0 * size(w)
    inputs = dict(
        u=u_mask, t=t, eps=eps, alpha=alpha, beta=beta, gamma=gamma, n=graph.n
    )
    if reason:
        return BoundReport("continuous-time", inputs, {}, False, reason)
    rate = gamma * beta**2 / (2.0 * alpha)
    mu = rate * t / eps
    chain = graph.chain(u_mask)
    J = len(chain) - 1
    values = np.array([H0(cm) for cm in chain])
    series = float(stopped_weights(mu, J) @ values)
    value = math.exp(-2.0 * alpha * (1.0 - eps) * t) * series
    outputs = {"bound_value": value, "poisson_rate": rate, "series": series, "stabilization": J}
    return BoundReport("continuous-time", inputs, outputs, True)


def poisson_moment_bound(lam: float, t: float, p: int) -> float:
    """E Lambda(t)^p <= (lam t + p)^p for a rate-lam Poisson process and
    integer p >= 1."""
    if lam < 0 or t < 0:
        raise ValueError("rate and time must be >= 0")
    if p < 1 or int(p) != p:
        raise ValueError(f"p must be an integer >= 1, got {p}")
    return (lam * t + p) ** p


def subgaussian_grad_linf_bound(beta: float, n: int) -> float:
    """<pi, |grad V|_inf^2> <= 4 beta log(2n) for beta-smooth strongly
    log-concave pi."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 4.0 * beta * math.log(2.0 * n)
