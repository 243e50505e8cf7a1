"""Closed-form bound evaluation: stationary-bias constants, dynamic decay
envelopes, the continuous-time Poisson-series bound, and the one-step
l_inf contraction bound.  The continuous-time series over ball sizes takes
the weights of the sparse semigroup (_poisson.stopped_weights).

Every scalar input is read by a rule of _json, which NaN, infinities and
bools break.  A theorem's parameters, h and a cross-parameter rule (alpha <=
beta, eta > 0, h <= h*, h <= 1/beta) are reported as valid=False with the
rule's message, and so is a theorem constant that overflows, so harness
sweeps walk through invalid regions; a count, a time, eps, C0 or a
dimension out of its domain raises that message instead.

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

from ._json import _check, _flaw, _ordered
from ._poisson import stopped_weights
from .graph import InteractionGraph

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


_SPARSE_RULES = dict(alpha="positive", beta="positive", gamma="positive", c="at-least-1")


def _above_h_star(h: float, h_star: float) -> str:
    """The reason h breaks h <= h*, with 1e-12 relative slack; "" if it keeps it."""
    return f"h={h} exceeds h* = {h_star}" if h > h_star * (1.0 + 1e-12) else ""


def _at(inputs: dict) -> str:
    return ", ".join(f"{k}={v!r}" for k, v in inputs.items())


def _report(theorem: str, inputs: dict, reason: str, formula) -> BoundReport:
    """The report of a theorem: invalid with reason and no outputs when reason is
    given, else (outputs, reason) = formula().  A formula that overflows, or an
    output that is not None and not finite, makes it invalid too, with no outputs."""
    outputs = {}
    if not reason:
        try:
            outputs, reason = formula()
            flaw = _flaw(outputs, **{k: "number" for k, v in outputs.items() if v is not None})
        except (OverflowError, ZeroDivisionError):
            flaw = "a constant overflows"
        if flaw:
            outputs, reason = {}, reason or f"{flaw} at {_at(inputs)}"
    return BoundReport(theorem, inputs, outputs, not reason, reason)


def sparse_poly_constants(
    alpha: float, beta: float, gamma: float, c: float, p: float
) -> BoundReport:
    inputs = dict(alpha=alpha, beta=beta, gamma=gamma, c=c, p=p)

    def constants():
        C = 40.0 * c**2 * p**p * (beta**2 / alpha) * (8.0 * gamma * beta**2 / alpha**2 + 1.0) ** p
        return {"C": C, "h_star": alpha / (4.0 * c * beta**2)}, ""

    reason = _flaw(inputs, **_SPARSE_RULES, p="at-least-1") or _ordered(alpha, beta)
    return _report("sparse-poly", inputs, reason, constants)


def sparse_exp_constants(
    alpha: float, beta: float, gamma: float, c: float, r: float
) -> BoundReport:
    inputs = dict(alpha=alpha, beta=beta, gamma=gamma, c=c, r=r)

    def constants():
        r_crit = 1.0 + alpha**2 / (gamma * beta**2)
        eta = 1.0 - (gamma * beta**2 / alpha**2) * (r - 1.0)
        if eta <= 0.0:
            return {"eta": eta, "r_critical": r_crit}, (
                f"subcritical growth required: r={r} >= 1 + alpha^2/(gamma beta^2) = {r_crit}"
            )
        C = (10.0 * beta**2 * c**2 / (alpha * eta**3)) * math.exp(gamma * (r - 1.0) / c)
        h_star = alpha * eta**1.5 / (5.0 * beta**2 * c)
        tau = alpha * eta**2 / (2.0 * (2.0 - eta))
        return {"C": C, "h_star": h_star, "eta": eta, "tau": tau, "r_critical": r_crit}, ""

    reason = _flaw(inputs, **_SPARSE_RULES, r="at-least-1") or _ordered(alpha, beta)
    return _report("sparse-exp", inputs, reason, constants)


def weak_constants(alpha: float, gamma: float, M0: float, M1: float, R1: float) -> BoundReport:
    inputs = dict(alpha=alpha, gamma=gamma, M0=M0, M1=M1, R1=R1)

    def constants():
        eta = 1.0 - gamma * M0 * R1 / alpha**2
        if eta <= 0.0:
            return {"eta": eta}, (
                f"weak-interaction condition fails: gamma M0 R1 = {gamma * M0 * R1} "
                f">= alpha^2 = {alpha**2}"
            )
        C = (10.0 * M0 * M1 / (alpha * eta**3)) * math.exp(gamma)
        h_star = alpha * eta**1.5 / (5.0 * M0 * M1)
        tau = alpha * eta**2 / (2.0 * (2.0 - eta))
        return {"C": C, "h_star": h_star, "eta": eta, "tau": tau}, ""

    reason = _flaw(inputs, alpha="positive", gamma="positive", M0="positive", M1="positive",
                   R1="non-negative")
    return _report("weak", inputs, reason, constants)


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
    alpha: float, alpha0: float, beta: float, h: float, n: int, usize: int = 1
) -> BoundReport:
    """W_{2,linf}^2(pi_h, pi) <= h log(2n) (4 beta / (alpha - alpha0))^2 under a
    Hessian decomposition D + M with diagonal D >= alpha - alpha0... more
    precisely beta > alpha > alpha0 >= 0 and ||M||_{inf->inf} <= alpha0,
    for h <= 1/beta.  Marginals of size |u| = usize carry the extra |u| factor."""
    _check(n, "positive-integer", "n")
    _check(usize, "positive-integer", "usize")
    inputs = dict(alpha=alpha, alpha0=alpha0, beta=beta, h=h, n=n, usize=usize)
    reason = _flaw(inputs, alpha="positive", alpha0="non-negative", beta="positive", h="positive")
    if not reason and not beta > alpha > alpha0:
        reason = f"need beta > alpha > alpha0, got beta={beta}, alpha={alpha}, alpha0={alpha0}"
    elif not reason and h > 1.0 / beta:
        reason = f"h={h} exceeds 1/beta = {1.0 / beta}"

    def bound():
        # no bound without a gap alpha - alpha0 > 0, where the report is invalid
        gap = alpha > alpha0
        full = h * math.log(2.0 * n) * (4.0 * beta / (alpha - alpha0)) ** 2 if gap else None
        marginal = None if full is None else usize * full
        return {"bound_value": marginal, "full_linf": full, "marginal": marginal}, reason

    return _report("onestep-linf", inputs, "", bound)


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
    _check(k, "count", "k")
    _check(usize, "positive-integer", "usize")
    _check(C0, "non-negative", "C0")
    stationary = theorem.replace("-dyn", "")
    params = {name: params[name] for name in THEOREMS[stationary][1]}
    inputs = dict(theorem=theorem, params=params, k=k, h=h, usize=usize, C0=C0)

    base = theorem_constants(stationary, params)
    reason = base.reason or _flaw(inputs, h="positive")
    if reason:  # no envelope outside the theorem's domain or for h <= 0
        return BoundReport(theorem, inputs, dict(base.outputs), False, reason)

    def envelope():
        outputs = dict(base.outputs)
        alpha = params["alpha"]
        kh = k * h
        if theorem == "sparse-dyn-poly":
            lam = 2.0 * params["gamma"] * params["beta"] ** 2 / alpha
            growth = (lam * kh + 1.0) ** params["p"]
            transient = 2.0 * params["c"] * C0 * math.exp(-alpha * kh / 2.0) * growth
        elif theorem == "sparse-dyn-exp":
            transient = params["c"] * C0 * math.exp(-base["tau"] * kh)
        else:
            transient = C0 * math.exp(-base["tau"] * kh)
        outputs["transient"] = transient * usize
        outputs["stationary"] = base["C"] * h * usize
        outputs["bound_value"] = outputs["transient"] + outputs["stationary"]
        return outputs, _above_h_star(h, base["h_star"])

    return _report(theorem, inputs, "", envelope)


def continuous_time_bound(
    graph: InteractionGraph,
    u,
    t: float,
    eps: float,
    alpha: float,
    beta: float,
    gamma: float,
    C0: float,
) -> BoundReport:
    """Continuous-time marginal bound

        H_t(u) <= exp(-2 alpha (1-eps) t) * E H_0(N_{Lambda(t/eps)}(u)),

    with Lambda Poisson of rate gamma beta^2 / (2 alpha) and H_0(w) = C0 |w|.  The
    expectation is an exact finite series: neighbourhoods stabilize at index J, so
    the Poisson tail mass P(Lambda >= J) multiplies H_0(N_J(u)).
    """
    _check(eps, "fraction", "eps")
    _check(t, "non-negative", "t")
    return _continuous_time(graph.n, *_balls(graph, u), t, eps, alpha, beta, gamma, C0)


def _balls(graph: InteractionGraph, u) -> tuple[list[int], np.ndarray]:
    """(u's indices, ascending, and |N_0(u)| .. |N_J(u)|), reading u once by the subset rule."""
    order, counts = graph._rings(u)
    return order[: counts[0]].tolist(), counts.cumsum()


def _continuous_time(n: int, u: list[int], sizes: np.ndarray, t: float, eps: float,
                     alpha: float, beta: float, gamma: float, C0: float) -> BoundReport:
    """continuous_time_bound over u's ball sizes (_balls), at a checked t and eps."""
    _check(C0, "non-negative", "C0")
    inputs = dict(u=u, t=t, eps=eps, alpha=alpha, beta=beta, gamma=gamma, n=n)
    reason = _flaw(inputs, alpha="positive", beta="positive", gamma="positive")
    if reason:
        return BoundReport("continuous-time", inputs, {}, False, reason)
    try:
        rate = gamma * beta**2 / (2.0 * alpha)
        with np.errstate(over="ignore"):  # an infinite series is reported below
            series = float(stopped_weights(rate * t / eps, len(sizes) - 1) @ (C0 * sizes))
        value = math.exp(-2.0 * alpha * (1.0 - eps) * t) * series
    except OverflowError:
        rate = value = math.inf
    if not (math.isfinite(value) and math.isfinite(rate)):  # a finite value has a finite series
        at = _at({**inputs, "C0": C0})
        return BoundReport("continuous-time", inputs, {}, False, f"the bound overflows at {at}")
    outputs = {"bound_value": value, "poisson_rate": rate, "series": series,
               "stabilization": len(sizes) - 1}
    return BoundReport("continuous-time", inputs, outputs, True)


def poisson_moment_bound(lam: float, t: float, p: int) -> float:
    """E Lambda(t)^p <= (lam t + p)^p for a rate-lam Poisson process and
    integer p >= 1."""
    _check(lam, "non-negative", "rate")
    _check(t, "non-negative", "t")
    _check(p, "positive-integer", "p")
    return (lam * t + p) ** p


def subgaussian_grad_linf_bound(beta: float, n: int) -> float:
    """<pi, |grad V|_inf^2> <= 4 beta log(2n) for beta-smooth strongly
    log-concave pi."""
    _check(beta, "positive", "beta")
    _check(n, "positive-integer", "n")
    return 4.0 * beta * math.log(2.0 * n)
