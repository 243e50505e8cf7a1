"""Exact marginal KL of the LMC stationary law against the analytic bound
machinery on a path Gaussian: theorem constant C h |u|, the dynamic decay
envelope, and the certified operator-iteration curve, all on one instance.

Usage: python scripts/bias_vs_bounds.py [--n 8] [--k 200]
"""

import argparse

import numpy as np

from deloc.bounds import dynamic_bound, sparse_poly_constants
from deloc.graph import GrowthCertificate, build_graph, verify_growth
from deloc.hierarchy import SparseParams, SubsetFunction, certified_entropy_curve
from deloc.oracle import GaussianTarget, kl_gaussian, lmc_transient_law, marginal
from deloc.potential import gaussian_potential, tridiagonal_precision
from deloc.subsets import size


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--k", type=int, default=200)
    ap.add_argument("--c", type=float, default=3.0)
    ap.add_argument("--cov0-scale", type=float, default=2.0)
    args = ap.parse_args()

    A = tridiagonal_precision(args.n)
    tgt = GaussianTarget(A)
    pot = gaussian_potential(A)
    graph = build_graph(pot)
    cert = verify_growth(graph, GrowthCertificate("polynomial", args.c, 1.0))
    print(f"growth certificate (c={args.c}, p=1): passed={cert.passed}")

    alpha, beta = tgt.alpha, tgt.beta
    consts = sparse_poly_constants(alpha, beta, 1.0, args.c, 1.0)
    C, h_star = consts["C"], consts["h_star"]
    h = h_star / 2.0
    print(f"alpha={alpha:.4f} beta={beta:.4f}  C={C:.1f}  h*={h_star:.5f}  using h={h:.5f}")

    params = SparseParams(alpha=alpha, beta=beta, gamma=1.0, c=args.c, p=1.0)
    law = tgt.law()
    law0 = type(law)(np.zeros(args.n), args.cov0_scale * law.cov)
    u = (0,)

    # C0 so that H0(w) = C0 |w| dominates the initial marginal entropies
    C0 = max(
        kl_gaussian(marginal(law0, (i,)), marginal(law, (i,))) for i in range(args.n)
    ) * args.cov0_scale
    H0 = SubsetFunction(lambda m: C0 * size(m), "c0-size")
    certified = certified_entropy_curve("sparse", params, graph, H0, h, args.k, u)

    print(f"\n{'k':>5} {'exact KL':>12} {'certified':>12} {'dynamic':>12}")
    for k in sorted({k for k in (0, 1, 2, 5, 10, 20, 50, 100, args.k) if k <= args.k}):
        law_k = lmc_transient_law(A, h, k, law0)
        exact = kl_gaussian(marginal(law_k, u), marginal(law, u))
        dyn = dynamic_bound(
            "sparse-dyn-poly",
            {"alpha": alpha, "beta": beta, "gamma": 1.0, "c": args.c, "p": 1.0},
            k,
            h,
            len(u),
            C0,
        )
        print(f"{k:>5} {exact:>12.4e} {certified[k]:>12.4e} {dyn['bound_value']:>12.4e}")

    print(f"\nstationary theorem bound C h |u| = {C * h * len(u):.4e}")


if __name__ == "__main__":
    main()
