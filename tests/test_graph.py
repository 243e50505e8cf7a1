import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deloc.graph import (
    GrowthCertificate,
    InteractionGraph,
    build_graph,
    verify_growth,
)
from deloc.potential import gaussian_potential, mean_field, tridiagonal_precision
from deloc.subsets import indices_from, mask_from

from conftest import bfs_neighborhood, neighborhood_mask


def path_graph(n):
    return InteractionGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_from_edges_and_adjacency():
    g = path_graph(4)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert indices_from(g.adj_masks[1]) == (0, 2)
    assert indices_from(g.adj_masks[3]) == (2,)


def test_rejects_self_loops():
    with pytest.raises(ValueError):
        InteractionGraph.from_edges(3, [(0, 0)])


def test_build_graph_from_potential_edges_match_offdiagonal():
    A = tridiagonal_precision(5)
    g = build_graph(gaussian_potential(A))
    assert g.edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    gm = build_graph(mean_field(4))
    assert gm.edges() == list(itertools.combinations(range(4), 2))


def test_neighborhood_against_bfs_reference():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]
    g = InteractionGraph.from_edges(6, edges)
    for u in [(0,), (2,), (0, 5), (4,)]:
        for k in range(4):
            got = frozenset(indices_from(neighborhood_mask(g, u, k)))
            assert got == bfs_neighborhood(edges, 6, u, k)


def test_neighborhood_nested_and_monotone():
    g = path_graph(7)
    prev = None
    for k in range(7):
        cur = set(indices_from(neighborhood_mask(g, (3,), k)))
        if prev is not None:
            assert prev <= cur
        prev = cur


def test_stabilization_index_path():
    g = path_graph(5)
    # from an endpoint the frontier needs n-1 hops
    assert g.stabilization_index(mask_from((0,))) == 4
    # from the middle, 2 hops reach both ends
    assert g.stabilization_index(mask_from((2,))) == 2
    after = neighborhood_mask(g, mask_from((0,)), 4)
    assert indices_from(after) == tuple(range(5))


def test_stabilization_empty_set_rejected():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.stabilization_index(0)


def test_growth_certificate_path_polynomial():
    g = path_graph(10)
    # |N_k(i)| <= 1 + 2k on a path: certificate (c=3, p=1) holds with room
    report = verify_growth(g, GrowthCertificate("polynomial", 3.0, 1.0))
    assert report.passed
    assert report.first_violation is None
    assert report.checked_up_to >= 0


def test_growth_certificate_violation_detected():
    # the claim is |N_{k+1}(i)| <= c(1 + k^p); the star center has
    # |N_1(0)| = 8 against c(1 + 0) = 1
    g = InteractionGraph.from_edges(8, [(0, i) for i in range(1, 8)])
    report = verify_growth(g, GrowthCertificate("polynomial", 1.0, 1.0))
    assert not report.passed
    vertex, k = report.first_violation
    assert vertex == 0 and k == 0


def test_growth_exponential_mode():
    g = path_graph(6)
    # |N_{k+1}(i)| <= 3 + 2k <= 3 * 3^k on a path
    report = verify_growth(g, GrowthCertificate("exponential", 3.0, 3.0))
    assert report.passed
    tight = verify_growth(g, GrowthCertificate("exponential", 1.0, 1.0))
    assert not tight.passed  # |N_1| = 3 > 1 already at k = 0


def test_certificate_validation():
    with pytest.raises(ValueError):
        GrowthCertificate("polynomial", 0.5, 1.0)  # c >= 1
    with pytest.raises(ValueError):
        GrowthCertificate("exponential", 1.0, 0.9)  # r >= 1
    with pytest.raises(ValueError):
        GrowthCertificate("quadratic", 1.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_neighborhoods_match_bfs(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    g = InteractionGraph.from_edges(n, edges)
    u = (int(rng.integers(n)),)
    for k in range(n):
        got = frozenset(indices_from(neighborhood_mask(g, u, k)))
        assert got == bfs_neighborhood(edges, n, u, k)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_stabilization_is_fixed_point(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25]
    g = InteractionGraph.from_edges(n, edges)
    u = mask_from((int(rng.integers(n)),))
    J = g.stabilization_index(u)
    assert neighborhood_mask(g, u, J) == neighborhood_mask(g, u, J + 1)
    if J > 0:
        assert neighborhood_mask(g, u, J - 1) != neighborhood_mask(g, u, J)


def test_chain_is_cached_tuple_of_nested_masks():
    g = InteractionGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    chain = g.chain((0,))
    assert chain == (0b001, 0b011, 0b111)
    assert g.chain(0b001) is chain
    assert g.chain((3,)) == (0b01000, 0b11000)
    assert g.chain(()) == (0,)
    with pytest.raises(ValueError):
        g.chain((5,))


@pytest.mark.parametrize("seed", range(6))
def test_chain_matches_bfs_up_to_stabilization(seed):
    rng = np.random.default_rng(seed)
    n = 24
    # two components plus isolated vertices: edges only inside [0, 10) and [10, 20)
    edges = [
        (i, j)
        for lo, hi in ((0, 10), (10, 20))
        for i in range(lo, hi)
        for j in range(i + 1, hi)
        if rng.random() < 0.2
    ]
    g = InteractionGraph.from_edges(n, edges)
    three = tuple(int(i) for i in rng.choice(n, 3, replace=False))
    for u in [(int(rng.integers(n)),), three, (3, 15, 22)]:
        chain = g.chain(u)
        J = len(chain) - 1
        for k in range(J + 2):
            assert frozenset(indices_from(chain[min(k, J)])) == bfs_neighborhood(edges, n, u, k)
        assert all(a != b for a, b in zip(chain, chain[1:]))
