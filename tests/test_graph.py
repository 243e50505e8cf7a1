import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import deloc

from deloc.graph import (
    GrowthCertificate,
    InteractionGraph,
    _least_c,
    build_graph,
    verify_growth,
)
from deloc.potential import gaussian_potential, grid_pairwise, mean_field
from deloc.subsets import indices_from, mask_from

from conftest import (
    bfs_neighborhood,
    frontier_chain,
    frontier_growth,
    neighborhood_mask,
    tridiagonal_precision,
)


def path_graph(n):
    return InteractionGraph(n, [(i, i + 1) for i in range(n - 1)])


def test_edges_and_adjacency():
    g = InteractionGraph(4, [(1, 2), [3, 2], (0, 1), (2, 1)])  # either order, repeats merge
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert indices_from(g.chain((1,))[1]) == (0, 1, 2)
    assert indices_from(g.chain((3,))[1]) == (2, 3)


def test_indices_from_reads_every_set_bit_lowest_first():
    rng = np.random.default_rng(7)
    for bits in (1, 2, 63, 64, 65, 1000, 3000):
        for density in (0.01, 0.5, 0.99):
            mask = int("".join("1" if b else "0" for b in rng.random(bits) < density) or "0", 2)
            want = tuple(i for i, c in enumerate(reversed(bin(mask)[2:])) if c == "1")
            assert indices_from(mask) == want
    assert indices_from(0) == ()
    assert indices_from(1 << 2999) == (2999,)


def test_rejects_self_loops():
    # a self-loop repeats an index, which the subset rule refuses
    with pytest.raises(ValueError, match=r"edge must be a list of integers, distinct and non-nega"
                                         r"tive, got \(0, 0\)"):
        InteractionGraph(3, [(0, 0)])


def test_build_graph_from_potential_edges_match_offdiagonal():
    A = tridiagonal_precision(5)
    g = build_graph(gaussian_potential(A))
    assert g.edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    gm = build_graph(mean_field(4))
    assert gm.edges() == list(itertools.combinations(range(4), 2))


def test_neighborhood_against_bfs_reference():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]
    g = InteractionGraph(6, edges)
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
    assert len(g.chain(mask_from((0,)))) - 1 == 4
    # from the middle, 2 hops reach both ends
    assert len(g.chain(mask_from((2,)))) - 1 == 2
    after = neighborhood_mask(g, mask_from((0,)), 4)
    assert indices_from(after) == tuple(range(5))


def test_chain_of_the_empty_set_rejected():
    g = path_graph(3)
    for empty in (0, ()):
        with pytest.raises(ValueError, match="subset must be nonempty"):
            g.chain(empty)


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
    g = InteractionGraph(8, [(0, i) for i in range(1, 8)])
    report = verify_growth(g, GrowthCertificate("polynomial", 1.0, 1.0))
    assert not report.passed
    vertex, k = report.first_violation
    assert vertex == 0 and k == 0


def test_a_violation_reports_the_range_walked_up_to_its_vertex():
    """Vertex 1 reaches |N_2(1)| = |{1, 4, 5, 6, 7}| = 5 > 2 (1 + 1) and stabilizes at
    J = 3; vertex 2, not walked, would have J = 4."""
    g = InteractionGraph(9, [(1, 4), (2, 5), (2, 6), (3, 7), (4, 5), (4, 6), (4, 7)])
    report = verify_growth(g, GrowthCertificate("polynomial", 2.0, 1.0))
    assert (report.passed, report.first_violation, report.checked_up_to) == (False, (1, 1), 3)
    assert len(g.chain(1 << 2)) - 1 == 4


def test_growth_exponential_mode():
    g = path_graph(6)
    # |N_{k+1}(i)| <= 3 + 2k <= 3 * 3^k on a path
    report = verify_growth(g, GrowthCertificate("exponential", 3.0, 3.0))
    assert report.passed
    tight = verify_growth(g, GrowthCertificate("exponential", 1.0, 1.0))
    assert not tight.passed  # |N_1| = 3 > 1 already at k = 0


def binary_tree(n):
    """The complete binary tree on n vertices, vertex i the parent of 2i + 1 and 2i + 2."""
    return InteractionGraph(n, [(i, (i - 1) // 2) for i in range(1, n)])


P_SHORT = 1.0 + 6.0 / 97.0


@pytest.mark.parametrize("graph,mode,exponent,c", [
    (path_graph(1), "polynomial", 1.0, 1.0),
    (path_graph(2), "polynomial", 1.0, 2.0),
    (path_graph(3), "polynomial", 1.0, 3.0),
    (path_graph(8), "polynomial", 1.0, 3.0),
    (path_graph(257), "polynomial", 1.0, 3.0),
    (build_graph(grid_pairwise(8, 8)), "polynomial", 2.0, 6.5),  # |N_2| = 13 at k = 1
    (build_graph(mean_field(4)), "polynomial", 1.0, 4.0),
    (build_graph(mean_field(8)), "polynomial", 1.0, 8.0),
    (build_graph(mean_field(6)), "exponential", 1.05, 6.0),
    (binary_tree(63), "polynomial", 1.0, 12.6),  # |N_5(root)| = 63 at k = 4
    # 63 / vertex_bound(4) rounds to a c whose product with it falls short of 63
    (binary_tree(63), "polynomial", P_SHORT, math.nextafter(63.0 / (1.0 + 4.0**P_SHORT), 64.0)),
], ids=["path-1", "path-2", "path-3", "path-8", "path-257", "grid-8x8", "mean-field-4",
        "mean-field-8", "mean-field-6-exp", "tree-63", "tree-63-ulp"])
def test_the_least_c_is_the_largest_ratio_and_holds_exactly(graph, mode, exponent, c):
    assert _least_c(graph, mode, exponent) == c
    assert verify_growth(graph, GrowthCertificate(mode, c, exponent)).passed
    at_c, below = GrowthCertificate(mode, c, exponent), GrowthCertificate(mode, 1.0, exponent)
    short = False
    for i in range(graph.n):
        chain = graph.chain(1 << i)
        J = len(chain) - 1
        for k in range(J + 1):
            got = chain[min(k + 1, J)].bit_count()
            assert at_c.vertex_bound(k) >= got  # no slack
            short |= math.nextafter(c, 0.0) * below.vertex_bound(k) < got
    assert short  # and no smaller c holds


def test_a_bound_that_overflows_is_infinite():
    """k^p or r^k beyond the largest float bounds every size; the least c ignores it."""
    assert GrowthCertificate("polynomial", 1.0, 1e300).vertex_bound(2) == math.inf
    assert GrowthCertificate("exponential", 1.0, 1e300).vertex_bound(2) == math.inf
    g = path_graph(6)
    assert verify_growth(g, GrowthCertificate("polynomial", 3.0, 1e300)).passed
    assert _least_c(g, "polynomial", 1e300) == 3.0
    assert _least_c(g, "exponential", 1e300) == 3.0


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
    g = InteractionGraph(n, edges)
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
    g = InteractionGraph(n, edges)
    u = mask_from((int(rng.integers(n)),))
    J = len(g.chain(u)) - 1
    assert neighborhood_mask(g, u, J) == neighborhood_mask(g, u, J + 1)
    if J > 0:
        assert neighborhood_mask(g, u, J - 1) != neighborhood_mask(g, u, J)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=14),
    density=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mode=st.sampled_from(["polynomial", "exponential"]),
    exponent=st.floats(min_value=1.0, max_value=3.0),
)
def test_property_the_least_c_passes_verify_growth(n, density, seed, mode, exponent):
    """The experiments take the certificate at the least c as holding without walking
    it again: verify_growth confirms it on random graphs in both modes."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    g = InteractionGraph(n, edges)
    assert verify_growth(g, GrowthCertificate(mode, _least_c(g, mode, exponent), exponent)).passed


def test_chain_is_tuple_of_nested_masks():
    g = InteractionGraph(5, [(0, 1), (1, 2), (3, 4)])
    chain = g.chain((0,))
    assert chain == (0b001, 0b011, 0b111)
    assert g.chain((3,)) == (0b01000, 0b11000)
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
    g = InteractionGraph(n, edges)
    three = tuple(int(i) for i in rng.choice(n, 3, replace=False))
    for u in [(int(rng.integers(n)),), three, (3, 15, 22)]:
        chain = g.chain(u)
        J = len(chain) - 1
        for k in range(J + 2):
            assert frozenset(indices_from(chain[min(k, J)])) == bfs_neighborhood(edges, n, u, k)
        assert all(a != b for a, b in zip(chain, chain[1:]))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    cut=st.integers(min_value=0, max_value=60),
    density=st.floats(min_value=0.0, max_value=0.2),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mode=st.sampled_from(["polynomial", "exponential"]),
    exponent=st.floats(min_value=1.0, max_value=2.0),
    c=st.floats(min_value=1.0, max_value=4.0),
)
def test_property_hop_distances_match_the_frontier_walk(n, cut, density, seed, mode,
                                                         exponent, c):
    """Chains, growth reports and the least c read from hop distances equal those of the
    bitmask frontier walk.  No edge joins a vertex below cut to one at or above it, so
    the graph is disconnected whenever 0 < cut < n."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if (i < cut) == (j < cut) and rng.random() < density]
    g = InteractionGraph(n, edges)
    many = tuple(int(i) for i in rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
    for u in [(int(rng.integers(n)),), many]:
        assert g.chain(u) == frontier_chain(edges, n, u)
    _, least = frontier_growth(edges, n, GrowthCertificate(mode, 1.0, exponent))
    assert _least_c(g, mode, exponent) == least
    for at in (1.0, c, least):
        cert = GrowthCertificate(mode, at, exponent)
        report = verify_growth(g, cert)
        want, _ = frontier_growth(edges, n, cert)
        assert (report.passed, report.first_violation, report.checked_up_to) == want


def test_the_growth_walk_spans_blocks_of_vertices():
    """A 604-vertex graph is walked in blocks of 434 vertices.  Four leaves on vertex 500
    of a 600-vertex path put the first violation of c = 3, p = 1 at (497, 3), in the
    second block, and the walk reports the range of every vertex up to it."""
    edges = [(i, i + 1) for i in range(599)] + [(500, leaf) for leaf in range(600, 604)]
    g = InteractionGraph(604, edges)
    for c in (3.0, 7.0):
        cert = GrowthCertificate("polynomial", c, 1.0)
        report = verify_growth(g, cert)
        want, _ = frontier_growth(edges, 604, cert)
        assert (report.passed, report.first_violation, report.checked_up_to) == want
    assert verify_growth(g, GrowthCertificate("polynomial", 3.0, 1.0)).first_violation == (497, 3)
    _, least = frontier_growth(edges, 604, GrowthCertificate("polynomial", 1.0, 1.0))
    assert _least_c(g, "polynomial", 1.0) == least


def test_the_growth_walk_stores_nothing_on_the_graph():
    g = path_graph(40)
    before = dict(vars(g))
    verify_growth(g, GrowthCertificate("polynomial", 3.0, 1.0))
    _least_c(g, "exponential", 1.5)
    g.chain((3,))
    assert vars(g).keys() == before.keys() == {"n", "_adj"}
    assert all(vars(g)[key] is value for key, value in before.items())


def _python(code: str) -> str:
    """The stdout of code run by a fresh interpreter that imports this deloc."""
    src = str(Path(deloc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return proc.stdout.strip()


def test_import_leaves_csgraph_unloaded():
    """scipy.sparse.csgraph loads on the first hop distance, not with deloc."""
    code = ("import sys, deloc; print('scipy.sparse.csgraph' in sys.modules); "
            "deloc.InteractionGraph(3, [(0, 1)]).chain((0,)); "
            "print('scipy.sparse.csgraph' in sys.modules)")
    assert _python(code).split() == ["False", "True"]


def test_a_65536_vertex_path_graph_stays_small():
    """The CSR adjacency of a 65536-vertex path and its edge list raise the peak resident
    memory by about 20 MB; one bitmask per vertex raised it by 285 MB (2-core x86 box,
    numpy 2.4, scipy 1.17)."""
    code = (
        "import resource, deloc\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "base = peak()\n"
        "g = deloc.InteractionGraph(65536, [(i, i + 1) for i in range(65535)])\n"
        "print(len(g.edges()), peak() - base)"
    )
    edges, grown = _python(code).split()
    assert int(edges) == 65535
    assert float(grown) < 64.0
