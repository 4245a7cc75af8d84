import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from homolink import ricci
from homolink.graphs import Graph
from homolink.ricci import (
    DiscreteMeasure,
    ollivier_ricci,
    ricci_edge_weights,
    wasserstein1,
    weights_from_curvature,
)
from oracles import lazy_walk_measure, random_graph, transport_min_cost


def measure(mass):
    return DiscreteMeasure(dict(mass))


def grid_cost(src, dst, C):
    return {(x, y): float(C[i, j]) for i, x in enumerate(src) for j, y in enumerate(dst)}


def test_measure_validation():
    with pytest.raises(ValueError):
        measure({0: 0.7, 1: 0.7})
    with pytest.raises(ValueError):
        measure({0: -0.1, 1: 1.1})


def test_wasserstein_identical_measures_is_zero():
    mu = measure({0: 0.25, 1: 0.75})
    cost = {(a, b): float(abs(a - b)) for a in (0, 1) for b in (0, 1)}
    assert wasserstein1(mu, mu, cost) <= 1e-12


def test_wasserstein_point_masses():
    mu = measure({3: 1.0})
    nu = measure({7: 1.0})
    assert wasserstein1(mu, nu, {(3, 7): 2.5}) == pytest.approx(2.5)


def test_wasserstein_mass_mismatch_rejected():
    # masses individually valid but over disjoint constraints that cannot match
    mu = measure({0: 1.0})
    bad = DiscreteMeasure.__new__(DiscreteMeasure)
    bad.mass = {1: 0.5}  # bypass validation to simulate a mismatched input
    with pytest.raises(ValueError):
        wasserstein1(mu, bad, {(0, 1): 1.0})


@pytest.mark.parametrize("seed", range(20))
def test_wasserstein_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 5))
    c = int(rng.integers(1, 5))
    a = rng.dirichlet(np.ones(r))
    b = rng.dirichlet(np.ones(c))
    C = rng.uniform(0, 3, size=(r, c))
    mu = measure({i: float(a[i]) for i in range(r)})
    nu = measure({100 + j: float(b[j]) for j in range(c)})
    got = wasserstein1(mu, nu, grid_cost(mu.support, nu.support, C))
    want = transport_min_cost(a, b, C)
    assert got == pytest.approx(want, abs=1e-8)


def test_wasserstein_symmetry_and_scaling():
    rng = np.random.default_rng(5)
    a = rng.dirichlet(np.ones(3))
    b = rng.dirichlet(np.ones(3))
    C = rng.uniform(0.1, 2.0, size=(3, 3))
    C = (C + C.T) / 2
    np.fill_diagonal(C, 0.0)
    mu = measure({i: float(a[i]) for i in range(3)})
    nu = measure({i: float(b[i]) for i in range(3)})
    cost = grid_cost(mu.support, nu.support, C)
    w = wasserstein1(mu, nu, cost)
    assert wasserstein1(nu, mu, cost) == pytest.approx(w, abs=1e-10)
    scaled = grid_cost(mu.support, nu.support, 3.5 * C)
    assert wasserstein1(mu, nu, scaled) == pytest.approx(3.5 * w, abs=1e-8)
    # distinct measures under a metric cost must transport at positive cost
    assert w > 1e-9


def test_lazy_walk_measure_shape():
    g = Graph(3, [(0, 1), (0, 2)])
    m = lazy_walk_measure(g, 0, alpha=0.5)
    assert m.mass == {0: 0.5, 1: 0.25, 2: 0.25}


def test_single_edge_curvature_is_one():
    # each walk puts half its mass on either endpoint, so the measures agree
    g = Graph(2, [(0, 1)])
    kappa = ollivier_ricci(g, alpha=0.5)
    assert kappa[(0, 1)] == pytest.approx(1.0, abs=1e-9)
    weights = ricci_edge_weights(g, alpha=0.5)
    assert weights[(0, 1)] == pytest.approx(2.0, abs=1e-9)


def test_curvature_never_exceeds_one():
    g = random_graph(np.random.default_rng(3), 12, 0.3)
    g = Graph(g.n, g.edges)
    got = ollivier_ricci(g, alpha=0.5)
    assert all(k <= 1.0 + 1e-12 for k in got.values())


def test_curvature_symmetric_in_edge_orientation():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    mu = {z: lazy_walk_measure(g, z, 0.5) for z in range(3)}
    cost = {(a, b): (0.0 if a == b else 1.0) for a in range(3) for b in range(3)}
    for x, y in g.edges:
        assert wasserstein1(mu[x], mu[y], cost) == pytest.approx(
            wasserstein1(mu[y], mu[x], cost), abs=1e-10
        )


def test_triangle_curvature_matches_enumeration():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    kappa = ollivier_ricci(g, alpha=0.5)
    # measures live on all three nodes; hop costs are 1 off-diagonal
    C = np.ones((3, 3)) - np.eye(3)
    for x, y in g.edges:
        mu = lazy_walk_measure(g, x, 0.5)
        nu = lazy_walk_measure(g, y, 0.5)
        a = mu.masses(list(range(3)))
        b = nu.masses(list(range(3)))
        want = 1.0 - transport_min_cost(a, b, C)
        assert kappa[(x, y)] == pytest.approx(want, abs=1e-8)


def test_weights_clamped_below_zero():
    weights, clamped = weights_from_curvature({(0, 1): -1.2, (1, 2): 0.0})
    assert weights[(0, 1)] == pytest.approx(1e-6)
    assert weights[(1, 2)] == pytest.approx(1.0)
    assert clamped == 1


def test_ricci_edge_weights_positive_on_random_graph():
    g = random_graph(np.random.default_rng(17), 14, 0.25)
    weights = ricci_edge_weights(g, alpha=0.5)
    assert set(weights) == set(g.edges)
    assert all(w > 0 for w in weights.values())


def test_alpha_out_of_range():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        ollivier_ricci(g, alpha=1.0)


# --------------------------------------------------------------------------
# Closed forms and the per-edge oracle for the batched transport


@st.composite
def trees(draw):
    n = draw(st.integers(2, 14))
    return Graph(n, [(draw(st.integers(0, i - 1)), i) for i in range(1, n)])


@st.composite
def small_graphs(draw):
    """Graphs of up to 12 nodes with at least one edge; leaves, isolated nodes
    and several components all occur."""
    n = draw(st.integers(2, 12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k] or [(0, 1)]
    return Graph(n, edges)


def hop_matrix(g: Graph) -> np.ndarray:
    rows, cols = zip(*g.edges)
    A = csr_matrix((np.ones(g.num_edges), (rows, cols)), shape=(g.n, g.n))
    return shortest_path(A, unweighted=True, directed=False)


@settings(deadline=None, max_examples=40)
@given(trees())
def test_tree_curvature_closed_form(g):
    """On a tree at alpha = 1/2, kappa(x, y) = 1/d_x + 1/d_y - 1.

    Write a_i for the other neighbors of x and b_j for those of y; on a tree
    they are distinct and d(a_i, b_j) = 3. The plan that moves the
    (d_x - 1)/(2 d_x) on the a_i to y (2 hops) and the surplus
    1/2 - 1/(2 d_y) at x to the b_j (2 hops) costs 2 - 1/d_x - 1/d_y. The
    1-Lipschitz potential f = 0 on the a_i, 1 at x, 2 at y, 3 on the b_j
    certifies the same value, so it is W1.
    """
    kappa = ollivier_ricci(g, alpha=0.5)
    for x, y in g.edges:
        want = 1.0 / len(g.neighbors(x)) + 1.0 / len(g.neighbors(y)) - 1.0
        assert kappa[(x, y)] == pytest.approx(want, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 9), st.floats(0.0, 0.95))
def test_complete_graph_curvature_closed_form(n, alpha):
    """On K_n, kappa = 1 - |alpha - (1 - alpha)/(n - 1)|: the two measures agree
    except at x and y, which are one hop apart."""
    g = Graph(n, list(itertools.combinations(range(n), 2)))
    want = 1.0 - abs(alpha - (1.0 - alpha) / (n - 1))
    for k in ollivier_ricci(g, alpha).values():
        assert k == pytest.approx(want, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(small_graphs(), st.sampled_from([0.0, 0.25, 0.5, 0.9]), st.integers(1, 5))
def test_batched_curvature_matches_per_edge_transport(g, alpha, chunk):
    """Every chunking gives the curvature of a one-edge LP on BFS hop costs."""
    D = hop_matrix(g)
    with mock.patch.object(ricci, "EDGE_CHUNK", chunk):
        kappa = ollivier_ricci(g, alpha)
    assert list(kappa) == g.edges
    for x, y in g.edges:
        mu = lazy_walk_measure(g, x, alpha)
        nu = lazy_walk_measure(g, y, alpha)
        cost = {(s, t): D[s, t] for s in mu.support for t in nu.support}
        assert kappa[(x, y)] == pytest.approx(1.0 - wasserstein1(mu, nu, cost), abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(small_graphs())
def test_curvature_linear_in_idleness_above_max_degree_threshold(g):
    """kappa_alpha / (1 - alpha) is constant for alpha in [1/(max(d_x, d_y) + 1), 1).

    Bourne et al. (2018) prove kappa linear in alpha there and on
    [0, 1/(lcm(d_x, d_y) + 1)], with kappa_1 = 0; between the two thresholds
    it need not be.
    """
    degree = [len(g.neighbors(x)) for x in range(g.n)]
    alphas = sorted({1.0 / (d + 1) for d in degree if d} | {0.7, 0.95})
    kappas = {alpha: ollivier_ricci(g, alpha) for alpha in alphas}
    for x, y in g.edges:
        threshold = 1.0 / (max(degree[x], degree[y]) + 1)
        ratios = [kappas[a][(x, y)] / (1.0 - a) for a in alphas if a >= threshold]
        assert max(ratios) - min(ratios) <= 1e-9


@settings(deadline=None, max_examples=60)
@given(small_graphs())
def test_closed_form_costs_are_hop_distances(g):
    D = hop_matrix(g)
    nbrs = [set(adj) for adj in g.adjacency]
    for x, y in g.edges:
        _a, _b, C = ricci._edge_block(g, nbrs, x, y, 0.5)
        src = [x, *g.neighbors(x)]
        dst = [y, *g.neighbors(y)]
        assert np.array_equal(C, D[np.ix_(src, dst)])
