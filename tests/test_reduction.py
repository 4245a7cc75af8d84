import numpy as np
import pytest

from homolink.filtration import build_filtration
from homolink.graphs import Graph
from homolink.reduction import (
    _sym_diff,
    build_reduction_matrix,
    diagram_via_reduction,
    reduce_matrix,
    reduction_pairs,
)
from oracles import random_graph, scipy_components


def test_sym_diff():
    assert _sym_diff([1, 3, 5], [3, 4]) == [1, 4, 5]
    assert _sym_diff([], [2]) == [2]
    assert _sym_diff([2], [2]) == []


def test_matrix_block_structure_worked_example(two_loop_graph, two_loop_filter):
    ford = build_filtration(two_loop_graph, two_loop_filter)
    M = build_reduction_matrix(ford)
    m = M.num_simplices
    assert m == 9 and M.size == 18
    asc = ford.asc_index
    # A restricted to edge columns, rows ordered u1..u4, matches the worked 4x5 matrix
    edge_cols = [(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    want = {
        (0, 2): [0, 2],
        (1, 2): [1, 2],
        (0, 3): [0, 5],
        (1, 3): [1, 5],
        (2, 3): [2, 5],
    }
    for e in edge_cols:
        assert M.columns[asc[e]] == want[e]
    # node columns empty in A, single permutation entry in the descending half
    for v in range(4):
        assert M.columns[asc[v]] == []
        assert M.columns[m + ford.desc_index[v]] == [asc[v]]


def test_matrix_single_node():
    ford = build_filtration(Graph(1, []), np.array([0.5]))
    M = build_reduction_matrix(ford)
    assert M.size == 2
    assert M.columns == [[], [0]]


def test_matrix_edge_columns_have_two_incidences():
    ford = build_filtration(Graph(2, [(0, 1)]), np.array([0.0, 1.0]))
    M = build_reduction_matrix(ford)
    m = M.num_simplices
    asc_edge_col = M.columns[ford.asc_index[(0, 1)]]
    desc_edge_col = M.columns[m + ford.desc_index[(0, 1)]]
    assert len(asc_edge_col) == 2
    # descending edge column: two incidences in the D block plus the P entry
    assert len([r for r in desc_edge_col if r >= m]) == 2
    assert len([r for r in desc_edge_col if r < m]) == 1


def test_reduce_pairs_worked_example(two_loop_graph, two_loop_filter):
    ford = build_filtration(two_loop_graph, two_loop_filter)
    pairs = reduction_pairs(ford)
    assert pairs.ascending == [(2, (0, 2)), (1, (1, 2)), (3, (0, 3))]
    assert sorted(pairs.extended) == [((1, 3), (0, 2)), ((2, 3), (1, 2))]
    assert pairs.essential == [(0, 3)]


def test_reduced_ascending_block_worked_example(two_loop_graph, two_loop_filter):
    # the worked example's reduced A block, column by column
    ford = build_filtration(two_loop_graph, two_loop_filter)
    M = build_reduction_matrix(ford)
    res = reduce_matrix(M)
    asc = ford.asc_index
    want = {
        (0, 2): [asc[0], asc[2]],
        (1, 2): [asc[0], asc[1]],
        (0, 3): [asc[0], asc[3]],
        (1, 3): [],
        (2, 3): [],
    }
    for e, col in want.items():
        assert res.columns[asc[e]] == sorted(col)


def test_reduce_lows_unique():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 12, 0.4)
    ford = build_filtration(g, rng.permutation(12).astype(float))
    res = reduce_matrix(build_reduction_matrix(ford))
    lows = list(res.lows.values())
    assert len(lows) == len(set(lows))


def test_reduce_empty_graph():
    ford = build_filtration(Graph(0, []), np.zeros(0))
    res = reduce_matrix(build_reduction_matrix(ford))
    assert res.lows == {}


def test_each_simplex_in_at_most_one_pair_per_phase():
    rng = np.random.default_rng(13)
    g = random_graph(rng, 14, 0.35)
    ford = build_filtration(g, rng.permutation(14).astype(float))
    pairs = reduction_pairs(ford)
    for group in (pairs.ascending, pairs.descending, pairs.extended, pairs.essential):
        rows = [r for r, _ in group]
        cols = [c for _, c in group]
        assert len(rows) == len(set(rows))
        assert len(cols) == len(set(cols))


def _reduce_three_phase(matrix):
    """Alternative valid reduction order: D-region lows first, P-region after.

    Ascending columns go left to right as usual. Descending edge columns are
    first reduced only while their low sits in the descending half; the
    leftovers and the node columns then reduce their ascending-half lows left
    to right. Pairings must agree with the plain left-to-right sweep.
    """
    from homolink.reduction import _sym_diff

    m = matrix.num_simplices
    cols = [list(c) for c in matrix.columns]
    owner, lows = {}, {}

    def settle(j, stop_below=None):
        col = cols[j]
        while col:
            low = col[-1]
            if stop_below is not None and low < stop_below:
                break
            k = owner.get(low)
            if k is None:
                break
            col = _sym_diff(col, cols[k])
        cols[j] = col
        return col

    for j in range(m):
        col = settle(j)
        if col:
            owner[col[-1]] = j
            lows[j] = col[-1]
    parked = []
    for j in range(m, 2 * m):
        col = settle(j, stop_below=m)
        if col and col[-1] >= m:
            owner[col[-1]] = j
            lows[j] = col[-1]
        else:
            parked.append(j)
    for j in parked:
        col = settle(j)
        if col:
            owner[col[-1]] = j
            lows[j] = col[-1]
    return lows


@pytest.mark.parametrize("seed", range(8))
def test_pairing_invariant_to_reduction_order(seed):
    rng = np.random.default_rng(50 + seed)
    g = random_graph(rng, 12, 0.4)
    f = rng.integers(0, 5, size=12).astype(float)
    ford = build_filtration(g, f)
    M = build_reduction_matrix(ford)
    assert reduce_matrix(M).lows == _reduce_three_phase(M)


def test_diagram_worked_example_values(two_loop_graph, two_loop_filter):
    ford = build_filtration(two_loop_graph, two_loop_filter)
    d = diagram_via_reduction(ford)
    dim0 = sorted((p.birth, p.death) for p in d.in_dimension(0))
    dim1 = sorted((p.birth, p.death) for p in d.in_dimension(1))
    assert dim0 == [(1.0, 4.0), (2.0, 3.0)]
    assert dim1 == [(4.0, 1.0), (4.0, 2.0)]


def test_diagram_tree_has_no_loops():
    g = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    ford = build_filtration(g, np.array([3.0, 1.0, 4.0, 0.0, 2.0]))
    d = diagram_via_reduction(ford, keep_zero=True)
    assert d.in_dimension(1) == []


def test_dim1_count_is_cycle_rank():
    rng = np.random.default_rng(23)
    g = random_graph(rng, 15, 0.25)
    ford = build_filtration(g, rng.permutation(15).astype(float))
    d = diagram_via_reduction(ford, keep_zero=True)
    comps, _ = scipy_components(g)
    assert len(d.in_dimension(1)) == g.num_edges - g.n + comps


def test_zero_persistence_dropped_by_default(two_loop_graph, two_loop_filter):
    ford = build_filtration(two_loop_graph, two_loop_filter)
    kept = diagram_via_reduction(ford, keep_zero=True)
    dropped = diagram_via_reduction(ford)
    assert len(kept) > len(dropped)
    assert all(p.birth != p.death for p in dropped)
    assert sorted(p for p in kept.points if p.birth != p.death) == sorted(dropped.points)
