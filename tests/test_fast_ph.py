import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homolink import fast_ph
from homolink.diagrams import ESSENTIAL_0
from homolink.fast_ph import bench_compare, fast_extended_diagram, union_find_pass
from homolink.filtration import build_filtration
from homolink.graphs import Graph
from homolink.reduction import diagram_via_reduction
from oracles import check_spanning_forest, old_form, random_graph, scipy_components


def test_descending_pass_edge_classification(two_loop_graph, two_loop_filter):
    ford = build_filtration(two_loop_graph, two_loop_filter)
    _, e_pos, e_neg, roots = union_find_pass(ford, "descending")
    assert old_form(ford, e_pos, edge_ids=True) == [(1, 2), (0, 2)]
    assert old_form(ford, e_neg, edge_ids=True) == [(2, 3), (1, 3), (0, 3)]
    assert roots == [3, 3, 3, 3]  # the maximum node


def test_ascending_pass_pairs(two_loop_graph, two_loop_filter):
    ford = build_filtration(two_loop_graph, two_loop_filter)
    pairs, e_pos, _, roots = union_find_pass(ford, "ascending")
    nonzero = [p for p in pairs if p[0] != p[1]]
    assert nonzero == [(2.0, 3.0)]
    assert old_form(ford, e_pos, edge_ids=True) == [(1, 3), (2, 3)]
    assert roots == [0, 0, 0, 0]  # the minimum node


def test_tree_input_has_no_positive_edges():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
    ford = build_filtration(g, np.arange(6, dtype=float))
    for direction in ("ascending", "descending"):
        _, e_pos, e_neg, _ = union_find_pass(ford, direction)
        assert e_pos == []
        assert len(e_neg) == 5


def test_union_find_rejects_bad_direction(two_loop_graph, two_loop_filter):
    ford = build_filtration(two_loop_graph, two_loop_filter)
    with pytest.raises(ValueError):
        union_find_pass(ford, "sideways")


def test_worked_example_dim1_points(two_loop_graph, two_loop_filter):
    ford = build_filtration(two_loop_graph, two_loop_filter)
    d = fast_extended_diagram(ford)
    dim1 = sorted((p.birth, p.death) for p in d.in_dimension(1))
    assert dim1 == [(4.0, 1.0), (4.0, 2.0)]


def test_four_cycle_single_loop_matches_oracle():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ford = build_filtration(g, np.array([1.0, 2.0, 3.0, 4.0]))
    fast = fast_extended_diagram(ford)
    assert len(fast.in_dimension(1)) == 1
    assert fast.as_multiset() == diagram_via_reduction(ford).as_multiset()


def test_disconnected_graph_components():
    # triangle plus an isolated node: one loop, two essential points
    g = Graph(4, [(0, 1), (0, 2), (1, 2)])
    ford = build_filtration(g, np.array([1.0, 2.0, 3.0, 0.5]))
    d = fast_extended_diagram(ford, keep_zero=True)
    assert len(d.in_dimension(1)) == 1
    essentials = [p for p in d.points if p.kind == ESSENTIAL_0]
    assert len(essentials) == 2
    assert d.as_multiset() == diagram_via_reduction(ford, keep_zero=True).as_multiset()


class _CheckedForest(fast_ph._LoopForest):
    """Loop forest that checks its parent pointers after every edge swap."""

    def swap(self, old_edge, new_edge, attach_at):
        super().swap(old_edge, new_edge, attach_at)
        check_spanning_forest(self.parent, self.pedge, self.edges)


def loop_pairings(ford):
    """Loop pairings of the descending pass as edge tuples, with the forest
    checked after every swap."""
    _, e_pos, e_neg, _ = union_find_pass(ford, "descending")
    with mock.patch.object(fast_ph, "_LoopForest", _CheckedForest):
        return old_form(ford, fast_ph._pair_loops(ford, e_pos, e_neg), edge_ids=True)


def edge_values(ford):
    """Ascending and descending edge values keyed by edge tuple."""
    edges = old_form(ford, range(len(ford.edges)), edge_ids=True)
    return dict(zip(edges, ford.f_asc.tolist())), dict(zip(edges, ford.f_desc.tolist()))


def test_loop_pairings_report_the_emitted_loop(two_loop_graph, two_loop_filter):
    ford = build_filtration(two_loop_graph, two_loop_filter)
    out = loop_pairings(ford)
    f_asc, f_desc = edge_values(ford)
    assert [(e, paired) for e, paired, _ in out] == [
        ((1, 2), (2, 3)),
        ((0, 2), (1, 3)),
    ]
    for e, paired, loop in out:
        assert e in loop and paired in loop
        # birth is the largest ascending extension over the loop, death the
        # smallest endpoint value of the closing edge
        assert f_asc[paired] == max(f_asc[le] for le in loop)
        assert f_desc[e] == min(ford.f_node[e[0]], ford.f_node[e[1]])


@pytest.mark.parametrize("seed", range(10))
def test_loop_values_span_the_loop(seed):
    rng = np.random.default_rng(300 + seed)
    g = random_graph(rng, 12, 0.45)
    f = rng.integers(0, 6, size=12).astype(float)
    ford = build_filtration(g, f)
    f_asc, f_desc = edge_values(ford)
    for e, paired, loop in loop_pairings(ford):
        values = [f_asc[le] for le in loop]
        assert f_asc[paired] == max(values)
        assert f_desc[e] == min(f_desc[le] for le in loop)


@pytest.mark.parametrize("seed", range(20))
def test_equivalence_with_reduction_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 22))
    g = random_graph(rng, n, float(rng.choice([0.15, 0.35, 0.6])))
    if seed % 4 == 0:
        f = rng.integers(0, max(2, n // 2), size=n).astype(float)  # ties
    else:
        f = rng.permutation(n).astype(float)
    ford = build_filtration(g, f)
    for keep in (False, True):
        fast = fast_extended_diagram(ford, keep_zero=keep)
        oracle = diagram_via_reduction(ford, keep_zero=keep)
        assert fast.as_multiset() == oracle.as_multiset()


def test_per_component_loop_count():
    rng = np.random.default_rng(77)
    # two blocks with no edges between them
    edges = [(i, j) for i, j in itertools.combinations(range(8), 2) if rng.random() < 0.5]
    edges += [(8 + i, 8 + j) for i, j in itertools.combinations(range(5), 2) if rng.random() < 0.6]
    g = Graph(13, edges)
    ford = build_filtration(g, rng.permutation(13).astype(float))
    d = fast_extended_diagram(ford, keep_zero=True)
    comps, _ = scipy_components(g)
    assert len(d.in_dimension(1)) == g.num_edges - g.n + comps


def _filtered_graph(draw_seed, n, p, levels, isolated):
    """Random graph plus ``isolated`` edgeless nodes, with integer filter values in [0, levels)."""
    rng = np.random.default_rng(draw_seed)
    g = random_graph(rng, n, p)
    g = Graph(n + isolated, g.edges)
    return g, rng.integers(0, levels, size=g.n).astype(float)


graphs_with_ties = st.builds(
    _filtered_graph,
    st.integers(0, 2**32 - 1),
    st.integers(1, 10),
    st.floats(0.0, 0.7),
    st.integers(1, 4),
    st.integers(0, 3),
)


@settings(deadline=None, max_examples=150)
@given(graphs_with_ties)
def test_essential_points_are_component_spans(case):
    g, f = case
    d = fast_extended_diagram(build_filtration(g, f), keep_zero=True)
    _, labels = scipy_components(g)
    spans = [(f[labels == c].min(), f[labels == c].max()) for c in set(labels.tolist())]
    got = [(p.birth, p.death) for p in d.points if p.kind == ESSENTIAL_0]
    assert sorted(got) == sorted(spans)


@settings(deadline=None, max_examples=100)
@given(graphs_with_ties, st.integers(0, 2**32 - 1))
def test_diagram_invariant_under_node_relabelling(case, perm_seed):
    g, f = case
    perm = np.random.default_rng(perm_seed).permutation(g.n)  # old id -> new id
    relabelled = Graph(g.n, [(int(perm[u]), int(perm[v])) for u, v in g.edges])
    f_new = np.empty_like(f)
    f_new[perm] = f
    for keep in (False, True):
        a = fast_extended_diagram(build_filtration(g, f), keep_zero=keep)
        b = fast_extended_diagram(build_filtration(relabelled, f_new), keep_zero=keep)
        assert a.as_multiset() == b.as_multiset()


@settings(deadline=None, max_examples=100)
@given(graphs_with_ties)
def test_fast_equals_reduction_on_tie_heavy_filters(case):
    g, f = case
    ford = build_filtration(g, f)
    for keep in (False, True):
        fast = fast_extended_diagram(ford, keep_zero=keep)
        assert fast.as_multiset() == diagram_via_reduction(ford, keep_zero=keep).as_multiset()


@settings(deadline=None, max_examples=100)
@given(graphs_with_ties, graphs_with_ties)
def test_diagram_of_disjoint_union_is_sum_of_parts(first, second):
    (g1, f1), (g2, f2) = first, second
    shifted = [(u + g1.n, v + g1.n) for u, v in g2.edges]
    union = Graph(g1.n + g2.n, g1.edges + shifted)
    f = np.concatenate([f1, f2])
    for diagram in (fast_extended_diagram, diagram_via_reduction):
        for keep in (False, True):
            parts = [diagram(build_filtration(g, fg), keep_zero=keep) for g, fg in (first, second)]
            whole = diagram(build_filtration(union, f), keep_zero=keep)
            assert whole.as_multiset() == parts[0].as_multiset() + parts[1].as_multiset()


@settings(deadline=None, max_examples=150)
@given(graphs_with_ties)
def test_loop_count_is_cycle_rank(case):
    g, f = case
    d = fast_extended_diagram(build_filtration(g, f), keep_zero=True)
    components, _ = scipy_components(g)
    assert len(d.in_dimension(1)) == g.num_edges - g.n + components


def test_bench_compare_consistency(two_loop_graph, two_loop_filter):
    report = bench_compare([(two_loop_graph, two_loop_filter)], repetitions=2)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.n == 4 and row.m == 5
    assert row.t_reduction_s > 0 and row.t_fast_s > 0
    assert row.ratio > 0
    header = report.to_csv().splitlines()[0]
    assert header == "graph_id,n,m,t_reduction_s,t_fast_s,ratio"


def test_bench_compare_rejects_empty_input():
    with pytest.raises(ValueError, match="at least one"):
        bench_compare([])


def test_bench_compare_rejects_zero_repetitions(two_loop_graph, two_loop_filter):
    with pytest.raises(ValueError):
        bench_compare([(two_loop_graph, two_loop_filter)], repetitions=0)
