"""Fast extended persistence for graphs: union-find plus spanning-tree updates.

Dimension-0 pairs come from one union-find sweep per direction under the
elder rule. The same two sweeps give the essential points: a component's
first node in the ascending order is its minimum, and its first node in the
descending order is its maximum. Dimension-1 pairs come from a rooted
spanning forest built from the descending pass's negative edges: each
positive descending edge closes a unique loop against the forest, is paired
with the loop edge that enters the ascending order last, and then replaces
that edge in the forest. Runtime is O(|V| * |E|), against the cubic cost of
the matrix reduction, and the output is identical (which the test suite
checks against the reduction oracle).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from .diagrams import (
    ESSENTIAL_0,
    EXTENDED_1,
    ORDINARY_ASCENDING,
    RELATIVE_DESCENDING,
    DiagramPoint,
    PersistenceDiagram,
    drop_zero_persistence,
)
from .filtration import FiltrationOrder, build_filtration
from .reduction import diagram_via_reduction


def union_find_pass(ford: FiltrationOrder, direction: str):
    """One filtration sweep; returns (0-dim pairs, positive edges, negative edges, roots).

    An edge joining two components is negative and kills the younger one:
    the component whose first node entered this direction's order later.
    Edges within one component are positive and are returned in filtration
    order. Pairs are (f of the dying component's first node, edge value),
    including zero-persistence pairs; callers filter. ``roots[x]`` is the
    first node, in this direction's order, of x's final component.
    """
    if direction == "ascending":
        seq = ford.ascending
        edge_value = ford.f_asc
    elif direction == "descending":
        seq = ford.descending
        edge_value = ford.f_desc
    else:
        raise ValueError(f"direction must be ascending or descending, got {direction!r}")

    f = ford.f_node
    n = ford.n
    pos = [0] * n
    for i, s in enumerate(seq):
        if isinstance(s, int):
            pos[s] = i
    # every root is the first node of its set, since the elder root stays root
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs: list[tuple[float, float]] = []
    e_pos: list[tuple[int, int]] = []
    e_neg: list[tuple[int, int]] = []
    for s in seq:
        if isinstance(s, int):
            continue
        u, v = s
        ru, rv = find(u), find(v)
        if ru == rv:
            e_pos.append(s)
            continue
        e_neg.append(s)
        if pos[ru] <= pos[rv]:
            elder, younger = ru, rv
        else:
            elder, younger = rv, ru
        pairs.append((float(f[younger]), edge_value[s]))
        parent[younger] = elder
    return pairs, e_pos, e_neg, [find(x) for x in range(n)]


class _LoopForest:
    """Rooted spanning forest with parent pointers and edge swaps.

    Finding the loop closed by a positive edge walks both ancestor chains to
    their meeting point. Swapping an edge out detaches one side of the loop
    and re-roots it at the new edge's endpoint, so parent pointers stay valid
    without any global rebuild. Both operations are O(path length).
    """

    def __init__(self, n: int, tree_edges):
        self.parent: list[int] = [-1] * n
        self.pedge: list = [None] * n
        adj: list[list] = [[] for _ in range(n)]
        for e in tree_edges:
            u, v = e
            adj[u].append((v, e))
            adj[v].append((u, e))
        seen = [False] * n
        for root in range(n):
            if seen[root]:
                continue
            seen[root] = True
            queue = deque([root])
            while queue:
                x = queue.popleft()
                for y, e in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        self.parent[y] = x
                        self.pedge[y] = e
                        queue.append(y)

    def path_sides(self, u: int, v: int):
        """Tree-path edges between u and v, split into the u side and the v side."""
        mark = set()
        x = u
        while True:
            mark.add(x)
            if self.parent[x] == -1:
                break
            x = self.parent[x]
        v_side = []
        y = v
        while y not in mark:
            if self.parent[y] == -1:
                raise RuntimeError(
                    "positive edge endpoints lie in different tree components"
                )
            v_side.append(self.pedge[y])
            y = self.parent[y]
        meet = y
        u_side = []
        x = u
        while x != meet:
            u_side.append(self.pedge[x])
            x = self.parent[x]
        return u_side, v_side

    def _reroot(self, x: int) -> None:
        chain = []
        node = x
        while self.parent[node] != -1:
            chain.append((node, self.parent[node], self.pedge[node]))
            node = self.parent[node]
        for child, par, e in chain:
            self.parent[par] = child
            self.pedge[par] = e
        self.parent[x] = -1
        self.pedge[x] = None

    def swap(self, old_edge, new_edge, attach_at: int) -> None:
        """Remove ``old_edge``, re-root its detached side at ``attach_at``, add ``new_edge``.

        ``attach_at`` must be the endpoint of ``new_edge`` that lies below the
        removed edge.
        """
        a, b = old_edge
        child = a if self.pedge[a] == old_edge else b
        if self.pedge[child] != old_edge:
            raise RuntimeError("edge to remove is not in the forest")
        self.parent[child] = -1
        self.pedge[child] = None
        self._reroot(attach_at)
        u, v = new_edge
        other = v if u == attach_at else u
        self.parent[attach_at] = other
        self.pedge[attach_at] = new_edge


def _pair_loops(ford: FiltrationOrder, e_pos, e_neg):
    """Pair every positive descending edge with the ascending-latest edge of its loop.

    ``e_pos`` and ``e_neg`` are the positive and negative edges of the
    descending pass. Returns (positive edge, paired edge, loop edge list)
    triples in the order the positive edges appear in the descending
    filtration. The loop includes the positive edge itself.
    """
    asc = ford.asc_index
    forest = _LoopForest(ford.n, e_neg)
    out = []
    for e in e_pos:
        u, v = e
        u_side, v_side = forest.path_sides(u, v)
        loop = u_side + v_side + [e]
        paired = max(loop, key=asc.__getitem__)
        out.append((e, paired, loop))
        if paired != e:
            attach_at = u if paired in u_side else v
            forest.swap(paired, e, attach_at)
    return out


def fast_extended_diagram(ford: FiltrationOrder, keep_zero: bool = False) -> PersistenceDiagram:
    """Extended persistence diagram via union-find and spanning-tree maintenance.

    Output equals ``diagram_via_reduction`` on the same filtration order,
    point for point. Zero-persistence points are dropped unless ``keep_zero``.
    """
    f = ford.f_node
    asc_pairs, _, _, lowest = union_find_pass(ford, "ascending")
    desc_pairs, e_pos, e_neg, highest = union_find_pass(ford, "descending")
    points = [DiagramPoint(0, b, d, ORDINARY_ASCENDING) for b, d in asc_pairs]
    points += [DiagramPoint(0, b, d, RELATIVE_DESCENDING) for b, d in desc_pairs]
    points += [
        DiagramPoint(0, float(f[x]), float(f[highest[x]]), ESSENTIAL_0)
        for x in range(ford.n)
        if lowest[x] == x
    ]
    for e, paired, _loop in _pair_loops(ford, e_pos, e_neg):
        points.append(DiagramPoint(1, ford.f_asc[paired], ford.f_desc[e], EXTENDED_1))
    if not keep_zero:
        points = drop_zero_persistence(points)
    return PersistenceDiagram(points)


@dataclass
class BenchRow:
    graph_id: int
    n: int
    m: int
    t_reduction_s: float
    t_fast_s: float

    @property
    def ratio(self) -> float:
        return self.t_reduction_s / self.t_fast_s if self.t_fast_s > 0 else float("inf")


@dataclass
class BenchReport:
    rows: list[BenchRow]
    repetitions: int

    @property
    def mean_ratio(self) -> float:
        return sum(r.ratio for r in self.rows) / len(self.rows)

    def to_csv(self) -> str:
        lines = ["graph_id,n,m,t_reduction_s,t_fast_s,ratio"]
        for r in self.rows:
            lines.append(
                f"{r.graph_id},{r.n},{r.m},{r.t_reduction_s!r},{r.t_fast_s!r},{r.ratio!r}"
            )
        return "\n".join(lines) + "\n"


def bench_compare(inputs, repetitions: int = 1) -> BenchReport:
    """Time the reduction and the fast algorithm on identical filtrations.

    ``inputs`` is a sequence of (Graph, vertex filter) pairs. Both algorithms
    consume the same prebuilt filtration order; reported times are the mean
    wall-clock seconds per diagram over ``repetitions`` runs. The two outputs
    are checked to agree before timings are reported.
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    rows = []
    for gid, (g, f) in enumerate(inputs):
        ford = build_filtration(g, f)
        d_red = diagram_via_reduction(ford)
        d_fast = fast_extended_diagram(ford)
        if d_red.as_multiset() != d_fast.as_multiset():
            raise RuntimeError(f"algorithms disagree on benchmark graph {gid}")
        t0 = time.perf_counter()
        for _ in range(repetitions):
            diagram_via_reduction(ford)
        t_red = (time.perf_counter() - t0) / repetitions
        t0 = time.perf_counter()
        for _ in range(repetitions):
            fast_extended_diagram(ford)
        t_fast = (time.perf_counter() - t0) / repetitions
        rows.append(BenchRow(gid, g.n, g.num_edges, t_red, t_fast))
    if not rows:
        raise ValueError("bench_compare needs at least one (graph, filter) input")
    return BenchReport(rows, repetitions)
