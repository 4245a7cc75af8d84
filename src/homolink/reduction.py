"""Extended persistence via boundary-matrix reduction over GF(2).

This is the classic algorithm and serves as the correctness oracle for the
faster union-find / spanning-tree computation. For a graph with m = n + |E|
simplices, the matrix M is 2m x 2m with block structure

    M = [[A, P],
         [0, D]]

where rows/columns 0..m-1 are the simplices in ascending order and m..2m-1
the simplices in descending order. A and D hold the node-edge incidences of
the two passes, and P is the permutation matching each simplex's ascending
copy to its descending copy. Columns are stored sparsely as sorted lists of
row indices read off the rank arrays; column addition is symmetric difference.

After left-to-right reduction, each nonzero column j pairs with its lowest
row index low(j). The block the pair lands in determines the kind of the
diagram point, and simplex id ``s < n`` marks a node row or column:

  * ascending edge column, ascending node row  -> ordinary 0-dim pair
  * descending edge column, descending node row -> relative 0-dim pair
  * descending edge column, ascending edge row -> extended 1-dim pair
  * descending node column, ascending node row -> essential 0-dim pair
    (the component's minimum node against its maximum node)
"""

from __future__ import annotations

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
from .filtration import FiltrationOrder


@dataclass(eq=False)
class ReductionMatrix:
    """Sparse GF(2) matrix for one filtration, plus its row/column labels."""

    num_simplices: int
    columns: list[list[int]]

    @property
    def size(self) -> int:
        return 2 * self.num_simplices


@dataclass(eq=False)
class ReductionResult:
    """Pairing map (column -> lowest row after reduction) and the reduced columns."""

    lows: dict[int, int]
    columns: list[list[int]]


@dataclass(eq=False)
class ReductionPairs:
    """Simplex-level pairs grouped by the block their lowest entry fell in."""

    ascending: list  # (node, ascending edge), as simplex ids
    descending: list  # (node, descending edge)
    extended: list  # (ascending edge, descending edge)
    essential: list  # (min node, max node) per component


def build_reduction_matrix(ford: FiltrationOrder) -> ReductionMatrix:
    """Assemble M = [[A, P], [0, D]] from a filtration order.

    Node columns are empty in A and D; edge columns carry their two endpoint
    rows. Every descending column additionally carries the P entry pointing
    at the same simplex's position in the ascending order.
    """
    n, m = ford.n, ford.num_simplices
    asc = ford.asc_index.tolist()
    desc = ford.desc_index.tolist()
    edges = ford.edges.tolist()
    columns: list[list[int]] = []
    for s in ford.ascending.tolist():
        if s < n:
            columns.append([])
        else:
            u, v = edges[s - n]
            columns.append(sorted((asc[u], asc[v])))
    for s in ford.descending.tolist():
        if s < n:
            columns.append([asc[s]])
        else:
            u, v = edges[s - n]
            columns.append(sorted((asc[s], m + desc[u], m + desc[v])))
    return ReductionMatrix(m, columns)


def _sym_diff(a: list[int], b: list[int]) -> list[int]:
    """Symmetric difference of two sorted index lists (GF(2) column addition)."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x < y:
            out.append(x)
            i += 1
        elif y < x:
            out.append(y)
            j += 1
        else:
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def reduce_matrix(matrix: ReductionMatrix) -> ReductionResult:
    """Left-to-right column reduction; distinct nonzero columns get distinct lows."""
    cols = [list(c) for c in matrix.columns]
    owner: dict[int, int] = {}
    lows: dict[int, int] = {}
    for j in range(len(cols)):
        col = cols[j]
        while col:
            low = col[-1]
            k = owner.get(low)
            if k is None:
                break
            col = _sym_diff(col, cols[k])
        cols[j] = col
        if col:
            owner[col[-1]] = j
            lows[j] = col[-1]
    return ReductionResult(lows, cols)


def reduction_pairs(ford: FiltrationOrder) -> ReductionPairs:
    """Run the reduction and classify every pair by its block."""
    matrix = build_reduction_matrix(ford)
    result = reduce_matrix(matrix)
    n, m = ford.n, matrix.num_simplices
    asc = ford.ascending.tolist()
    desc = ford.descending.tolist()
    pairs = ReductionPairs([], [], [], [])
    for j in sorted(result.lows):
        low = result.lows[j]
        if j < m:
            col_s = asc[j]
            row_s = asc[low]
            if col_s < n or row_s >= n:
                raise RuntimeError("ascending pair must be (node row, edge column)")
            pairs.ascending.append((row_s, col_s))
        else:
            col_s = desc[j - m]
            if col_s < n:
                if low >= m or asc[low] >= n:
                    raise RuntimeError("node column must pair with an ascending node row")
                pairs.essential.append((asc[low], col_s))
            elif low >= m:
                row_s = desc[low - m]
                if row_s >= n:
                    raise RuntimeError("descending block pair must have a node row")
                pairs.descending.append((row_s, col_s))
            else:
                row_s = asc[low]
                if row_s < n:
                    raise RuntimeError("extended pair must have an edge row")
                pairs.extended.append((row_s, col_s))
    return pairs


def diagram_via_reduction(ford: FiltrationOrder, keep_zero: bool = False) -> PersistenceDiagram:
    """Extended persistence diagram from the matrix reduction.

    Zero-persistence points are dropped unless ``keep_zero`` is set.
    """
    pairs = reduction_pairs(ford)
    f = ford.f_node.tolist()
    # filter value of every simplex id, in each direction
    asc_value = f + ford.f_asc.tolist()
    desc_value = f + ford.f_desc.tolist()
    points = [
        DiagramPoint(0, f[node], asc_value[edge], ORDINARY_ASCENDING)
        for node, edge in pairs.ascending
    ]
    points += [
        DiagramPoint(0, f[node], desc_value[edge], RELATIVE_DESCENDING)
        for node, edge in pairs.descending
    ]
    points += [
        DiagramPoint(0, f[nmin], f[nmax], ESSENTIAL_0)
        for nmin, nmax in pairs.essential
    ]
    points += [
        DiagramPoint(1, asc_value[ae], desc_value[de], EXTENDED_1)
        for ae, de in pairs.extended
    ]
    if not keep_zero:
        points = drop_zero_persistence(points)
    return PersistenceDiagram(points)
