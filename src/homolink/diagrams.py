"""Extended persistence diagrams: the shared output type of both algorithms."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

ORDINARY_ASCENDING = "ordinary-ascending"
RELATIVE_DESCENDING = "relative-descending"
ESSENTIAL_0 = "essential-0"
EXTENDED_1 = "extended-1"


class DiagramPoint(NamedTuple):
    dim: int
    birth: float
    death: float
    kind: str


@dataclass
class PersistenceDiagram:
    """Multiset of (dim, birth, death, kind) points.

    Dimension-1 points are always of kind ``extended-1`` and may have
    death < birth. Zero-persistence points are filtered out by the producing
    algorithms unless explicitly retained.
    """

    points: list[DiagramPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[DiagramPoint]:
        return iter(self.points)

    def in_dimension(self, dim: int) -> list[DiagramPoint]:
        return [p for p in self.points if p.dim == dim]

    def as_multiset(self) -> Counter:
        return Counter(self.points)

    def union(self, other: "PersistenceDiagram") -> "PersistenceDiagram":
        return PersistenceDiagram(self.points + other.points)

    def to_json_obj(self) -> list[dict]:
        ordered = sorted(self.points)
        return [
            {"dim": p.dim, "birth": p.birth, "death": p.death, "kind": p.kind}
            for p in ordered
        ]


def drop_zero_persistence(points: list[DiagramPoint]) -> list[DiagramPoint]:
    return [p for p in points if p.birth != p.death]
