"""Orthogonality structure of a vector set.

Vertices are the vectors in canonical order.  Edges are orthogonal pairs
("at most one colored 1"); triples are mutually orthogonal triples, the
full measurement contexts that additionally demand "exactly one colored 1"
in dimension 3.  Edges that extend to no triple still carry their pair
constraint and are counted separately in the stats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .vectors import Vec3, VectorSet

Edge = tuple[int, int]
Triple = tuple[int, int, int]


@dataclass(frozen=True)
class GraphStats:
    vertices: int
    edges: int
    triples: int
    bare_edges: int  # edges contained in no triple


@dataclass(frozen=True)
class OrthoGraph:
    vector_set: VectorSet
    edges: tuple[Edge, ...]       # sorted pairs (i, j), i < j
    triples: tuple[Triple, ...]   # sorted triples (i, j, k), i < j < k

    @property
    def vectors(self) -> tuple[Vec3, ...]:
        return self.vector_set.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def contexts_of(self, i: int) -> list[Triple]:
        """All triples containing vertex i, in canonical order."""
        if not 0 <= i < len(self.vectors):
            raise IndexError(f"vertex index {i} out of range")
        return [t for t in self.triples if i in t]

    def stats(self) -> GraphStats:
        in_triple = set()
        for i, j, k in self.triples:
            in_triple.update({(i, j), (i, k), (j, k)})
        bare = sum(1 for e in self.edges if e not in in_triple)
        return GraphStats(
            vertices=len(self.vectors),
            edges=len(self.edges),
            triples=len(self.triples),
            bare_edges=bare,
        )


def build_graph(s: VectorSet, p: Optional[int] = None) -> OrthoGraph:
    """Orthogonality graph of a vector set, deterministic given the set.

    Vectors u, v are orthogonal when u.v = 0, or with a prime p, when
    u.v = 0 mod p (the vectors then stand for lines of F_p^3).
    """
    vecs = s.vectors
    later: list[set[int]] = []  # later[i]: the j > i orthogonal to vertex i
    edges = []
    for i, (a, b, c) in enumerate(vecs):
        rest = enumerate(vecs[i + 1:], i + 1)
        if p is None:
            row = [j for j, (x, y, z) in rest if a * x + b * y + c * z == 0]
        else:
            row = [j for j, (x, y, z) in rest if (a * x + b * y + c * z) % p == 0]
        edges.extend((i, j) for j in row)
        later.append(set(row))
    triples = [(i, j, k) for i, j in edges for k in sorted(later[i] & later[j])]
    return OrthoGraph(s, tuple(edges), tuple(triples))


def graph_stats(g: OrthoGraph) -> GraphStats:
    return g.stats()


def to_dot(g: OrthoGraph) -> str:
    """DOT export: vertices labeled "x,y,z", triples appear as 3-cliques."""
    lines = ["graph orthogonality {"]
    for i, v in enumerate(g.vectors):
        lines.append(f'  v{i} [label="{v[0]},{v[1]},{v[2]}"];')
    for i, j in g.edges:
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
