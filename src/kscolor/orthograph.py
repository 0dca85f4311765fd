"""Orthogonality structure of a vector set.

Vertices are the vectors in canonical order.  Edges are orthogonal pairs
("at most one colored 1"); triples are mutually orthogonal triples, the
full measurement contexts that additionally demand "exactly one colored 1"
in dimension 3.  Edges that extend to no triple still carry their pair
constraint and are counted separately in the stats.

The graph is built through a sieve of lines mod small primes.  If u.v = 0,
then u.v = 0 mod every prime q.  A canonical vector is primitive, so it is
never 0 mod q: it stands for a line of F_q^3, and the lines orthogonal to
it mod q are the q + 1 points of one projective line, listed directly.  A
pair is a candidate when its lines are orthogonal mod every sieve prime,
and every candidate still gets the exact test, so the sieve only saves
work: it never adds or drops an edge.  Over F_p the sieve is the prime p
alone and is exact.

Sets of vertices are int bitsets, bit j for vertex j: the sieve's
candidates, and later[i], the exact neighbours j > i of vertex i.  The
triples of an edge (i, j) are the set bits k of later[i] & later[j], walked
in ascending order, so edges and triples both come out sorted.  The same
rule serves Z and F_p, including unreduced sets mod p, where several
vertices share a line or a line is isotropic: it only intersects
orthogonality tests already made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .vectors import Vec3, VectorSet, dot

Edge = tuple[int, int]
Triple = tuple[int, int, int]

#: Sieve primes over Z, taken in order until their product exceeds
#: 3 max|entry|^2 >= |u.v|: from there on the sieve lets through exactly the
#: edges, and a further prime would remove no candidate.
SIEVE_PRIMES = (2, 3, 5, 7, 11, 13)


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


def _line(v: Vec3, q: int) -> Vec3:
    """The line of v mod the prime q, scaled so its first nonzero entry is 1
    (v is not 0 mod q)."""
    a, b, c = v[0] % q, v[1] % q, v[2] % q
    inv = pow(a or b or c, -1, q)
    return a * inv % q, b * inv % q, c * inv % q


def _perp_basis(l: Vec3, q: int) -> tuple[Vec3, Vec3]:
    """An echelon basis e1, e2 of the plane orthogonal to the line l mod q:
    its lines are e2 and e1 + t e2 (t = 0 .. q - 1), each already scaled."""
    a, b, c = l
    if c:
        inv = pow(c, -1, q)
        return (1, 0, -a * inv % q), (0, 1, -b * inv % q)
    if b:
        return (1, -a * pow(b, -1, q) % q, 0), (0, 0, 1)
    return (0, 1, 0), (0, 0, 1)


def _sieve(vecs: tuple[Vec3, ...], q: int) -> tuple[list[int], list[int]]:
    """Vertex i's line index slot[i] mod q, and orth[k]: the bitset of the
    vertices whose lines are orthogonal mod q to line k."""
    index: dict[Vec3, int] = {}
    of_residue: dict[Vec3, int] = {}  # residue triple mod q -> its line's index
    slot = []
    for x, y, z in vecs:
        r = x % q, y % q, z % q
        k = of_residue.get(r)
        if k is None:
            k = of_residue[r] = index.setdefault(_line(r, q), len(index))
        slot.append(k)
    members = [0] * len(index)
    for i, k in enumerate(slot):
        members[k] |= 1 << i
    orth = []
    for l in index:
        if q + 1 >= len(index):  # no more lines occur than l^perp holds
            perp = [m for m in index if dot(l, m) % q == 0]
        else:
            (a1, b1, c1), e2 = _perp_basis(l, q)
            a2, b2, c2 = e2
            perp = [e2] + [((a1 + t * a2) % q, (b1 + t * b2) % q, (c1 + t * c2) % q)
                           for t in range(q)]
        mask = 0
        for m in perp:
            k = index.get(m)
            if k is not None:
                mask |= members[k]
        orth.append(mask)
    return slot, orth


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of a nonnegative mask, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def build_graph(s: VectorSet, p: Optional[int] = None) -> OrthoGraph:
    """Orthogonality graph of a vector set, deterministic given the set.

    Vectors u, v are orthogonal when u.v = 0, or with a prime p, when
    u.v = 0 mod p (the vectors then stand for lines of F_p^3).
    """
    vecs = s.vectors
    if p is None:
        bound = 3 * max((abs(x) for v in vecs for x in v), default=0) ** 2
        primes = [q for k, q in enumerate(SIEVE_PRIMES) if math.prod(SIEVE_PRIMES[:k]) <= bound]
    else:
        primes = [p]
    sieves = [_sieve(vecs, q) for q in primes]
    later = []  # later[i]: bitset of the j > i orthogonal to vertex i
    edges = []
    for i, (a, b, c) in enumerate(vecs):
        cand = -2 << i  # the j > i
        for slot, orth in sieves:
            cand &= orth[slot[i]]
        mask = 0
        for j in _bits(cand):
            x, y, z = vecs[j]
            d = a * x + b * y + c * z
            if (d if p is None else d % p) == 0:
                edges.append((i, j))
                mask |= 1 << j
        later.append(mask)
    triples = [(i, j, k) for i, j in edges for k in _bits(later[i] & later[j])]
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
