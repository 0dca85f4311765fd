"""Orthogonality structure of a vector set.

Vertices are the vectors in canonical order.  Edges are orthogonal pairs
("at most one colored 1"); triples are mutually orthogonal triples, the
full measurement contexts that additionally demand "exactly one colored 1"
in dimension 3.  Edges that extend to no triple still carry their pair
constraint and are counted separately in the stats.

The graph is built through a sieve of lines mod primes.  A canonical
vector is primitive, so it is never 0 mod a prime q: it stands for a line
of F_q^3, and the lines orthogonal to it mod q are the q + 1 points of one
projective line, whose integer codes are computed directly.  A pair is an
edge when its lines are orthogonal mod every sieve prime.  Over Z the
primes are taken in order until their product P exceeds 3 max|entry|^2 >=
|u.v|; then u.v = 0 mod P forces u.v = 0 (Chinese remainder theorem), so
the sieve is exact and no pair gets a dot product.  Over F_p the sieve is
the prime p alone, exact by definition.

Sets of vertices are int bitsets, bit j for vertex j: the sieve's rows, and
later[i], the neighbours j > i of vertex i.  The triples of an edge (i, j)
are the set bits k of later[i] & later[j], walked in ascending order, so
edges and triples both come out sorted.  The same rule serves Z and F_p,
including unreduced sets mod p, where several vertices share a line or a
line is isotropic: it only intersects orthogonality tests already made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .vectors import Vec3, VectorSet, is_prime, require_prime

Edge = tuple[int, int]
Triple = tuple[int, int, int]


def _sieve_primes(bound: int) -> list[int]:
    """The primes in increasing order until their product exceeds bound.

    With bound = 3 max|entry|^2 >= |u.v|, a pair orthogonal mod each of
    them is orthogonal over Z: the sieve through them is exact.
    """
    primes, product, q = [], 1, 2
    while product <= bound:
        if is_prime(q):
            primes.append(q)
            product *= q
        q += 1
    return primes


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


def _sieve(vecs: tuple[Vec3, ...], q: int) -> list[int]:
    """For each vertex, the bitset of the vertices whose lines are orthogonal
    to its own mod q.

    A line scaled to first nonzero entry 1 has the code bq + c for (1, b, c),
    q^2 + c for (0, 1, c) and q^2 + q for (0, 0, 1).  Only lines that occur
    are listed, and each costs its q + 1 perp codes or, when fewer lines
    occur than that, one test per occurring line.
    """
    qq = q * q
    inverse: dict[int, int] = {}  # residue -> its inverse mod q
    members: dict[int, int] = {}  # line code -> bitset of the vertices on it
    slot = []
    for i, (x, y, z) in enumerate(vecs):
        a, b = x % q, y % q
        if a:
            t = inverse.get(a) or inverse.setdefault(a, pow(a, -1, q))
            k = b * t % q * q + z * t % q
        elif b:
            t = inverse.get(b) or inverse.setdefault(b, pow(b, -1, q))
            k = qq + z * t % q
        else:
            k = qq + q
        slot.append(k)
        members[k] = members.get(k, 0) | 1 << i
    lines = {k: (1, *divmod(k, q)) if k < qq else (0, 1, k - qq) if k < qq + q else (0, 0, 1)
             for k in members}
    orth = {}
    for k, (a, b, c) in lines.items():
        if q + 1 >= len(lines):  # no more lines occur than l^perp holds
            perp = [m for m, (d, e, f) in lines.items() if (a * d + b * e + c * f) % q == 0]
        elif c:  # (0, 1, beta) and (1, t, alpha + t beta)
            inv = pow(-c, -1, q)
            alpha, beta = a * inv % q, b * inv % q
            perp = [qq + beta, *(t * q + (alpha + t * beta) % q for t in range(q))]
        elif b:  # (0, 0, 1) and (1, -a/b, t)
            start = -a * pow(b, -1, q) % q * q
            perp = [qq + q, *range(start, start + q)]
        else:  # (0, 0, 1) and (0, 1, t)
            perp = range(qq, qq + q + 1)
        mask = 0
        for bits in map(members.get, perp):
            if bits:
                mask |= bits
        orth[k] = mask
    return [orth[k] for k in slot]


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of a nonnegative mask, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def build_graph(s: VectorSet, p: Optional[int] = None) -> OrthoGraph:
    """Orthogonality graph of a vector set, deterministic given the set.

    Vectors u, v are orthogonal when u.v = 0, or with p, which must be prime
    (ValueError otherwise), when u.v = 0 mod p: they then stand for lines of F_p^3.
    """
    vecs = s.vectors
    if p is None:
        primes = _sieve_primes(3 * max((abs(x) for v in vecs for x in v), default=0) ** 2)
    else:
        require_prime(p)
        primes = [p]
    later = []  # later[i]: bitset of the j > i orthogonal to vertex i
    for i, rows in enumerate(zip(*[_sieve(vecs, q) for q in primes])):
        mask = -2 << i  # the j > i
        for row in rows:
            mask &= row
        later.append(mask)
    edges = [(i, j) for i, mask in enumerate(later) for j in _bits(mask)]
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
