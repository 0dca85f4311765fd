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
primes are a run of consecutive primes whose product P exceeds the largest
norm M = max q(v): of all such runs, the one whose passes cost least by an
estimate of their work, one step per vertex and a third of a step per perp
point visited.  Every pass loops over all n vertices, so a run of fewer,
larger primes often costs less than the smallest primes.  By
Cauchy-Schwarz |u.v| <= sqrt(q(u) q(v)) <= M < P, so u.v = 0 mod P forces
u.v = 0 (Chinese remainder theorem): the sieve is exact and no pair gets a
dot product.  Over F_p the sieve is the prime p alone, exact by definition.

Sets of vertices are int bitsets, bit n - 1 - j for vertex j of n, so the
vertices after any vertex i are the bits below its own.  later[i] holds the
neighbours j > i of vertex i: it is born at the first sieve prime as the
mask of the vertices orthogonal to vertex i's line mod that prime, cut to
the n - 1 - i low bits, and each later prime narrows it once by its own
mask, so one prime's tables are alive at a time and later[i] stays within
n - 1 - i bits: about n^2/16 bytes in all.  The edges are the set bits of
later[i], and the triples of an edge (i, j) the set bits k of
later[j] & m, where m holds the bits of later[i] still left after j; both
are walked inline from the top bit down, smallest vertex first, so edges
and triples come out sorted.  The same
rule serves Z and F_p, including unreduced sets mod p, where several
vertices share a line or a line is isotropic: it only intersects
orthogonality tests already made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .vectors import MILLER_RABIN_BOUND, Vec3, VectorSet, is_prime, norm_sq, require_prime

Edge = tuple[int, int]
Triple = tuple[int, int, int]

#: the most memory `build_graph` gives its masks: vertex i's mask holds only
#: the n - 1 - i vertices after it, about n^2 / 16 bytes in all, so it refuses
#: a set of more than 92 681 vectors
MASK_BYTES_LIMIT = 512 << 20


#: a sieve pass costs one step per vertex (its line code and the AND that
#: narrows its mask) and about a third of a step per perp point it visits.
#: Fitted to `_pass_cost`'s counts per set, over Q, the six `zslices` rungs,
#: S(455)|H=10 and S(6006)|H=40 and the least of 9 passes for each q <= 23
#: (2 vCPUs, Python 3.11.7), a visit came to 0.21-0.56 of a vertex, median
#: 0.29; weights 0.3-0.4 pick the same runs on all of them.  Costs are
#: counted in visits, so they stay integers.
VISITS_PER_VERTEX = 3


def _pass_cost(q: int, n: int) -> int:
    """The estimated work of a sieve pass mod q over n vertices, in perp visits.

    At most min(n, q^2 + q + 1) lines occur, and each visits the q + 1
    points of its perp or, when fewer lines occur, each line: the branches
    of `_sieve`.  Never decreasing in q, and the same for every q >= n - 1.
    """
    lines = min(n, q * q + q + 1)
    return VISITS_PER_VERTEX * n + lines * min(q + 1, lines)


def _sieve_primes(bound: int, start: int = 2) -> list[int]:
    """The primes from start up, in increasing order, until their product
    exceeds bound: the run of consecutive primes from start that passes it."""
    primes, product, q = [], 1, start
    while product <= bound:
        if is_prime(q):
            primes.append(q)
            product *= q
        q += 1
    return primes


def _cheapest_run(bound: int, n: int) -> list[int]:
    """The run of consecutive primes whose product exceeds bound at the least
    estimated work over n vertices (`_pass_cost`), the earliest on a tie.

    With bound = the largest norm M, which bounds |u.v| <= sqrt(q(u) q(v))
    by Cauchy-Schwarz, a pair orthogonal mod each prime of the run is
    orthogonal over Z: the sieve through them is exact.  The runs are
    walked by their first prime, each extended from the last; a run costs
    at least its first prime's pass, so the walk stops once that alone
    costs as much as the best run.  From q >= n - 1 on every pass costs
    the same, so the fewest primes win: the one prime above bound, tried
    while `is_prime` decides it (bound < MILLER_RABIN_BOUND / 2).
    """
    if bound < 1:
        return []
    primes: list[int] = []  # 2, 3, 5, ... to the end of the run at hand
    total = [0]  # total[k]: the cost of primes[:k]
    start, product = 0, 1  # the run at hand is primes[start:], of this product
    run, least = [], 0
    while True:
        for q in _sieve_primes(bound // product, primes[-1] + 1 if primes else 2):
            primes.append(q)
            total.append(total[-1] + _pass_cost(q, n))
            product *= q
        if not run or total[-1] - total[start] < least:
            run, least = primes[start:], total[-1] - total[start]
        q = primes[start]
        if q > bound:
            return run  # each later run is one prime, costing no less
        if q + 1 >= n:  # every pass from q on costs the same
            if bound < MILLER_RABIN_BOUND // 2 and _pass_cost(q, n) < least:
                return _sieve_primes(bound, bound + 1)  # Bertrand: below 2 * bound
            return run
        product //= q
        start += 1
        if total[start + 1] - total[start] >= least:
            return run  # each later run holds a pass as costly as least


@dataclass(frozen=True)
class GraphStats:
    """Size counts of an orthogonality graph."""
    vertices: int
    edges: int
    triples: int
    bare_edges: int  # edges contained in no triple


@dataclass(frozen=True)
class OrthoGraph:
    """A vector set with its orthogonal pairs and orthogonal triples, by index."""
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


class _Inverses(dict):
    """Residue -> its inverse mod q, each computed on its first lookup, so
    only the residues that occur are stored; 0 -> 0, so a lookup is also
    the test whether the residue is 0."""

    def __init__(self, q: int) -> None:
        super().__init__({0: 0})
        self.q = q

    def __missing__(self, a: int) -> int:
        t = self[a] = pow(a, -1, self.q)
        return t


def _sieve(vecs: tuple[Vec3, ...], q: int) -> tuple[list[int], dict[int, int]]:
    """Each vertex's line code mod q, and for each line that occurs the
    bitset of the vertices whose lines are orthogonal to it mod q, vertex j
    of n at bit n - 1 - j as in `build_graph`.

    A line scaled to first nonzero entry 1 has the code bq + c for (1, b, c),
    q^2 + c for (0, 1, c) and q^2 + q for (0, 0, 1).  The codes come from one
    comprehension, y reduced only where x = 0 mod q, through an `_Inverses`
    table that holds only the residues that occur.  The member and perp
    tables are dicts keyed by the lines that occur, never q^2 + q + 1
    entries, so a large q costs no more than a small one.  Each occurring
    line costs its q + 1 perp codes, stepped through without a list, or,
    when fewer lines occur than that, one test per occurring line.
    """
    qq = q * q
    top = len(vecs) - 1
    inverse = _Inverses(q)
    codes = [y * t % q * q + z * t % q if (t := inverse[x % q])
             else qq + z * t % q if (t := inverse[y % q])
             else qq + q
             for x, y, z in vecs]
    members: dict[int, int] = {}  # line code -> bitset of the vertices on it
    get = members.get
    for i, k in enumerate(codes):
        members[k] = get(k, 0) | 1 << top - i
    lines = {k: (1, *divmod(k, q)) if k < qq else (0, 1, k - qq) if k < qq + q else (0, 0, 1)
             for k in members}
    orth = {}
    for k, (a, b, c) in lines.items():
        mask = 0
        if q + 1 >= len(lines):  # no more lines occur than l^perp holds
            for m, (d, e, f) in lines.items():
                if (a * d + b * e + c * f) % q == 0:
                    mask |= members[m]
        elif c:  # (0, 1, beta) and (1, t, alpha + t beta), codes tq + r with r += beta
            inv = pow(-c, -1, q)
            r, beta = a * inv % q, b * inv % q
            mask = get(qq + beta, 0)
            for tq in range(0, qq, q):
                bits = get(tq + r)
                if bits:
                    mask |= bits
                r = (r + beta) % q
        else:  # (0, 0, 1) and one row of q lines: (1, -a/b, t), or (0, 1, t) when b = 0
            start = -a * pow(b, -1, q) % q * q if b else qq
            for bits in map(get, [qq + q, *range(start, start + q)]):
                if bits:
                    mask |= bits
        orth[k] = mask
    return codes, orth


def build_graph(s: VectorSet, p: Optional[int] = None) -> OrthoGraph:
    """Orthogonality graph of a vector set, deterministic given the set.

    Vectors u, v are orthogonal when u.v = 0, or with p, which must be prime
    (ValueError otherwise), when u.v = 0 mod p: they then stand for lines of F_p^3.
    Over Z the sieve runs through `_cheapest_run` of the largest norm M: the
    run of consecutive primes with product above M, exact by Cauchy-Schwarz,
    whose passes are estimated to cost least; over F_p through p alone.
    Vertex i's mask holds only the n - 1 - i vertices after it, vertex j at
    bit n - 1 - j, so an AND or a bit taken off it costs no more than that
    width.  A set whose masks would pass `MASK_BYTES_LIMIT` is refused
    before any is made.
    """
    vecs = s.vectors
    n = len(vecs)
    if n * n // 16 > MASK_BYTES_LIMIT:
        raise ValueError(f"a graph of {n} vertices needs about "
                         f"{n * n >> 24} MiB of masks, beyond the "
                         f"{MASK_BYTES_LIMIT >> 20} MiB limit")
    if p is None:
        primes = _cheapest_run(max(map(norm_sq, vecs), default=0), n)
    else:
        require_prime(p)
        primes = [p]
    top = n - 1  # vertex j sits at bit top - j
    later: list[int] = []  # later[i]: the j > i orthogonal to vertex i
    for q in primes:
        codes, orth = _sieve(vecs, q)
        if later:
            for i, k in enumerate(codes):  # in place: one generation of masks alive
                later[i] &= orth[k]
        else:  # born at the first prime, within the n - 1 - i bits after vertex i
            later = [orth[k] & (1 << top - i) - 1 for i, k in enumerate(codes)]
        del codes, orth  # one prime's tables at a time
    edges, triples = [], []
    for i, m in enumerate(later):
        while m:
            b = m.bit_length() - 1
            m ^= 1 << b  # m: the neighbours of i after j
            j = top - b
            edges.append((i, j))
            t = later[j]
            if t:
                t &= m
                while t:
                    c = t.bit_length() - 1
                    t ^= 1 << c
                    triples.append((i, j, top - c))
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
