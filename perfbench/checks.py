"""Checks of kscolor's outputs by routes apart from the code under test.

Every constraint is recomputed here with numpy or plain integer arithmetic:
slice membership from the definition of S(N), edges from ``V @ V.T == 0``,
triples by looking up the canonical cross product of each edge, projections
mod p from ``q(v)^-1 v v^T``.  Negative verdicts are accepted only through
the paper's argument: the 85-vector set Q lies inside the input (or its
images mod p do), and the bundled certificate replays Valid on a graph
built from the recomputed constraints.  Each failed check raises
``CheckError``.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np

#: Norm of each block of Q and the number of vectors it holds.
Q_PARTS = {1: 3, 2: 6, 3: 4, 6: 12, 21: 24, 33: 12, 77: 24}
#: Blocks 33 and 77 keep only these absolute-entry multisets.
Q_MULTISETS = {33: (2, 2, 5), 77: (2, 3, 8)}


class CheckError(Exception):
    """An output of the code under test failed an independent check."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# Integer vectors


def canonical_rows(m: np.ndarray) -> np.ndarray:
    """Primitive, well-signed representative of each nonzero row."""
    m = m // np.gcd.reduce(np.abs(m), axis=1)[:, None]
    nonzero = m != 0
    first = m[np.arange(len(m)), nonzero.argmax(axis=1)]
    keep = np.where(nonzero.sum(axis=1) == 3, (m > 0).sum(axis=1) >= 2, first > 0)
    return np.where(keep[:, None], m, -m)


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def slice_vectors(n_divisor: int, height: int) -> list[tuple[int, int, int]]:
    """S(N) cut at max |entry| <= height, from the definition, one x at a time."""
    primes = _prime_factors(n_divisor)
    axis = np.arange(-height, height + 1, dtype=np.int64)
    y, z = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    found = []
    for x in axis:
        m = np.stack([np.full_like(y, x), y, z], axis=1)
        m = m[np.abs(m).sum(axis=1) > 0]
        m = m[(canonical_rows(m) == m).all(axis=1)]
        rest = (m * m).sum(axis=1)
        for p in primes:
            while (hit := rest % p == 0).any():
                rest = np.where(hit, rest // p, rest)
        found.extend(map(tuple, m[rest == 1].tolist()))
    return sorted(found)


def q_vectors() -> list[tuple[int, int, int]]:
    """The 85 vectors of Q, built from its block description."""
    found = set()
    for v in product(range(-9, 10), repeat=3):
        norm = v[0] ** 2 + v[1] ** 2 + v[2] ** 2
        if norm in (1, 2, 3, 6, 21):
            found.add(v)
    for entries in Q_MULTISETS.values():
        for perm in permutations(entries):
            for signs in product((1, -1), repeat=3):
                found.add(tuple(s * e for s, e in zip(signs, perm)))
    m = np.array(sorted(found), dtype=np.int64)
    m = m[(canonical_rows(m) == m).all(axis=1)]
    return sorted(map(tuple, m.tolist()))


def check_q(vecs) -> None:
    """Q's 85 vectors, with block sizes 3/6/4/12/24/12/24 by norm."""
    vecs = list(vecs)
    require(vecs == q_vectors(), "Q differs from its block description")
    sizes: dict[int, int] = {}
    for v in vecs:
        n = v[0] ** 2 + v[1] ** 2 + v[2] ** 2
        sizes[n] = sizes.get(n, 0) + 1
    require(sizes == Q_PARTS, f"Q block sizes {sizes}")


def check_slice(vecs, n_divisor: int, height: int) -> None:
    require(
        list(vecs) == slice_vectors(n_divisor, height),
        f"S({n_divisor})|H={height} membership differs",
    )


# ---------------------------------------------------------------------------
# Orthogonality constraints


def constraints(vecs, block: int = 256):
    """Edges (i < j, V_i . V_j == 0) and triples (i < j < k), both sorted."""
    v = np.array(vecs, dtype=np.int64).reshape(-1, 3)
    rows, cols = [], []
    for start in range(0, len(v), block):
        i, j = np.nonzero(v[start:start + block] @ v.T == 0)
        i += start
        rows.append(i[j > i])
        cols.append(j[j > i])
    i = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    j = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
    edges = list(zip(i.tolist(), j.tolist()))
    index = {tuple(x): n for n, x in enumerate(v.tolist())}
    triples = []
    if edges:
        third = canonical_rows(np.cross(v[i], v[j]))
        for (a, b), c in zip(edges, map(tuple, third.tolist())):
            k = index.get(c)
            if k is not None and k > b:
                triples.append((a, b, k))
    return edges, sorted(triples)


def check_graph(g, edges, triples) -> None:
    """The program's graph holds exactly the recomputed edges and triples."""
    for kind, got, want in (("edge", g.edges, edges), ("triple", g.triples, triples)):
        if list(got) != want:
            missing = sorted(set(want) - set(got))[:3]
            extra = sorted(set(got) - set(want))[:3]
            raise CheckError(f"{kind}s differ: missing {missing}, extra {extra}")


def check_coloring(coloring, n: int, edges, triples) -> None:
    c = np.array(coloring, dtype=np.int64)
    require(c.shape == (n,) and bool(np.isin(c, (0, 1)).all()), "coloring is not 0/1 per vertex")
    if edges:
        e = np.array(edges)
        require(bool((c[e].sum(axis=1) <= 1).all()), "an orthogonal pair is colored 1, 1")
    if triples:
        t = np.array(triples)
        require(bool((c[t].sum(axis=1) == 1).all()), "a basis triple does not hold exactly one 1")


class Certifier:
    """Replays the bundled certificate of Q on recomputed graphs."""

    def __init__(self, certificate_mod, orthograph_mod, vectors_mod):
        self._cert = certificate_mod
        self._ortho = orthograph_mod
        self._vecs = vectors_mod
        self.bundled = certificate_mod.load_bundled_certificate()
        self.q = q_vectors()
        self.q_edges, self.q_triples = constraints(self.q)

    def replay(self, vecs, edges, triples) -> None:
        """UNSAT of a vector set: Q inside it and the certificate Valid."""
        require(set(self.q) <= set(vecs), "UNSAT claimed on a set that does not contain Q")
        g = self._ortho.OrthoGraph(self._vecs.VectorSet(tuple(vecs)), tuple(edges), tuple(triples))
        result = self._cert.verify_certificate(g, self.bundled)
        require(result.valid, f"bundled certificate does not replay: {result.reason}")

    def check_verdict(self, satisfiable, coloring, vecs, edges, triples) -> None:
        if satisfiable:
            check_coloring(coloring, len(vecs), edges, triples)
        else:
            self.replay(vecs, edges, triples)

    # -- prime fields -------------------------------------------------------

    def check_q_mod_p(self, family, p: int) -> None:
        """UNSAT over F_p: Q's images lie in the family and keep Q's constraints.

        A coloring of the family would pull back to a KS coloring of Q,
        which the certificate rules out.
        """
        images = [projection(v, p) for v in self.q]
        require(set(images) <= set(family), f"an image of Q mod {p} is missing from the family")
        m = np.array(images, dtype=np.int64).reshape(-1, 3, 3)
        e = np.array(self.q_edges)
        require(bool((np.matmul(m[e[:, 0]], m[e[:, 1]]) % p == 0).all()),
                f"an orthogonal pair of Q does not map to ef = 0 mod {p}")
        t = np.array(self.q_triples)
        require(bool(((m[t].sum(axis=1) - np.eye(3, dtype=np.int64)) % p == 0).all()),
                f"a triple of Q does not map to e + f + g = I mod {p}")
        self.replay(self.q, self.q_edges, self.q_triples)


# ---------------------------------------------------------------------------
# Projections over F_p


def projection(v, p: int) -> tuple[int, ...]:
    q = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]) % p
    require(q != 0, f"{p} divides the norm of {v}")
    inv = pow(q, -1, p)
    return tuple((inv * v[i] * v[j]) % p for i in range(3) for j in range(3))


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(3):
        pivot = next((r for r in range(rank, 3) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(3):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def check_algebra(projs, p: int) -> None:
    """All symmetric idempotents mod p: 2p^2 + 2 of them, ranks {0:1, 1:p^2, 2:p^2, 3:1}."""
    projs = list(projs)
    require(projs == sorted(set(projs)), "projections are not sorted and distinct")
    require(len(projs) == 2 * p * p + 2, f"{len(projs)} projections over F_{p}, not 2p^2+2")
    m = np.array(projs, dtype=np.int64).reshape(-1, 3, 3)
    require(bool((m == m.transpose(0, 2, 1)).all()), "a projection is not symmetric")
    require(bool((np.matmul(m, m) % p == m).all()), "a projection is not idempotent")
    ranks: dict[int, int] = {}
    for x in m.tolist():
        r = rank_mod_p(x, p)
        ranks[r] = ranks.get(r, 0) + 1
    require(ranks == {0: 1, 1: p * p, 2: p * p, 3: 1}, f"rank split {ranks}")


def check_reduced(projs, collided: bool, vecs, p: int) -> None:
    images = [projection(v, p) for v in vecs]
    require(list(projs) == sorted(set(images)), f"reduction mod {p} differs")
    require(collided == (len(set(images)) < len(images)), "collision flag is wrong")
