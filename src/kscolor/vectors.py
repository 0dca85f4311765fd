"""Exact integer 3-vector core.

Vectors are plain tuples of three Python ints, so all arithmetic is exact
and unbounded.  A vector in *canonical form* is primitive (entry gcd 1) and
well-signed: it is the chosen representative of its line.  Vector sets are
immutable, deduplicated, and sorted lexicographically so that every file we
write is byte-reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Iterator, Optional

Vec3 = tuple[int, int, int]

#: q-values of the seven named construction blocks, in ascending order.
Q_BLOCK_NORMS = (1, 2, 3, 6, 21, 33, 77)

#: Absolute-entry multisets defining the two blocks that are NOT simply
#: "all well-signed primitive vectors of that norm".
_MULTISET_BLOCKS = {33: (2, 2, 5), 77: (2, 3, 8)}


def norm_sq(v: Vec3) -> int:
    """Sum-of-squares quadratic form x^2 + y^2 + z^2."""
    x, y, z = v
    return x * x + y * y + z * z


def dot(u: Vec3, v: Vec3) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def is_zero(v: Vec3) -> bool:
    return v == (0, 0, 0)


def is_orthogonal(u: Vec3, v: Vec3) -> bool:
    """Exact integer orthogonality test."""
    if is_zero(u) or is_zero(v):
        raise ValueError("orthogonality is not defined for the zero vector")
    return dot(u, v) == 0


def is_primitive(v: Vec3) -> bool:
    if is_zero(v):
        return False
    return math.gcd(math.gcd(abs(v[0]), abs(v[1])), abs(v[2])) == 1


def is_well_signed(v: Vec3) -> bool:
    """Sign-normalization test selecting one representative per line.

    One nonzero entry: it must be positive.  Two nonzero entries: the first
    of them must be positive.  Three nonzero entries: at least two must be
    positive (so e.g. (1,1,1) and (1,-1,1) qualify, (-1,1,-1) does not).
    """
    if is_zero(v):
        raise ValueError("the zero vector is neither well-signed nor its negation")
    nonzero = [e for e in v if e != 0]
    positives = sum(1 for e in nonzero if e > 0)
    if len(nonzero) in (1, 2):
        return nonzero[0] > 0
    return positives >= 2


def canonicalize(v: Vec3) -> Vec3:
    """Scale to a primitive vector and pick the well-signed sign.

    Idempotent, and constant on each line: canonicalize(k*v) ==
    canonicalize(v) for every nonzero integer k.
    """
    if is_zero(v):
        raise ValueError("cannot canonicalize the zero vector")
    g = math.gcd(math.gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    w = (v[0] // g, v[1] // g, v[2] // g)
    if is_well_signed(w):
        return w
    return (-w[0], -w[1], -w[2])


@lru_cache(maxsize=None)
def radical(n: int) -> int:
    """Product of the distinct prime divisors of n; radical(1) == 1."""
    if n < 1:
        raise ValueError("radical requires a positive integer")
    rad = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            rad *= p
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        rad *= m
    return rad


def is_squarefree(n: int) -> bool:
    return n >= 1 and radical(n) == n


# ---------------------------------------------------------------------------
# Signed permutations

SignedPermutation = tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]


def apply_matrix(g: SignedPermutation, v: Vec3) -> Vec3:
    return (
        g[0][0] * v[0] + g[0][1] * v[1] + g[0][2] * v[2],
        g[1][0] * v[0] + g[1][1] * v[1] + g[1][2] * v[2],
        g[2][0] * v[0] + g[2][1] * v[1] + g[2][2] * v[2],
    )


def is_signed_permutation(g: SignedPermutation) -> bool:
    """Exactly one entry of magnitude 1 per row and per column, rest zero."""
    cols = [0, 0, 0]
    for row in g:
        nz = [(j, e) for j, e in enumerate(row) if e != 0]
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            return False
        cols[nz[0][0]] += 1
    return cols == [1, 1, 1]


def signed_permutations() -> list[SignedPermutation]:
    """All 48 signed permutation matrices, in a fixed deterministic order."""
    mats = []
    for perm in permutations(range(3)):
        for signs in product((1, -1), repeat=3):
            rows = []
            for i in range(3):
                row = [0, 0, 0]
                row[perm[i]] = signs[i]
                rows.append(tuple(row))
            mats.append(tuple(rows))
    return mats


#: Swap x and y, cycle x -> y -> z, negate x: together they generate all 48.
SYMMETRY_GENERATORS: tuple[SignedPermutation, ...] = (
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((-1, 0, 0), (0, 1, 0), (0, 0, 1)),
)


def apply_symmetry(g: SignedPermutation, v: Vec3) -> Vec3:
    """Image of a canonical vector under g, re-canonicalized."""
    if not is_signed_permutation(g):
        raise ValueError("not a signed permutation matrix")
    return canonicalize(apply_matrix(g, v))


# ---------------------------------------------------------------------------
# Vector sets


@dataclass(frozen=True)
class VectorSet:
    """Ordered, duplicate-free collection of canonical vectors.

    The vectors must be canonical and strictly increasing; `from_iterable`
    canonicalizes, merges collinear or duplicate inputs and sorts.  Metadata is
    carried for honest file headers: `n_divisor` is the squarefree N of a
    height-bounded slice, `height` its bound, `name` a display label.
    """

    vectors: tuple[Vec3, ...]
    name: Optional[str] = None
    n_divisor: Optional[int] = None
    height: Optional[int] = None

    def __post_init__(self) -> None:
        vecs = self.vectors
        for v in vecs:
            if canonicalize(v) != v:
                raise ValueError(f"{v} is not in canonical form")
        for u, v in zip(vecs, vecs[1:]):
            if not u < v:
                raise ValueError(f"vectors not strictly increasing at {u}, {v}")

    @classmethod
    def from_iterable(
        cls,
        vecs: Iterable[Vec3],
        name: Optional[str] = None,
        n_divisor: Optional[int] = None,
        height: Optional[int] = None,
    ) -> "VectorSet":
        canon = sorted({canonicalize(tuple(v)) for v in vecs})
        return cls(tuple(canon), name=name, n_divisor=n_divisor, height=height)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self) -> Iterator[Vec3]:
        return iter(self.vectors)

    def __contains__(self, v: Vec3) -> bool:
        i = bisect_left(self.vectors, v)
        return i < len(self.vectors) and self.vectors[i] == v

    def union(self, other: "VectorSet", name: Optional[str] = None) -> "VectorSet":
        return VectorSet.from_iterable(self.vectors + other.vectors, name=name)

    def is_symmetry_invariant(self) -> bool:
        """True iff the set is fixed (setwise) by all 48 signed permutations.

        Checked on the three generators of that group: each maps lines
        one-to-one, so mapping the set into itself fixes it."""
        vs = set(self.vectors)
        return all(
            canonicalize(apply_matrix(g, v)) in vs
            for g in SYMMETRY_GENERATORS
            for v in vs
        )


def build_Qn(n: int) -> VectorSet:
    """One of the seven named blocks Q_1 ... Q_77.

    Blocks 1, 2, 3, 6, 21 are all lines of that norm; the norm is
    squarefree, so each of its vectors is primitive.  Blocks 33 and 77 are
    cut down to the signed permutations of the absolute-entry multisets
    {2,2,5} and {2,3,8}; vectors like (1,4,4) or (4,5,6) with the right
    norm are deliberately absent.
    """
    if n not in Q_BLOCK_NORMS:
        raise ValueError(f"no construction block for norm {n}")
    if n in _MULTISET_BLOCKS:
        vecs = [apply_matrix(g, _MULTISET_BLOCKS[n]) for g in signed_permutations()]
    else:
        cube = range(-math.isqrt(n), math.isqrt(n) + 1)
        vecs = [v for v in product(cube, repeat=3) if norm_sq(v) == n]
    return VectorSet.from_iterable(vecs, name=f"Q_{n}")


def build_Q() -> VectorSet:
    """The 85-vector uncolorable set: disjoint union of the seven blocks."""
    vecs: list[Vec3] = []
    for n in Q_BLOCK_NORMS:
        vecs.extend(build_Qn(n).vectors)
    return VectorSet.from_iterable(vecs, name="Q", n_divisor=462, height=8)


def enumerate_S(n_divisor: int, height: int) -> VectorSet:
    """Height-bounded slice of the infinite set S(N).

    All canonical vectors v with max |entry| <= height whose norm's radical
    divides the squarefree N.  The full S(N) is infinite; a bounded slice
    is only conclusive upward for UNSAT verdicts.

    A non-primitive point stands for its primitive part, which lies in the
    cube and has an admissible norm too, so no point needs filtering out.
    """
    if not is_squarefree(n_divisor):
        raise ValueError(f"N must be squarefree, got {n_divisor} (pass radical(N))")
    if height < 1:
        raise ValueError("height bound must be >= 1")
    admissible = {
        q for q in range(1, 3 * height * height + 1) if n_divisor % radical(q) == 0
    }
    cube = range(-height, height + 1)
    return VectorSet.from_iterable(
        (v for v in product(cube, repeat=3) if norm_sq(v) in admissible),
        name=f"S({n_divisor})|H={height}",
        n_divisor=n_divisor,
        height=height,
    )


# ---------------------------------------------------------------------------
# Vector-set text format: one "x y z" line per vector, '#' comments,
# header comments carrying metadata.  Round-trips bit-exactly.


def format_vector_set(s: VectorSet) -> str:
    lines = []
    if s.name is not None:
        lines.append(f"# name: {s.name}")
    if s.n_divisor is not None:
        lines.append(f"# N: {s.n_divisor}")
    if s.height is not None:
        lines.append(f"# H: {s.height}")
    lines.append(f"# vectors: {len(s)}")
    for v in s.vectors:
        lines.append(f"{v[0]} {v[1]} {v[2]}")
    return "\n".join(lines) + "\n"


def parse_vector_set(text: str) -> VectorSet:
    name = None
    n_divisor = None
    height = None
    vecs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("name:"):
                name = body[5:].strip()
            elif body.startswith("N:"):
                n_divisor = int(body[2:].strip())
            elif body.startswith("H:"):
                height = int(body[2:].strip())
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected three integers, got {raw!r}")
        try:
            v = (int(parts[0]), int(parts[1]), int(parts[2]))
        except ValueError:
            raise ValueError(f"line {lineno}: expected three integers, got {raw!r}")
        if v == (0, 0, 0):
            raise ValueError(f"line {lineno}: zero vector not allowed")
        vecs.append(v)
    return VectorSet.from_iterable(vecs, name=name, n_divisor=n_divisor, height=height)


def load_vector_set(path) -> VectorSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_vector_set(fh.read())


def save_vector_set(s: VectorSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_vector_set(s))
