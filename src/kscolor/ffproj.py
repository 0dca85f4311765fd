"""Projections of 3x3 matrices over prime fields, decided on lines mod p.

A projection is a symmetric idempotent matrix.  Over F_p it is 0, I, a
rank-1 projection e = q(v)^-1 v v^T for a line v of F_p^3 with
q(v) = v.v != 0, or the complement I - e of one.  Two rank-1 projections
commute iff they are equal or orthogonal, and every orthogonal pair of them
completes to a triple summing to I, because q(v x w) = q(v) q(w).  So a
Kochen-Specker coloring of the partial Boolean algebra (a two-valued
homomorphism) is exactly a KS coloring of its p^2 non-isotropic lines,
extended by h(0) = 0, h(I) = 1 and h(I - e) = 1 - h(e).

Colorability is therefore decided on lines, by the same orthogonality-graph
builder and pair/triple search as for integer vectors, with orthogonality
taken mod p.  The algebra keeps the lines it is built from; its matrices are
built only for output, and mapped back to lines only to check an outside
rank-1 family.  Integer vectors with p not dividing their norm reduce to
rank-1 projections q(v)^-1 v v^T mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .orthograph import _line, build_graph
from .solver import SolveResult, solve
from .vectors import Vec3, VectorSet, norm_sq

ENUMERATION_GUARD = 101

Mat = tuple[int, int, int, int, int, int, int, int, int]  # row-major

ZERO: Mat = (0, 0, 0, 0, 0, 0, 0, 0, 0)
IDENTITY: Mat = (1, 0, 0, 0, 1, 0, 0, 0, 1)


#: Miller-Rabin to the prime bases 2 .. 41 decides primality exactly below
#: this bound (Sorenson and Webster, 2015).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError from MILLER_RABIN_BOUND up."""
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: "
                         f"only numbers below {MILLER_RABIN_BOUND} are tested")
    if n < 2:
        return False
    for b in MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def project_mod_p(v: Vec3, p: int) -> Mat:
    """Rank-1 projection q(v)^-1 v v^T reduced mod p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = norm_sq(v) % p
    if q == 0:
        raise ValueError(f"{p} divides the norm of {v}; projection has no mod-{p} image")
    scale = pow(q, -1, p)
    return tuple((scale * v[i] * v[j]) % p for i in range(3) for j in range(3))


def _line_of(m: Mat, p: int) -> Optional[Vec3]:
    """The line v (first nonzero entry 1) with m == project_mod_p(v, p), or
    None when m is not a rank-1 projection mod p."""
    rows = [r for r in (m[0:3], m[3:6], m[6:9]) if any(x % p for x in r)]
    v = _line(rows[0], p) if rows else None
    return v if v and norm_sq(v) % p and project_mod_p(v, p) == m else None


def _complement(m: Mat, p: int) -> Mat:
    return tuple((i - x) % p for i, x in zip(IDENTITY, m))


def _color_lines(lines: Iterable[Vec3], p: int) -> tuple[SolveResult, dict[Vec3, int]]:
    """KS search on lines mod p; the colors by line when SAT."""
    s = VectorSet(tuple(sorted(lines)))
    result = solve(build_graph(s, p))
    colors = dict(zip(s.vectors, result.coloring)) if result.satisfiable else {}
    return result, colors


@dataclass(frozen=True)
class ProjAlgebra:
    p: int
    projections: tuple[Mat, ...]  # sorted row-major
    lines: tuple[Vec3, ...]  # the rank-1 elements' lines, first nonzero entry 1, sorted

    def __len__(self) -> int:
        return len(self.projections)

    def rank_counts(self) -> dict[int, int]:
        rank1 = {project_mod_p(v, self.p) for v in self.lines}
        counts: dict[int, int] = {}
        for m in self.projections:
            r = 0 if m == ZERO else 3 if m == IDENTITY else 1 if m in rank1 else 2
            counts[r] = counts.get(r, 0) + 1
        return counts


def enumerate_projections(p: int) -> ProjAlgebra:
    """All symmetric idempotent 3x3 matrices over F_p: 0, I, and e and I - e
    for the rank-1 projection e of each of the p^2 non-isotropic lines."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > ENUMERATION_GUARD:
        raise ValueError(f"enumeration refused beyond p = {ENUMERATION_GUARD}")
    reps = [(0, 0, 1)] + [(0, 1, z) for z in range(p)]
    reps += [(1, y, z) for y in range(p) for z in range(p)]
    lines = tuple(v for v in reps if norm_sq(v) % p)
    rank1 = [project_mod_p(v, p) for v in lines]
    found = [ZERO, IDENTITY, *rank1, *(_complement(e, p) for e in rank1)]
    return ProjAlgebra(p=p, projections=tuple(sorted(found)), lines=lines)


def search_ba_coloring(algebra: ProjAlgebra) -> SolveResult:
    """Two-valued homomorphism search on the partial Boolean algebra.

    Decided as a KS coloring of the algebra's lines, extended by 0 -> 0,
    I -> 1, e -> h(v) and I - e -> 1 - h(v) for e = project_mod_p(v, p).
    """
    p = algebra.p
    result, colors = _color_lines(algebra.lines, p)
    if not result.satisfiable:
        return result
    h = {ZERO: 0, IDENTITY: 1}
    for v, c in colors.items():
        e = project_mod_p(v, p)
        h[e], h[_complement(e, p)] = c, 1 - c
    return SolveResult(True, tuple(h[m] for m in algebra.projections), result.stats)


@dataclass(frozen=True)
class ReducedSet:
    p: int
    projections: tuple[Mat, ...]  # distinct, sorted
    collided: bool  # two distinct vectors shared an image


def reduce_set_mod_p(s: VectorSet, p: int) -> ReducedSet:
    images = [project_mod_p(v, p) for v in s]
    distinct = tuple(sorted(set(images)))
    return ReducedSet(p=p, projections=distinct, collided=len(distinct) < len(images))


def restricted_ks_search(projs: Sequence[Mat], p: Optional[int] = None) -> SolveResult:
    """Colorability of a rank-1 projection family over one prime.

    Each projection is mapped to its line; orthogonal lines (ef = 0) allow
    at most one 1, and orthogonal triples (e + f + g = I) demand exactly
    one.  A coloring is given per input projection.
    """
    projs = list(projs)
    if projs and p is None:
        raise ValueError("prime p required")
    lines = []
    for m in projs:
        v = _line_of(m, p)
        if v is None:
            raise ValueError(f"not a rank-1 projection mod {p}: {m}")
        lines.append(v)
    result, colors = _color_lines(set(lines), p)
    if not result.satisfiable:
        return result
    return SolveResult(True, tuple(colors[v] for v in lines), result.stats)


# ---------------------------------------------------------------------------
# Projection list file: header "p <prime>", one matrix per line row-major.


def format_projections(p: int, projs: Sequence[Mat]) -> str:
    lines = [f"p {p}"]
    for m in projs:
        lines.append(" ".join(str(e) for e in m))
    return "\n".join(lines) + "\n"


def parse_projections(text: str) -> tuple[int, tuple[Mat, ...]]:
    p = None
    mats = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if p is None:
            if len(parts) != 2 or parts[0] != "p":
                raise ValueError(f"line {lineno}: expected header 'p <prime>'")
            p = int(parts[1])
            continue
        if len(parts) != 9:
            raise ValueError(f"line {lineno}: expected nine integers")
        mats.append(tuple(int(x) for x in parts))
    if p is None:
        raise ValueError("missing 'p <prime>' header")
    return p, tuple(mats)
