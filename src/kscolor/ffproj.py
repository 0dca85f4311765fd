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

The prime is checked once, where it enters: by each function here that
takes p, and by `build_graph`; the loops below them never test it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .orthograph import build_graph
from .solver import SolveResult, solve
from .vectors import Vec3, VectorSet, norm_sq, require_prime

ENUMERATION_GUARD = 101

Mat = tuple[int, int, int, int, int, int, int, int, int]  # row-major

ZERO: Mat = (0, 0, 0, 0, 0, 0, 0, 0, 0)
IDENTITY: Mat = (1, 0, 0, 0, 1, 0, 0, 0, 1)


def _projection(v: Vec3, p: int) -> Mat:
    """project_mod_p for a modulus already checked to be prime."""
    q = norm_sq(v) % p
    if q == 0:
        raise ValueError(f"{p} divides the norm of {v}; projection has no mod-{p} image")
    scale = pow(q, -1, p)
    return tuple((scale * v[i] * v[j]) % p for i in range(3) for j in range(3))


def project_mod_p(v: Vec3, p: int) -> Mat:
    """Rank-1 projection q(v)^-1 v v^T reduced mod p."""
    require_prime(p)
    return _projection(v, p)


def _line_of(m: Mat, p: int) -> Optional[Vec3]:
    """The line v (first nonzero entry 1) with m == project_mod_p(v, p), or
    None when m is not a rank-1 projection mod p."""
    rows = [r for r in (m[0:3], m[3:6], m[6:9]) if any(x % p for x in r)]
    if not rows:
        return None
    inv = pow(next(x for x in rows[0] if x % p), -1, p)
    v = tuple(x * inv % p for x in rows[0])
    return v if norm_sq(v) % p and _projection(v, p) == m else None


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
    """The projection algebra of F_p^3: its projections and its rank-1 lines."""
    p: int
    projections: tuple[Mat, ...]  # sorted row-major
    lines: tuple[Vec3, ...]  # the rank-1 elements' lines, first nonzero entry 1, sorted

    def __len__(self) -> int:
        return len(self.projections)

    def rank_counts(self) -> dict[int, int]:
        return {0: 1, 1: len(self.lines), 2: len(self.lines), 3: 1}  # 0, I, each e and I - e


def enumerate_projections(p: int) -> ProjAlgebra:
    """All symmetric idempotent 3x3 matrices over F_p: 0, I, and e and I - e
    for the rank-1 projection e of each of the p^2 non-isotropic lines."""
    require_prime(p)
    if p > ENUMERATION_GUARD:
        raise ValueError(f"enumeration refused beyond p = {ENUMERATION_GUARD}")
    reps = [(0, 0, 1)] + [(0, 1, z) for z in range(p)]
    reps += [(1, y, z) for y in range(p) for z in range(p)]
    lines = tuple(v for v in reps if norm_sq(v) % p)
    rank1 = [_projection(v, p) for v in lines]
    found = [ZERO, IDENTITY, *rank1, *(_complement(e, p) for e in rank1)]
    return ProjAlgebra(p=p, projections=tuple(sorted(found)), lines=lines)


def search_ba_coloring(algebra: ProjAlgebra) -> SolveResult:
    """Two-valued homomorphism search on the partial Boolean algebra.

    Decided as a KS coloring of the algebra's lines, extended by 0 -> 0,
    I -> 1, e -> h(v) and I - e -> 1 - h(v) for e = project_mod_p(v, p).
    """
    p = algebra.p
    result, colors = _color_lines(algebra.lines, p)  # build_graph checks p
    if not result.satisfiable:
        return result
    h = {ZERO: 0, IDENTITY: 1}
    for v, c in colors.items():
        e = _projection(v, p)
        h[e], h[_complement(e, p)] = c, 1 - c
    return SolveResult(True, tuple(h[m] for m in algebra.projections), result.stats)


@dataclass(frozen=True)
class ReducedSet:
    """A vector set's rank-1 projections mod p."""
    p: int
    projections: tuple[Mat, ...]  # distinct, sorted
    collided: bool  # two distinct vectors shared an image


def reduce_set_mod_p(s: VectorSet, p: int) -> ReducedSet:
    require_prime(p)
    images = [_projection(v, p) for v in s]
    distinct = tuple(sorted(set(images)))
    return ReducedSet(p=p, projections=distinct, collided=len(distinct) < len(images))


def restricted_ks_search(projs: Sequence[Mat], p: int) -> SolveResult:
    """Colorability of a rank-1 projection family over one prime.

    Each projection is mapped to its line; orthogonal lines (ef = 0) allow
    at most one 1, and orthogonal triples (e + f + g = I) demand exactly
    one.  A coloring is given per input projection.
    """
    require_prime(p)
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
        header = p is None
        try:
            if header:
                tag, prime = parts
                if tag != "p":
                    raise ValueError(tag)
                p = int(prime)
            elif len(parts) == 9:
                mats.append(tuple(int(x) for x in parts))
            else:
                raise ValueError(parts)
        except ValueError:
            expected = "header 'p <prime>'" if header else "nine integers"
            raise ValueError(f"line {lineno}: expected {expected}") from None
        if header:
            try:
                require_prime(p)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    if p is None:
        raise ValueError("missing 'p <prime>' header")
    return p, tuple(mats)
