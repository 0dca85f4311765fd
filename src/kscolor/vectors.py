"""Exact integer 3-vector core.

Vectors are plain tuples of three Python ints, so all arithmetic is exact
and unbounded.  A vector in *canonical form* is primitive (entry gcd 1) and
well-signed: it is the chosen representative of its line.  Vector sets are
immutable, deduplicated, and sorted lexicographically so that every file we
write is byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, permutations
from operator import lt
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


def is_well_signed(v: Vec3) -> bool:
    """Sign-normalization test selecting one representative per line.

    One nonzero entry: it must be positive.  Two nonzero entries: the first
    of them must be positive.  Three nonzero entries: at least two must be
    positive (so e.g. (1,1,1) and (1,-1,1) qualify, (-1,1,-1) does not).
    """
    x, y, z = v
    if x and y and z:
        return (x < 0) + (y < 0) + (z < 0) <= 1
    first = x or y or z
    if not first:
        raise ValueError("the zero vector is neither well-signed nor its negation")
    return first > 0


def canonicalize(v: Vec3) -> Vec3:
    """Scale to a primitive vector and pick the well-signed sign.

    Idempotent, and constant on each line: canonicalize(k*v) ==
    canonicalize(v) for every nonzero integer k.
    """
    x, y, z = v
    g = math.gcd(x, y, z)
    if g == 0:
        raise ValueError("cannot canonicalize the zero vector")
    if not is_well_signed(v):  # a positive scale keeps the signs
        g = -g
    return x // g, y // g, z // g


#: trial division stops here; what it leaves above must be one prime
TRIAL_DIVISION_BOUND = 10**6


def _prime_factors(n: int) -> list[int]:
    """The distinct prime divisors of n >= 1, ascending (none for n < 2).
    ValueError if trial division to TRIAL_DIVISION_BOUND leaves a cofactor
    that is not a prime `is_prime` can decide."""
    primes, m, p = [], n, 2
    while p * p <= m and p <= TRIAL_DIVISION_BOUND:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if p * p <= m and (m >= MILLER_RABIN_BOUND or not is_prime(m)):
        raise ValueError(f"cannot factor N: trial division to {TRIAL_DIVISION_BOUND} leaves {m}, "
                         f"which is not a prime below {MILLER_RABIN_BOUND}")
    if m > 1:
        primes.append(m)
    return primes


#: Miller-Rabin to the prime bases 2 .. 41 decides primality exactly below
#: this bound (Sorenson and Webster, 2015).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Trial division by the bases, which decides n below 41^2, then
    deterministic Miller-Rabin; ValueError from MILLER_RABIN_BOUND up."""
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: "
                         f"only numbers below {MILLER_RABIN_BOUND} are tested")
    if n < 2:
        return False
    for b in MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    if n < 1681:  # 41^2: a composite below it has a prime factor below 41
        return True
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


def require_prime(p: Optional[int]) -> None:
    """ValueError unless p is a prime: the check made once where a modulus enters."""
    if p is None or not is_prime(p):
        raise ValueError(f"{p} is not prime")


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
    """Exactly one entry of magnitude 1 per row and per column, rest zero:
    the rows' absolute values are the three unit rows, in some order."""
    return sorted(tuple(map(abs, row)) for row in g) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


#: Swap x and y, cycle x -> y -> z, negate x: together they generate all 48.
SYMMETRY_GENERATORS: tuple[SignedPermutation, ...] = (
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((-1, 0, 0), (0, 1, 0), (0, 0, 1)),
)


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
        if not isinstance(vecs, tuple):  # a list would leave the set unhashable
            raise TypeError(f"vectors must be a tuple, got {type(vecs).__name__}")
        try:  # a wrong length or a non-int entry fails inside gcd or is_well_signed
            for v in vecs:  # a primitive, well-signed tuple: canonicalize(v) == v
                if not isinstance(v, tuple) or math.gcd(*v) != 1 or not is_well_signed(v):
                    raise ValueError
        except (TypeError, ValueError):
            raise ValueError(f"{v} is not in canonical form") from None
        if not all(map(lt, vecs, vecs[1:])):  # pairs are walked only to name the culprit
            u, v = next((u, v) for u, v in zip(vecs, vecs[1:]) if not u < v)
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


def _lines_in_key_order(norms: list[int], bound: int) -> tuple[Vec3, ...]:
    """The canonical vectors, ascending, of the lines whose primitive
    vectors lie in the box [-bound, bound]^3 and have a norm in the
    ascending list `norms`.

    Sorting absolute values keeps norm and box, so these are the images of
    the primitive points 0 <= x <= y <= z <= bound of those norms.  For each
    z a pointer steps up the norms, as y grows, to the first from
    y^2 + z^2 on; a pair whose window [y^2 + z^2, 2y^2 + z^2] holds none is
    skipped, and x is the root of each norm's rest that is a square: about
    bound^2 / 2 probes, not bound^3 / 6 points.  The images are the
    permutations with signs +++, -++, +-+ and ++-, one of each pair g, -g of
    the 48 signed permutations; they are primitive, so a sign flip makes
    each one canonical.

    Each image (a, b, c) is filed under the key (a*W + b)*W + c, where
    W = 2*bound + 1.  With every entry in [-bound, bound], b*W + c runs
    over W^2 consecutive values and c over W, so a step in a outweighs any
    change in b and c, and a step in b any change in c: the keys order
    exactly as the tuples do.  A line whose zero or repeated entries make
    it recur is filed once, and the slice comes out of one sort of ints.
    """
    w = 2 * bound + 1
    ww = w * w
    by_key: dict[int, Vec3] = {}
    norms = [*norms, 3 * bound * bound + 1]  # a sentinel past every window
    first = 0  # the first norm from z^2 on
    for z in range(1, bound + 1):
        zz = z * z
        while norms[first] < zz:
            first += 1
        i = first  # the first norm from y^2 + z^2 on, which only grows with y
        for y in range(z + 1):
            yz = y * y + zz
            while norms[i] < yz:
                i += 1
            j, n, top = i, norms[i], yz + y * y
            while n <= top:
                x = math.isqrt(n - yz)
                if x * x == n - yz and math.gcd(x, y, z) == 1:
                    if x:  # no zero entry: at most one minus sign is canonical
                        for a, b, c in permutations((x, y, z)):
                            k = (a * w + b) * w + c
                            by_key[k] = a, b, c
                            by_key[k - 2 * a * ww] = -a, b, c
                            by_key[k - 2 * b * w] = a, -b, c
                            by_key[k - 2 * c] = a, b, -c
                    else:
                        for a, b, c in permutations((x, y, z)):
                            for v in (a, b, c), (-a, b, c), (a, -b, c), (a, b, -c):
                                if not is_well_signed(v):
                                    v = -v[0], -v[1], -v[2]
                                by_key[(v[0] * w + v[1]) * w + v[2]] = v
                j += 1
                n = norms[j]
    return tuple(map(by_key.__getitem__, sorted(by_key)))


def _q_lines(norms: list[int]) -> tuple[Vec3, ...]:
    """The lines of Q's blocks of the ascending `norms`, ascending, from one
    scan of the box [-8, 8]^3 that holds Q.  Blocks 1, 2, 3, 6, 21 are all
    lines of their squarefree norm; blocks 33 and 77 keep only the lines
    with the absolute entries of `_MULTISET_BLOCKS`: (1,4,4) and (4,5,6)
    have those norms but are not in Q."""
    return tuple(
        v for v in _lines_in_key_order(norms, 8)
        if (block := _MULTISET_BLOCKS.get(norm_sq(v))) is None or tuple(sorted(map(abs, v))) == block
    )


def build_Qn(n: int) -> VectorSet:
    """One of the seven named blocks Q_1 ... Q_77, from the enumeration
    `_q_lines` that builds Q as well."""
    if n not in Q_BLOCK_NORMS:
        raise ValueError(f"no construction block for norm {n}")
    return VectorSet(_q_lines([n]), name=f"Q_{n}")


def build_Q() -> VectorSet:
    """The 85-vector uncolorable set: disjoint union of the seven blocks."""
    return VectorSet(_q_lines(list(Q_BLOCK_NORMS)), name="Q", n_divisor=462, height=8)


def _slice_rule(n_divisor: Optional[int] = None, height: Optional[int] = None) -> list[int]:
    """The one rule for a slice's N and H, each checked when given: N a
    positive squarefree integer, H at least 1.  Returns N's primes, factored
    once (none without N)."""
    primes = [] if n_divisor is None else _prime_factors(n_divisor)  # none for N < 2, so N < 1 fails
    if n_divisor is not None and math.prod(primes) != n_divisor:
        raise ValueError(f"N must be a positive squarefree integer, got {n_divisor}")
    if height is not None and height < 1:
        raise ValueError(f"H must be >= 1, got {height}")
    return primes


#: the greatest height `enumerate_S` scans: the scan takes about H^2 / 2
#: probes whatever N is (about 0.4 s for N = 6 at this bound on 2 vCPUs)
MAX_HEIGHT = 1000


def enumerate_S(n_divisor: int, height: int) -> VectorSet:
    """Height-bounded slice of the infinite set S(N).

    All canonical vectors v with max |entry| <= height whose norm has only
    primes dividing the squarefree N.  The full S(N) is infinite; a bounded slice
    is only conclusive upward for UNSAT verdicts.

    A point's norm is a square times its primitive part's, so each line of
    the cube with an admissible norm has a primitive vector of admissible
    norm.  The admissible norms up to 3H^2 are the products of powers of N's
    primes, so N is factored once, by `_slice_rule`, each power is one
    multiplication past the last, and no norm is tested.

    The vectors come out of `_lines_in_key_order` ascending, each filed
    under the integer key (a*W + b)*W + c, W = 2H + 1.  With every entry in
    [-H, H] these keys order as the tuples do, so no set or sort of tuples
    is built.
    """
    primes = _slice_rule(n_divisor, height)
    if height > MAX_HEIGHT:
        raise ValueError(f"H must be <= {MAX_HEIGHT}, got {height}")
    limit, norms = 3 * height * height, [1]
    for p in primes:
        more = []
        for m in norms:
            m *= p
            while m <= limit:
                more.append(m)
                m *= p
        norms += more
    return VectorSet(_lines_in_key_order(sorted(norms), height),
                     name=f"S({n_divisor})|H={height}", n_divisor=n_divisor, height=height)


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
    """Inverse of `format_vector_set`.  A `# vectors:` header must match the
    number of vector lines, so a truncated file is refused.  The `N:` and
    `H:` headers are only read here and checked by `_slice_rule`, the rule
    `enumerate_S` keeps; `N:` must also hold every norm's primes and `H:`
    bound every entry of the canonical vectors."""
    name = None
    numbers: dict[str, int] = {}  # the integer headers N, H and vectors
    vecs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("name:"):
                name = body[5:].strip()
            elif body.startswith(("N:", "H:", "vectors:")):
                key, _, value = body.partition(":")
                try:
                    numbers[key] = int(value)
                except ValueError:
                    raise ValueError(f"line {lineno}: expected an integer after '{key}:', got {raw!r}")
            continue
        try:
            x, y, z = map(int, line.split())
        except ValueError:
            raise ValueError(f"line {lineno}: expected three integers, got {raw!r}")
        if x == y == z == 0:
            raise ValueError(f"line {lineno}: zero vector not allowed")
        vecs.append((x, y, z))
    count = numbers.get("vectors")
    if count is not None and count != len(vecs):
        raise ValueError(f"header says {count} vectors, the file has {len(vecs)} vector lines")
    n, h = numbers.get("N"), numbers.get("H")
    s = VectorSet.from_iterable(vecs, name=name, n_divisor=n, height=h)
    primes = _slice_rule(n)  # N and its norms first, then H
    if n is not None:
        for q, v in {norm_sq(v): v for v in s}.items():
            rest = q
            for p in primes:
                while rest % p == 0:
                    rest //= p
            if rest > 1:
                raise ValueError(f"the norm {q} of {v} has a prime that does not divide N = {n}")
    _slice_rule(height=h)
    if h is not None:
        top = max(map(abs, chain.from_iterable(s.vectors)), default=0)
        if top > h:
            raise ValueError(f"an entry of absolute value {top} exceeds H = {h}")
    return s


def load_vector_set(path) -> VectorSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_vector_set(fh.read())


def save_vector_set(s: VectorSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_vector_set(s))
