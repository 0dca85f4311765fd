"""Colorability decision procedures.

The main engine is depth-first backtracking over {0,1} vertex values with
full unit propagation after every decision: an orthogonal pair with a 1
forces the partner to 0, a triple with two 0s forces the third to 1, a
triple of three 0s (or a pair of two 1s) is a conflict.  Decision vertex is
the unassigned one lying in the most unresolved triples, ties to the lowest
index; value order is 1 then 0.  Every decision is taken at a propagation
fixpoint, where each neighbour of a 1 is 0.  The three pairs of a triple are
edges, so no unassigned vertex then lies in a triple that holds a 1: its
count is just its number of triples, and one static order serves every
decision.  Everything is deterministic.

A 2^n brute-force oracle and a CNF export (with its own tiny brute-force
satisfiability check) provide independent routes to the same verdicts.
A generic DPLL over clause lists (`solve_cnf`) is kept as well.  Nothing in
the package calls it: the tests use it as an oracle on clause encodings,
and the benchmark's tracer names it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .orthograph import OrthoGraph, build_graph
from .vectors import VectorSet, Vec3

BRUTE_FORCE_LIMIT = 25
CNF_BRUTE_LIMIT = 20

_BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@dataclass
class SolveStats:
    nodes: int = 0
    propagations: int = 0
    max_depth: int = 0


@dataclass(frozen=True)
class SolveResult:
    satisfiable: bool
    coloring: Optional[tuple[int, ...]]  # per-vertex colors when SAT
    stats: SolveStats

    @property
    def verdict(self) -> str:
        return "SAT" if self.satisfiable else "UNSAT"


def verify_coloring(g: OrthoGraph, coloring: Sequence[int]) -> bool:
    """Check the pair and triple constraints for a total {0,1} coloring."""
    if len(coloring) != len(g) or any(c not in (0, 1) for c in coloring):
        raise ValueError("coloring must assign 0 or 1 to every vertex")
    for i, j in g.edges:
        if coloring[i] + coloring[j] > 1:
            return False
    for i, j, k in g.triples:
        if coloring[i] + coloring[j] + coloring[k] != 1:
            return False
    return True


class _Search:
    """Backtracking state shared by the public solve entry points."""

    def __init__(self, n: int, edges, triples):
        self.assign: list[Optional[int]] = [None] * n
        self.trail: list[int] = []
        self.neighbors = [[] for _ in range(n)]
        for i, j in edges:
            self.neighbors[i].append(j)
            self.neighbors[j].append(i)
        self.vertex_triples = [[] for _ in range(n)]
        for t in triples:
            for v in t:
                self.vertex_triples[v].append(t)
        self.order = sorted(range(n), key=lambda v: (-len(self.vertex_triples[v]), v))
        self.stats = SolveStats()

    def _set(self, v: int, c: int) -> bool:
        """Assign and propagate to fixpoint; False on conflict (no undo)."""
        assign = self.assign
        if assign[v] is not None:
            return assign[v] == c
        assign[v] = c
        self.trail.append(v)
        queue = [v]
        while queue:
            u = queue.pop()
            if assign[u] == 1:
                for w in self.neighbors[u]:
                    cw = assign[w]
                    if cw == 1:
                        return False
                    if cw is None:
                        assign[w] = 0
                        self.trail.append(w)
                        self.stats.propagations += 1
                        queue.append(w)
            else:
                for t in self.vertex_triples[u]:
                    zeros = 0
                    free = -1
                    for w in t:
                        cw = assign[w]
                        if cw == 0:
                            zeros += 1
                        elif cw is None:
                            free = w
                    if zeros == 3:
                        return False
                    if zeros == 2 and free >= 0:
                        assign[free] = 1
                        self.trail.append(free)
                        self.stats.propagations += 1
                        queue.append(free)
        return True

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            self.assign[self.trail.pop()] = None

    def _pick(self) -> Optional[int]:
        """First unassigned vertex in the static decision order."""
        return next((v for v in self.order if self.assign[v] is None), None)

    def run(self, fixed: Sequence[tuple[int, int]] = ()) -> SolveResult:
        stats = self.stats
        for v, c in fixed:
            if not self._set(v, c):
                return SolveResult(False, None, stats)
        path: list[tuple[int, int, int]] = []  # (vertex, value, trail mark) per decision
        v, value = self._pick(), 1
        while v is not None:
            stats.nodes += 1
            mark = len(self.trail)
            if self._set(v, value):
                path.append((v, value, mark))
                stats.max_depth = max(stats.max_depth, len(path))
                v, value = self._pick(), 1
                continue
            self._undo(mark)
            while value == 0:  # 0 failed too: back up to the latest decision at 1
                if not path:
                    return SolveResult(False, None, stats)
                v, value, mark = path.pop()
                self._undo(mark)
            value = 0
        return SolveResult(True, tuple(self.assign), stats)  # type: ignore[arg-type]


def _wlog_fixed(g: OrthoGraph) -> list[tuple[int, int]]:
    """Fix the standard-basis triple: (1,0,0) -> 1, the other axes -> 0.

    Sound for UNSAT because the set must be invariant under all 48 signed
    permutations, whose coordinate 3-cycles act transitively on the basis
    triple, so some rotation of any hypothetical coloring assigns the 1 to
    (1,0,0).
    """
    vecs = g.vectors
    if not all(b in vecs for b in _BASIS):
        raise ValueError("symmetry shortcut needs the standard basis vectors present")
    if not g.vector_set.is_symmetry_invariant():
        raise ValueError("symmetry shortcut needs a signed-permutation-invariant set")
    idx = {v: i for i, v in enumerate(vecs)}
    return [(idx[_BASIS[0]], 1), (idx[_BASIS[1]], 0), (idx[_BASIS[2]], 0)]


def solve(g: OrthoGraph, wlog: bool = False) -> SolveResult:
    """Decide colorability; SAT results carry a verified coloring.

    With wlog=True the first basis triple coloring is fixed up front, which
    is only admitted for signed-permutation-invariant sets containing the
    standard basis.  SAT verdicts found under the restriction are genuine;
    UNSAT verdicts transfer to the unrestricted problem by symmetry.
    """
    fixed = _wlog_fixed(g) if wlog else []
    search = _Search(len(g), g.edges, g.triples)
    result = search.run(fixed)
    if result.satisfiable and not verify_coloring(g, result.coloring):
        raise RuntimeError("search returned a coloring that violates a constraint")
    return result


def solve_bruteforce(g: OrthoGraph) -> SolveResult:
    """Exhaustive 2^n oracle; returns the lexicographically least coloring."""
    n = len(g)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force refused beyond {BRUTE_FORCE_LIMIT} vertices")
    # Vertex i is bit (n-1-i) so that integer order is lexicographic order
    # on coloring tuples.
    edge_masks = [(1 << (n - 1 - i)) | (1 << (n - 1 - j)) for i, j in g.edges]
    triple_masks = [
        (1 << (n - 1 - i)) | (1 << (n - 1 - j)) | (1 << (n - 1 - k))
        for i, j, k in g.triples
    ]
    stats = SolveStats()
    for m in range(1 << n):
        stats.nodes += 1
        ok = True
        for em in edge_masks:
            if (m & em).bit_count() > 1:
                ok = False
                break
        if ok:
            for tm in triple_masks:
                if (m & tm).bit_count() != 1:
                    ok = False
                    break
        if ok:
            coloring = tuple((m >> (n - 1 - i)) & 1 for i in range(n))
            return SolveResult(True, coloring, stats)
    return SolveResult(False, None, stats)


def solve_set(s: VectorSet, wlog: bool = False) -> SolveResult:
    return solve(build_graph(s), wlog=wlog)


# ---------------------------------------------------------------------------
# CNF export


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]


def export_cnf(g: OrthoGraph) -> CnfFormula:
    """Variable i+1 <-> vertex i; triples give at-least-one clauses, edges
    give at-most-one clauses."""
    clauses = []
    for i, j, k in g.triples:
        clauses.append((i + 1, j + 1, k + 1))
    for i, j in g.edges:
        clauses.append((-(i + 1), -(j + 1)))
    return CnfFormula(len(g), tuple(clauses))


def to_dimacs(cnf: CnfFormula, vectors: Optional[Sequence[Vec3]] = None) -> str:
    lines = []
    if vectors is not None:
        for i, v in enumerate(vectors):
            lines.append(f"c vertex {i + 1} = {v[0]} {v[1]} {v[2]}")
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def cnf_bruteforce_satisfiable(cnf: CnfFormula) -> bool:
    """Exhaustive CNF check, independent of the DPLL and graph engines."""
    n = cnf.num_vars
    if n > CNF_BRUTE_LIMIT:
        raise ValueError(f"CNF brute force refused beyond {CNF_BRUTE_LIMIT} variables")
    for m in range(1 << n):
        if all(
            any((m >> (abs(l) - 1)) & 1 == (1 if l > 0 else 0) for l in clause)
            for clause in cnf.clauses
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Generic DPLL over clause lists (variables 1..n, signed int literals)


def solve_cnf(num_vars: int, clauses: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Deterministic DPLL; returns a satisfying 0/1 tuple or None.

    Static decision order by descending literal occurrence count, value 1
    first.  Unit propagation uses per-clause satisfied/false counters with
    trail-based undo.
    """
    clause_list = [tuple(c) for c in clauses]
    if any(len(c) == 0 for c in clause_list):
        return None
    occurs: dict[int, list[int]] = {}
    for ci, clause in enumerate(clause_list):
        for lit in clause:
            occurs.setdefault(lit, []).append(ci)

    assign: list[Optional[int]] = [None] * (num_vars + 1)  # 1-based
    sat_count = [0] * len(clause_list)
    false_count = [0] * len(clause_list)
    trail: list[int] = []

    counts = [0] * (num_vars + 1)
    for clause in clause_list:
        for lit in clause:
            counts[abs(lit)] += 1
    order = sorted(range(1, num_vars + 1), key=lambda v: (-counts[v], v))

    def set_var(v: int, value: int) -> bool:
        # Counters are committed in full for every trailed assignment, even
        # when a conflict aborts propagation, so undo stays consistent.
        queue = [(v, value)]
        while queue:
            u, val = queue.pop()
            if assign[u] is not None:
                if assign[u] != val:
                    return False
                continue
            assign[u] = val
            trail.append(u)
            true_lit = u if val == 1 else -u
            for ci in occurs.get(true_lit, ()):
                sat_count[ci] += 1
            conflict = False
            for ci in occurs.get(-true_lit, ()):
                false_count[ci] += 1
                clause = clause_list[ci]
                if sat_count[ci] == 0:
                    remaining = len(clause) - false_count[ci]
                    if remaining == 0:
                        conflict = True
                    elif remaining == 1:
                        for lit in clause:
                            w = abs(lit)
                            if assign[w] is None:
                                queue.append((w, 1 if lit > 0 else 0))
                                break
            if conflict:
                return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            v = trail.pop()
            val = assign[v]
            true_lit = v if val == 1 else -v
            for ci in occurs.get(true_lit, ()):
                sat_count[ci] -= 1
            for ci in occurs.get(-true_lit, ()):
                false_count[ci] -= 1
            assign[v] = None

    def next_free() -> Optional[int]:
        return next((u for u in order if assign[u] is None), None)

    path: list[tuple[int, int, int]] = []  # (variable, value, trail mark) per decision
    v, value = next_free(), 1
    while v is not None:
        mark = len(trail)
        if set_var(v, value):
            path.append((v, value, mark))
            v, value = next_free(), 1
            continue
        undo(mark)
        while value == 0:  # 0 failed too: back up to the latest decision at 1
            if not path:
                return None
            v, value, mark = path.pop()
            undo(mark)
        value = 0
    model = tuple(assign[v] for v in range(1, num_vars + 1))
    if not all(
        any(model[abs(l) - 1] == (1 if l > 0 else 0) for l in clause)
        for clause in clause_list
    ):
        raise RuntimeError("DPLL returned a model that violates a clause")
    return model


# ---------------------------------------------------------------------------
# Coloring file format: "x y z <0|1>" per line.


def format_coloring(vectors: Sequence[Vec3], coloring: Sequence[int]) -> str:
    lines = [
        f"{v[0]} {v[1]} {v[2]} {c}" for v, c in zip(vectors, coloring, strict=True)
    ]
    return "\n".join(lines) + "\n"


def parse_coloring(text: str, vectors: Sequence[Vec3]) -> tuple[int, ...]:
    by_vec = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4 or parts[3] not in ("0", "1"):
            raise ValueError(f"line {lineno}: expected 'x y z <0|1>'")
        by_vec[(int(parts[0]), int(parts[1]), int(parts[2]))] = int(parts[3])
    try:
        return tuple(by_vec[v] for v in vectors)
    except KeyError as exc:
        raise ValueError(f"coloring missing vector {exc.args[0]}") from None
