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
decision.  The walk for the next decision resumes from a cursor saved with
each decision, not from the start of the order.  Everything is
deterministic.

`solve` gives every verdict the package and its CLI report.  The 2^n
brute force (`solve_bruteforce`), the CNF export's tiny brute-force
satisfiability check and a generic DPLL over clause lists (`solve_cnf`)
reach the same verdicts by other routes.  Only the tests reach them, as
oracles; nothing in the package calls them, and the benchmark's tracer
names them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .certificate import BASIS_WLOG, Certificate, verify_certificate
from .orthograph import OrthoGraph, build_graph
from .vectors import VectorSet, Vec3

BRUTE_FORCE_LIMIT = 25
CNF_BRUTE_LIMIT = 20


@dataclass(frozen=True)
class SolveStats:
    """Search counters: nodes, propagations and maximum depth."""
    nodes: int = 0
    propagations: int = 0
    max_depth: int = 0


@dataclass(frozen=True)
class SolveResult:
    """A verdict, the coloring when SAT, and the search counters."""
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
        self.neighbors = neighbors = [[] for _ in range(n)]
        for i, j in edges:
            neighbors[i].append(j)
            neighbors[j].append(i)
        self.vertex_triples = vertex_triples = [[] for _ in range(n)]
        for t in triples:
            a, b, c = t
            vertex_triples[a].append(t)
            vertex_triples[b].append(t)
            vertex_triples[c].append(t)
        # most triples first: a reversed sort is still stable, so ties keep index order
        self.order = sorted(range(n), key=[len(t) for t in vertex_triples].__getitem__,
                            reverse=True)
        self.cursor = 0  # every position of order before it is assigned
        self.nodes = self.propagations = self.max_depth = 0

    def _set(self, v: int, c: int) -> bool:
        """Assign the unassigned v and propagate to fixpoint; False on conflict
        (no undo).  v is the one start vertex or a decision from `_pick`."""
        assign = self.assign
        assign[v] = c
        trail = self.trail
        trail.append(v)
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
                        trail.append(w)
                        self.propagations += 1
                        queue.append(w)
            else:
                for a, b, w in self.vertex_triples[u]:
                    ca, cb, cw = assign[a], assign[b], assign[w]
                    zeros = (ca == 0) + (cb == 0) + (cw == 0)
                    if zeros == 2:
                        # the one vertex not at 0, if it is unassigned
                        free = w if cw is None else b if cb is None else a if ca is None else -1
                        if free >= 0:
                            assign[free] = 1
                            trail.append(free)
                            self.propagations += 1
                            queue.append(free)
                    elif zeros == 3:
                        return False
        return True

    def _undo(self, mark: int) -> None:
        assign, trail = self.assign, self.trail
        for v in trail[mark:]:
            assign[v] = None
        del trail[mark:]

    def _pick(self) -> Optional[int]:
        """First unassigned vertex in the static decision order.

        The walk resumes from the cursor and leaves it on the vertex it
        returns.  Every earlier position was assigned at a shallower
        decision, and stays assigned until `run` undoes that decision and
        restores the cursor saved with it.
        """
        order, assign = self.order, self.assign
        i, n = self.cursor, len(order)
        while i < n and assign[order[i]] is not None:
            i += 1
        self.cursor = i
        return order[i] if i < n else None

    def _result(self, coloring: Optional[tuple[int, ...]]) -> SolveResult:
        stats = SolveStats(self.nodes, self.propagations, self.max_depth)
        return SolveResult(coloring is not None, coloring, stats)

    def run(self, first: Optional[int] = None) -> SolveResult:
        """Search, setting the one start vertex `first` (if any) to 1 first."""
        if first is not None and not self._set(first, 1):
            return self._result(None)
        path: list[tuple[int, int, int, int]] = []  # (vertex, value, trail mark, cursor) per decision
        v, value = self._pick(), 1
        while v is not None:
            self.nodes += 1
            mark = len(self.trail)
            if self._set(v, value):
                path.append((v, value, mark, self.cursor))
                self.max_depth = max(self.max_depth, len(path))
                v, value = self._pick(), 1
                continue
            self._undo(mark)
            while value == 0:  # 0 failed too: back up to the latest decision at 1
                if not path:
                    return self._result(None)
                v, value, mark, self.cursor = path.pop()
                self._undo(mark)
            value = 0
        return self._result(tuple(self.assign))  # type: ignore[arg-type]


def _wlog_vertex(g: OrthoGraph) -> int:
    """The index of (1,0,0), the one start vertex set to 1, once the
    certificate step `BASIS_WLOG` replays on g; propagation then sets the
    other two axes to 0."""
    replay = verify_certificate(g, Certificate((BASIS_WLOG,)))
    if replay.failed_step is not None:
        raise ValueError(f"symmetry shortcut needs a set on which the basis wlog step "
                         f"replays: {replay.reason}")
    return g.vectors.index(BASIS_WLOG.vertex)


def solve(g: OrthoGraph, wlog: bool = False) -> SolveResult:
    """Decide colorability; SAT results carry a verified coloring.

    With wlog=True the search starts from one vertex, (1,0,0), set to 1
    up front, and propagation sets (0,1,0) and (0,0,1) to 0.  This is
    admitted only where the bundled certificate's first step, `BASIS_WLOG`,
    replays: the basis must be present and the set fixed by the x<->y and
    x<->z swaps.  SAT verdicts found under the restriction are genuine;
    UNSAT verdicts transfer to the unrestricted problem by that step.
    """
    first = _wlog_vertex(g) if wlog else None
    result = _Search(len(g), g.edges, g.triples).run(first)
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
    for m in range(1 << n):  # the (m + 1)-th coloring tried
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
            return SolveResult(True, coloring, SolveStats(nodes=m + 1))
    return SolveResult(False, None, SolveStats(nodes=1 << n))


def solve_set(s: VectorSet, wlog: bool = False) -> SolveResult:
    return solve(build_graph(s), wlog=wlog)


# ---------------------------------------------------------------------------
# CNF export


@dataclass(frozen=True)
class CnfFormula:
    """A CNF over variables 1..num_vars, clauses as signed literals."""
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


def to_dimacs(cnf: CnfFormula, vectors: Sequence[Vec3]) -> str:
    lines = [f"c vertex {i + 1} = {v[0]} {v[1]} {v[2]}" for i, v in enumerate(vectors)]
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
# Coloring file format: an entry's integers, then its color <0|1>, per line.


def format_coloring(entries: Sequence[Sequence[int]], coloring: Sequence[int]) -> str:
    """One line per entry (a vector or a projection): its integers, then its color."""
    return "".join(" ".join(map(str, e)) + f" {c}\n"
                   for e, c in zip(entries, coloring, strict=True))


def parse_coloring(text: str, vectors: Sequence[Vec3]) -> tuple[int, ...]:
    """The colors of vectors, in order; the file must color each of them once
    and nothing else."""
    members = set(vectors)
    by_vec = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            x, y, z, color = line.split()
            if color not in ("0", "1"):
                raise ValueError(color)
            v = (int(x), int(y), int(z))
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'x y z <0|1>'") from None
        if v not in members:
            raise ValueError(f"line {lineno}: vector {v} is not in the set")
        if v in by_vec:
            raise ValueError(f"line {lineno}: vector {v} is colored twice")
        by_vec[v] = int(color)
    try:
        return tuple(by_vec[v] for v in vectors)
    except KeyError as exc:
        raise ValueError(f"coloring missing vector {exc.args[0]}") from None
