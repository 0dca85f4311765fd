"""Replayable uncolorability certificates.

A certificate is an ordered list of steps driving a partial coloring of an
orthogonality graph into a contradiction:

* ``wlog``          fix a vertex to a color; each symmetric alternative is
                    discharged by an explicit signed-permutation witness
                    that maps the alternative vertex onto the fixed one,
                    maps the vertex set onto itself, and carries every
                    previously fixed assignment onto an equal one.  The
                    vertex and its alternatives must cover a context that
                    puts the color on one of them: for 1, a triple whose
                    other vertices are all assigned 0; for 0, an edge with
                    both ends among them.
* ``propagate``     a conclusion forced by a single edge or triple of the
                    graph under the current partial coloring.
* ``contradiction`` a vertex forced to both colors, or a context violated
                    by the current coloring.

The replay is purely mechanical; no step is trusted, every orthogonality
claim and witness matrix is re-checked against the graph.  Colors are 0
or 1; any other color is a parse error.

Text format (one step per line, '#' comments, tokens whitespace-separated,
commas may hug numbers):

    wlog X Y Z -> C [alt X' Y' Z' via G11 G12 G13 G21 G22 G23 G31 G32 G33]...
    propagate X1 Y1 Z1 , X2 Y2 Z2 [ , X3 Y3 Z3 ] => X Y Z -> C
    contradiction vertex X Y Z
    contradiction context X1 Y1 Z1 , X2 Y2 Z2 [ , X3 Y3 Z3 ]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .orthograph import OrthoGraph
from .vectors import (
    SignedPermutation,
    Vec3,
    apply_matrix,
    canonicalize,
    is_signed_permutation,
)


@dataclass(frozen=True)
class WlogFix:
    vertex: Vec3
    color: int
    alternatives: tuple[tuple[Vec3, SignedPermutation], ...]


@dataclass(frozen=True)
class Propagate:
    context: tuple[Vec3, ...]  # 2 or 3 vectors
    vertex: Vec3
    color: int


@dataclass(frozen=True)
class Contradiction:
    vertex: Optional[Vec3] = None
    context: Optional[tuple[Vec3, ...]] = None


Step = Union[WlogFix, Propagate, Contradiction]


@dataclass(frozen=True)
class Certificate:
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class CertResult:
    valid: bool
    failed_step: Optional[int] = None  # 0-based index of the unsound step
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.valid


def _context_key(
    index: dict[Vec3, int], constraints: set[tuple[int, ...]], context: tuple[Vec3, ...]
):
    """Index tuple of the context if it is an edge/triple of the graph, else None.

    `index` maps each vertex to its index, `constraints` holds the graph's
    edges and triples."""
    if any(v not in index for v in context):
        return None
    key = tuple(sorted(index[v] for v in context))
    return key if key in constraints else None


def verify_certificate(g: OrthoGraph, cert: Certificate) -> CertResult:
    """Replay a certificate against a graph; every step is re-checked."""
    index = {v: i for i, v in enumerate(g.vectors)}
    constraints = set(g.edges) | set(g.triples)
    assigned: dict[Vec3, int] = {}
    forced: dict[Vec3, set[int]] = {}

    def fail(i: int, reason: str) -> CertResult:
        return CertResult(False, i, reason)

    for i, step in enumerate(cert.steps):
        if isinstance(step, WlogFix):
            if step.vertex not in index:
                return fail(i, f"vertex {step.vertex} not in graph")
            if step.vertex in assigned:
                return fail(i, f"vertex {step.vertex} already assigned")
            for alt_vertex, gmat in step.alternatives:
                if alt_vertex not in index:
                    return fail(i, f"alternative {alt_vertex} not in graph")
                if not is_signed_permutation(gmat):
                    return fail(i, "witness is not a signed permutation matrix")
                # gmat is a signed permutation, so its images need no re-check
                image = {canonicalize(apply_matrix(gmat, v)) for v in index}
                if image != index.keys():
                    return fail(i, "witness does not map the vertex set onto itself")
                if canonicalize(apply_matrix(gmat, alt_vertex)) != step.vertex:
                    return fail(i, f"witness does not map {alt_vertex} to {step.vertex}")
                for u, c in assigned.items():
                    w = canonicalize(apply_matrix(gmat, u))
                    if assigned.get(w) != c:
                        return fail(i, f"witness moves fixed assignment {u}->{c} onto "
                                       f"unmatched vertex {w}")
            cover = {index[step.vertex], *(index[alt] for alt, _ in step.alternatives)}
            if step.color == 1:  # a triple's 1 lies in cover when its other vertices are 0
                covered = any(all(k in cover or assigned.get(g.vectors[k]) == 0 for k in t)
                              for t in g.triples)
            else:  # an edge inside cover holds a 0 there
                covered = step.color == 0 and any(a in cover and b in cover for a, b in g.edges)
            if not covered:
                return fail(i, f"{step.vertex} and its alternatives cover no context "
                               f"forcing {step.color}")
            assigned[step.vertex] = step.color
            forced.setdefault(step.vertex, set()).add(step.color)
        elif isinstance(step, Propagate):
            key = _context_key(index, constraints, step.context)
            if key is None:
                return fail(i, f"context {step.context} is not an edge/triple of the graph")
            if step.vertex not in step.context:
                return fail(i, f"conclusion vertex {step.vertex} not in its context")
            others = [v for v in step.context if v != step.vertex]
            if len(step.context) == 2:
                sound = step.color == 0 and assigned.get(others[0]) == 1
            else:
                if step.color == 0:
                    sound = any(assigned.get(v) == 1 for v in others)
                else:
                    sound = step.color == 1 and all(assigned.get(v) == 0 for v in others)
            if not sound:
                return fail(i, f"conclusion {step.vertex}->{step.color} is not forced")
            forced.setdefault(step.vertex, set()).add(step.color)
            if step.vertex not in assigned:
                assigned[step.vertex] = step.color
        elif isinstance(step, Contradiction):
            if step.vertex is not None:
                if forced.get(step.vertex) != {0, 1}:
                    return fail(i, f"vertex {step.vertex} is not forced to both colors")
            elif step.context is not None:
                key = _context_key(index, constraints, step.context)
                if key is None:
                    return fail(i, "cited context is not in the graph")
                colors = [assigned.get(v) for v in step.context]
                if any(c is None for c in colors):
                    return fail(i, "cited context is not fully assigned")
                total = sum(colors)
                violated = total > 1 or (len(colors) == 3 and total != 1)
                if not violated:
                    return fail(i, "cited context is not violated")
            else:
                return fail(i, "contradiction step cites nothing")
            if i != len(cert.steps) - 1:
                return fail(i, "contradiction before end of certificate")
            return CertResult(True)
        else:  # pragma: no cover
            return fail(i, f"unknown step type {type(step).__name__}")
    return CertResult(False, None, "no contradiction reached")


# ---------------------------------------------------------------------------
# Text format


def _fmt_vec(v: Vec3) -> str:
    return f"{v[0]} {v[1]} {v[2]}"


def _fmt_mat(m: SignedPermutation) -> str:
    return " ".join(str(e) for row in m for e in row)


def format_certificate(cert: Certificate) -> str:
    lines = []
    for step in cert.steps:
        if isinstance(step, WlogFix):
            parts = [f"wlog {_fmt_vec(step.vertex)} -> {step.color}"]
            for alt_vertex, gmat in step.alternatives:
                parts.append(f"alt {_fmt_vec(alt_vertex)} via {_fmt_mat(gmat)}")
            lines.append(" ".join(parts))
        elif isinstance(step, Propagate):
            ctx = " , ".join(_fmt_vec(v) for v in step.context)
            lines.append(f"propagate {ctx} => {_fmt_vec(step.vertex)} -> {step.color}")
        elif isinstance(step, Contradiction):
            if step.vertex is not None:
                lines.append(f"contradiction vertex {_fmt_vec(step.vertex)}")
            else:
                ctx = " , ".join(_fmt_vec(v) for v in step.context)
                lines.append(f"contradiction context {ctx}")
    return "\n".join(lines) + "\n"


class _Tokens:
    def __init__(self, line: str, lineno: int):
        self.toks = line.replace(",", " , ").split()
        self.pos = 0
        self.lineno = lineno

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError(f"line {self.lineno}: unexpected end of step")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ValueError(f"line {self.lineno}: expected {tok!r}, got {got!r}")

    def take_int(self) -> int:
        tok = self.take()
        try:
            return int(tok)
        except ValueError:
            raise ValueError(f"line {self.lineno}: expected integer, got {tok!r}")

    def take_color(self) -> int:
        tok = self.take()
        if tok not in ("0", "1"):
            raise ValueError(f"line {self.lineno}: expected color 0 or 1, got {tok!r}")
        return int(tok)

    def take_vec(self) -> Vec3:
        return (self.take_int(), self.take_int(), self.take_int())

    def take_mat(self) -> SignedPermutation:
        nums = [self.take_int() for _ in range(9)]
        return (tuple(nums[0:3]), tuple(nums[3:6]), tuple(nums[6:9]))

    def done(self) -> None:
        if self.peek() is not None:
            raise ValueError(f"line {self.lineno}: trailing tokens {self.toks[self.pos:]}")


def _parse_context(tk: _Tokens, stop: str) -> tuple[Vec3, ...]:
    vecs = [tk.take_vec()]
    while tk.peek() == ",":
        tk.take()
        vecs.append(tk.take_vec())
    if len(vecs) not in (2, 3):
        raise ValueError(f"line {tk.lineno}: context must have 2 or 3 vectors")
    if stop:
        tk.expect(stop)
    return tuple(vecs)


def parse_certificate(text: str) -> Certificate:
    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tk = _Tokens(line, lineno)
        kind = tk.take()
        if kind == "wlog":
            vertex = tk.take_vec()
            tk.expect("->")
            color = tk.take_color()
            alternatives = []
            while tk.peek() == "alt":
                tk.take()
                alt_vertex = tk.take_vec()
                tk.expect("via")
                alternatives.append((alt_vertex, tk.take_mat()))
            tk.done()
            steps.append(WlogFix(vertex, color, tuple(alternatives)))
        elif kind == "propagate":
            context = _parse_context(tk, "=>")
            vertex = tk.take_vec()
            tk.expect("->")
            color = tk.take_color()
            tk.done()
            steps.append(Propagate(context, vertex, color))
        elif kind == "contradiction":
            form = tk.take()
            if form == "vertex":
                vertex = tk.take_vec()
                tk.done()
                steps.append(Contradiction(vertex=vertex))
            elif form == "context":
                context = _parse_context(tk, "")
                tk.done()
                steps.append(Contradiction(context=context))
            else:
                raise ValueError(f"line {lineno}: expected 'vertex' or 'context'")
        else:
            raise ValueError(f"line {lineno}: unknown step kind {kind!r}")
    return Certificate(tuple(steps))


def load_certificate(path) -> Certificate:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_certificate(fh.read())


def bundled_certificate_path():
    """Path of the packaged certificate for the 85-vector set Q."""
    from importlib.resources import files

    return files("kscolor").joinpath("data/q_uncolorable.cert")


def load_bundled_certificate() -> Certificate:
    return parse_certificate(bundled_certificate_path().read_text(encoding="utf-8"))
