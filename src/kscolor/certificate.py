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

Text format (one step per line; a line starting with '#' is a comment;
tokens whitespace-separated, commas may hug numbers):

    wlog X Y Z -> C [alt X' Y' Z' via G11 G12 G13 G21 G22 G23 G31 G32 G33]...
    propagate X1 Y1 Z1 , X2 Y2 Z2 [ , X3 Y3 Z3 ] => X Y Z -> C
    contradiction vertex X Y Z
    contradiction context X1 Y1 Z1 , X2 Y2 Z2 [ , X3 Y3 Z3 ]

Parsing, writing and replay each take a step kind in one ``match`` arm; a
line of a known kind but the wrong shape is refused with its form above.
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
    """A `wlog` step: fix vertex to color, each alternative discharged by its witness."""
    vertex: Vec3
    color: int
    alternatives: tuple[tuple[Vec3, SignedPermutation], ...]


@dataclass(frozen=True)
class Propagate:
    """A `propagate` step: the context forces vertex to color."""
    context: tuple[Vec3, ...]  # 2 or 3 vectors
    vertex: Vec3
    color: int


@dataclass(frozen=True)
class Contradiction:
    """A `contradiction` step: a vertex forced both ways, or a violated context."""
    vertex: Optional[Vec3] = None
    context: Optional[tuple[Vec3, ...]] = None


Step = Union[WlogFix, Propagate, Contradiction]

#: The bundled certificate's first step: (1,0,0) is 1, since the basis
#: triple holds a 1 and the x<->y and x<->z swaps carry the others onto it.
BASIS_WLOG = WlogFix((1, 0, 0), 1, (((0, 1, 0), ((0, 1, 0), (1, 0, 0), (0, 0, 1))),
                                    ((0, 0, 1), ((0, 0, 1), (0, 1, 0), (1, 0, 0)))))


@dataclass(frozen=True)
class Certificate:
    """An uncolorability certificate: its steps in replay order."""
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class CertResult:
    """A replay's outcome; when invalid, the failing step and the reason."""
    valid: bool
    failed_step: Optional[int] = None  # 0-based index of the unsound step
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.valid


def verify_certificate(g: OrthoGraph, cert: Certificate) -> CertResult:
    """Replay a certificate against a graph; every step is re-checked."""
    index = {v: i for i, v in enumerate(g.vectors)}
    constraints = set(g.edges) | set(g.triples)
    assigned: dict[Vec3, int] = {}
    forced: set[tuple[Vec3, int]] = set()

    def in_graph(context: tuple[Vec3, ...]) -> bool:  # an edge or triple of g
        return tuple(sorted(index.get(v, -1) for v in context)) in constraints

    def fail(i: int, reason: str) -> CertResult:
        return CertResult(False, i, reason)

    for i, step in enumerate(cert.steps):
        match step:
            case WlogFix(vertex, color, alternatives):
                if vertex not in index:
                    return fail(i, f"vertex {vertex} not in graph")
                if vertex in assigned:
                    return fail(i, f"vertex {vertex} already assigned")
                for alt_vertex, gmat in alternatives:
                    if alt_vertex not in index:
                        return fail(i, f"alternative {alt_vertex} not in graph")
                    if not is_signed_permutation(gmat):
                        return fail(i, "witness is not a signed permutation matrix")
                    # gmat is a signed permutation, so its images need no re-check
                    image = {canonicalize(apply_matrix(gmat, v)) for v in index}
                    if image != index.keys():
                        return fail(i, "witness does not map the vertex set onto itself")
                    if canonicalize(apply_matrix(gmat, alt_vertex)) != vertex:
                        return fail(i, f"witness does not map {alt_vertex} to {vertex}")
                    for u, c in assigned.items():
                        w = canonicalize(apply_matrix(gmat, u))
                        if assigned.get(w) != c:
                            return fail(i, f"witness moves fixed assignment {u}->{c} onto "
                                           f"unmatched vertex {w}")
                cover = {index[vertex], *(index[alt] for alt, _ in alternatives)}
                if color == 1:  # a triple's 1 lies in cover when its other vertices are 0
                    covered = any(all(k in cover or assigned.get(g.vectors[k]) == 0 for k in t)
                                  for t in g.triples)
                else:  # an edge inside cover holds a 0 there
                    covered = color == 0 and any(a in cover and b in cover for a, b in g.edges)
                if not covered:
                    return fail(i, f"{vertex} and its alternatives cover no context "
                                   f"forcing {color}")
                assigned[vertex] = color
                forced.add((vertex, color))
            case Propagate(context, vertex, color):
                if not in_graph(context):
                    return fail(i, f"context {context} is not an edge/triple of the graph")
                if vertex not in context:
                    return fail(i, f"conclusion vertex {vertex} not in its context")
                # a 1 beside it forces 0; two 0s beside it in a triple force 1
                others = [assigned.get(v) for v in context if v != vertex]
                if not (1 in others if color == 0 else color == 1 and others == [0, 0]):
                    return fail(i, f"conclusion {vertex}->{color} is not forced")
                forced.add((vertex, color))
                assigned.setdefault(vertex, color)
            case Contradiction(vertex, context):
                if vertex is not None:
                    if not {(vertex, 0), (vertex, 1)} <= forced:
                        return fail(i, f"vertex {vertex} is not forced to both colors")
                elif context is not None:
                    if not in_graph(context):
                        return fail(i, "cited context is not in the graph")
                    colors = [assigned.get(v) for v in context]
                    if None in colors:
                        return fail(i, "cited context is not fully assigned")
                    total = sum(colors)
                    if not (total > 1 or (len(colors) == 3 and total != 1)):
                        return fail(i, "cited context is not violated")
                else:
                    return fail(i, "contradiction step cites nothing")
                if i != len(cert.steps) - 1:
                    return fail(i, "contradiction before end of certificate")
                return CertResult(True)
            case _:  # pragma: no cover
                return fail(i, f"unknown step type {type(step).__name__}")
    return CertResult(False, None, "no contradiction reached")


# ---------------------------------------------------------------------------
# Text format


#: The form of a step, quoted when a line of that kind has the wrong shape.
#: A ``contradiction context`` line's shape is that of its context.
_FORMS = {
    "wlog": "wlog X Y Z -> C [alt X' Y' Z' via G11 G12 G13 G21 G22 G23 G31 G32 G33]...",
    "propagate": "propagate X1 Y1 Z1 , X2 Y2 Z2 [ , X3 Y3 Z3 ] => X Y Z -> C",
    "contradiction": "contradiction vertex X Y Z",
}


def _fmt(*rows: tuple[int, ...]) -> str:
    """The entries of a vector, or of a matrix's rows, separated by spaces."""
    return " ".join(str(e) for row in rows for e in row)


def format_certificate(cert: Certificate) -> str:
    lines = []
    for step in cert.steps:
        match step:
            case WlogFix(vertex, color, alternatives):
                lines.append(" ".join([f"wlog {_fmt(vertex)} -> {color}", *(
                    f"alt {_fmt(alt)} via {_fmt(*gmat)}" for alt, gmat in alternatives)]))
            case Propagate(context, vertex, color):
                lines.append(f"propagate {' , '.join(map(_fmt, context))} => {_fmt(vertex)} -> {color}")
            case Contradiction(None, context):
                lines.append(f"contradiction context {' , '.join(map(_fmt, context))}")
            case Contradiction(vertex):
                lines.append(f"contradiction vertex {_fmt(vertex)}")
            case _:
                raise TypeError(f"not a certificate step: {step!r}")
    return "\n".join(lines) + "\n"


def _ints(*toks: str) -> tuple[int, ...]:
    """The tokens as integers; int() also takes forms such as '+1'."""
    ints = []
    for tok in toks:
        try:
            ints.append(int(tok))
        except ValueError:
            raise ValueError(f"expected integer, got {tok!r}") from None
    return tuple(ints)


def _color(tok: str) -> int:
    if tok not in ("0", "1"):
        raise ValueError(f"expected color 0 or 1, got {tok!r}")
    return int(tok)


def _context(toks: list[str]) -> tuple[Vec3, ...]:
    """The vectors of 'X1 Y1 Z1 , X2 Y2 Z2 [ , X3 Y3 Z3 ]'."""
    if len(toks) not in (7, 11) or {*toks[3::4]} != {","}:
        raise ValueError("context must have 2 or 3 vectors")
    return tuple(_ints(*toks[k:k + 3]) for k in range(0, len(toks), 4))


def parse_certificate(text: str) -> Certificate:
    """Inverse of `format_certificate`; a malformed line raises "line N: ..."."""
    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            match line.replace(",", " , ").split():
                case ["wlog", x, y, z, "->", c, *alts] if (len(alts) % 14 == 0 and
                        {*alts[::14]} <= {"alt"} and {*alts[4::14]} <= {"via"}):
                    groups = [alts[k:k + 14] for k in range(0, len(alts), 14)]
                    steps.append(WlogFix(_ints(x, y, z), _color(c), tuple(
                        (_ints(*a[1:4]), (_ints(*a[5:8]), _ints(*a[8:11]), _ints(*a[11:])))
                        for a in groups)))
                case ["propagate", *ctx, "=>", x, y, z, "->", c]:
                    steps.append(Propagate(_context(ctx), _ints(x, y, z), _color(c)))
                case ["contradiction", "vertex", x, y, z]:
                    steps.append(Contradiction(vertex=_ints(x, y, z)))
                case ["contradiction", "context", *ctx]:
                    steps.append(Contradiction(context=_context(ctx)))
                case ["wlog" | "propagate" as kind, *_] | ["contradiction" as kind, "vertex", *_]:
                    raise ValueError(f"expected '{_FORMS[kind]}'")
                case ["contradiction", *_]:
                    raise ValueError("expected 'vertex' or 'context'")
                case [kind, *_]:
                    raise ValueError(f"unknown step kind {kind!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
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
