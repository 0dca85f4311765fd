"""The in-process workloads: the integer ladder and the prime-field ladder.

Each rung is one call chain from its parameters to a verdict, made through
kscolor's public functions in the benchmark's own process.  The first
output of every rung is checked in full by ``checks``; later outputs must
equal it, or are checked in full again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import checks
from checks import require


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    same: Callable[[Any, Any], bool]
    batch: int = 1  # back-to-back calls per sample
    ref: Any = field(default=None, repr=False)

    def verify(self, out) -> None:
        if self.ref is None or not self.same(out, self.ref):
            self.check(out)
        if self.ref is None:
            self.ref = out


# Calls per sample: a fast rung's sample is the mean of a batch of calls,
# each timed on its own after gc.collect(), so that one sample spans ~0.3 s
# or more.  The host this was tuned on switches between a fast and a slow
# state many times a second; single 40 ms calls land in one state or the
# other, and their median jumps between the two.

# (N, H, verdict, calls per sample)
Z_RUNGS = (
    (462, 8, "UNSAT", 8),
    (462, 16, "UNSAT", 2),
    (462, 24, "UNSAT", 1),
    (35, 30, "SAT", 1),
    (35, 50, "SAT", 1),
    (455, 30, "SAT", 1),
)
# (p, calls per sample); all algebras are UNSAT
ALGEBRA_PRIMES = ((5, 8), (13, 1))
# reductions of S(462)|H=8; all UNSAT.  Every prime here is prime to 462,
# so Q's images mod p carry the certificate's verdict.
REDUCTION_PRIMES = ((13, 3), (17, 1), (23, 1), (31, 1))


class Ladder:
    """Shared set-up: the certifier of Q, built from the bundled certificate."""

    def __init__(self, kscolor):
        self.ks = kscolor
        self.certifier = None
        self.ops: list[Op] = []

    def build_inputs(self) -> None:
        ks = self.ks
        self.certifier = checks.Certifier(ks.certificate, ks.orthograph, ks.vectors)

    def warm_up(self, run=lambda step: step()) -> None:
        """One warm-up call per operation, checked in full; ``run`` calls each step
        so that the caller can time it."""
        for op in self.ops:
            run(lambda: op.verify(op.call()))


class ZSlices(Ladder):
    def build_inputs(self) -> None:
        super().build_inputs()
        self.ops = [self._rung(*r) for r in Z_RUNGS]

    def _rung(self, n, h, verdict, batch) -> Op:
        vectors, orthograph, solver = self.ks.vectors, self.ks.orthograph, self.ks.solver

        def call():
            s = vectors.enumerate_S(n, h)
            g = orthograph.build_graph(s)
            r = solver.solve(g)
            ok = solver.verify_coloring(g, r.coloring) if r.satisfiable else None
            return s, g, r, ok

        def check(out):
            s, g, r, ok = out
            checks.check_slice(s.vectors, n, h)
            edges, triples = checks.constraints(s.vectors)
            checks.check_graph(g, edges, triples)
            require(r.verdict == verdict, f"S({n})|H={h} gave {r.verdict}, not {verdict}")
            require(ok is (True if r.satisfiable else None), "verify_coloring rejected the coloring")
            self.certifier.check_verdict(r.satisfiable, r.coloring, s.vectors, edges, triples)

        def same(out, ref):
            (s, g, r, ok), (s0, g0, r0, ok0) = out, ref
            return (s.vectors == s0.vectors and g.edges == g0.edges and g.triples == g0.triples
                    and (r.satisfiable, r.coloring, r.stats, ok)
                    == (r0.satisfiable, r0.coloring, r0.stats, ok0))

        return Op(f"S({n})|H={h}", call, check, same, batch)


class FField(Ladder):
    def build_inputs(self) -> None:
        super().build_inputs()
        self.s8 = self.ks.vectors.enumerate_S(462, 8)
        checks.check_slice(self.s8.vectors, 462, 8)
        self.ops = [self._algebra(*a) for a in ALGEBRA_PRIMES]
        self.ops += [self._reduction(*r) for r in REDUCTION_PRIMES]

    def _algebra(self, p, batch) -> Op:
        ffproj = self.ks.ffproj

        def call():
            a = ffproj.enumerate_projections(p)
            return a, ffproj.search_ba_coloring(a)

        def check(out):
            a, r = out
            checks.check_algebra(a.projections, p)
            require(r.verdict == "UNSAT", f"algebra over F_{p} gave {r.verdict}")
            self.certifier.check_q_mod_p(a.projections, p)

        def same(out, ref):
            return out[0].projections == ref[0].projections and out[1] == ref[1]

        return Op(f"algebra p={p}", call, check, same, batch)

    def _reduction(self, p, batch) -> Op:
        ffproj, s8 = self.ks.ffproj, self.s8

        def call():
            red = ffproj.reduce_set_mod_p(s8, p)
            return red, ffproj.restricted_ks_search(red.projections, p)

        def check(out):
            red, r = out
            checks.check_reduced(red.projections, red.collided, s8.vectors, p)
            require(r.verdict == "UNSAT", f"S(462)|H=8 mod {p} gave {r.verdict}")
            self.certifier.check_q_mod_p(red.projections, p)

        def same(out, ref):
            return out[0] == ref[0] and out[1] == ref[1]

        return Op(f"reduce S(462)|H=8 p={p}", call, check, same, batch)
