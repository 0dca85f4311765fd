"""Command-line frontend.

Exit codes: 0 success (SAT / Valid where relevant), 1 usage, domain or
input error, 2 negative verdict where a positive one was requested (UNSAT
from `solve` and `ffproj`, Invalid from `certify`).
"""

from __future__ import annotations

import argparse
import sys

from . import certificate as cert_mod
from . import ffproj, orthograph, solver, vectors

BUILD_NAMES = ("Q", "Q1", "Q2", "Q3", "Q6", "Q21", "Q33", "Q77", "S")


class DomainError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: exit code 2 is a negative verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _build_set(args) -> vectors.VectorSet:
    name = args.name
    if name == "Q":
        return vectors.build_Q()
    if name.startswith("Q"):
        return vectors.build_Qn(int(name[1:]))
    if args.N is None:
        raise DomainError("build S requires --N")
    try:
        return vectors.enumerate_S(args.N, args.height)
    except ValueError as exc:
        raise DomainError(str(exc))


def _load_set(path) -> vectors.VectorSet:
    try:
        return vectors.load_vector_set(path)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise DomainError(f"{path}: {exc}")


def cmd_build(args) -> int:
    s = _build_set(args)
    text = vectors.format_vector_set(s)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    print(f"{s.name or 'set'}: {len(s)} vectors", file=sys.stderr)
    return 0


def cmd_graph(args) -> int:
    s = _load_set(args.input)
    g = orthograph.build_graph(s)
    if args.dot_out:
        _write(args.dot_out, orthograph.to_dot(g))
    else:
        sys.stdout.write(orthograph.to_dot(g))
    return 0


def cmd_stats(args) -> int:
    s = _load_set(args.input)
    st = orthograph.build_graph(s).stats()
    print(f"vertices:   {st.vertices}")
    print(f"edges:      {st.edges}")
    print(f"triples:    {st.triples}")
    print(f"bare edges: {st.bare_edges}")
    return 0


def cmd_solve(args) -> int:
    if args.brute and args.wlog:
        raise DomainError("--wlog does not apply to --brute")
    s = _load_set(args.input)
    g = orthograph.build_graph(s)
    if args.cnf_out:
        _write(args.cnf_out, solver.to_dimacs(solver.export_cnf(g), g.vectors))
    if args.dot_out:
        _write(args.dot_out, orthograph.to_dot(g))
    try:
        if args.brute:
            result = solver.solve_bruteforce(g)
        else:
            result = solver.solve(g, wlog=args.wlog)
    except ValueError as exc:
        raise DomainError(str(exc))
    print(result.verdict)
    if result.satisfiable:
        text = solver.format_coloring(g.vectors, result.coloring)
        if args.coloring_out:
            _write(args.coloring_out, text)
        else:
            sys.stdout.write(text)
        return 0
    st = result.stats
    print(f"nodes: {st.nodes}  propagations: {st.propagations}  max depth: {st.max_depth}")
    return 2


def cmd_certify(args) -> int:
    if args.bundled == bool(args.certificate):
        raise DomainError("give either a certificate file or --bundled")
    s = _load_set(args.input)
    g = orthograph.build_graph(s)
    try:
        if args.bundled:
            cert = cert_mod.load_bundled_certificate()
        else:
            cert = cert_mod.load_certificate(args.certificate)
    except OSError as exc:
        raise DomainError(f"cannot read certificate: {exc}")
    except ValueError as exc:
        raise DomainError(f"certificate parse error: {exc}")
    result = cert_mod.verify_certificate(g, cert)
    if result.valid:
        print("Valid")
        return 0
    if result.failed_step is not None:
        print(f"Invalid at step {result.failed_step + 1}: {result.reason}")
    else:
        print(f"Invalid: {result.reason}")
    return 2


def cmd_ffproj(args) -> int:
    p = args.p
    try:
        prime = ffproj.is_prime(p)
    except ValueError as exc:
        raise DomainError(str(exc))
    if not prime:
        raise DomainError(f"{p} is not prime")
    if args.reduce:
        s = _load_set(args.reduce)
        try:
            reduced = ffproj.reduce_set_mod_p(s, p)
        except ValueError as exc:
            raise DomainError(str(exc))
        projs = reduced.projections
        note = " (collisions merged)" if reduced.collided else ""
        print(f"{len(projs)} rank-1 projections mod {p}{note}")
        result = ffproj.restricted_ks_search(projs, p)
    else:
        try:
            algebra = ffproj.enumerate_projections(p)
        except ValueError as exc:
            raise DomainError(str(exc))
        projs = algebra.projections
        ranks = algebra.rank_counts()
        rank_desc = ", ".join(f"rank {r}: {ranks[r]}" for r in sorted(ranks))
        print(f"{len(algebra)} projections over F_{p} ({rank_desc})")
        result = ffproj.search_ba_coloring(algebra)
    if args.proj_out:
        _write(args.proj_out, ffproj.format_projections(p, projs))
    print(result.verdict)
    if result.satisfiable and args.coloring_out:
        _write(args.coloring_out, "".join(
            " ".join(str(e) for e in m) + f" {c}\n" for m, c in zip(projs, result.coloring)))
    return 0 if result.satisfiable else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kscolor",
        description="Construct, solve, and certify Kochen-Specker colorability "
        "of integer 3-vector sets; enumerate finite-field projection algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a named vector set")
    p_build.add_argument("name", choices=BUILD_NAMES)
    p_build.add_argument("--N", type=int, help="squarefree N for the S slice")
    p_build.add_argument("--height", type=int, default=8, help="height bound for S (default 8)")
    p_build.add_argument("-o", "--output", help="output vector-set file (default stdout)")
    p_build.set_defaults(func=cmd_build)

    p_graph = sub.add_parser("graph", help="export the orthogonality graph as DOT")
    p_graph.add_argument("input")
    p_graph.add_argument("--dot-out", help="output DOT file (default stdout)")
    p_graph.set_defaults(func=cmd_graph)

    p_stats = sub.add_parser("stats", help="orthogonality graph statistics")
    p_stats.add_argument("input")
    p_stats.set_defaults(func=cmd_stats)

    p_solve = sub.add_parser("solve", help="decide colorability of a vector-set file")
    p_solve.add_argument("input")
    p_solve.add_argument("--brute", action="store_true", help="use the exhaustive oracle")
    p_solve.add_argument("--wlog", action="store_true", help="fix one basis triple by symmetry")
    p_solve.add_argument("--cnf-out", help="also write a DIMACS CNF encoding")
    p_solve.add_argument("--dot-out", help="also write a DOT export")
    p_solve.add_argument("--coloring-out", help="write the coloring here on SAT")
    p_solve.set_defaults(func=cmd_solve)

    p_cert = sub.add_parser("certify", help="replay an uncolorability certificate")
    p_cert.add_argument("input", help="vector-set file")
    p_cert.add_argument("certificate", nargs="?", help="certificate file")
    p_cert.add_argument("--bundled", action="store_true", help="use the packaged certificate for Q")
    p_cert.set_defaults(func=cmd_certify)

    p_ff = sub.add_parser("ffproj", help="finite-field projection algebra suite")
    p_ff.add_argument("--p", type=int, required=True, help="prime field order")
    p_ff.add_argument("--reduce", help="reduce this vector-set file mod p instead")
    p_ff.add_argument("--proj-out", help="write the enumerated projection list here")
    p_ff.add_argument("--coloring-out", help="write the homomorphism here on SAT")
    p_ff.set_defaults(func=cmd_ffproj)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
