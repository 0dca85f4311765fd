"""Command-line frontend.

A command line takes one of two routes.  A plain line (a command, its
positionals first, then exact flags each given once, values as their own
words) is read straight from ``COMMANDS``.  Every other line, help and usage
errors included, goes through argparse, which is imported only then.  A
command hands all its output, stdout and files, to ``_write`` in one call,
and help goes to stdout through ``_write`` too.

Exit codes: 0 success (SAT / Valid where relevant), 1 usage, domain, input
or write error (stdout's too), 2 negative verdict where a positive one was
requested (UNSAT from `solve` and `ffproj`, Invalid from `certify`).
"""

from __future__ import annotations

import os
import stat
import sys
import types

from . import certificate as cert_mod
from . import ffproj, orthograph, solver, vectors


def _file_key(path):
    """What identifies the file at path (or open descriptor): device and inode
    for a regular file, the resolved path for one that does not exist yet,
    None otherwise."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return os.path.realpath(path)
    except OSError:  # the write will fail and say why
        return None
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


def _write(files, inputs=()) -> None:
    """Write each (path, text) pair to its file, then those with a None path
    to stdout, so a verdict follows its files.  A path naming an input,
    stdout's own regular file or another path of the call, or a closed
    stdout, is refused first; an existing file that is not regular, such as
    /dev/stdout down a pipe, is exempt.  If a write fails, stdout's too, the
    regular files already written are removed."""
    taken = {_file_key(p): "an input" for p in inputs if p}
    try:  # a second opening of stdout's file would truncate it under the verdict
        taken.setdefault(_file_key(sys.stdout.fileno()), "the stdout")
    except (AttributeError, ValueError):  # no stdout, or one without a descriptor
        pass
    for path, _text in files:
        if path is None and sys.stdout is None:  # fd 1 was closed at start-up
            raise ValueError("cannot write stdout: it is closed")
        key = path and _file_key(path)
        if key and key in taken:
            raise ValueError(f"cannot write {path}: it is {taken[key]} of this command")
        taken[key] = "another output"
    written = []
    try:
        for path, text in sorted(files, key=lambda pair: pair[0] is None):
            if path is None:
                sys.stdout.write(text)
                sys.stdout.flush()
                continue
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.append(path)
    except OSError as exc:
        for done in written:
            if os.path.isfile(done):
                os.remove(done)
        if path is None and sys.stdout is sys.__stdout__:  # else the exit-time flush fails again
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise ValueError(f"cannot write {'stdout' if path is None else path}: {exc}")


def _build_set(args) -> vectors.VectorSet:
    name = args.name
    if name.startswith("Q"):
        if args.N is not None or args.height is not None:
            raise ValueError(f"--N and --height apply only to build S, not {name}")
        return vectors.build_Q() if name == "Q" else vectors.build_Qn(int(name[1:]))
    if args.N is None:
        raise ValueError("build S requires --N")
    return vectors.enumerate_S(args.N, 8 if args.height is None else args.height)


def _load_set(path) -> vectors.VectorSet:
    try:
        return vectors.load_vector_set(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def cmd_build(args) -> int:
    s = _build_set(args)
    _write([(args.output, vectors.format_vector_set(s))])
    print(f"{s.name or 'set'}: {len(s)} vectors", file=sys.stderr)
    return 0


def cmd_graph(args) -> int:
    s = _load_set(args.input)
    _write([(args.dot_out, orthograph.to_dot(orthograph.build_graph(s)))], [args.input])
    return 0


def cmd_stats(args) -> int:
    s = _load_set(args.input)
    st = orthograph.build_graph(s).stats()
    _write([(None, f"vertices:   {st.vertices}\nedges:      {st.edges}\n"
                   f"triples:    {st.triples}\nbare edges: {st.bare_edges}\n")])
    return 0


def cmd_solve(args) -> int:
    s = _load_set(args.input)
    g = orthograph.build_graph(s)
    result = solver.solve(g, wlog=args.wlog)
    out = [(args.cnf_out, solver.to_dimacs(solver.export_cnf(g), g.vectors))] if args.cnf_out else []
    out.append((None, f"{result.verdict}\n"))
    if not result.satisfiable:
        st = result.stats
        out.append((None, f"nodes: {st.nodes}  propagations: {st.propagations}  "
                          f"max depth: {st.max_depth}\n"))
    elif args.coloring_out:
        out.append((args.coloring_out, solver.format_coloring(g.vectors, result.coloring)))
    _write(out, [args.input])
    return 0 if result.satisfiable else 2


def cmd_certify(args) -> int:
    if args.bundled == bool(args.certificate):
        raise ValueError("give either a certificate file or --bundled")
    s = _load_set(args.input)
    g = orthograph.build_graph(s)
    try:
        if args.bundled:
            cert = cert_mod.load_bundled_certificate()
        else:
            cert = cert_mod.load_certificate(args.certificate)
    except OSError as exc:
        raise ValueError(f"cannot read certificate: {exc}")
    except ValueError as exc:
        raise ValueError(f"certificate parse error: {exc}")
    result = cert_mod.verify_certificate(g, cert)
    step = "" if result.failed_step is None else f" at step {result.failed_step + 1}"
    verdict = "Valid" if result.valid else f"Invalid{step}: {result.reason}"
    _write([(None, f"{verdict}\n")])
    return 0 if result.valid else 2


def cmd_ffproj(args) -> int:
    p = args.p
    if args.reduce:
        reduced = ffproj.reduce_set_mod_p(_load_set(args.reduce), p)
        projs = reduced.projections
        note = " (collisions merged)" if reduced.collided else ""
        header = f"{len(projs)} rank-1 projections mod {p}{note}"
        result = ffproj.restricted_ks_search(projs, p)
    else:
        algebra = ffproj.enumerate_projections(p)
        projs = algebra.projections
        ranks = algebra.rank_counts()
        rank_desc = ", ".join(f"rank {r}: {ranks[r]}" for r in sorted(ranks))
        header = f"{len(algebra)} projections over F_{p} ({rank_desc})"
        result = ffproj.search_ba_coloring(algebra)
    out = [(args.proj_out, ffproj.format_projections(p, projs))] if args.proj_out else []
    if result.satisfiable and args.coloring_out:
        out.append((args.coloring_out, solver.format_coloring(projs, result.coloring)))
    out.append((None, f"{header}\n{result.verdict}\n"))
    _write(out, [args.reduce])
    return 0 if result.satisfiable else 2


#: name -> (handler, help line, argument specs); a spec is the
#: space-separated flags and the keyword arguments of ``add_argument``
COMMANDS = {
    "build": (cmd_build, "construct a named vector set", (
        ("name", dict(choices=("Q", *(f"Q{n}" for n in vectors.Q_BLOCK_NORMS), "S"))),
        ("--N", dict(type=int, help="squarefree N for the S slice")),
        ("--height", dict(type=int, help="height bound for S (default 8)")),
        ("-o --output", dict(help="output vector-set file (default stdout)")))),
    "graph": (cmd_graph, "export the orthogonality graph as DOT", (
        ("input", {}), ("--dot-out", dict(help="output DOT file (default stdout)")))),
    "stats": (cmd_stats, "orthogonality graph statistics", (("input", {}),)),
    "solve": (cmd_solve, "decide colorability of a vector-set file", (
        ("input", {}),
        ("--wlog", dict(action="store_true", help="fix (1,0,0) to 1 by the bundled "
                        "certificate's first step: needs the basis, and the set fixed "
                        "by the x<->y and x<->z swaps")),
        ("--cnf-out", dict(help="also write a DIMACS CNF encoding")),
        ("--coloring-out", dict(help="write the coloring here on SAT")))),
    "certify": (cmd_certify, "replay an uncolorability certificate", (
        ("input", dict(help="vector-set file")),
        ("certificate", dict(nargs="?", help="certificate file")),
        ("--bundled", dict(action="store_true", help="use the packaged certificate for Q")))),
    "ffproj": (cmd_ffproj, "finite-field projection algebra suite", (
        ("--p", dict(type=int, required=True, help="prime field order")),
        ("--reduce", dict(help="reduce this vector-set file mod p instead")),
        ("--proj-out", dict(help="write the enumerated projection list here")),
        ("--coloring-out", dict(help="write the homomorphism here on SAT")))),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: one subparser for each command in ``COMMANDS``."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Usage errors exit 1: exit code 2 is a negative verdict.  Help goes
        to stdout through ``_write``, so a failed write is a write error."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

        def _print_message(self, message, file=None):
            if file is sys.stderr:
                super()._print_message(message, file)
            else:
                _write([(None, message)])

    parser = _Parser(
        prog="kscolor",
        description="Construct, solve, and certify Kochen-Specker colorability "
        "of integer 3-vector sets; enumerate finite-field projection algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, help_line, specs) in COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flags, options in specs:
            command.add_argument(*flags.split(), **options)
    return parser


def _read_plain(argv):
    """The namespace ``build_parser().parse_args(argv)`` gives a plain line,
    read from ``COMMANDS`` alone; None for any other line.

    A plain line is a command, then its positionals, then exact flag names
    each given at most once, each value its own word not starting with "-",
    with every required argument given and every ``type`` and ``choices``
    check passing.  A bare word after the first flag is left to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    args = {"command": argv[0]}
    flags, positionals = {}, []
    for names, options in COMMANDS[argv[0]][2]:
        names = names.split()
        if names[0].startswith("-"):  # the last flag is the long one, which names the attribute
            dest = names[-1].lstrip("-").replace("-", "_")
            args[dest] = False if options.get("action") == "store_true" else None
            flags.update(dict.fromkeys(names, (dest, options)))
        else:
            args[names[0]] = None
            positionals.append((names[0], options))
    seen, given, run = set(), [], []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if seen:  # a positional after a flag
                return None
            run.append(word)
        elif word in flags and flags[word][0] not in seen:
            dest, options = flags[word]
            seen.add(dest)
            if options.get("action") == "store_true":
                args[dest] = True
            else:
                value = next(words, "-")
                if value.startswith("-"):  # missing, or a word argparse reads as a flag
                    return None
                given.append((dest, options, value))
        else:
            return None
    needed = sum(options.get("nargs") != "?" for _dest, options in positionals)
    if not needed <= len(run) <= len(positionals) or any(
            options.get("required") and dest not in seen for dest, options in flags.values()):
        return None
    given += [(dest, options, word) for (dest, options), word in zip(positionals, run)]
    for dest, options, word in given:
        try:
            value = options.get("type", str)(word)
        except ValueError:
            return None
        if value not in options.get("choices", (value,)):
            return None
        args[dest] = value
    return types.SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read_plain(argv)
        if args is None:  # help, a usage error, or a form only argparse reads
            args = build_parser().parse_args(argv)
        return COMMANDS[args.command][0](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
