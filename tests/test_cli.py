import argparse
import ast
import contextlib
import errno
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import kscolor

from kscolor import cli, orthograph
from kscolor.cli import COMMANDS, build_parser, main
from kscolor.ffproj import parse_projections, reduce_set_mod_p
from kscolor.vectors import (
    Q_BLOCK_NORMS, build_Q, build_Qn, format_vector_set, load_vector_set,
)

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PAPER = ROOT / "perfbench" / "paper.py"


@pytest.fixture()
def q_file(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text(format_vector_set(build_Q()))
    return str(path)


def test_build_Q(tmp_path, capsys):
    out = tmp_path / "q.txt"
    assert main(["build", "Q", "-o", str(out)]) == 0
    assert "85 vectors" in capsys.readouterr().err
    s = load_vector_set(out)
    assert len(s) == 85


def test_build_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["build", "S", "--N", "30", "--height", "4", "-o", str(a)])
    main(["build", "S", "--N", "30", "--height", "4", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_build_S_small(capsys):
    assert main(["build", "S", "--N", "1", "--height", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") >= 3
    assert "# H: 5" in out


def test_build_rejects_non_squarefree(capsys):
    assert main(["build", "S", "--N", "4"]) == 1
    assert "squarefree" in capsys.readouterr().err


def test_build_S_requires_N(capsys):
    assert main(["build", "S"]) == 1


@pytest.mark.parametrize("argv", [
    ["build", "Q", "--N", "30"],
    ["build", "Q1", "--height", "5"],
    ["build", "Q77", "--N", "462", "--height", "8"],
    ["build", "Q", "--height", "8"],
])
def test_build_Q_refuses_slice_options(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "apply only to build S" in captured.err


def test_build_S_height_defaults_to_8(tmp_path):
    default, explicit = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["build", "S", "--N", "462", "-o", str(default)]) == 0
    assert main(["build", "S", "--N", "462", "--height", "8", "-o", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()
    assert "# H: 8\n" in default.read_text()


def test_solve_Q_unsat(q_file, capsys):
    assert main(["solve", q_file]) == 2
    out = capsys.readouterr().out
    assert out.startswith("UNSAT")
    assert "nodes:" in out


def test_solve_Q_wlog(q_file, capsys):
    assert main(["solve", q_file, "--wlog"]) == 2
    assert "UNSAT" in capsys.readouterr().out


def test_solve_sat_writes_coloring(tmp_path, capsys):
    inp = tmp_path / "basis.txt"
    coloring = tmp_path / "coloring.txt"
    main(["build", "Q1", "-o", str(inp)])
    assert main(["solve", str(inp), "--coloring-out", str(coloring)]) == 0
    assert "SAT" in capsys.readouterr().out
    lines = coloring.read_text().splitlines()
    assert len(lines) == 3 and all(line[-1] in "01" for line in lines)


def test_solve_sat_prints_only_its_verdict(sat_file, capsys):
    # the coloring goes only where --coloring-out names a file, as for ffproj
    before = sorted(os.listdir())
    assert main(["solve", sat_file]) == 0
    assert capsys.readouterr().out == "SAT\n"
    assert sorted(os.listdir()) == before


def test_build_reports_an_unwritable_output(tmp_path, capsys):
    out = tmp_path / "missing" / "q.txt"
    assert main(["build", "Q", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [["solve"], ["ffproj", "--p", "5", "--reduce"]])
def test_sat_run_reports_an_unwritable_coloring(command, tmp_path, capsys):
    inp = tmp_path / "basis.txt"
    main(["build", "Q1", "-o", str(inp)])
    capsys.readouterr()
    out = tmp_path / "missing" / "c.txt"
    assert main(command + [str(inp), "--coloring-out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "SAT" not in captured.out  # no verdict for a run that failed
    assert captured.err.startswith(f"error: cannot write {out}: ")


def test_refused_solve_writes_no_cnf(tmp_path, capsys):
    # the wlog step does not replay on a set without the x<->z swap
    nonsym, cnf = tmp_path / "nonsym.txt", tmp_path / "side.cnf"
    nonsym.write_text("1 0 0\n0 1 0\n0 0 1\n1 1 0\n")
    assert main(["solve", str(nonsym), "--wlog", "--cnf-out", str(cnf)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: symmetry shortcut needs ")
    assert not cnf.exists()


@pytest.mark.parametrize("command, side_flag", [
    (["solve"], "--cnf-out"),
    (["ffproj", "--p", "5", "--reduce"], "--proj-out"),
])
def test_failed_coloring_write_leaves_no_side_file(command, side_flag, tmp_path, capsys):
    inp, side = tmp_path / "basis.txt", tmp_path / "side.txt"
    main(["build", "Q1", "-o", str(inp)])
    capsys.readouterr()
    out = tmp_path / "missing" / "c.txt"
    assert main(command + [str(inp), side_flag, str(side), "--coloring-out", str(out)]) == 1
    assert "SAT" not in capsys.readouterr().out
    assert not side.exists()


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture()
def sat_file(tmp_path, monkeypatch, capsys):
    """sat.txt, a SAT slice, with a symlink link.txt and a hard link hard.txt
    to it, in tmp_path, which is also the working directory."""
    monkeypatch.chdir(tmp_path)
    assert main(["build", "S", "--N", "455", "--height", "10", "-o", "sat.txt"]) == 0
    capsys.readouterr()
    os.symlink("sat.txt", "link.txt")
    os.link("sat.txt", "hard.txt")
    return "sat.txt"


@pytest.mark.parametrize("output", ["sat.txt", "./sat.txt", "{tmp}/sat.txt", "link.txt", "hard.txt"])
def test_solve_refuses_to_write_over_its_input(output, sat_file, tmp_path, capsys):
    output = output.format(tmp=tmp_path)
    before = _sha256(sat_file)
    assert main(["solve", sat_file, "--coloring-out", output]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no verdict
    assert captured.err == f"error: cannot write {output}: it is an input of this command\n"
    assert _sha256(sat_file) == before
    assert main(["solve", sat_file]) == 0  # the input still reads


def test_solve_refuses_one_path_for_two_outputs(sat_file, tmp_path, capsys):
    assert main(["solve", sat_file, "--cnf-out", "x.txt", "--coloring-out", "x.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write x.txt: it is another output of this command\n"
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("argv", [
    ["graph", "{q}", "--dot-out", "{q}"],
    ["ffproj", "--p", "13", "--reduce", "{q}", "--proj-out", "{q}"],
])
def test_graph_and_ffproj_refuse_to_write_over_their_input(argv, q_file, capsys):
    before = _sha256(q_file)
    assert main([a.format(q=q_file) for a in argv]) == 1
    captured = capsys.readouterr()
    assert "UNSAT" not in captured.out and "graph" not in captured.out
    assert captured.err == f"error: cannot write {q_file}: it is an input of this command\n"
    assert _sha256(q_file) == before


def test_only_written_files_are_checked(q_file, capsys):
    # UNSAT writes no coloring, so naming the input as its path is harmless
    before = _sha256(q_file)
    assert main(["solve", q_file, "--coloring-out", q_file]) == 2
    assert capsys.readouterr().out.startswith("UNSAT")
    assert _sha256(q_file) == before


def test_outputs_that_are_not_regular_files_may_repeat(sat_file, capsys):
    argv = ["solve", sat_file, "--cnf-out", os.devnull, "--coloring-out", os.devnull]
    assert main(argv) == 0
    assert capsys.readouterr().out == "SAT\n"


def test_a_file_whose_headers_its_vectors_break_is_refused(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# H: 1\n1 2 3\n")
    assert main(["stats", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: an entry of absolute value 3 exceeds H = 1\n"


def test_solve_brute_guard(tmp_path, q_file, capsys):
    # every verdict comes from solver.solve; the brute force is the tests' oracle alone
    cnf = tmp_path / "x.cnf"
    with pytest.raises(SystemExit) as exc:
        main(["solve", q_file, "--brute", "--cnf-out", str(cnf)])
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == ""
    assert captured.err.endswith("kscolor: error: unrecognized arguments: --brute\n")
    assert not cnf.exists()


def test_solve_refuses_brute_with_wlog(q_file, capsys):
    # with --brute gone, adding --wlog does not revive it: argparse still refuses the flag
    with pytest.raises(SystemExit) as exc:
        main(["solve", q_file, "--brute", "--wlog"])
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == ""
    assert captured.err.endswith("kscolor: error: unrecognized arguments: --brute\n")


def test_solve_side_outputs(tmp_path, q_file):
    cnf = tmp_path / "q.cnf"
    main(["solve", q_file, "--cnf-out", str(cnf)])
    assert "p cnf 85 220" in cnf.read_text()


def test_solve_leaves_dot_export_to_graph(tmp_path, q_file):
    with pytest.raises(SystemExit) as exc:
        main(["solve", q_file, "--dot-out", str(tmp_path / "q.dot")])
    assert exc.value.code == 1
    assert not (tmp_path / "q.dot").exists()


@pytest.mark.parametrize("argv, message", [
    (["solve", "{tmp}/nothere.txt"], "error: cannot read {tmp}/nothere.txt: "),
    (["build", "S", "--N", "6", "--height", "0"], "error: H must be >= 1, got 0"),
    (["solve", "{tmp}/nonsym.txt", "--wlog"], "error: symmetry shortcut needs a "),
    (["certify", "{q}", "{tmp}/nothere.cert"], "error: cannot read certificate: "),
    (["certify", "{q}", "{tmp}/bad.cert"], "error: certificate parse error: line 1: "),
    (["ffproj", "--p", "103"], "error: enumeration refused beyond p = 101"),
    (["build", "S", "--N", "0"], "error: N must be a positive squarefree integer, got 0"),
    (["build", "S", "--N", "-6"], "error: N must be a positive squarefree integer, got -6"),
    (["build", "S", "--N", "6", "--height", "1001"], "error: H must be <= 1000, got 1001"),
])
def test_user_errors_print_one_error_line(argv, message, tmp_path, q_file, capsys):
    (tmp_path / "nonsym.txt").write_text("1 0 0\n0 1 0\n0 0 1\n1 1 0\n")
    (tmp_path / "bad.cert").write_text("frobnicate\n")
    fill = {"tmp": str(tmp_path), "q": q_file}
    assert main([a.format(**fill) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message.format(**fill))
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["graph", "{q}"], ["stats", "{q}"], ["solve", "{q}", "--cnf-out", "{tmp}/q.cnf"],
    ["certify", "{q}", "--bundled"], ["ffproj", "--p", "13", "--reduce", "{q}"],
])
def test_a_graph_beyond_the_mask_limit_is_refused(argv, tmp_path, q_file, monkeypatch, capsys):
    # Q's 85 masks need about 451 bytes: a limit of 450 refuses them
    monkeypatch.setattr(orthograph, "MASK_BYTES_LIMIT", 450)
    assert main([a.format(q=q_file, tmp=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "q.cnf").exists()
    assert captured.err == ("error: a graph of 85 vertices needs about 0 MiB of masks, "
                            "beyond the 0 MiB limit\n")


def test_build_choices_are_the_blocks_of_Q():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    name = next(a for a in commands.choices["build"]._actions if a.dest == "name")
    assert list(name.choices) == ["Q", *(f"Q{n}" for n in Q_BLOCK_NORMS), "S"]


@pytest.mark.parametrize("command", [["solve"], ["ffproj", "--p", "5", "--reduce"]])
def test_empty_set_writes_the_empty_coloring(command, tmp_path, capsys):
    empty, coloring = tmp_path / "empty.txt", tmp_path / "c.txt"
    empty.write_text("# vectors: 0\n")
    assert main(command + [str(empty), "--coloring-out", str(coloring)]) == 0
    assert capsys.readouterr().out.endswith("SAT\n")
    assert coloring.read_bytes() == b""


def test_solve_prints_the_empty_coloring_as_nothing(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# vectors: 0\n")
    assert main(["solve", str(empty)]) == 0
    assert capsys.readouterr().out == "SAT\n"


def _readme_commands():
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("kscolor ")]


def test_readme_cli_block_parses():
    # a flag the README documents but the parser no longer has fails here
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for command in commands:
        words = shlex.split(command)
        assert words[0] == "kscolor"
        plain = cli._read_plain(words[1:])  # each README line takes the plain route
        assert plain is not None and vars(plain) == vars(parser.parse_args(words[1:])), command


def test_solve_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 0\nnope\n")
    assert main(["solve", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_certify_bundled(q_file, capsys):
    assert main(["certify", q_file, "--bundled"]) == 0
    assert "Valid" in capsys.readouterr().out


def test_certify_truncated(tmp_path, q_file, capsys):
    from kscolor.certificate import bundled_certificate_path

    text = bundled_certificate_path().read_text()
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith("#")]
    truncated = tmp_path / "trunc.cert"
    truncated.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["certify", q_file, str(truncated)]) == 2
    assert "no contradiction reached" in capsys.readouterr().out


def test_certify_foreign_vector(tmp_path, q_file, capsys):
    cert = tmp_path / "bad.cert"
    cert.write_text("propagate 9 9 1 , 1 0 0 => 1 0 0 -> 0\n")
    assert main(["certify", q_file, str(cert)]) == 2
    assert "Invalid at step 1" in capsys.readouterr().out


def test_certify_needs_certificate(q_file, capsys):
    assert main(["certify", q_file]) == 1


def test_certify_refuses_file_and_bundled(tmp_path, q_file, capsys):
    # --bundled would replay the packaged certificate and ignore this one
    bogus = tmp_path / "bogus.cert"
    bogus.write_text("frobnicate\n")
    assert main(["certify", q_file, str(bogus), "--bundled"]) == 1
    captured = capsys.readouterr()
    assert "either a certificate file or --bundled" in captured.err
    assert "Valid" not in captured.out


def test_ffproj_small_primes(capsys):
    assert main(["ffproj", "--p", "2"]) == 0
    assert "SAT" in capsys.readouterr().out
    assert main(["ffproj", "--p", "3"]) == 0
    assert "SAT" in capsys.readouterr().out


def test_ffproj_unsat_mod_five(capsys):
    assert main(["ffproj", "--p", "5"]) == 2
    out = capsys.readouterr().out
    assert "52 projections" in out and "UNSAT" in out


def test_ffproj_reduce(q_file, capsys):
    assert main(["ffproj", "--p", "5", "--reduce", q_file]) == 2
    out = capsys.readouterr().out
    assert "25 rank-1 projections" in out and "UNSAT" in out


#: sha256 of the files `ffproj --p P --proj-out/--coloring-out` writes
FFPROJ_FILES = {
    (2, "proj"): "d959b0c6d34bd4602b20559323990945d2c9c810a32194805b4a6ec3892c8ab2",
    (2, "coloring"): "7febc767db62b58e76d37774c8cbec589dbe245d9db40e8438a4dd8eb60b111b",
    (3, "proj"): "7518bf24d9bbcdaa464a80744f3da09f62488f69e46186b09179c0fe64edc384",
    (3, "coloring"): "0f24cfab634a2672a6be785ad0e7e51c9a76e9c7cff4ea0d7fa5b081f867b783",
    (31, "proj"): "5c47178e9e4dad37ec14e9180a50efaa5372427eada7db87bd8b6bc1ca9d2cd8",
}


def test_ffproj_stdout(q_file, tmp_path, capsys):
    assert main(["ffproj", "--p", "5"]) == 2
    assert capsys.readouterr().out == (
        "52 projections over F_5 (rank 0: 1, rank 1: 25, rank 2: 25, rank 3: 1)\nUNSAT\n"
    )
    assert main(["ffproj", "--p", "13", "--reduce", q_file]) == 2
    assert capsys.readouterr().out == "85 rank-1 projections mod 13\nUNSAT\n"
    for p, code, out in (
        (2, 0, "10 projections over F_2 (rank 0: 1, rank 1: 4, rank 2: 4, rank 3: 1)\nSAT\n"),
        (3, 0, "20 projections over F_3 (rank 0: 1, rank 1: 9, rank 2: 9, rank 3: 1)\nSAT\n"),
        (31, 2, "1924 projections over F_31 "
                "(rank 0: 1, rank 1: 961, rank 2: 961, rank 3: 1)\nUNSAT\n"),
    ):
        files = {kind: tmp_path / f"{kind}{p}.txt" for kind in ("proj", "coloring")}
        assert main(["ffproj", "--p", str(p), "--proj-out", str(files["proj"]),
                     "--coloring-out", str(files["coloring"])]) == code
        assert capsys.readouterr().out == out
        for kind, path in files.items():
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
            assert digest == FFPROJ_FILES.get((p, kind)), (p, kind)


def test_ffproj_reduce_writes_projections_and_coloring(tmp_path, capsys):
    basis, projs, coloring = tmp_path / "q1.txt", tmp_path / "p.txt", tmp_path / "c.txt"
    basis.write_text(format_vector_set(build_Qn(1)))
    argv = ["ffproj", "--p", "5", "--reduce", str(basis),
            "--proj-out", str(projs), "--coloring-out", str(coloring)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "3 rank-1 projections mod 5\nSAT\n"
    expected = reduce_set_mod_p(build_Qn(1), 5).projections
    assert parse_projections(projs.read_text()) == (5, expected)
    rows = [line.split() for line in coloring.read_text().splitlines()]
    assert [tuple(int(x) for x in row[:9]) for row in rows] == list(expected)
    assert sorted(row[9] for row in rows) == ["0", "0", "1"]


def test_usage_errors_exit_one(capsys):
    # exit code 2 means UNSAT or Invalid, so argparse's own code is replaced
    for argv in (["build", "X"], ["solve"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err


#: argv that end in help or a usage error, whichever subparsers main builds
PARSE_EXITS = [
    [], ["--help"], *([name, "--help"] for name in COMMANDS),
    ["bogus"], ["build", "X"], ["solve"], ["solve", "q.txt", "extra"], ["solve", "q.txt", "--brute"],
]


#: the top parser's usage at 80 and at 40 columns
TOP_USAGE = {
    "80": "usage: kscolor [-h] {build,graph,stats,solve,certify,ffproj} ...\n",
    "40": "usage: kscolor [-h]\n"
          "               {build,graph,stats,solve,certify,ffproj}\n"
          "               ...\n",
}
TOP_PARSER_ERRORS = {
    (): "kscolor: error: the following arguments are required: command\n",
    ("--help",): "",
    ("bogus",): "kscolor: error: argument command: invalid choice: 'bogus' (choose from "
                "'build', 'graph', 'stats', 'solve', 'certify', 'ffproj')\n",
    ("solve", "q.txt", "extra"): "kscolor: error: unrecognized arguments: extra\n",
    ("solve", "q.txt", "--brute"): "kscolor: error: unrecognized arguments: --brute\n",
}


def _exit(run, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    captured = capsys.readouterr()
    return captured.out, captured.err, exc.value.code


@pytest.mark.parametrize("columns", ["80", "40"])  # at 40 the usage line wraps
@pytest.mark.parametrize("argv", PARSE_EXITS, ids=lambda argv: " ".join(["kscolor", *argv]))
def test_main_answers_as_the_full_parser(argv, columns, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", columns)
    expected = _exit(build_parser().parse_args, argv, capsys)
    assert _exit(main, argv, capsys) == expected
    out, err, code = expected
    if "--help" in argv:
        assert code == 0 and err == "" and out.startswith(" ".join(["usage: kscolor", *argv[:-1]]))
    else:
        assert code == 1 and out == ""
        assert err.startswith("usage: kscolor")
    if tuple(argv) in TOP_PARSER_ERRORS:  # the top parser speaks, naming all six commands
        assert (out + err).startswith(TOP_USAGE[columns])
        assert err.endswith(TOP_PARSER_ERRORS[tuple(argv)])


def _subcommands(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


def _paper_commands():
    # the benchmark's `paper` command lines, read without importing the benchmark
    tree = ast.parse(PAPER.read_text(encoding="utf-8"))
    table = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["COMMANDS"])
    return [argv for _name, argv, _rc in table]


#: command lines the plain reader answers without argparse, each once
PLAIN_LINES = _paper_commands() + [shlex.split(line)[1:] for line in _readme_commands()]
PLAIN_LINES = [argv for i, argv in enumerate(PLAIN_LINES) if argv not in PLAIN_LINES[:i]]


@pytest.mark.parametrize("argv", [*PLAIN_LINES, *PARSE_EXITS],
                         ids=lambda argv: " ".join(["kscolor", *argv]))
def test_main_builds_the_parser_only_for_argparse_forms(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.txt").write_text(format_vector_set(build_Q()))
    parsers = []

    def recording():
        parsers.append(build_parser())
        return parsers[-1]

    monkeypatch.setattr(cli, "build_parser", recording)
    try:
        main(argv)
    except SystemExit:
        pass
    assert [_subcommands(parser) for parser in parsers] == \
        ([list(COMMANDS)] if argv in PARSE_EXITS else [])


def _argparse_reads(argv):
    """vars of the full parser's namespace, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


#: words no command takes as they stand: argparse's other forms (a negative
#: number, --flag=value, a unique prefix, --, help), an empty word, a bad choice
ODD_WORDS = ["-6", "--N=4", "--wl", "--", "-h", "--help", "", "X", "--p"]


@st.composite
def _command_lines(draw, name):
    # each argument of the command once (a flag with a value, a bare flag or a
    # positional word), in any order, some left out; then up to two more
    # anywhere, even between a flag and its value: a repeat or an odd word
    units = []
    for spec, options in COMMANDS[name][2]:
        word = draw(st.sampled_from(options.get("choices") or ["5", "462", "q.txt"]))
        flag = draw(st.sampled_from(spec.split()))
        units.append([word] if flag[0] != "-" else [flag] if options.get("action") else [flag, word])
    units = draw(st.permutations(units))[:draw(st.integers(0, len(units)))]
    words = [word for unit in units for word in unit]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(words)))
        words[at:at] = draw(st.sampled_from([*units, *([word] for word in ODD_WORDS)]))
    return [name, *words]


@settings(max_examples=500, deadline=None)
@given(st.one_of(*map(_command_lines, COMMANDS), st.lists(st.sampled_from(ODD_WORDS), max_size=2)))
@example(["solve", "--cnf-out", "--wl", "q.txt"])  # a value may not look like a flag
@example(["solve", "q.txt", "--cnf-out"])  # nor be missing
def test_plain_reader_agrees_with_argparse(argv):
    # the plain reader either declines or gives argparse's namespace exactly
    plain = cli._read_plain(argv)
    assert plain is None or vars(plain) == _argparse_reads(argv)


def test_second_run_of_positionals_is_left_to_argparse(q_file, capsys):
    # argparse matches the optional certificate empty before --bundled and so
    # finds c.cert unrecognized; a reader that joined the two runs would accept it
    argv = ["certify", q_file, "--bundled", "c.cert"]
    assert cli._read_plain(argv) is None
    expected = _exit(build_parser().parse_args, argv, capsys)
    assert _exit(main, argv, capsys) == expected
    _out, err, code = expected
    assert code == 1 and err.endswith("kscolor: error: unrecognized arguments: c.cert\n")


def test_flag_before_positional_is_left_to_argparse(q_file, capsys):
    # a plain line puts its positionals first; argparse still reads this one
    argv = ["solve", "--wlog", q_file]
    assert cli._read_plain(argv) is None
    assert main(argv) == 2
    assert capsys.readouterr().out.startswith("UNSAT\n")


def test_readme_library_block_imports():
    # the README's import block names only what the package top level exports
    block = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert "restricted_ks_search" in namespace


def test_ffproj_reduce_divisible_norm(q_file, capsys):
    assert main(["ffproj", "--p", "7", "--reduce", q_file]) == 1
    assert "divides the norm" in capsys.readouterr().err


def test_ffproj_not_prime(capsys):
    assert main(["ffproj", "--p", "6"]) == 1


@pytest.mark.parametrize("reduce", [False, True])
def test_ffproj_names_a_modulus_that_is_not_prime(reduce, q_file, capsys):
    assert main(["ffproj", "--p", "4"] + (["--reduce", q_file] if reduce else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: 4 is not prime\n"


def test_ffproj_refuses_a_prime_it_cannot_test(q_file, capsys):
    start = time.perf_counter()
    assert main(["ffproj", "--p", "10000000000000000000000013", "--reduce", q_file]) == 1
    assert time.perf_counter() - start < 1.0
    assert "cannot decide whether 10000000000000000000000013 is prime" in capsys.readouterr().err


def test_stats(q_file, capsys):
    assert main(["stats", q_file]) == 0
    out = capsys.readouterr().out
    assert "vertices:   85" in out
    assert "triples:    40" in out


def test_graph_dot(tmp_path, q_file):
    dotf = tmp_path / "q.dot"
    assert main(["graph", q_file, "--dot-out", str(dotf)]) == 0
    assert dotf.read_text().count(" -- ") == 180


def test_round_trip_verdict_stability(tmp_path, capsys):
    out = tmp_path / "s.txt"
    main(["build", "S", "--N", "6", "--height", "4", "-o", str(out)])
    capsys.readouterr()
    first = main(["solve", str(out)])
    out_text = capsys.readouterr().out
    again = tmp_path / "again.txt"
    again.write_text(out.read_text())
    assert main(["solve", str(again)]) == first
    assert capsys.readouterr().out == out_text


def test_cli_import_leaves_numpy_out():
    src = str(Path(kscolor.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, kscolor.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_plain_lines_leave_argparse_unimported(tmp_path):
    # argparse, and the gettext and locale it pulls in, load only for help or a usage error
    src = str(Path(kscolor.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import json, shlex, sys, kscolor.cli\n"
        "modules = lambda: sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))\n"
        "after_import = modules()\n"
        "for line in sys.argv[1:]:\n"
        "    kscolor.cli.main(shlex.split(line)[1:])\n"
        "after_lines = modules()\n"
        "try:\n"
        "    kscolor.cli.main(['solve', '--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(json.dumps([after_import, after_lines, 'argparse' in sys.modules]))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe, *_readme_commands()], cwd=tmp_path,
                         env=env, capture_output=True, text=True, check=True)
    assert (tmp_path / "q.txt").exists()  # the README's first line ran
    assert json.loads(out.stdout.splitlines()[-1]) == [[], [], True]


def _kscolor(argv, cwd, **kwargs):
    """Run ``kscolor argv`` in a fresh interpreter with stdout buffered, as it
    is when PYTHONUNBUFFERED is unset; the timeout fails a run that hangs."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(kscolor.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-m", "kscolor.cli", *argv], cwd=cwd, env=env,
                          stderr=subprocess.PIPE, text=True, timeout=60, **kwargs)


def _assert_one_error_line(run, line):
    assert run.returncode == 1
    assert run.stderr.splitlines() == [line]  # no traceback, no "Exception ignored"


@pytest.fixture()
def run_dir(tmp_path, capsys):
    """tmp_path holding q.txt (Q, UNSAT) and sat.txt (a SAT slice)."""
    main(["build", "Q", "-o", str(tmp_path / "q.txt")])
    main(["build", "S", "--N", "455", "--height", "10", "-o", str(tmp_path / "sat.txt")])
    capsys.readouterr()
    return tmp_path


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["stats", "q.txt"], ["solve", "sat.txt", "--cnf-out", "y.cnf"], ["--help"], ["solve", "--help"],
])
def test_a_full_stdout_is_a_write_error(argv, run_dir):
    with open("/dev/full", "w") as full:
        run = _kscolor(argv, run_dir, stdout=full)
    _assert_one_error_line(run, f"error: cannot write stdout: [Errno {errno.ENOSPC}] "
                                f"{os.strerror(errno.ENOSPC)}")
    assert not (run_dir / "y.cnf").exists()  # the files of a failed run are removed


@pytest.mark.parametrize("argv", [
    ["solve", "sat.txt"], ["stats", "q.txt"], ["build", "S", "--N", "30030", "--height", "40"],
    ["solve", "--help"],
])
def test_a_closed_pipe_is_a_write_error(argv, run_dir):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first write
    try:
        run = _kscolor(argv, run_dir, stdout=write_end)
    finally:
        os.close(write_end)
    _assert_one_error_line(run, f"error: cannot write stdout: [Errno {errno.EPIPE}] "
                                f"{os.strerror(errno.EPIPE)}")


@pytest.mark.parametrize("argv", [["stats", "q.txt"], ["solve", "q.txt"], ["build", "Q"]])
def test_a_closed_stdout_is_a_write_error(argv, run_dir):
    run = _kscolor(argv, run_dir, preexec_fn=lambda: os.close(1))
    _assert_one_error_line(run, "error: cannot write stdout: it is closed")


def test_a_failing_stdout_object_is_a_write_error(run_dir, monkeypatch, capsys):
    class FullStdout(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.chdir(run_dir)
    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert main(["solve", "sat.txt", "--cnf-out", "y.cnf"]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write stdout: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    assert not (run_dir / "y.cnf").exists()


def test_a_large_prime_N_builds_and_loads(tmp_path):
    n = 10**18 + 3  # prime
    run = _kscolor(["build", "S", "--N", str(n), "--height", "1", "-o", "big.txt"], tmp_path)
    assert (run.returncode, run.stderr) == (0, f"S({n})|H=1: 3 vectors\n")
    run = _kscolor(["stats", "big.txt"], tmp_path, stdout=subprocess.PIPE)
    assert (run.returncode, run.stdout) == (
        0, "vertices:   3\nedges:      3\ntriples:    1\nbare edges: 0\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_a_coloring_named_dev_stdout_comes_before_the_verdict(run_dir):
    # files are written first, so down a pipe the verdict follows the coloring
    run = _kscolor(["solve", "sat.txt", "--coloring-out", "c.txt"], run_dir, stdout=subprocess.PIPE)
    assert (run.returncode, run.stdout) == (0, "SAT\n")
    run = _kscolor(["solve", "sat.txt", "--coloring-out", "/dev/stdout"], run_dir,
                   stdout=subprocess.PIPE)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (run_dir / "c.txt").read_text() + "SAT\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("argv", [
    ["solve", "sat.txt", "--coloring-out", "/dev/stdout"],
    ["solve", "sat.txt", "--coloring-out", "out.txt"],
    ["graph", "q.txt", "--dot-out", "/dev/stdout"],
])
def test_stdout_redirected_to_a_file_is_not_opened_again(argv, run_dir):
    # a second opening would truncate the file and the verdict would land on
    # the coloring's first bytes, so stdout's own file is refused as an input is
    with open(run_dir / "out.txt", "w") as out:
        run = _kscolor(argv, run_dir, stdout=out)
    _assert_one_error_line(run, f"error: cannot write {argv[-1]}: it is the stdout of this command")
    assert (run_dir / "out.txt").read_text() == ""


def test_a_large_composite_N_header_loads(tmp_path):
    # 2 * 3 * 7 * 11 and a prime far above trial division: the header's N is
    # factored within the bound, in a fresh interpreter under a timeout
    n = 462 * (10**18 + 3)
    (tmp_path / "big.txt").write_text(f"# N: {n}\n# H: 3\n1 1 1\n1 -1 0\n1 1 -2\n1 2 3\n")
    run = _kscolor(["stats", "big.txt"], tmp_path, stdout=subprocess.PIPE)
    assert (run.returncode, run.stderr, run.stdout) == (
        0, "", "vertices:   4\nedges:      3\ntriples:    1\nbare edges: 0\n")


@pytest.mark.parametrize("n", [
    1000003 * 1000033,  # two primes above the trial division bound
    (10**9 + 7) ** 2,
    1000003**5,  # a cofactor Miller-Rabin cannot decide
])
def test_build_and_stats_refuse_an_N_they_cannot_factor(n, tmp_path):
    reason = "cannot factor N: trial division to 1000000 leaves "
    run = _kscolor(["build", "S", "--N", str(n), "--height", "1"], tmp_path)
    assert run.returncode == 1 and run.stderr.startswith(f"error: {reason}")
    (tmp_path / "big.txt").write_text(f"# N: {n}\n1 0 0\n")
    run = _kscolor(["stats", "big.txt"], tmp_path)
    assert run.returncode == 1 and run.stderr.startswith(f"error: big.txt: {reason}")

