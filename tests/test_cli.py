import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import kscolor

from kscolor.cli import main
from kscolor.ffproj import parse_projections, reduce_set_mod_p
from kscolor.vectors import build_Q, build_Qn, format_vector_set, load_vector_set


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


def test_solve_brute_guard(q_file, capsys):
    assert main(["solve", q_file, "--brute"]) == 1
    assert "brute force" in capsys.readouterr().err


def test_solve_refuses_brute_with_wlog(q_file, capsys):
    assert main(["solve", q_file, "--brute", "--wlog"]) == 1
    assert "--wlog" in capsys.readouterr().err


def test_solve_side_outputs(tmp_path, q_file):
    cnf = tmp_path / "q.cnf"
    dotf = tmp_path / "q.dot"
    main(["solve", q_file, "--cnf-out", str(cnf), "--dot-out", str(dotf)])
    assert "p cnf 85 220" in cnf.read_text()
    assert dotf.read_text().startswith("graph")


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


def test_ffproj_reduce_divisible_norm(q_file, capsys):
    assert main(["ffproj", "--p", "7", "--reduce", q_file]) == 1
    assert "divides the norm" in capsys.readouterr().err


def test_ffproj_not_prime(capsys):
    assert main(["ffproj", "--p", "6"]) == 1


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
