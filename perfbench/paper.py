"""The paper workload: the README's commands at paper scale, as child processes.

A closed loop with one client: each command starts only after the previous
one has ended.  Every command runs through ``kscli.py``, which times
``kscolor.cli.main`` inside the child and, when asked, records spans.
Build commands write ``built_*.txt``; the other commands read inputs that
the set-up copied from the first, checked, build outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
from checks import require
from ladders import Op

HERE = Path(__file__).resolve().parent

# (name, argv, expected exit code); inputs q.txt, s462.txt, sat.txt
COMMANDS = (
    ("build Q", ["build", "Q", "-o", "built_q.txt"], 0),
    ("build S462", ["build", "S", "--N", "462", "--height", "8", "-o", "built_s462.txt"], 0),
    ("build S455", ["build", "S", "--N", "455", "--height", "10", "-o", "built_sat.txt"], 0),
    ("stats Q", ["stats", "q.txt"], 0),
    ("solve Q", ["solve", "q.txt"], 2),
    ("solve Q --wlog", ["solve", "q.txt", "--wlog"], 2),
    ("solve S462", ["solve", "s462.txt"], 2),
    ("solve S455", ["solve", "sat.txt", "--coloring-out", "coloring.txt"], 0),
    ("certify Q", ["certify", "q.txt", "--bundled"], 0),
    ("ffproj p=5", ["ffproj", "--p", "5"], 2),
    ("ffproj p=13 reduce Q", ["ffproj", "--p", "13", "--reduce", "q.txt"], 2),
)
BUILT_INPUTS = {"built_q.txt": "q.txt", "built_s462.txt": "s462.txt", "built_sat.txt": "sat.txt"}


def parse_vectors(text: str) -> list[tuple[int, int, int]]:
    return [tuple(int(x) for x in line.split()) for line in text.splitlines()
            if line.strip() and not line.startswith("#")]


def _output_file(argv):
    for flag in ("-o", "--coloring-out"):
        if flag in argv:
            return argv[argv.index(flag) + 1]
    return None


class Paper:
    def __init__(self, kscolor, workdir: Path):
        self.ks = kscolor
        self.workdir = workdir
        self.ops: list[Op] = []

    def build_inputs(self) -> None:
        """Recompute every expected answer; the program's inputs come from its own builds."""
        ks = self.ks
        self.certifier = checks.Certifier(ks.certificate, ks.orthograph, ks.vectors)
        self.expect = {"q": checks.q_vectors()}
        self.expect["s462"] = checks.slice_vectors(462, 8)
        self.expect["sat"] = checks.slice_vectors(455, 10)
        self.graphs = {k: checks.constraints(v) for k, v in self.expect.items()}
        self.ops = [Op(name, self._caller(argv), self._checker(name, argv, rc), _same)
                    for name, argv, rc in COMMANDS]

    def warm_up(self, run=lambda step: step()) -> None:
        """One warm-up call per command, checked in full; ``run`` calls each step
        so that the caller can time it.
        The build commands come first: their checked outputs become the other
        commands' inputs."""
        for op, (_name, argv, _rc) in zip(self.ops, COMMANDS):
            run(lambda: op.verify(op.call()))
            if argv[0] == "build":
                built = _output_file(argv)
                shutil.copyfile(self.workdir / built, self.workdir / BUILT_INPUTS[built])

    def _caller(self, argv):
        report = self.workdir / "report.json"

        def call(trace: bool = False):
            cmd = [sys.executable, str(HERE / "kscli.py"), "--report", str(report)]
            cmd += ["--trace"] * trace + ["--", *argv]
            proc = subprocess.run(cmd, cwd=self.workdir, capture_output=True, text=True,
                                  timeout=120)
            out_file = _output_file(argv)
            data = (self.workdir / out_file).read_text() if out_file and proc.returncode == 0 \
                else None
            rep = json.loads(report.read_text())
            report.unlink()
            return proc.returncode, proc.stdout, proc.stderr, data, rep

        return call

    def _checker(self, name, argv, want_rc):
        cert = self.certifier

        def check(out):
            rc, stdout, stderr, data, _rep = out
            require(rc == want_rc, f"{name}: exit code {rc}, expected {want_rc}: {stderr.strip()}")
            lines = stdout.splitlines()
            cmd = argv[0]
            if cmd == "build":
                key = {"built_q.txt": "q", "built_s462.txt": "s462", "built_sat.txt": "sat"}[argv[-1]]
                vecs = parse_vectors(data)
                if key == "q":
                    checks.check_q(vecs)
                require(vecs == self.expect[key], f"{name}: file holds the wrong vectors")
            elif cmd == "stats":
                edges, triples = self.graphs["q"]
                in_triple = {pair for i, j, k in triples for pair in ((i, j), (i, k), (j, k))}
                bare = sum(1 for e in edges if e not in in_triple)
                want = [f"vertices:   {len(self.expect['q'])}", f"edges:      {len(edges)}",
                        f"triples:    {len(triples)}", f"bare edges: {bare}"]
                require(lines == want, f"{name}: printed {lines}")
            elif cmd == "solve":
                key = {"q.txt": "q", "s462.txt": "s462", "sat.txt": "sat"}[argv[1]]
                vecs, (edges, triples) = self.expect[key], self.graphs[key]
                require(lines[:1] == (["SAT"] if rc == 0 else ["UNSAT"]), f"{name}: verdict {lines[:1]}")
                coloring = None
                if rc == 0:
                    colors = {tuple(int(x) for x in ln.split()[:3]): int(ln.split()[3])
                              for ln in data.splitlines() if ln.strip()}
                    require(sorted(colors) == vecs, f"{name}: coloring file misses vectors")
                    coloring = [colors[v] for v in vecs]
                cert.check_verdict(rc == 0, coloring, vecs, edges, triples)
            elif cmd == "certify":
                require(lines == ["Valid"], f"{name}: printed {lines}")
                cert.replay(cert.q, cert.q_edges, cert.q_triples)
            else:  # ffproj
                p = int(argv[argv.index("--p") + 1])
                require(lines[-1:] == ["UNSAT"], f"{name}: verdict {lines[-1:]}")
                images = sorted({checks.projection(v, p) for v in cert.q})
                if "--reduce" in argv:
                    want = f"{len(images)} rank-1 projections mod {p}"
                else:
                    want = (f"{2 * p * p + 2} projections over F_{p} "
                            f"(rank 0: 1, rank 1: {p * p}, rank 2: {p * p}, rank 3: 1)")
                require(lines[:1] == [want], f"{name}: printed {lines[:1]}, expected {want!r}")
                cert.check_q_mod_p(images, p)

        return check


def _same(out, ref) -> bool:
    return out[:4] == ref[:4]

