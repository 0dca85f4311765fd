"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Each check must accept the program's real output and reject a tampered
copy of it: a dropped edge or triple, a flipped color, a wrong verdict, a
missing vector or projection, a wrong exit code or line.  Exits 0 when
every real output passes and every tampered one is rejected.
"""

import dataclasses
import sys
import tempfile
from pathlib import Path

from run import OUT, SRC

sys.path.insert(0, str(SRC))

import kscolor.certificate  # noqa: E402
import kscolor.ffproj  # noqa: E402
import kscolor.orthograph  # noqa: E402
import kscolor.solver  # noqa: E402
import kscolor.vectors  # noqa: E402
import ladders  # noqa: E402
import paper  # noqa: E402
from checks import CheckError  # noqa: E402

replace = dataclasses.replace
failures = []


def expect(check, out, what, accept=False):
    try:
        check(out)
    except CheckError as exc:
        ok, note = not accept, f"rejected: {exc}"
    else:
        ok, note = accept, "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {what}: {note}")
    if not ok:
        failures.append(what)


def ops_by_name(workload):
    workload.build_inputs()
    return {op.name: op for op in workload.ops}, workload.certifier


def flip(seq, i=0):
    return tuple(1 - c if n == i else c for n, c in enumerate(seq))


def integer_ladder():
    ops, certifier = ops_by_name(ladders.ZSlices(kscolor))
    op = ops["S(462)|H=8"]
    s, g, r, ok = out = op.call()
    expect(op.check, out, "S(462)|H=8 as computed", accept=True)
    expect(op.check, (s, replace(g, edges=g.edges[1:]), r, ok), "dropped edge")
    expect(op.check, (s, replace(g, triples=g.triples[:-1]), r, ok), "dropped triple")
    short = kscolor.vectors.VectorSet(s.vectors[1:])
    expect(op.check, (short, g, r, ok), "slice missing a vector")
    sat = replace(r, satisfiable=True, coloring=(0,) * len(s))
    expect(op.check, (s, g, sat, True), "wrong verdict SAT on S(462)|H=8")
    expect(lambda _: certifier.check_verdict(True, sat.coloring, s.vectors, list(g.edges),
                                             list(g.triples)), None,
           "coloring route for SAT on S(462)|H=8")

    op = ops["S(35)|H=30"]
    s, g, r, ok = out = op.call()
    expect(op.check, out, "S(35)|H=30 as computed", accept=True)
    expect(op.check, (s, g, replace(r, coloring=flip(r.coloring)), ok), "flipped color")
    unsat = replace(r, satisfiable=False, coloring=None)
    expect(op.check, (s, g, unsat, None), "wrong verdict UNSAT on S(35)|H=30")
    expect(lambda _: certifier.replay(s.vectors, list(g.edges), list(g.triples)), None,
           "certificate route for UNSAT on a set without Q")


def prime_ladder():
    ops, _ = ops_by_name(ladders.FField(kscolor))
    op = ops["algebra p=5"]
    a, r = out = op.call()
    expect(op.check, out, "algebra p=5 as computed", accept=True)
    expect(op.check, (replace(a, projections=a.projections[1:]), r), "algebra missing a projection")
    bad = list(a.projections)
    bad[-1] = bad[-1][:8] + ((bad[-1][8] + 1) % 5,)
    expect(op.check, (replace(a, projections=tuple(sorted(bad))), r), "non-idempotent projection")
    expect(op.check, (a, replace(r, satisfiable=True)), "wrong verdict SAT over F_5")

    op = ops["reduce S(462)|H=8 p=13"]
    red, r = out = op.call()
    expect(op.check, out, "reduction mod 13 as computed", accept=True)
    expect(op.check, (replace(red, projections=red.projections[1:]), r), "reduction missing an image")
    expect(op.check, (replace(red, collided=not red.collided), r), "wrong collision flag")
    expect(op.check, (red, replace(r, satisfiable=True)), "wrong verdict SAT mod 13")


def paper_commands():
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = paper.Paper(kscolor, Path(workdir))
        workload.build_inputs()
        workload.warm_up()
        ops = {op.name: op for op in workload.ops}
        for name in ("build Q", "stats Q", "solve Q", "solve S455", "certify Q", "ffproj p=5"):
            expect(ops[name].check, ops[name].ref, f"{name} as run", accept=True)
        rc, out, err, data, rep = ops["solve Q"].ref
        expect(ops["solve Q"].check, (0, out, err, data, rep), "solve Q with exit code 0")
        expect(ops["solve Q"].check, (rc, out.replace("UNSAT", "SAT"), err, data, rep),
               "solve Q printing SAT")
        rc, out, err, data, rep = ops["build Q"].ref
        lines = data.splitlines()
        expect(ops["build Q"].check, (rc, out, err, "\n".join(lines[:-1]), rep),
               "Q file missing a vector")
        rc, out, err, data, rep = ops["solve S455"].ref
        lines = data.splitlines()
        flipped = lines[0][:-1] + ("0" if lines[0].endswith("1") else "1")
        expect(ops["solve S455"].check, (rc, out, err, "\n".join([flipped] + lines[1:]), rep),
               "coloring file with a flipped color")
        rc, out, err, data, rep = ops["stats Q"].ref
        expect(ops["stats Q"].check, (rc, out.replace("edges:      ", "edges:      1"), err,
                                      data, rep), "stats with a wrong edge count")
        rc, out, err, data, rep = ops["ffproj p=5"].ref
        expect(ops["ffproj p=5"].check, (rc, out.replace("rank 1: 25", "rank 1: 24"), err,
                                         data, rep), "ffproj with a wrong rank split")


if __name__ == "__main__":
    integer_ladder()
    prime_ladder()
    paper_commands()
    print(f"{len(failures)} check(s) failed" if failures else "all checks behave")
    sys.exit(1 if failures else 0)
