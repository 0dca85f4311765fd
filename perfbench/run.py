"""Benchmark of kscolor: integer slices, prime fields and the paper's commands.

    python3 perfbench/run.py --workload zslices --seed 1 --seconds 45 --trace 0

Workloads: ``zslices`` and ``ffield`` call kscolor's public functions in
this process; ``paper`` runs the README's commands as child processes, one
at a time.  Every timed call follows one untimed warm-up call and a
``gc.collect()``; every figure is a median over whole rounds of the same
operations, in an order fixed by ``--seed``; a fast operation's sample is
the mean of a batch of calls.  Times are given in reference seconds: each
sample's wall time is scaled by a fixed calibration loop timed just before
and just after it (see ``HostClock``).  With ``--trace 0`` the last line of
stdout holds the end-to-end metrics, with ``--trace 1`` the per-layer ones.
A full record (seed, orders, samples, raw wall times, calibrations) is
written to ``perfbench/out/``.  See README.md.
"""

import os

# numpy's thread pools: one thread, set before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("zslices", "ffield", "paper")
MAX_CPUS = 2
PROBES = 5  # fresh interpreters per import probe
BUILDS = 3  # repeats of input construction in set-up
MIN_ROUNDS = 4  # a traced run alternates untraced and traced rounds
MIN_POOLED = 21  # samples for a median with ten beyond it
CAL_REF_S = 0.030  # the calibration loop's time that defines one reference second

_CAL_VECTORS = [(a, b, c) for a in range(-6, 7) for b in range(-6, 7) for c in range(4)]


def calibration_loop() -> int:
    """Fixed pure-Python work like kscolor's own: the orthogonal pairs of
    676 small integer vectors (228k dot products)."""
    found = set()
    for i, u in enumerate(_CAL_VECTORS):
        for v in _CAL_VECTORS[i + 1:]:
            if u[0] * v[0] + u[1] * v[1] + u[2] * v[2] == 0:
                found.add((u, v))
    return len(found)


class HostClock:
    """Wall time corrected for the speed of a shared host.

    The host runs the same code at speeds up to 1.6x apart, changing many
    times a second and drifting over minutes.  So every timed stretch of
    work lies between two runs of ``calibration_loop``, and its wall time is
    scaled by CAL_REF_S over their mean: the result is the time the work
    would take on a host that runs the loop in CAL_REF_S.  Consecutive
    stretches share the calibration between them.
    """

    def __init__(self):
        self.walls: list[float] = []
        self.last = self.calibrate()

    def calibrate(self) -> float:
        gc.collect()
        t = time.perf_counter()
        calibration_loop()
        self.last = time.perf_counter() - t
        self.walls.append(self.last)
        return self.last

    def scale(self, before: float) -> float:
        """Factor from wall to reference seconds for the work done since the
        calibration that took ``before`` seconds."""
        return 2 * CAL_REF_S / (before + self.calibrate())

    def time(self, step):
        """Reference seconds of one call of ``step``."""
        before = self.last
        t = time.perf_counter()
        step()
        return (time.perf_counter() - t) * self.scale(before)


def probe_imports(clock):
    """Medians, in reference seconds, of a fresh interpreter's wall time to
    import kscolor.cli, the import time measured inside it, and a bare
    interpreter's wall time."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
            "import kscolor.cli; print(time.perf_counter() - t)")
    walls, inner, bare = [], [], []
    for _ in range(PROBES):
        before = clock.last
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        dt = time.perf_counter() - t
        k = clock.scale(before)
        walls.append(dt * k)
        inner.append(float(proc.stdout) * k)
        bare.append(clock.time(lambda: subprocess.run([sys.executable, "-c", "pass"],
                                                      check=True, timeout=60)))
    return statistics.median(walls), statistics.median(inner), statistics.median(bare)


def make_workload(name, ks, workdir):
    if name == "paper":
        import paper

        return paper.Paper(ks, workdir)
    import ladders

    return {"zslices": ladders.ZSlices, "ffield": ladders.FField}[name](ks)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, ks, record, workdir):
    from checks import CheckError
    from tracing import COUNT_NAMES, TIMED, Tracer, combine, mean_summary, summarize

    t_start = time.perf_counter()
    clock = HostClock()
    import_wall, import_inner, bare = probe_imports(clock)
    workload = make_workload(args.workload, ks, workdir)
    in_process = args.workload != "paper"
    builds = [clock.time(workload.build_inputs) for _ in range(BUILDS)]
    ops = workload.ops
    rng = random.Random(args.seed)

    warm_steps = []
    workload.warm_up(lambda step: warm_steps.append(clock.time(step)))
    warm = sum(warm_steps)
    setup_s = import_wall + statistics.median(builds) + warm
    record["setup"] = {"import_s": import_wall, "builds_s": builds, "warm_up_s": warm_steps,
                       "total_wall_s": time.perf_counter() - t_start}

    tracer = Tracer() if args.trace else None
    raw_wall = {op.name: [] for op in ops}
    wall = {op.name: [] for op in ops}
    traced_wall = {op.name: [] for op in ops}
    inner = {op.name: [] for op in ops}
    layers = {op.name: [] for op in ops}
    all_spans = []
    errors = []

    def timed_call(op, traced, op_id):
        """(wall s, in-process s, span summary or None), or None if the call raised."""
        first = len(tracer.spans) if tracer else 0
        gc.collect()
        try:
            t = time.perf_counter()
            if not in_process:
                out = op.call(traced)
            elif traced:
                with tracer.op_span(op.name, op_id):
                    out = op.call()
            else:
                out = op.call()
            dt = time.perf_counter() - t
        except Exception:
            errors.append(f"{op.name}: {traceback.format_exc()}")
            return None
        try:
            op.verify(out)
        except CheckError as exc:
            errors.append(f"{op.name}: check failed: {exc}")
            record["correct"] = False
        if in_process:
            return dt, dt, summarize(tracer.spans[first:], first) if traced else None
        rep = out[-1]
        spans = [s[:4] + [op_id] + s[5:] for s in rep["spans"]]
        all_spans.extend(spans)
        return dt, rep["main_s"], summarize(spans) if traced else None

    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds:
            break
        traced = bool(args.trace) and rounds % 2 == 1
        order = list(ops)
        rng.shuffle(order)
        record["orders"].append([op.name for op in order])
        with tracer.installed() if traced and in_process else nullcontext():
            for op in order:
                calls = []
                before = clock.last
                for _ in range(op.batch):
                    attempted += 1
                    calls.append(timed_call(op, traced, attempted))
                k = clock.scale(before)
                if None in calls:
                    failed += calls.count(None)
                    continue
                dts, inners, summaries = zip(*calls)
                (traced_wall if traced else wall)[op.name].append(statistics.fmean(dts) * k)
                if traced:
                    layers[op.name].append({key: val if key in COUNT_NAMES else val * k
                                            for key, val in mean_summary(summaries).items()})
                else:
                    raw_wall[op.name].append(statistics.fmean(dts))
                    inner[op.name].append(statistics.fmean(inners) * k)
        rounds += 1
    record.update(rounds=rounds, errors=errors, wall=wall, traced_wall=traced_wall, inner=inner,
                  raw_wall=raw_wall, calibration_s=clock.walls)
    if errors:
        print("\n".join(errors), file=sys.stderr)

    def total(samples, names):
        return sum(statistics.median(samples[n]) for n in names if samples[n])

    names = [op.name for op in ops]
    if not args.trace:
        pooled = sorted(x for n in names for x in wall[n])
        if len(pooled) < MIN_POOLED:
            raise RuntimeError(f"{len(pooled)} samples, fewer than {MIN_POOLED} for a median")
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "ladder_s": metric(total(inner, names), "s"),
            # What a reader waits for the verdicts, interpreter start-up and import
            # included: each command's wall time, or one start-up before the rungs.
            "paper_s": metric(total(wall, names) + (import_wall if in_process else 0), "s"),
            "command_ms.p50": metric(statistics.median(pooled) * 1e3, "ms"),
            "peak_rss_mb": metric(resource.getrusage(who).ru_maxrss / 1024, "MB"),
        }
    else:
        per_layer = combine({n: layers[n] for n in names})
        base, with_trace = total(wall, names), total(traced_wall, names)
        metrics = {f"{n}_s": metric(per_layer[f"{n}_s"], "s") for n in TIMED}
        for c in COUNT_NAMES:
            metrics[c] = metric(per_layer[c], "count")
        pairs = per_layer["orthograph.pairs"]
        metrics["orthograph.edge_yield"] = metric(
            per_layer["orthograph.edges"] / pairs if pairs else 0.0, "edges/pair")
        metrics["cli.import_ms"] = metric(import_inner * 1e3, "ms")
        metrics["cli.interpreter_ms"] = metric(bare * 1e3, "ms")
        for layer in ("cli", "vectors", "orthograph", "solver", "certificate", "ffproj"):
            metrics[f"{layer}.self_ms"] = metric(per_layer[f"{layer}.self_ms"], "ms")
        metrics["host.calibration_ms"] = metric(statistics.median(clock.walls) * 1e3, "ms")
        metrics["host.wall_base_s"] = metric(total(raw_wall, names), "s")
        metrics["trace.base_s"] = metric(base, "s")
        metrics["trace.overhead_s"] = metric(with_trace - base, "s")
        if in_process:
            all_spans = tracer.spans
        metrics["trace.spans_per_round"] = metric(len(all_spans) / (rounds // 2), "count")
        stem = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        stem.write_text(json.dumps(all_spans))
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kscolor" / "__init__.py").is_file():
        print(f"error: kscolor sources not found under {SRC}", file=sys.stderr)
        return 2
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > MAX_CPUS:
        os.sched_setaffinity(0, cpus[:MAX_CPUS])
    sys.path.insert(0, str(SRC))
    import kscolor.certificate
    import kscolor.ffproj
    import kscolor.orthograph
    import kscolor.solver
    import kscolor.vectors

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(),
              "cpus": sorted(os.sched_getaffinity(0)), "python": sys.version,
              "correct": True, "orders": []}
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        attempted, failed, metrics = run(args, kscolor, record, Path(workdir))
    result = {"correct": record["correct"], "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(result)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(f"{args.workload} seed={args.seed} rounds={record['rounds']} "
          f"order={record['orders'][0]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
