"""Run one kscolor command, timing it from inside the process.

    python3 perfbench/kscli.py --report r.json [--trace] -- solve q.txt

Behaves as ``kscolor <args>`` (same output and exit code), then writes
``{"import_s", "main_s", "spans"}`` to the report file.  With ``--trace``
the entry points are wrapped (see ``tracing``) and ``cli.main`` is the
root span.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    opts, argv = args[:split], args[split + 1:]
    report = opts[opts.index("--report") + 1]
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    import kscolor.cli
    t1 = time.perf_counter()
    tracer = None
    if "--trace" in opts:
        from tracing import Tracer

        tracer = Tracer()
    t2 = time.perf_counter()
    if tracer is None:
        rc = kscolor.cli.main(argv)
    else:
        with tracer.installed(), tracer.op_span("cli.main", 0):
            rc = kscolor.cli.main(argv)
    t3 = time.perf_counter()
    sys.stdout.flush()
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"import_s": t1 - t0, "main_s": t3 - t2,
                   "spans": tracer.spans if tracer else []}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
