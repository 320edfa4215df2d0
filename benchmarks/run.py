"""forcedwaves benchmark: one workload, one seed, one closed-loop client.

    python3 benchmarks/run.py --workload speed-sweep --seed 1 --seconds 15 --trace 0

Run from the repository root.  The program is imported from ./src; the
benchmark never installs it.  Ops run one after another in a single
thread, each starting when the previous one ends, in whole passes over the
workload's op list (seeded order), until --seconds have elapsed and the
workload's minimum pass count is reached.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics.  The last line of standard
output is the result JSON; a full record (failures, per-layer table,
machine) goes to benchmarks/out/.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from fwbench import inputs  # plain data; imports no part of the program

# single-threaded BLAS for this process; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 3
MAX_TIMED_S = 100.0  # stop starting passes here, whatever min_passes says
EXIT_NO_PROGRAM = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> float:
    """Import forcedwaves.cli from ./src and return the import time."""
    if not (SRC / "forcedwaves" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'forcedwaves'}; run from a "
              "checkout of the repository", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import forcedwaves.cli  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - t0
    origin = Path(sys.modules["forcedwaves"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"error: forcedwaves imported from {origin}, not {SRC}",
              file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return import_s


def machine_record() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads_env": {v: os.environ[v] for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()

    from fwbench import metrics, tracing, workloads

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    known = json.loads((BENCH_DIR / "known_failures.json").read_text())
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            data = inputs.generate(args.workload, args.seed)
            wl = workloads.WORKLOAD_CLASSES[args.workload](data, workdir)
            setup_times.append(time.perf_counter() - t0)

        tracer = tracing.Tracer() if args.trace else None
        run = metrics.Runner(wl, args.seed, tracer)
        t_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t_start
            done = (elapsed >= args.seconds
                    and run.untraced_passes >= (1 if args.trace else wl.min_passes))
            if done or elapsed >= MAX_TIMED_S:
                break
            run.run_pass(traced=False)
            if args.trace:
                run.run_pass(traced=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = import_s + statistics.median(setup_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = run.summary(known.get(args.workload, {}))
    if args.trace:
        values = run.layer_metrics(import_s)
        units = metrics.LAYER_UNITS
    else:
        values = {"ops_per_s": summary["ops_per_s"],
                  "op_p50_ms": summary["op_p50_ms"],
                  "op_tail_ms": summary["op_tail_ms"],
                  "ok_share": summary["ok_share"],
                  "peak_rss_mb": rss_mb,
                  "setup_s": setup_s}
        units = metrics.END_TO_END_UNITS
    result = {"correct": summary["unexplained"] == 0,
              "attempted": summary["attempted"],
              "failed": summary["failed"],
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(), "import_s": import_s,
              "setup_repeats_s": setup_times, "peak_rss_mb": rss_mb,
              **summary, "result": result}
    if tracer is not None:
        record["layers"] = run.layer_table()
        record["missing_wrapped_names"] = sorted(set(tracer.missing))
        tracer.write(OUT / f"spans-{stem}.jsonl.gz")
    (OUT / f"record-{stem}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    for f in summary["failures"]:
        tag = "known" if f["known"] else "UNEXPLAINED"
        print(f"[{tag}] {f['op']}: {'; '.join(f['problems'])}", file=sys.stderr)
    if tracer is not None and tracer.missing:
        print(f"missing wrapped names: {sorted(set(tracer.missing))}",
              file=sys.stderr)
    print(f"record: {OUT / f'record-{stem}.json'}", file=sys.stderr)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
