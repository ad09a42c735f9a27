"""Passes of one workload, run in the fresh process that runs this file.

    python3 bench/worker.py --workload NAME --seed N --budget S --trace 0|1 \
        --workdir DIR [--first-pass I] [--trace-out FILE]

Runs passes until ``--budget`` seconds of passes are used up (one at
least), each with fresh inputs built from the seed, and prints one JSON
object.  setup_s runs from the first line of this file, through the
numpy/scipy/torusspec imports and the first input build, to the first
timed call.  Each pass's wall_s is its timed body alone; its gates are
checked after the timer stops.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu_s() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _one_pass(workload, inputs, index, tracer, tracing):
    """Time one pass on ``inputs``, then check its outputs."""
    cpu0 = _cpu_s()
    if tracer is not None:
        tracer.start(index)
    t0 = time.perf_counter()
    raw = workload.run(inputs)
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.stop()
    cpu_s = _cpu_s() - cpu0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    values = workload.observe(inputs, raw)
    gates = workload.gates(inputs, values)
    caught = [g for g in workload.gates(inputs, workload.perturb(values)) if not g[1]]
    result = {
        "pass": index, "traced": tracer is not None, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_mib, "attempted": len(raw),
        "failed": len({op for op, ok, _ in gates if not ok}),
        "gates": [[op, ok, detail] for op, ok, detail in gates],
        "perturbation_caught": bool(caught),
        "hbar_err": workload.hbar_err(inputs, values),
        "artifact_bytes": values.get("artifact_bytes", 0),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.dump(), wall_s)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--first-pass", type=int, default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import torusspec.cli  # noqa: F401  (imports every layer module)
    tracer = tracing = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.install()
    import workloads   # after install(), so the names it binds are traced

    workload = workloads.WORKLOADS[args.workload]
    passes = []
    setup_s = None
    start = time.perf_counter()
    try:
        while True:
            # fresh inputs per pass: no symbol, map or table carries over
            workdir = Path(args.workdir) / str(len(passes))
            workdir.mkdir(parents=True)
            inputs = workload.build(args.seed, workdir)
            if setup_s is None:
                setup_s = time.perf_counter() - _T0
                start = time.perf_counter()
            passes.append(_one_pass(workload, inputs, args.first_pass + len(passes),
                                    tracer, tracing))
            shutil.rmtree(workdir)
            # start another pass if it is expected to end at most half a
            # pass past the budget; on average the worker then fills it
            typical = statistics.median(p["wall_s"] for p in passes)
            if time.perf_counter() - start + 0.5 * typical > args.budget:
                break
        if tracer is not None and args.trace_out:
            Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "pass": passes[-1]["pass"], "wall_s": passes[-1]["wall_s"],
                           **tracer.dump()}, fh)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
                      "versions": _versions(), "passes": passes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
