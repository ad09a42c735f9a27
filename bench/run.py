"""torusspec benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload spectral --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  The run starts three worker processes
(bench/worker.py) one after another and shares ``--seconds`` between them;
each imports numpy, scipy and torusspec afresh and runs passes until its
share is used up, at least one.  Every pass builds fresh inputs from the
seed, the same inputs for every pass.

With ``--trace 0`` the end-to-end metrics are medians: wall_s over all
passes, setup_s (imports plus first input build) over the three workers,
and peak_rss_mib over all passes.  With ``--trace 1`` the first and third
workers trace and the second does not; the per-layer metrics come from the
traced passes (counts from the first, times as medians), and
trace.overhead_s is the traced minus the untraced median wall.

Prints a report by name and unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 when every
output met its oracle gate, 1 when one did not, 2 when the checkout holds
no torusspec sources or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("spectral", "cell2d", "egorov", "invariance")
WORKERS = 3
WORKER_SLACK_S = 60.0    # a worker overrunning its share by this much is killed

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


# one BLAS thread: OpenBLAS threads spin while they wait, and on a shared
# machine a second one slows an eigensolve by up to 10x
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(args, index: int, traced: bool, budget: float, first_pass: int,
                env: dict) -> dict:
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", f"{budget:.3f}",
           "--trace", str(int(traced)), "--workdir", str(workdir),
           "--first-pass", str(first_pass)]
    if traced:
        cmd += ["--trace-out", str(ROOT / ".bench_out" / f"trace-{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=budget + WORKER_SLACK_S)
    except subprocess.TimeoutExpired:
        return {"error": f"worker {index} timed out"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker {index} exited {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def _layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer metrics: counts from the first traced pass, times as medians."""
    import tracer
    out = {}
    for name, _, _ in tracer.PER_LAYER:
        if name in tracer.COUNTS:
            out[name] = traced[0]["layers"][name]
        elif name in traced[0]["layers"]:
            out[name] = _median([p["layers"][name] for p in traced])
    out["cli.artifact_bytes"] = traced[0]["artifact_bytes"]
    out["hbar_err"] = traced[0]["hbar_err"]
    out["process.cpu_s"] = _median([p["cpu_s"] for p in untraced])
    out["trace.overhead_s"] = (_median([p["wall_s"] for p in traced])
                               - _median([p["wall_s"] for p in untraced]))
    drift = [name for name in tracer.COUNTS
             if any(p["layers"][name] != out[name] for p in traced[1:])]
    if drift:
        print(f"warning: counts differ between traced passes: {', '.join(drift)}")
    units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    return {name: {"value": out[name], "unit": units[name]} for name, _, _ in tracer.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="torusspec benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "torusspec" / "__init__.py").is_file():
        print(f"error: no torusspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _worker_env()
    start = time.monotonic()
    workers = []
    startup = 1.0       # first guess at a worker's imports plus input build
    for k in range(WORKERS):
        remaining = args.seconds - (time.monotonic() - start)
        budget = max(remaining / (WORKERS - k) - startup, 0.0)
        first = sum(len(w.get("passes", [])) for w in workers)
        workers.append(_run_worker(args, k, bool(args.trace) and k % 2 == 0, budget,
                                   first, env))
        startup = workers[-1].get("setup_s") or startup
    shutil.rmtree(ROOT / ".bench_work", ignore_errors=True)

    ok = [p for w in workers for p in w.get("passes", [])]
    setups = [w["setup_s"] for w in workers if "error" not in w]
    errors = [w["error"] for w in workers if "error" in w]
    attempted = sum(p["attempted"] for p in ok) + len(errors)
    failed = sum(p["failed"] for p in ok) + len(errors)
    gate_misses = sorted({f"{op}: {detail}" for p in ok for op, good, detail in p["gates"]
                          if not good})
    toothless = [p["pass"] for p in ok if not p["perturbation_caught"]]
    traced_ok = [p for p in ok if p["traced"]]
    untraced_ok = [p for p in ok if not p["traced"]]
    correct = failed == 0 and not toothless and bool(ok) and \
        (not args.trace or (bool(traced_ok) and bool(untraced_ok)))

    print(f"torusspec benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} workers={len(workers)} "
          f"passes={len(ok)}")
    versions = next((w["versions"] for w in workers if "versions" in w), {})
    machine = {"cpu_count": os.cpu_count(), "nproc": len(os.sched_getaffinity(0)),
               "platform": platform.platform(), **versions}
    print("machine " + json.dumps(machine, sort_keys=True))
    for line in errors + gate_misses:
        print(f"FAILED {line}")
    if toothless:
        print(f"FAILED oracle self-check: a perturbed output passed its gates (passes {toothless})")

    metrics = {}
    if args.trace and traced_ok and untraced_ok:
        metrics = _layer_metrics(traced_ok, untraced_ok)
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    elif not args.trace and ok:
        for name, unit in END_TO_END:
            values = setups if name == "setup_s" else [p[name] for p in ok]
            metrics[name] = {"value": _median(values), "unit": unit}
            spread = " ".join(f"{v:.4g}" for v in values)
            print(f"  {name:<14} {metrics[name]['value']:.6g} {unit}  "
                  f"(median of {len(values)}: {spread})")
    ratio = failed / attempted if attempted else 0.0
    print(f"  {'failed_ratio':<14} {ratio:.6g} ratio  ({failed} of {attempted} operations)")
    if ok and args.workload in ("cell2d", "invariance"):
        print(f"  {'hbar_err':<14} {max(p['hbar_err'] for p in ok):.6g} energy")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
