"""The benchmark's own tests.

    python3 bench/selftest.py

Checks the self-time arithmetic on a synthetic span tree, the two oracles
against independent references, that two traced passes of one seed in one
process each build their own interpolation table and report the same
counts, and that two traced passes of every workload in separate processes
report identical count metrics.  Exit code 0 when every check passes.
Takes about a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402


def check_self_time_arithmetic():
    # root span A [0, 10] with coarse children B [1, 3] and C [2.5, 5]
    # (overlapping on purpose: coverage is their union, [1, 5]); hot
    # aggregates under A (1.0 s) and under B (0.5 s); a symbols.eval
    # aggregate under A (2.0 s) that contains the coarse span D [6, 7]
    spans = [
        [1, "spectra.eigensolve", tracer.ROOT, 0.0, 10.0, 0, {"gflop_computed": 2.0}],
        [2, "potentials.extrema", 1, 1.0, 3.0, 0, {}],
        [3, "spectra.tail_bound", 1, 2.5, 5.0, 0, {}],
        [4, "dynamics.flow", 102, 6.0, 7.0, 0, {"point_steps": 40}],
    ]
    aggregates = [
        [1, "potentials.evaluate", 100, 5, 1.0, 50],
        [2, "symbols.eval", 101, 3, 0.5, 0],
        [1, "symbols.eval", 102, 7, 2.0, 0],
    ]
    nodes = {n["id"]: n for n in tracer.self_times(spans, aggregates)}
    expect = {1: 10.0 - 4.0 - 1.0 - 2.0, 2: 2.0 - 0.5, 3: 2.5, 4: 1.0,
              100: 1.0, 101: 0.5, 102: 2.0 - 1.0}
    for nid, value in expect.items():
        assert math.isclose(nodes[nid]["self_s"], value, abs_tol=1e-12), (nid, nodes[nid])
    assert math.isclose(tracer._covered([(0, 2), (1, 3), (5, 6)], 0.5, 5.5), 3.0)

    m = tracer.layer_metrics({"spans": spans, "aggregates": aggregates}, wall_s=12.0)
    assert math.isclose(m["spectra.self_s"], 3.0 + 2.5)
    assert math.isclose(m["potentials.self_s"], 1.5 + 1.0)
    assert math.isclose(m["symbols.self_s"], 0.5 + 1.0)
    assert math.isclose(m["dynamics.flow.self_s"], 1.0)
    assert math.isclose(m["bench.self_s"], 12.0 - 10.0)
    assert m["potentials.evaluate.calls"] == 5 and m["potentials.evaluate.points"] == 50
    assert m["symbols.eval.calls"] == 10 and m["dynamics.flow.point_steps"] == 40
    assert math.isclose(m["spectra.eigensolve.gflop_computed"], 2.0)
    # layers plus bench cover the pass; the 0.5 s where B and C overlap is
    # self time of both
    total_self = sum(v for k, v in m.items() if k.endswith(".self_s") and k.count(".") == 1)
    assert math.isclose(total_self, 12.0 + 0.5), total_self


def check_benchmark_json():
    import run
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [tuple(m) for m in tracer.PER_LAYER], "per_layer differs from tracer.PER_LAYER"
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS), names


def check_oracles():
    import numpy as np
    from scipy.special import mathieu_a, mathieu_b

    import oracles
    from torusspec.effective import effective_1d
    from torusspec.potentials import cosine

    for hbar in (1.0, 0.5, 0.1, 0.05):
        q = 4.0 / hbar ** 2
        ref = np.array([mathieu_a(0, q), mathieu_b(2, q), mathieu_a(2, q),
                        mathieu_b(4, q), mathieu_a(4, q)]) * hbar ** 2 / 8.0
        got = oracles.mathieu_energies(hbar, 1.0, 5)
        assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref))), hbar
    for amp in (0.9, 1.0, 1.1):
        assert oracles.cosine_hbar(amp, 0.5) == amp
        assert math.isclose(oracles.cosine_hbar(amp, 4.0 * math.sqrt(amp) / math.pi), amp)
        for P in (1.6, 2.0, 2.5, 3.0):
            err = abs(oracles.cosine_hbar(amp, P) - effective_1d(cosine((1,), amp), P))
            assert err <= 1e-12, (amp, P, err)


def check_pass_isolation_in_process():
    """Two traced passes in one process: fresh inputs, one table build each."""
    import torusspec.cli  # noqa: F401
    tr = tracer.install()
    try:
        import workloads
        wl = workloads.WORKLOADS["invariance"]
        runs = []
        for index in range(2):
            with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
                inputs = wl.build(5, Path(tmp))
                tr.start(index)
                t0 = time.perf_counter()
                raw = wl.run(inputs)
                wall = time.perf_counter() - t0
                tr.stop()
                values = wl.observe(inputs, raw)
                assert all(ok for _, ok, _ in wl.gates(inputs, values))
                assert not all(ok for _, ok, _ in wl.gates(inputs, wl.perturb(values)))
                runs.append(tracer.layer_metrics(tr.dump(), wall))
    finally:
        tr.uninstall()
    for m in runs:
        assert m["effective.table.builds"] == 1, m["effective.table.builds"]
        assert m["effective.table.reuse_ratio"] > 0.0
        assert m["dynamics.flow.calls"] > 0 and m["symbols.eval.calls"] > 0
    drift = [k for k in tracer.COUNTS if runs[0][k] != runs[1][k]]
    assert not drift, drift


def check_counts_repeat_across_processes():
    """Two traced passes per workload, each in its own process, same seed."""
    import run
    env = run._worker_env()
    for workload in ("spectral", "cell2d", "egorov", "invariance"):
        counts = []
        for index in range(2):
            with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                     "--seed", "11", "--budget", "0", "--trace", "1",
                     "--workdir", str(Path(tmp) / "work")],
                    cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])["passes"][0]
            assert result["failed"] == 0 and result["perturbation_caught"], result["gates"]
            counts.append({k: result["layers"][k] for k in tracer.COUNTS})
        drift = [k for k in tracer.COUNTS if counts[0][k] != counts[1][k]]
        assert not drift, (workload, drift)


def main() -> int:
    checks = [check_self_time_arithmetic, check_benchmark_json, check_oracles,
              check_pass_isolation_in_process, check_counts_repeat_across_processes]
    failures = 0
    for check in checks:
        t0 = time.perf_counter()
        try:
            check()
            status = "PASS"
        except AssertionError as exc:
            failures += 1
            status = f"FAIL {exc!r}"
        print(f"{check.__name__:<40} {status} [{time.perf_counter() - t0:.1f}s]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
