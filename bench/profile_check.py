"""Cross-check the traced split against cProfile, one pass per workload.

    python3 bench/profile_check.py [--seed N] [workload ...]

For each workload this runs one pass under cProfile, one traced pass and
one plain pass, which times only the calls into the named boundaries (each
with fresh inputs from the same seed).  It prints, for the shares the
benchmark's rationale relies on, the share under each method and the floor
the share must reach:

- cell2d: sparse LU >= 75% of the pass;
- egorov, invariance: flows with their kernels and symbols >= 85%;
- spectral: assembly + eigensolve >= 45%, action inversion >= 30%, and
  the two together >= 85%.  Both profilers inflate the action route, which
  makes ~1e5 small Python calls, against the dense solve, which makes few.

Shares are inclusive times of the named boundaries over the pass's wall
time.  Exit code 0 when every share meets its floor under every method.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402

os.environ.update(run.BLAS_THREADS)    # as in the benchmark's workers; before numpy loads

_DENSE = ({("spectra.py", "assemble_hamiltonian"), ("spectra.py", "eigen_spectrum")},
          {"spectra.assemble", "spectra.eigensolve"})
# the two entry points of the action route; neither calls the other
_ACTION = ({("effective.py", "closed_form_table"), ("isospectral.py", "bs_reconstruct")},
           {"effective.closed_form_table", "isospectral.bs_reconstruct"})
_FLOWS = ({("dynamics.py", "_flow_batch")}, {"dynamics.flow"})

# workload -> [(label, floor, {cProfile (file suffix, function)}, {span names})]
SHARES = {
    "spectral": [("assembly + eigensolve", 0.45, *_DENSE),
                 ("action inversion", 0.30, *_ACTION),
                 ("assembly + eigensolve + action inversion", 0.85,
                  _DENSE[0] | _ACTION[0], _DENSE[1] | _ACTION[1])],
    "cell2d": [("sparse LU", 0.75, {("_dsolve/linsolve.py", "splu")}, {"effective.lu"})],
    "egorov": [("flows with kernels and symbols", 0.85, *_FLOWS)],
    "invariance": [("flows with kernels and symbols", 0.85, *_FLOWS)],
}


def _outermost_total(stats: pstats.Stats, targets) -> float:
    """Inclusive time of the target functions, not counting their recursion
    through each other (cProfile's cumtime already excludes self-recursion)."""
    total = 0.0
    for (filename, _, func), (_, _, _, cum, callers) in stats.stats.items():
        if not any(filename.endswith(suffix) and func == name for suffix, name in targets):
            continue
        # drop calls made from inside another target
        inner = sum(c[3] for (cf, _, cfn), c in callers.items()
                    if any(cf.endswith(s) and cfn == n for s, n in targets))
        total += cum - inner
    return total


def _traced_total(dump: dict, names) -> float:
    """Inclusive time of spans/aggregates named in ``names``, outermost only."""
    nodes = tracer.self_times(dump["spans"], dump["aggregates"])
    parent = {n["id"]: n["parent"] for n in nodes}
    name_of = {n["id"]: n["name"] for n in nodes}

    def nested(nid):
        p = parent.get(nid, tracer.ROOT)
        while p != tracer.ROOT:
            if name_of.get(p) in names:
                return True
            p = parent.get(p, tracer.ROOT)
        return False
    return sum(n["total_s"] for n in nodes if n["name"] in names and not nested(n["id"]))


def _plain_shares(run_pass, rows) -> list:
    """Shares from timers around the rows' cProfile targets and nothing else.

    Every torusspec module attribute that is one of the targets is swapped
    for a timer, so calls through re-exported names are timed too; a call
    made while another target of the same row runs is not counted again.
    """
    totals = [0.0] * len(rows)
    depth = [0] * len(rows)

    def timed(fn, members):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            for r in members:
                depth[r] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                for r in members:
                    depth[r] -= 1
                    if depth[r] == 0:
                        totals[r] += elapsed
        return wrapper

    restore, wrappers = [], {}
    for module in [m for n, m in list(sys.modules.items()) if n.startswith("torusspec")]:
        for attr, fn in list(vars(module).items()):
            code = getattr(fn, "__code__", None)
            if code is None:
                continue
            members = [r for r, row in enumerate(rows)
                       if any(code.co_filename.endswith(suffix) and fn.__name__ == name
                              for suffix, name in row[2])]
            if members:
                wrapper = wrappers.setdefault(id(fn), timed(fn, members))
                restore.append((module, attr, fn))
                setattr(module, attr, wrapper)
    try:
        wall = run_pass()
    finally:
        for module, attr, fn in restore:
            setattr(module, attr, fn)
    return [t / wall for t in totals]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cProfile cross-check of the traced split")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("workloads", nargs="*", default=list(SHARES))
    args = parser.parse_args(argv)

    import workloads

    def one_pass(wl, before, after):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            inputs = wl.build(args.seed, Path(tmp))
            before()
            t0 = time.perf_counter()
            wl.run(inputs)
            wall = time.perf_counter() - t0
            after()
        return wall

    profiled, plain = {}, {}
    for name in args.workloads:
        wl = workloads.WORKLOADS[name]
        plain[name] = _plain_shares(lambda: one_pass(wl, lambda: None, lambda: None),
                                    SHARES[name])
        prof = cProfile.Profile()
        wall = one_pass(wl, prof.enable, prof.disable)
        stats = pstats.Stats(prof)
        profiled[name] = [_outermost_total(stats, row[2]) / wall for row in SHARES[name]]

    tr = tracer.install()    # after profiling, so cProfile sees no wrappers
    ok = True
    print(f"{'workload':<11} {'share of':<42} {'plain':>7} {'cProfile':>9} {'traced':>8} "
          f"{'floor':>6}")
    for name in args.workloads:
        wall = one_pass(workloads.WORKLOADS[name], lambda: tr.start(0), tr.stop)
        dump = tr.dump()
        for row, plain_share, prof_share in zip(SHARES[name], plain[name], profiled[name]):
            label, floor, _, span_names = row
            traced = _traced_total(dump, span_names) / wall
            good = min(plain_share, prof_share, traced) >= floor
            ok &= good
            print(f"{name:<11} {label:<42} {plain_share:>7.1%} {prof_share:>9.1%} "
                  f"{traced:>8.1%} {floor:>6.0%}{'' if good else '  BELOW FLOOR'}")
    tr.uninstall()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
