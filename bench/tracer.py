"""Outside-in tracing of torusspec for the benchmark's traced passes.

``install()`` swaps wrappers into the torusspec modules at run time: every
public function, every public method of a public class, every symbol
callable (``fn``, ``grad_x``, ``grad_eta``, ``x_fourier`` and bump profiles),
and three private kernels that the public API reaches and the per-layer
metrics need: the flow integrator, the sparse LU factorization and the
interpolation-table build.  Nothing under ``src/`` is edited.

Boundaries crossed rarely become span records ``[id, name, parent, start,
end, pass, counters]``.  Boundaries crossed up to ~1e6 times per pass (the
``HOT`` names) are aggregated per parent as ``[id, calls, total_s, points]``
keyed by ``(parent id, name)``.  A hot call inside another hot call has the
outer aggregate as its parent, so self times stay exact.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

ROOT = 0

# potential evaluations and symbol callables run inside the flow and
# quadrature inner loops; they are counted, not recorded one by one
HOT = frozenset({"potentials.evaluate", "potentials.gradient", "symbols.eval"})

# torusspec module -> layer; operator_norm lives in _linalg but weylquant
# re-exports it, so it counts as weylquant
LAYERS = {
    "potentials": "potentials", "spectra": "spectra", "symbols": "symbols",
    "weylquant": "weylquant", "dynamics": "dynamics",
    "propagation": "propagation", "effective": "effective",
    "isospectral": "isospectral", "cli": "cli",
}

# span names that the per-layer metrics read; any other wrapped callable is
# named "<layer>.<qualname>" and only feeds its layer's self time
RENAMES = {
    "potentials.FourierPotential.evaluate": "potentials.evaluate",
    "potentials.FourierPotential.gradient": "potentials.gradient",
    "potentials.potential_extrema": "potentials.extrema",
    "spectra.assemble_hamiltonian": "spectra.assemble",
    "spectra.eigen_spectrum": "spectra.eigensolve",
    "spectra.truncation_tail_bound": "spectra.tail_bound",
    "effective.cell_problem_solve": "effective.cell_solve",
    "effective.action_J": "effective.action",
    "effective.effective_1d": "effective.closed_form",
}

# accessors called inside the hot kernels themselves; a span around them
# would double the hot-path overhead without separating any work
SKIP = frozenset({"potentials.FourierPotential.items",
                  "potentials.FourierPotential.coefficient"})

SYMBOL_FIELDS = ("fn", "grad_x", "grad_eta", "x_fourier")

# (metric, unit, better): the per-layer metrics of a traced run, in the
# order BENCHMARK.json lists them
PER_LAYER = [
    ("potentials.gradient.calls", "count", "lower"),
    ("potentials.gradient.points", "count", "lower"),
    ("potentials.gradient.self_s", "s", "lower"),
    ("potentials.evaluate.calls", "count", "lower"),
    ("potentials.evaluate.points", "count", "lower"),
    ("potentials.evaluate.self_s", "s", "lower"),
    ("potentials.extrema.calls", "count", "lower"),
    ("potentials.extrema.self_s", "s", "lower"),
    ("spectra.assemble.calls", "count", "lower"),
    ("spectra.assemble.self_s", "s", "lower"),
    ("spectra.assemble.mib_computed", "MiB", "lower"),
    ("spectra.eigensolve.calls", "count", "lower"),
    ("spectra.eigensolve.self_s", "s", "lower"),
    ("spectra.eigensolve.gflop_computed", "GFLOP", "lower"),
    ("spectra.tail_bound.self_s", "s", "lower"),
    ("symbols.eval.calls", "count", "lower"),
    ("symbols.eval.self_s", "s", "lower"),
    ("dynamics.flow.calls", "count", "lower"),
    ("dynamics.flow.point_steps", "count", "lower"),
    ("dynamics.flow.self_s", "s", "lower"),
    ("dynamics.symplectic_defect.self_s", "s", "lower"),
    ("weylquant.weyl_matrix.calls", "count", "lower"),
    ("weylquant.weyl_matrix.symbol_calls", "count", "lower"),
    ("weylquant.weyl_matrix.self_s", "s", "lower"),
    ("weylquant.opnorm.calls", "count", "lower"),
    ("weylquant.opnorm.self_s", "s", "lower"),
    ("propagation.propagate.calls", "count", "lower"),
    ("propagation.propagate.self_s", "s", "lower"),
    ("propagation.heisenberg.self_s", "s", "lower"),
    ("effective.cell_solve.calls", "count", "lower"),
    ("effective.cell_solve.self_s", "s", "lower"),
    ("effective.newton_steps", "count", "lower"),
    ("effective.lu.calls", "count", "lower"),
    ("effective.lu.self_s", "s", "lower"),
    ("effective.lu.fill_nnz", "count", "lower"),
    ("effective.table.builds", "count", "lower"),
    ("effective.table.self_s", "s", "lower"),
    ("effective.table.reuse_ratio", "ratio", "higher"),
    ("effective.action.calls", "count", "lower"),
    ("effective.action.self_s", "s", "lower"),
    ("effective.closed_form.calls", "count", "lower"),
    ("isospectral.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("potentials.self_s", "s", "lower"),
    ("spectra.self_s", "s", "lower"),
    ("symbols.self_s", "s", "lower"),
    ("dynamics.self_s", "s", "lower"),
    ("weylquant.self_s", "s", "lower"),
    ("propagation.self_s", "s", "lower"),
    ("effective.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("hbar_err", "energy", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# count metrics must repeat exactly between two traced passes of one seed
COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"]


# -- probes: counters read from a call's arguments or result -------------


def _points(args, kwargs):
    """Batch size of a FourierPotential.evaluate/gradient call."""
    import numpy as np
    pot = args[0]
    x = args[1] if len(args) > 1 else kwargs["x"]
    return max(1, int(np.size(x)) // pot.dim)


def _assemble_mib(args, kwargs, result):
    return {"mib_computed": result.matrix.nbytes / 2.0 ** 20}


def _eigensolve_gflop(args, kwargs, result):
    # nominal count of a complex Hermitian value-only solve: the real
    # tridiagonal reduction's 4/3 N^3, four real flops per complex one
    n = args[0].basis.size
    return {"gflop_computed": 16.0 / 3.0 * n ** 3 * 1e-9}


def _flow_point_steps(args, kwargs, result):
    import numpy as np
    X, t, h = np.asarray(args[1]), float(args[3]), float(args[4])
    steps = 0 if t == 0.0 else max(1, int(round(abs(t) / h)))
    return {"point_steps": X.shape[0] * steps}


def _lu_fill(args, kwargs, result):
    return {"fill_nnz": result.L.nnz + result.U.nnz}


def _cell_steps(args, kwargs, result):
    # the solver's own count: pseudo-transient Newton steps, plus damped
    # fixed-point steps if Newton stalls
    return {"newton_steps": result.iterations}


PROBES = {
    "spectra.assemble": _assemble_mib,
    "spectra.eigensolve": _eigensolve_gflop,
    "dynamics.flow": _flow_point_steps,
    "effective.lu": _lu_fill,
    "effective.cell_solve": _cell_steps,
}


class Tracer:
    """Span recorder.  ``recording`` is on only inside the timed region."""

    def __init__(self):
        self._restore = []
        self._reset(None)

    def _reset(self, pass_id):
        self.recording = False
        self.pass_id = pass_id
        self.spans = []
        self.aggregates = {}
        self._stack = [ROOT]
        self._next = ROOT + 1

    def start(self, pass_id):
        """Drop earlier records and record pass ``pass_id``."""
        self._reset(pass_id)
        self.recording = True

    def stop(self):
        self.recording = False

    def _span(self, name, fn, args, kwargs, probe):
        sid = self._next
        self._next += 1
        rec = [sid, name, self._stack[-1], time.perf_counter(), 0.0, self.pass_id, {}]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()
        if probe is not None:
            rec[6] = probe(args, kwargs, result)
        return result

    def _hot(self, name, fn, args, kwargs, points):
        key = (self._stack[-1], name)
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = [self._next, 0, 0.0, 0]
            self._next += 1
        self._stack.append(agg[0])
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            agg[2] += time.perf_counter() - t0
            agg[1] += 1
            if points is not None:
                agg[3] += points(args, kwargs)
            self._stack.pop()

    def wrap(self, fn, name, points=None):
        """A callable that records ``name`` around ``fn`` while recording."""
        if getattr(fn, "__bench_traced__", False):
            return fn
        tracer = self
        if name in HOT:
            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                return tracer._hot(name, fn, args, kwargs, points)
        else:
            probe = PROBES.get(name)

            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                return tracer._span(name, fn, args, kwargs, probe)
        functools.update_wrapper(wrapper, fn)
        wrapper.__bench_traced__ = True
        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put every original callable back."""
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []
        self.recording = False

    def dump(self) -> dict:
        """Spans and aggregates as plain JSON-ready lists."""
        return {
            "spans": [list(rec) for rec in self.spans],
            "aggregates": [[parent, name, *agg]
                           for (parent, name), agg in self.aggregates.items()],
        }


def _public_callables(module, layer):
    """(owner, attr, function, span name) for the module's own public API."""
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield module, attr, value, f"{layer}.{attr}"
        elif inspect.isclass(value):
            for meth, fn in sorted(vars(value).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield value, meth, fn, f"{layer}.{value.__name__}.{meth}"


def install() -> Tracer:
    """Wrap torusspec's layers.  Call before any symbol or map is built."""
    import torusspec
    from torusspec import _linalg, dynamics, effective, symbols

    tracer = Tracer()
    modules = [importlib.import_module(f"torusspec.{name}") for name in LAYERS]
    replaced = {}   # id(original) -> wrapper, to rebind re-exported names

    for module in modules:
        layer = LAYERS[module.__name__.rsplit(".", 1)[1]]
        for owner, attr, fn, span in _public_callables(module, layer):
            if span in SKIP:
                continue
            span = RENAMES.get(span, span)
            points = _points if span in ("potentials.evaluate", "potentials.gradient") else None
            wrapper = tracer.wrap(fn, span, points)
            tracer._set(owner, attr, wrapper)
            replaced[id(fn)] = wrapper

    replaced[id(_linalg.operator_norm)] = tracer.wrap(_linalg.operator_norm, "weylquant.opnorm")
    replaced[id(dynamics._flow_batch)] = tracer.wrap(dynamics._flow_batch, "dynamics.flow")
    tracer._set(effective, "splu", tracer.wrap(effective.splu, "effective.lu"))
    tracer._set(effective._GridSymbol, "build_table",
                tracer.wrap(effective._GridSymbol.build_table, "effective.table"))

    # symbol callables of every PhaseSpaceFunction built from now on, and
    # the radial bump profiles handed to product_symbol
    cls = symbols.PhaseSpaceFunction
    original_init = cls.__init__

    def traced_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        for field in SYMBOL_FIELDS:
            value = getattr(self, field)
            if value is not None:
                setattr(self, field, tracer.wrap(value, "symbols.eval"))

    tracer._set(cls, "__init__", traced_init)
    bump = symbols.bump_profile   # already wrapped as a span above

    def traced_bump(*args, **kwargs):
        return tracer.wrap(bump(*args, **kwargs), "symbols.eval")

    functools.update_wrapper(traced_bump, bump)
    traced_bump.__bench_traced__ = True
    tracer._set(symbols, "bump_profile", traced_bump)
    replaced[id(bump.__wrapped__)] = traced_bump

    # rebind names that other modules imported, and the package re-exports
    originals = {id(w): w for w in replaced.values()}
    for module in [torusspec, *modules, _linalg]:
        for attr, value in list(vars(module).items()):
            if id(value) in replaced and id(value) not in originals:
                tracer._set(module, attr, replaced[id(value)])
    return tracer


# -- post-processing ------------------------------------------------------


def _covered(intervals, lo=float("-inf"), hi=float("inf")) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, aggregates) -> list:
    """One node per span and per aggregate with its self time.

    A node's self time is its duration minus the part covered by its
    children: the union of its child spans' intervals plus the accumulated
    time of its child aggregates (these ran one after another inside it).
    Returns dicts with id, name, parent, calls, total_s, self_s, points and
    counters.
    """
    intervals = defaultdict(list)
    agg_time = defaultdict(float)
    for sid, name, parent, start, end, *_ in spans:
        intervals[parent].append((start, end))
    for parent, name, aid, calls, total, points in aggregates:
        agg_time[parent] += total
    nodes = []
    for sid, name, parent, start, end, _pass, counters in spans:
        dur = end - start
        cover = _covered(intervals[sid], start, end) + agg_time[sid]
        nodes.append({"id": sid, "name": name, "parent": parent, "calls": 1,
                      "total_s": dur, "self_s": dur - cover, "points": 0,
                      "counters": counters})
    for parent, name, aid, calls, total, points in aggregates:
        cover = _covered(intervals[aid]) + agg_time[aid]
        nodes.append({"id": aid, "name": name, "parent": parent, "calls": calls,
                      "total_s": total, "self_s": total - cover, "points": points,
                      "counters": {}})
    return nodes


def layer_metrics(dump: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass (no hbar_err, cpu or overhead)."""
    nodes = self_times(dump["spans"], dump["aggregates"])
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "points": 0,
                                   "counters": defaultdict(float)})
    layer_self = defaultdict(float)
    ids = defaultdict(set)
    for node in nodes:
        agg = by_name[node["name"]]
        agg["calls"] += node["calls"]
        agg["self_s"] += node["self_s"]
        agg["points"] += node["points"]
        for key, value in node["counters"].items():
            agg["counters"][key] += value
        layer_self[node["name"].split(".", 1)[0]] += node["self_s"]
        ids[node["name"]].add(node["id"])

    def get(name, field):
        agg = by_name[name]
        return agg["counters"][field] if field not in agg else agg[field]

    m = {}
    for name in ("potentials.gradient", "potentials.evaluate"):
        for field in ("calls", "points", "self_s"):
            m[f"{name}.{field}"] = get(name, field)
    simple = {
        "potentials.extrema": ("calls", "self_s"),
        "spectra.assemble": ("calls", "self_s", "mib_computed"),
        "spectra.eigensolve": ("calls", "self_s", "gflop_computed"),
        "spectra.tail_bound": ("self_s",),
        "symbols.eval": ("calls", "self_s"),
        "dynamics.flow": ("calls", "point_steps", "self_s"),
        "dynamics.symplectic_defect": ("self_s",),
        "weylquant.weyl_matrix": ("calls", "self_s"),
        "weylquant.opnorm": ("calls", "self_s"),
        "propagation.propagate": ("calls", "self_s"),
        "propagation.heisenberg": ("self_s",),
        "effective.cell_solve": ("calls", "self_s"),
        "effective.lu": ("calls", "self_s", "fill_nnz"),
        "effective.table": ("self_s",),
        "effective.action": ("calls", "self_s"),
        "effective.closed_form": ("calls",),
    }
    for name, fields in simple.items():
        for field in fields:
            m[f"{name}.{field}"] = get(name, field)
    m["effective.newton_steps"] = get("effective.cell_solve", "newton_steps")

    weyl_ids, table_ids = ids["weylquant.weyl_matrix"], ids["effective.table"]
    m["weylquant.weyl_matrix.symbol_calls"] = sum(
        n["calls"] for n in nodes if n["name"] == "symbols.eval" and n["parent"] in weyl_ids)
    # a table build evaluates the symbol on the whole grid; a cache hit does not
    built = {n["parent"] for n in nodes if n["name"] == "symbols.eval" and n["parent"] in table_ids}
    tables = get("effective.table", "calls")
    m["effective.table.builds"] = len(built)
    m["effective.table.reuse_ratio"] = (tables - len(built)) / tables if tables else 0.0

    for layer in sorted(set(LAYERS.values())):
        m[f"{layer}.self_s"] = layer_self[layer]
    m["cli.calls"] = get("cli.main", "calls")
    top = [n["total_s"] for n in nodes if n["parent"] == ROOT]
    m["bench.self_s"] = wall_s - sum(top)
    return {k: (int(v) if k in COUNTS else float(v)) for k, v in m.items()}
