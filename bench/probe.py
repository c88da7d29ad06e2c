"""Wrappers the benchmark installs at the package's layer boundaries.

The package itself carries no timers. Every wrapper here replaces a
module attribute that a caller looks up at call time (``verify.run``,
``schemes.schedule_stream``, ``verify.dg``, ...) and is removed again
when the pass ends, so the package code runs unchanged.

Every pass installs the seeded instance constructors: they hand the
benchmark seed to the generators (and, through the instance meta, to
``start_point``) and add up the time the pass spends in them. A traced
pass also records one span per call at every layer boundary. Spans stay
in memory until the run ends; :func:`summarize` turns them into
per-layer self times and exact counts.
"""

import os
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace

from anchored import (diagnostics, figures, instances, operators, residuals,
                      schedules, schemes, traceio, verify)

#: constructors the workloads reach, looked up by name in these modules
_CONSTRUCTORS = {
    verify: ("desk_least_squares", "desk_huber", "desk_bilinear",
             "paper_least_squares", "paper_huber"),
    figures: ("desk_least_squares", "desk_huber", "paper_least_squares",
              "paper_huber"),
}

#: diagnostics that may evaluate the operator at every snapshot themselves
#: (bound_check only for the past-extra residual bound)
_REEVALUATING = ("peag_potential_series", "bound_check")

#: operator evaluations per step, as the schemes module documents them
EVALS_PER_STEP = {"halpern": 1, "nesterov": 1, "peag": 1, "nag_peag": 1,
                  "eag": 2, "nag_eag": 2, "comono_eag": 2, "nag_comono": 2}


def eval_budget(scheme, K, opts):
    """Operator evaluations a completed ``run`` of ``K`` steps makes.

    peag pays one warm-up evaluation at z_0 and reuses its cached G(z_K);
    every other scheme pays one final-residual evaluation when asked.
    ``track_x_residual`` adds one evaluation per index 0..K.
    """
    n = EVALS_PER_STEP[scheme] * K
    if scheme == "peag":
        n += 1
    elif opts.final_residual:
        n += 1
    if opts.track_x_residual:
        n += K + 1
    return n


def snapshot_budget(K, opts):
    stride = opts.snapshot_stride
    return K // stride + 1 if stride > 0 else 0


class Tracer:
    """In-memory span recorder.

    A span is ``(id, parent, pass, name, start_ns, end_ns)``; id 0 is the
    root. ``attrs`` holds the counts a boundary records for its span.
    """

    def __init__(self):
        self.spans = []
        self.attrs = {}
        self.op_costs = []  # (pass, [evals], flop per eval, bytes per eval)
        self.pass_no = 0
        self._stack = [0]
        self._next_id = 1

    def wrap(self, name, fn, after=None, tally=None):
        """Return ``fn`` recording one span per call.

        ``after(sid, result, args, kwargs)`` runs once the span is closed,
        inside a ``bench.count`` span so its cost is charged to the
        benchmark. ``tally[0]`` counts calls.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            if tally is not None:
                tally[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.pass_no, name, t0, t1))
            if after is not None:
                self.wrap("bench.count", after)(sid, result, args, kwargs)
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tpass\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


class _TracedStream:
    """Schedule stream whose every ``next`` is a ``schedules.next`` span."""

    def __init__(self, tracer, stream):
        self._next = tracer.wrap("schedules.next", stream.__next__)

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def _matrix_entries(inst):
    """Entries of the matrix one operator evaluation streams twice."""
    if inst.meta.get("generator") in ("least_squares", "minimax_huber",
                                      "bilinear"):
        rows, cols = inst.meta["dims"]
        return rows * cols
    return 0


class Probe:
    """Seeded instance constructors plus, when traced, boundary spans."""

    def __init__(self, seed):
        self.seed = seed
        self.setup_s = 0.0  # seconds in instance calls since patched()
        self._tracer = None

    def _call(self, fn, args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.setup_s += time.perf_counter() - t0

    def instance(self, name):
        """Stand-in for ``instances.<name>`` that uses the benchmark seed."""
        fn = getattr(instances, name)
        tracer = self._tracer
        if tracer is not None:
            fn = tracer.wrap(f"instances.{name}", fn)

        def make(seed=self.seed):
            inst = self._call(fn, (seed,))
            if tracer is None:
                return inst
            return replace(inst, operator=self._traced_operator(inst))

        return make

    def start_point(self, inst):
        fn = instances.start_point
        if self._tracer is not None:
            fn = self._tracer.wrap("instances.start_point", fn)
        return self._call(fn, (inst,))

    def _traced_operator(self, inst):
        tracer, op = self._tracer, inst.operator
        entries = _matrix_entries(inst)
        tally = [0]
        tracer.op_costs.append((tracer.pass_no, tally, 4 * entries,
                                16 * entries))
        span = f"operators.eval.{inst.meta.get('generator', 'other')}"
        return replace(op, eval=tracer.wrap(span, op.eval, tally=tally))

    @contextmanager
    def patched(self, tracer=None):
        """Install the wrappers for one pass and remove them afterwards."""
        self._tracer = tracer
        self.setup_s = 0.0
        saved = []

        def put(module, name, value):
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, value)

        try:
            for module, names in _CONSTRUCTORS.items():
                for name in names:
                    put(module, name, self.instance(name))
                put(module, "start_point", self.start_point)
            if tracer is not None:
                self._install_spans(tracer, put)
            yield self
        finally:
            for module, name, value in reversed(saved):
                setattr(module, name, value)
            self._tracer = None

    def _install_spans(self, tracer, put):
        put(instances, "spectral_norm",
            tracer.wrap("instances.spectral_norm", instances.spectral_norm))
        put(operators, "spectral_norm",
            tracer.wrap("instances.spectral_norm", operators.spectral_norm))
        by_kind = {}
        apply = residuals.resolvent_apply

        def resolvent(res, y):
            traced = by_kind.get(res.kind)
            if traced is None:
                traced = by_kind[res.kind] = tracer.wrap(
                    f"operators.resolvent.{res.kind}", apply)
            return traced(res, y)

        put(residuals, "resolvent_apply", resolvent)

        def traced_stream_factory(factory):
            return lambda *a, **kw: _TracedStream(tracer, factory(*a, **kw))

        put(schemes, "schedule_stream",
            traced_stream_factory(schemes.schedule_stream))
        put(schedules, "schedule_stream",
            traced_stream_factory(schedules.schedule_stream))
        put(verify, "transformed_nesterov_stream",
            traced_stream_factory(verify.transformed_nesterov_stream))

        traced_run = tracer.wrap("schemes.run", schemes.run, after=_run_attrs(tracer))
        for module in (schemes, verify, figures):
            put(module, "run", traced_run)

        dg = types.SimpleNamespace(**vars(diagnostics))
        for name, fn in vars(diagnostics).items():
            if isinstance(fn, types.FunctionType) and not name.startswith("_") \
                    and fn.__module__ == diagnostics.__name__:
                after = _diag_attrs(tracer, name) if name in _REEVALUATING else None
                setattr(dg, name, tracer.wrap(f"diagnostics.{name}", fn,
                                              after=after))
        put(verify, "dg", dg)
        put(figures, "rate_fit", dg.rate_fit)

        def traced_residual(builder):
            def build(spec):
                op = builder(spec)
                return replace(op, eval=tracer.wrap("residuals.eval", op.eval))
            return tracer.wrap("residuals.build", build)

        put(verify, "fb_residual", traced_residual(verify.fb_residual))
        put(verify, "tos_residual", traced_residual(verify.tos_residual))

        def pairs(sid, result, args, kwargs):
            tracer.attrs[sid] = {"pairs": kwargs.get("n_pairs", args[2])}

        put(verify, "cocoercivity_report",
            tracer.wrap("residuals.cocoercivity_report",
                        verify.cocoercivity_report, after=pairs))

        def checks(sid, results, args, kwargs):
            tracer.attrs[sid] = {
                "checks": len(results),
                "failed": sum(1 for r in results if not r.ok and not r.skipped),
                "skipped": sum(1 for r in results if r.skipped)}

        for suite in ("equivalence_suite", "lemmas_suite", "bounds_suite"):
            put(verify, suite, tracer.wrap(f"verify.{suite}",
                                           getattr(verify, suite), after=checks))

        def written(sid, result, args, kwargs):
            tracer.attrs[sid] = {"bytes": os.path.getsize(args[1])}

        put(traceio, "write_trace_csv",
            tracer.wrap("traceio.write_trace_csv", traceio.write_trace_csv,
                        after=written))
        put(figures, "make_figure",
            tracer.wrap("figures.make_figure", figures.make_figure))
        put(figures, "svg_loglog",
            tracer.wrap("svgplot.svg_loglog", figures.svg_loglog))


def _run_attrs(tracer):
    def after(sid, trace, args, kwargs):
        solver, K = args[0], args[2]
        opts = (args[3] if len(args) > 3 else kwargs.get("trace_opts")) \
            or schemes.TraceOpts()
        arrays = {}
        for snap in trace.snapshots:
            for value in vars(snap).values():
                if hasattr(value, "nbytes"):
                    arrays[id(value)] = value.nbytes
        tracer.attrs[sid] = {
            "case": f"{solver.scheme}/{solver.meta.get('schedule', 'custom')}",
            "steps": len(trace) - 1,
            "snapshots": len(trace.snapshots),
            "snapshot_bytes": sum(arrays.values()),
            "error": trace.error is not None,
            # budgets hold for completed runs only
            "eval_budget": None if trace.error else eval_budget(solver.scheme, K, opts),
            "snapshot_budget": None if trace.error else snapshot_budget(K, opts),
        }
    return after


def _diag_attrs(tracer, name):
    def after(sid, result, args, kwargs):
        reevaluates = name == "peag_potential_series" or (
            kwargs.get("bound", args[1] if len(args) > 1 else None)
            == "peag_residual")
        tracer.attrs[sid] = {
            "eval_budget": len(args[0].snapshots) if reevaluates else 0}
    return after


def _is_eval(span_name):
    return span_name.startswith("operators.eval.")


def _is_resolvent(span_name):
    return span_name.startswith("operators.resolvent.")


def summarize(tracer, pass_no):
    """Per-layer metrics of one traced pass, computed from its spans.

    Returns ``(metrics, detail)``; ``detail`` splits operator time by
    instance and step time by (scheme, schedule) for the notes.
    """
    spans = [s for s in tracer.spans if s[2] == pass_no]
    name = {s[0]: s[3] for s in spans}
    parent = {s[0]: s[1] for s in spans}
    dur = {s[0]: s[5] - s[4] for s in spans}
    child = defaultdict(int)
    evals_under = defaultdict(int)
    eval_ns_under = defaultdict(int)
    for sid, par, _, nm, _, _ in spans:
        child[par] += dur[sid]
        if _is_eval(nm):
            evals_under[par] += 1
            eval_ns_under[par] += dur[sid]
    own = {sid: dur[sid] - child[sid] for sid in dur}

    layer_self = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(float)
    for sid, nm in name.items():
        layer_self[nm.split(".")[0]] += own[sid] * 1e-9
        calls[nm] += 1
        total[nm] += dur[sid] * 1e-9

    def layer(sid):
        return name.get(sid, "").split(".")[0]

    attrs = {sid: tracer.attrs[sid] for sid in name if sid in tracer.attrs}

    def attr_sum(prefix, key):
        return sum(a.get(key, 0) for sid, a in attrs.items()
                   if name[sid].startswith(prefix))

    runs = [sid for sid, nm in name.items() if nm == "schemes.run"]
    steps = attr_sum("schemes.run", "steps")
    run_evals = sum(evals_under[sid] for sid in runs)
    diag = [sid for sid in name if layer(sid) == "diagnostics"]
    budget_breaks = 0
    for sid in runs:
        a = attrs[sid]
        if a["eval_budget"] is not None and (
                evals_under[sid] != a["eval_budget"]
                or a["snapshots"] != a["snapshot_budget"]):
            budget_breaks += 1
    for sid in diag:
        if evals_under[sid] != attrs.get(sid, {}).get("eval_budget", 0):
            budget_breaks += 1

    eval_own = defaultdict(list)
    resolvent_own = defaultdict(list)
    for sid, nm in name.items():
        if _is_eval(nm):
            eval_own[nm].append(own[sid])
        elif _is_resolvent(nm):
            resolvent_own[nm].append(own[sid])
    evals = sum(len(v) for v in eval_own.values())
    eval_self = sum(sum(v) for v in eval_own.values()) * 1e-9
    per_case = defaultdict(list)
    for sid in runs:
        a = attrs[sid]
        if a["steps"]:
            per_case[a["case"]].append(
                (1e-3 * dur[sid] / a["steps"],
                 1e-3 * (dur[sid] - eval_ns_under[sid]) / a["steps"]))
    detail = {
        "us_per_eval_by_instance": {
            nm.rsplit(".", 1)[1]: 1e-3 * sum(v) / len(v)
            for nm, v in eval_own.items()},
        "ms_per_resolvent_by_kind": {
            nm.rsplit(".", 1)[1]: 1e-6 * sum(v) / len(v)
            for nm, v in resolvent_own.items()},
        "diagnostics_eval_s": 1e-9 * sum(eval_ns_under[sid] for sid in diag),
        "us_per_step_by_case": {
            case: [sum(x[0] for x in v) / len(v), sum(x[1] for x in v) / len(v)]
            for case, v in per_case.items()},
    }
    costs = [(t[0], f, b) for p, t, f, b in tracer.op_costs if p == pass_no]
    wall = total["bench.pass"]
    metrics = {
        "instances.calls": sum(1 for sid in name if layer(sid) == "instances"
                               and layer(parent[sid]) != "instances"),
        "instances.busy_s": layer_self["instances"],
        "instances.spectral_norm_s": total["instances.spectral_norm"],
        "operators.evals": evals,
        "operators.busy_s": layer_self["operators"],
        "operators.us_per_eval": 1e6 * eval_self / evals if evals else 0.0,
        "operators.flop_computed": sum(n * f for n, f, _ in costs),
        "operators.bytes_computed": sum(n * b for n, _, b in costs),
        "operators.resolvent_calls": sum(len(v) for v in resolvent_own.values()),
        "operators.resolvent_busy_s": 1e-9 * sum(
            sum(v) for v in resolvent_own.values()),
        "residuals.sampled_pairs": attr_sum("residuals.cocoercivity_report",
                                            "pairs"),
        "residuals.busy_s": layer_self["residuals"],
        "schedules.params": calls["schedules.next"],
        "schedules.busy_s": layer_self["schedules"],
        "schemes.runs": len(runs),
        "schemes.steps": steps,
        "schemes.self_s": layer_self["schemes"],
        "schemes.self_us_per_step": (1e6 * layer_self["schemes"] / steps
                                     if steps else 0.0),
        "schemes.evals_per_step": run_evals / steps if steps else 0.0,
        "schemes.snapshots": attr_sum("schemes.run", "snapshots"),
        "schemes.snapshot_mb_computed": attr_sum("schemes.run",
                                                 "snapshot_bytes") / 1e6,
        "schemes.numeric_errors": attr_sum("schemes.run", "error"),
        "diagnostics.calls": len(diag),
        "diagnostics.busy_s": layer_self["diagnostics"],
        "diagnostics.operator_evals": sum(evals_under[sid] for sid in diag),
        "verify.checks": attr_sum("verify.", "checks"),
        "verify.failed": attr_sum("verify.", "failed"),
        "verify.skipped": attr_sum("verify.", "skipped"),
        "verify.equivalence_s": total["verify.equivalence_suite"],
        "verify.lemmas_s": total["verify.lemmas_suite"],
        "verify.bounds_s": total["verify.bounds_suite"],
        "verify.busy_s": layer_self["verify"],
        "traceio.bytes_written": attr_sum("traceio.", "bytes"),
        "traceio.busy_s": layer_self["traceio"],
        "figures.busy_s": layer_self["figures"],
        "svgplot.busy_s": layer_self["svgplot"],
        "bench.self_s": layer_self["bench"],
        "bench.traced_wall_s": wall,
        "bench.budget_breaks": budget_breaks,
    }
    return metrics, detail
