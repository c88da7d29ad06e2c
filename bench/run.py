"""Benchmark of the anchored package, one workload per run.

    python3 bench/run.py --workload desk_sweep|verify_small|paper_lemmas
                         [--seed 7] [--seconds 30] [--trace 0|1]

Run it from the root of a checkout. It builds nothing: the package is
imported from ``src/``. Each run is one fresh, single-process closed
loop: passes of the workload follow each other until ``--seconds`` have
passed (at least one pass). BLAS uses as many threads as the process
may run on.

The seed, taken modulo ``workloads.REFERENCE_SEEDS`` so that every
seed has recorded desk outputs, goes to the instance generators and,
through the instances, to the start points; the package receives
nothing else from the benchmark. Outputs are checked after every pass, outside the timed
region (see ``workloads.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
pass), ``setup_s`` (median over passes of the time a pass spends in
the instance-generator and start-point calls) and ``peak_rss_mb``.
With ``--trace 1`` an untimed warm-up pass is followed by alternating
traced and untraced passes (at least one each), and the metrics are the
per-layer ones in ``PER_LAYER``. Spans of traced passes are written to
``.bench_out/spans-<workload>-seed<seed>.tsv``. A run exits with code 2,
printing no result, when the checkout holds no package source or the
desk reference lacks the run's instance seed.
"""

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("desk_sweep", "verify_small", "paper_lemmas")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: per-layer metrics of a traced run: (name, unit, better)
PER_LAYER = (
    ("instances.calls", "count", "higher"),
    ("instances.busy_s", "s", "lower"),
    ("instances.spectral_norm_s", "s", "lower"),
    ("operators.evals", "count", "lower"),
    ("operators.busy_s", "s", "lower"),
    ("operators.us_per_eval", "us", "lower"),
    ("operators.flop_computed", "flop", "lower"),
    ("operators.bytes_computed", "B", "lower"),
    ("operators.resolvent_calls", "count", "lower"),
    ("operators.resolvent_busy_s", "s", "lower"),
    ("residuals.sampled_pairs", "count", "higher"),
    ("residuals.busy_s", "s", "lower"),
    ("schedules.params", "count", "higher"),
    ("schedules.busy_s", "s", "lower"),
    ("schemes.runs", "count", "higher"),
    ("schemes.steps", "count", "higher"),
    ("schemes.self_s", "s", "lower"),
    ("schemes.self_us_per_step", "us", "lower"),
    ("schemes.evals_per_step", "ratio", "lower"),
    ("schemes.snapshots", "count", "lower"),
    ("schemes.snapshot_mb_computed", "MB", "lower"),
    ("schemes.numeric_errors", "count", "lower"),
    ("diagnostics.calls", "count", "lower"),
    ("diagnostics.busy_s", "s", "lower"),
    ("diagnostics.operator_evals", "count", "lower"),
    ("verify.checks", "count", "higher"),
    ("verify.failed", "count", "lower"),
    ("verify.skipped", "count", "lower"),
    ("verify.equivalence_s", "s", "lower"),
    ("verify.lemmas_s", "s", "lower"),
    ("verify.bounds_s", "s", "lower"),
    ("verify.busy_s", "s", "lower"),
    ("traceio.bytes_written", "B", "lower"),
    ("traceio.busy_s", "s", "lower"),
    ("traceio.digest_mismatches", "count", "lower"),
    ("figures.busy_s", "s", "lower"),
    ("figures.digest_mismatches", "count", "lower"),
    ("svgplot.busy_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.tracing_overhead_s", "s", "lower"),
    ("bench.fail_ratio", "ratio", "lower"),
    ("bench.invariant_breaks", "count", "lower"),
)

#: counts that must repeat exactly from pass to pass and run to run
EXACT_COUNTS = ("instances.calls", "operators.evals",
                "operators.resolvent_calls", "residuals.sampled_pairs",
                "schedules.params", "schemes.runs", "schemes.steps",
                "schemes.snapshots", "diagnostics.calls",
                "diagnostics.operator_evals", "verify.checks",
                "traceio.bytes_written")


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def prepare():
    """Pin BLAS threads and put the checkout's package on the path.

    Must run before numpy is imported. Exits with code 2 when the
    checkout holds no package source.
    """
    threads = str(cpu_count())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    if not os.path.isfile(os.path.join(SRC, "anchored", "__init__.py")):
        print(f"error: no package source under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def _blas_threads_in_use():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return getter()
    return None


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    return None


def provenance(workload, seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    return {
        "workload": workload, "seed": seed,
        "nproc": cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": vendor,
        "blas_threads": _blas_threads_in_use(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


def measure(workload, seed, seconds, trace, check=None):
    """Run passes of ``workload`` for ``seconds``; returns a result dict.

    ``check`` replaces the workload's output checker (the self-test uses
    it for its negative control).
    """
    # imported here because they need the package path prepare() sets
    import probe as pr
    import workloads as wl

    fn = wl.WORKLOADS[workload]
    seed = wl.instance_seed(seed)
    check = check or wl.checker(workload, seed)
    probe = pr.Probe(seed)
    tracer = pr.Tracer() if trace else None
    tally = wl.Tally()
    walls = {False: [], True: []}
    setups, summaries, detail = [], [], {}
    os.makedirs(OUT_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    deadline = time.perf_counter() + seconds
    try:
        n = 0
        while True:
            traced = trace and n % 2 == 1
            with probe.patched(tracer if traced else None):
                body = fn
                if traced:
                    tracer.pass_no = n
                    body = tracer.wrap("bench.pass", fn)
                t0 = time.perf_counter()
                outputs = body(probe, seed, out_dir)
                wall = time.perf_counter() - t0
            if n > 0 or not trace:
                walls[traced].append(wall)
                if not traced:
                    setups.append(probe.setup_s)
            check(outputs, tally)
            if traced:
                metrics, detail = pr.summarize(tracer, n)
                summaries.append(metrics)
            n += 1
            if time.perf_counter() >= deadline and n >= (3 if trace else 1):
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if trace:
        metrics = _layer_metrics(summaries, walls, tally)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.tsv"))
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": statistics.median(walls[False]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "info": {"passes": len(walls[False]) + len(walls[True]),
                 "untraced_walls_s": walls[False],
                 "traced_walls_s": walls[True],
                 "setup_samples_s": setups,
                 "instance_seed": seed,
                 "skipped_checks": tally.skipped,
                 "traced_detail": detail,
                 "findings": tally.findings},
    }


def _layer_metrics(summaries, walls, tally):
    values = {key: statistics.median(s[key] for s in summaries)
              for key in summaries[0]}
    repeat_breaks = sum(1 for key in EXACT_COUNTS
                        if len({s[key] for s in summaries}) > 1)
    values.update({
        "traceio.digest_mismatches": tally.digest_mismatches,
        "figures.digest_mismatches": tally.figure_digest_mismatches,
        "bench.tracing_overhead_s": (statistics.median(walls[True])
                                     - statistics.median(walls[False])),
        "bench.fail_ratio": tally.failed / max(tally.attempted, 1),
        "bench.invariant_breaks": (max(s["bench.budget_breaks"]
                                       for s in summaries) + repeat_breaks),
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed; the verify suites pin 7")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare()
    import workloads as wl
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except wl.MissingReference as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = result.pop("info")
    info.update(provenance(args.workload, args.seed))
    for name, metric in result["metrics"].items():
        print(f"{name:<32} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
