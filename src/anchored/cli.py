"""Command-line interface: run, verify, figure, list-schemes.

Run configs are flat INI files (sections [run], [schedule], [instance],
[trace], [output]); every key has a flag or default so minimal configs
work. See the README for the full key reference.
"""

import argparse
import configparser
import os
import sys
import time

import numpy as np

from . import diagnostics as dg
from .errors import DataError, InputError
from .figures import FIGURES, make_figure
from .instances import DESK_SEED, GENERATORS, start_point
from .schedules import SCHEDULE_KINDS
from .schemes import (
    COMPATIBLE_SCHEDULES,
    SCHEME_KINDS,
    TraceOpts,
    run,
    solver_for,
)
from .traceio import write_trace_csv
from .verify import SUITES, format_table, run_suites


#: closed-form residual bound (a ``diagnostics.BOUND_KINDS`` entry) of each
#: schedule kind that has one; it fills the ``bound_value`` column
BOUND_OF_SCHEDULE = {
    "halpern_fast": "halpern_fast", "nesterov_fast": "halpern_fast",
    "halpern_slow": "halpern_slow", "nesterov_slow": "halpern_slow",
    "nag_eag": "eag", "comono_eag": "comono", "nag_comono": "comono",
    "peag": "peag_probe",
}


def _number(section, key, default, cast=float):
    """Config value ``key`` as a number; a malformed value is an input error."""
    raw = section.get(key, default)
    try:
        return cast(raw)
    except (TypeError, ValueError):
        kind = "an integer" if cast is int else "a number"
        raise InputError(f"config value {key} = {raw} is not {kind}") from None


def _build_instance(cfg, seed_override=None):
    section = cfg["instance"] if cfg.has_section("instance") else {}
    generator = section.get("generator", "least_squares")
    if generator not in GENERATORS:
        raise InputError(f"unknown generator {generator!r}")
    if generator == "scalar_identity":
        return GENERATORS[generator]()
    seed = seed_override if seed_override is not None \
        else _number(section, "seed", DESK_SEED, int)
    if generator == "least_squares":
        return GENERATORS[generator](_number(section, "n", 200, int),
                                     _number(section, "p", 100, int), seed,
                                     _number(section, "noise_var", 0.1))
    m = _number(section, "m", 200, int)
    n = _number(section, "n", 150, int)
    return GENERATORS[generator](m, n, seed)


def _schedule_kwargs(cfg):
    out = {}
    if not cfg.has_section("schedule"):
        return out
    section = cfg["schedule"]
    for key in ("gamma", "omega", "mu", "sigma", "rho", "eta", "eta0"):
        if section.get(key, "") != "":
            out[key] = _number(section, key, None)
    return out


def _attach_diagnostics(trace, scheme, kind, kw, instance, y0):
    """Fill the lyapunov and bound columns when a matching form exists."""
    op = instance.operator
    L = op.lipschitz
    y_star = instance.solution
    try:
        if scheme == "halpern":
            trace.lyapunov["main"] = dg.halpern_potential_series(trace, L)
        elif scheme == "nesterov" and kind == "nesterov_omega" \
                and y_star is not None:
            trace.lyapunov["main"] = dg.nesterov_potential_series(
                trace, kw.get("gamma", 0.9 / L), kw.get("omega", 3.0),
                y_star, kw.get("mu", 1.0))
        elif scheme == "nag_eag" and y_star is not None:
            trace.lyapunov["main"] = dg.eag_potential_series(trace, L, y_star)
        elif scheme == "peag" and kind == "peag" and y_star is not None:
            trace.lyapunov["main"] = dg.peag_potential_series(
                trace, op, L, kw.get("sigma", 1.0), y_star)
    except DataError:
        pass  # diagnostics stay empty when snapshots are off
    if y_star is None or kind not in BOUND_OF_SCHEDULE:
        return
    d0 = float(np.linalg.norm(y0 - y_star))
    trace.bound = dg.bound_series(BOUND_OF_SCHEDULE[kind], trace.k, L, d0,
                                  rho=kw.get("rho"),
                                  sigma=kw.get("sigma", 1.0))


def cmd_run(args):
    cfg = configparser.ConfigParser()
    if args.config:
        if not cfg.read(args.config):
            print(f"error: cannot read config {args.config}", file=sys.stderr)
            return 2
    section = cfg["run"] if cfg.has_section("run") else {}
    scheme = section.get("scheme", "halpern")
    kind = section.get("schedule", "halpern_fast")
    if scheme not in SCHEME_KINDS:
        print(f"error: unknown scheme {scheme!r}", file=sys.stderr)
        return 2
    if kind not in SCHEDULE_KINDS:
        print(f"error: unknown schedule {kind!r}", file=sys.stderr)
        return 2
    K = args.iters if args.iters is not None \
        else _number(section, "iters", 100, int)
    instance = _build_instance(cfg, args.seed)
    kw = _schedule_kwargs(cfg)

    tsec = cfg["trace"] if cfg.has_section("trace") else {}
    stride = _number(tsec, "snapshot_stride", 1, int)
    lyap_on = tsec.get("lyapunov", "on").lower() in ("on", "true", "1", "yes")
    opts = TraceOpts(
        snapshot_stride=stride,
        track_x_residual=tsec.get("track_x_residual", "off").lower()
        in ("on", "true", "1", "yes"))

    out_dir = args.out or (cfg["output"].get("dir", ".")
                           if cfg.has_section("output") else ".")
    os.makedirs(out_dir, exist_ok=True)

    y0 = start_point(instance)
    solver = solver_for(instance.operator, scheme, kind, **kw)
    t0 = time.time()
    trace = run(solver, y0, K, opts)
    elapsed = time.time() - t0
    if lyap_on and stride == 1:
        _attach_diagnostics(trace, scheme, kind, kw, instance, y0)

    csv_path = os.path.join(out_dir, "trace.csv")
    write_trace_csv(trace, csv_path)
    report_path = os.path.join(out_dir, "report.txt")
    final = trace.norm_g_y[-1]
    if np.isnan(final):
        final = trace.norm_g_z[-1]
    lines = [
        f"scheme: {scheme}",
        f"schedule: {kind}",
        f"instance: {instance.meta.get('generator')} "
        f"dims={instance.meta.get('dims')} seed={instance.meta.get('seed')}",
        f"iterations: {len(trace) - 1}",
        f"L: {instance.l_estimate:.17g}",
        f"final residual: {final:.17g}",
        f"runtime_s: {elapsed:.3f}",
        f"trace: {csv_path}",
    ]
    if trace.error:
        lines.append(f"error: {trace.error}")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 1 if trace.error else 0


def cmd_verify(args):
    t0 = time.time()
    results = run_suites(args.suite, args.scale)
    table = format_table(results)
    print(table)
    print(f"elapsed: {time.time() - t0:.1f}s")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(table + "\n")
    return 0 if all(r.ok or r.skipped for r in results) else 1


def cmd_figure(args):
    out_dir = args.out or "."
    seed = DESK_SEED if args.seed is None else args.seed
    csv_paths, svg_path, slopes = make_figure(args.which, args.scale, out_dir,
                                              seed=seed)
    for path in csv_paths:
        print(f"wrote {path}")
    print(f"wrote {svg_path}")
    for label, slope in slopes.items():
        print(f"slope[{label}] = {slope:.4f}")
    return 0


def cmd_list_schemes(_args):
    print("schemes:")
    for s in SCHEME_KINDS:
        print(f"  {s:<12} schedules: {', '.join(COMPATIBLE_SCHEDULES[s])}")
    print("schedule kinds:")
    for k in SCHEDULE_KINDS:
        print(f"  {k}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="anchored",
        description="Anchored and accelerated fixed-point schemes with "
                    "numerical certification of their guarantees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", help="INI config path")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--iters", type=int, default=None)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(fn=cmd_run)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=SUITES, default="all")
    p_ver.add_argument("--scale", choices=("small", "paper"), default="small")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(fn=cmd_verify)

    p_fig = sub.add_parser("figure", help="regenerate a benchmark figure")
    p_fig.add_argument("--which", choices=FIGURES, required=True)
    p_fig.add_argument("--scale", choices=("small", "paper"), default="small")
    p_fig.add_argument("--seed", type=int, default=None)
    p_fig.add_argument("--out", default=None)
    p_fig.set_defaults(fn=cmd_figure)

    p_ls = sub.add_parser("list-schemes", help="print schemes and schedules")
    p_ls.set_defaults(fn=cmd_list_schemes)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
