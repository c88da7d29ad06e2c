"""Command-line interface: run, verify, figure, list-schemes.

Run configs are flat INI files (sections [run], [schedule], [instance],
[trace], [output]); every key has a flag or default so minimal configs
work. See the README for the full key reference.
"""

import argparse
import configparser
import json
import os
import sys
import time

import numpy as np

from . import diagnostics as dg
from .errors import InputError
from .figures import FIGURES, make_figure
from .instances import DESK_SEED, GENERATORS, start_point
from .schedules import SCHEDULE_KINDS, SCHEDULES
from .schemes import (
    CLASSES,
    COMPATIBLE_SCHEDULES,
    SCHEME_KINDS,
    SCHEMES,
    TraceOpts,
    run,
    solver_for,
)
from .traceio import write_trace_csv
from .verify import SUITES, format_table, run_suites


#: the keys each config section may set; anything else is an input error.
#: A kind or generator reads only the keys of its row.
CONFIG_KEYS = {
    "run": ("scheme", "schedule", "iters", "seed"),
    "schedule": tuple(dict.fromkeys(
        key for row in SCHEDULES.values() for key in row.keywords)),
    "instance": ("generator", *dict.fromkeys(
        key for row in GENERATORS.values() for key in row.keys)),
    "trace": ("lyapunov", "track_x_residual"),
    "output": ("dir",),
}


def _check_keys(cfg):
    """Every section and key of ``cfg`` is one the run reads."""
    if cfg.defaults():
        raise InputError("unknown config section [DEFAULT]")
    for name in cfg.sections():
        if name not in CONFIG_KEYS:
            raise InputError(f"unknown config section [{name}]")
        for key, value in cfg.items(name):
            if key not in CONFIG_KEYS[name]:
                raise InputError(f"unknown config key [{name}] "
                                 f"{key} = {value}")


def _number(section, key, default, cast=float):
    """Config value ``key`` as a number; a malformed value is an input error."""
    raw = section.get(key, default)
    try:
        return cast(raw)
    except (TypeError, ValueError):
        kind = "an integer" if cast is int else "a number"
        raise InputError(f"config value {key} = {raw} is not {kind}") from None


def _switch(section, key, default):
    """Config value ``key`` as a switch; an unknown spelling is an input error."""
    raw = section.get(key, default)
    state = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
    if state is None:
        raise InputError(f"config value {key} = {raw} is not on/off, "
                         "true/false, yes/no or 1/0")
    return state


def _instance_seed(cfg, seed_override, default):
    """``--seed``, else the ``seed`` of [instance] or [run], else ``default``.

    Both config keys may be given only if they agree.
    """
    seeds = {_number(cfg[name], "seed", None, int)
             for name in ("instance", "run")
             if cfg.has_section(name) and "seed" in cfg[name]}
    if len(seeds) > 1:
        raise InputError("[instance] seed and [run] seed disagree")
    if seed_override is not None:
        return seed_override
    return seeds.pop() if seeds else default


def _build_instance(cfg, seed_override=None):
    section = cfg["instance"] if cfg.has_section("instance") else {}
    name = section.get("generator", "least_squares")
    if name not in GENERATORS:
        raise InputError(f"unknown generator {name!r}")
    keys = GENERATORS[name].keys
    unread = [key for key in section if key != "generator" and key not in keys]
    if unread:
        raise InputError(f"generator {name!r} does not read "
                         f"{', '.join(unread)} (it reads: "
                         f"{', '.join(keys) or 'no keys'})")
    seed = _instance_seed(cfg, seed_override, keys.get("seed"))
    return GENERATORS[name].build(**{
        key: seed if key == "seed" else _number(section, key, default,
                                                type(default))
        for key, default in keys.items()})


def _out_dir(path):
    """``path`` as an output directory; one that names, or lies under, a
    file that is not a directory is an input error."""
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise InputError(f"output directory {path}: {head} exists and is "
                         "not a directory")
    return path


def cmd_run(args):
    # values are literal: a % in a path is not an interpolation
    cfg = configparser.ConfigParser(interpolation=None)
    if args.config:
        try:
            found = cfg.read(args.config)
        except configparser.Error as exc:
            raise InputError(f"malformed config {args.config}: "
                             f"{str(exc).splitlines()[0]}") from None
        if not found:
            raise InputError(f"cannot read config {args.config}")
    _check_keys(cfg)
    section = cfg["run"] if cfg.has_section("run") else {}
    scheme = section.get("scheme", "halpern")
    kind = section.get("schedule", "halpern_fast")
    if scheme not in SCHEME_KINDS:
        raise InputError(f"unknown scheme {scheme!r}")
    if kind not in SCHEDULE_KINDS:
        raise InputError(f"unknown schedule {kind!r}")
    if kind not in COMPATIBLE_SCHEDULES[scheme]:
        raise InputError(f"schedule {kind!r} carries no guarantee for scheme "
                         f"{scheme!r} (compatible: "
                         f"{', '.join(COMPATIBLE_SCHEDULES[scheme])})")
    # checked now, made only after the run, so that a run refused for its
    # input leaves no directory
    out_dir = _out_dir(args.out or (cfg["output"].get("dir", ".")
                                    if cfg.has_section("output") else "."))
    K = args.iters if args.iters is not None \
        else _number(section, "iters", 100, int)
    tsec = cfg["trace"] if cfg.has_section("trace") else {}
    lyap_on = _switch(tsec, "lyapunov", "on")
    track_x = _switch(tsec, "track_x_residual", "off")
    instance = _build_instance(cfg, args.seed)
    op, y_star = instance.operator, instance.solution
    L = op.lipschitz
    ssec = cfg["schedule"] if cfg.has_section("schedule") else {}
    solver = solver_for(op, scheme, kind, **{
        key: _number(ssec, key, None) for key in ssec if ssec[key] != ""})
    solver.schedule_factory()  # its rule checks the constants now
    kw = solver.meta["constants"]
    row = SCHEMES[scheme]
    least, modulus = CLASSES[row.operator_class](L, kw), op.comonotone_modulus
    if modulus is None or modulus < least:
        raise InputError(f"scheme {scheme!r} needs a {row.operator_class} "
                         f"operator (co-monotone modulus >= {least:.6g}); "
                         f"the {instance.meta['generator']} operator "
                         f"declares {modulus}")
    potential = dg.potential_fold(solver, y_star) if lyap_on else None
    # the past-extra potential reads G y_k, which only x tracking evaluates
    opts = TraceOpts(track_x_residual=track_x or (
        potential is not None and "g_x" in potential.need))

    y0 = start_point(instance)
    t0 = time.time()
    trace = run(solver, y0, K, opts,
                observers=() if potential is None else (potential,))
    elapsed = time.time() - t0
    if potential is not None:
        trace.lyapunov = potential.series()
    notes = []
    if lyap_on and potential is None:
        notes.append(f"lyapunov: none, {scheme}/{kind} has no potential "
                     "form here")
    bound = SCHEDULES[kind].bound
    if lyap_on and bound is not None:
        d0 = float(np.linalg.norm(y0 - y_star))
        try:
            trace.bound = dg.bound_series(bound, trace.k, L, d0, **kw)
        except InputError as exc:  # eag_varying certifies only some eta0
            notes.append(f"bound: none, {exc}")

    os.makedirs(out_dir, exist_ok=True)
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
        f"L: {L:.17g}",
        f"final residual: {final:.17g}",
        f"runtime_s: {elapsed:.3f}",
        f"trace: {csv_path}",
        *notes,
    ]
    if trace.error:
        lines.append(f"error: {trace.error}")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 1 if trace.error else 0


def cmd_verify(args):
    if args.out:
        _out_dir(args.out)
    t0 = time.time()
    results = run_suites(args.suite, args.scale)
    table = format_table(results)
    if args.json:
        for r in results:
            print(json.dumps({"suite": r.suite, "name": r.name,
                              "status": r.status, "detail": r.detail,
                              "seconds": r.seconds}))
    else:
        print(table)
        print(f"elapsed: {time.time() - t0:.1f}s")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(table + "\n")
    return 0 if all(r.ok or r.skipped for r in results) else 1


def cmd_figure(args):
    out_dir = _out_dir(args.out or ".")
    csv_paths, svg_path, slopes = make_figure(args.which, args.scale, out_dir,
                                              seed=args.seed)
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
    p_ver.add_argument("--json", action="store_true",
                       help="print one JSON object per check instead of "
                            "the table")
    p_ver.set_defaults(fn=cmd_verify)

    p_fig = sub.add_parser("figure", help="regenerate a benchmark figure")
    p_fig.add_argument("--which", choices=FIGURES, required=True)
    p_fig.add_argument("--scale", choices=("small", "paper"), default="small")
    p_fig.add_argument("--seed", type=int, default=DESK_SEED)
    p_fig.add_argument("--out", default=None)
    p_fig.set_defaults(fn=cmd_figure)

    p_ls = sub.add_parser("list-schemes", help="print schemes and schedules")
    p_ls.set_defaults(fn=cmd_list_schemes)

    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (``| head``): point stdout at devnull so
        # the interpreter's exit-time flush of what is left stays quiet
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 1


if __name__ == "__main__":
    sys.exit(main())
