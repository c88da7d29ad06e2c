"""Figure pipelines: accelerated-variant comparisons on the two instances.

``exam1`` compares the one-correction scheme (classic stepsizes) with
the omega-family variant on the regression instance; ``exam2`` compares
the corrected extra-gradient and past-extra schemes on the smoothed
minimax instance. Each pipeline writes one CSV per curve (relative
gradient-iterate residual) and a log-log SVG with a slope -1 guide.
"""

import os

from .diagnostics import rate_fit
from .instances import (
    DESK_SEED,
    desk_huber,
    desk_least_squares,
    paper_huber,
    paper_least_squares,
    start_point,
)
from .schemes import TraceOpts, run, solver_for
from .svgplot import svg_loglog
from .traceio import format_column, write_csv

FIGURES = ("exam1", "exam2")


def _write_curve_csv(path, ks, values):
    write_csv(path, ("k", "rel_residual"),
              (map(str, ks.tolist()), format_column(values)))


def _curves(instance, specs, K):
    """(schedule kind, k, relative x residual) of each (scheme, kind) run."""
    opts = TraceOpts(track_x_residual=True)
    y0 = start_point(instance)
    out = []
    for scheme, kind in specs:
        trace = run(solver_for(instance.operator, scheme, kind), y0, K, opts)
        out.append((kind, trace.k, trace.norm_g_x / trace.norm_g_x[0]))
    return out


def make_figure(which, scale="small", out_dir=".", seed=DESK_SEED):
    """Run one figure pipeline; returns (csv_paths, svg_path, slopes)."""
    if which not in FIGURES:
        raise ValueError(f"unknown figure {which!r}")
    K = 5000 if scale == "paper" else 2000
    if which == "exam1":
        inst = paper_least_squares(seed) if scale == "paper" \
            else desk_least_squares(seed)
        specs = [("nesterov", "nesterov_slow"), ("nesterov", "nesterov_omega")]
        title = "accelerated variants, least-squares instance"
    else:
        inst = paper_huber(seed) if scale == "paper" else desk_huber(seed)
        specs = [("nag_eag", "nag_eag"), ("nag_peag", "nag_peag")]
        title = "corrected extra-gradient variants, minimax instance"

    curves = _curves(inst, specs, K)
    os.makedirs(out_dir, exist_ok=True)
    csv_paths = []
    slopes = {}
    for label, ks, rel in curves:
        path = os.path.join(out_dir, f"{which}_{label}.csv")
        _write_curve_csv(path, ks, rel)
        csv_paths.append(path)
        slopes[label] = rate_fit(rel, (K // 4, K)).slope
    svg_path = os.path.join(out_dir, f"{which}.svg")
    svg_loglog(svg_path, curves, title=title,
               ylabel="|G x_k| / |G x_0|", guide_slope=-1.0)
    return csv_paths, svg_path, slopes
