"""CSV serialization of run traces.

Fixed column order, UTF-8, LF line endings, 17 significant digits so
every double round-trips exactly; absent quantities print as empty
fields.
"""

import csv
import math

import numpy as np

CSV_COLUMNS = ("k", "norm_g_y", "norm_g_x", "norm_dx", "norm_yx", "norm_dy",
               "lyapunov_main", "bound_value", "norm_g_z")


def _fmt(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return format(float(x), ".17g")


def write_trace_csv(trace, path):
    n = len(trace)
    lyap = trace.lyapunov.get("main")
    bound = trace.bound
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for i in range(n):
            writer.writerow([
                int(trace.k[i]),
                _fmt(trace.norm_g_y[i]),
                _fmt(trace.norm_g_x[i]),
                _fmt(trace.norm_dx[i]),
                _fmt(trace.norm_yx[i]),
                _fmt(trace.norm_dy[i]),
                _fmt(lyap[i]) if lyap is not None and i < len(lyap) else "",
                _fmt(bound[i]) if bound is not None and i < len(bound) else "",
                _fmt(trace.norm_g_z[i]),
            ])


def read_trace_csv(path):
    """Load a trace CSV back into a dict of float arrays (NaN for blanks)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    out = {}
    for j, name in enumerate(header):
        if name == "k":
            out[name] = np.array([int(r[j]) for r in rows])
        else:
            out[name] = np.array([float(r[j]) if r[j] else np.nan for r in rows])
    return out
