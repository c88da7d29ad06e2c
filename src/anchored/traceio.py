"""CSV serialization of run traces.

Fixed column order, UTF-8, LF line endings, 17 significant digits so
every double round-trips exactly; absent quantities print as empty
fields.
"""

import csv
import itertools

import numpy as np

CSV_COLUMNS = ("k", "norm_g_y", "norm_g_x", "norm_dx", "norm_yx", "norm_dy",
               "lyapunov_main", "bound_value", "norm_g_z")


def format_column(values):
    """Lazy cells of a float column: 17 significant digits, NaN as empty."""
    return (format(v, ".17g") if v == v else ""
            for v in np.asarray(values, dtype=np.float64).tolist())


def write_csv(path, header, columns):
    """Write equal-length columns of cells under a header, row by row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))


def _padded(values):
    """Cells of an optional column that may be short, then empty fields.

    Unbounded: the rows end with the trace's own columns.
    """
    cells = () if values is None else format_column(values)
    return itertools.chain(cells, itertools.repeat(""))


def write_trace_csv(trace, path):
    write_csv(path, CSV_COLUMNS, (
        map(str, trace.k.tolist()),
        format_column(trace.norm_g_y),
        format_column(trace.norm_g_x),
        format_column(trace.norm_dx),
        format_column(trace.norm_yx),
        format_column(trace.norm_dy),
        _padded(trace.lyapunov),
        _padded(trace.bound),
        format_column(trace.norm_g_z),
    ))


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
