"""The package names that the benchmark under ``bench/`` reads or patches.

``bench/probe.py`` swaps module attributes for traced wrappers by name,
and ``bench/workloads.py`` calls the package directly. A rename or a
dropped parameter in ``src/`` breaks the benchmark without breaking the
package's own tests, so this file pins each name and checks that it
accepts the arguments the benchmark passes.
"""

import inspect

import numpy as np
import pytest

from anchored import (diagnostics, figures, instances, operators, residuals,
                      schedules, schemes, traceio, verify)

#: constructors the probe replaces, by module, as in bench/probe.py
CONSTRUCTORS = {
    verify: ("desk_least_squares", "desk_huber", "desk_bilinear",
             "paper_least_squares", "paper_huber"),
    figures: ("desk_least_squares", "desk_huber", "paper_least_squares",
              "paper_huber"),
}

#: other attributes the probe replaces with wrappers
PATCHED = (
    (verify, ("transformed_nesterov_stream", "fb_residual",
              "tos_residual", "cocoercivity_report", "run",
              "equivalence_suite", "lemmas_suite", "bounds_suite")),
    (figures, ("rate_fit", "svg_loglog", "make_figure", "run")),
    (residuals, ("resolvent_apply",)),
    (schemes, ("schedule_stream", "run")),
    (schedules, ("schedule_stream",)),
    (operators, ("spectral_norm",)),
    (instances, ("spectral_norm",)),
    (traceio, ("write_trace_csv",)),
)


def accepts(fn, *args, **kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def parameter(fn, index):
    return list(inspect.signature(fn).parameters)[index]


@pytest.mark.parametrize("module,names", PATCHED,
                         ids=[m.__name__ for m, _ in PATCHED])
def test_patched_names_exist(module, names):
    for name in names:
        assert callable(getattr(module, name)), name


@pytest.mark.parametrize("module", CONSTRUCTORS, ids=lambda m: m.__name__)
def test_constructors_are_the_instance_ones(module):
    # the probe wraps instances.<name>(seed) and installs it as module.<name>
    for name in CONSTRUCTORS[module]:
        assert getattr(module, name) is getattr(instances, name)
        accepts(getattr(instances, name), 7)
    assert module.start_point is instances.start_point


def test_trace_options_and_snapshots():
    opts = schemes.TraceOpts(snapshot_stride=0)
    assert (opts.final_residual, opts.track_x_residual) == (True, False)
    inst = instances.gen_scalar_identity()
    solver = schemes.solver_for(inst.operator, "halpern", "halpern_fast")
    accepts(schemes.run, solver, np.ones(1), 3, trace_opts=opts)
    trace = schemes.run(solver, np.ones(1), 3, opts)
    assert trace.snapshots == [] and trace.error is None and len(trace) == 4


def test_arguments_the_probe_reads():
    # the probe replaces verify.dg with a traced copy of diagnostics, and
    # its hooks read these parameters by position
    assert verify.dg is diagnostics
    assert parameter(residuals.cocoercivity_report, 2) == "n_pairs"
    assert verify.cocoercivity_report is residuals.cocoercivity_report
    assert parameter(traceio.write_trace_csv, 1) == "path"
    assert parameter(diagnostics.bound_check, 1) == "bound"
    assert figures.rate_fit is diagnostics.rate_fit
    stream = schemes.schedule_stream("halpern_fast", 1.0)
    assert callable(stream.__next__)


def test_calls_the_workloads_make():
    accepts(figures.make_figure, "exam1", "small", "out", seed=7)
    accepts(figures.svg_loglog, "a.svg", [], title="t", ylabel="y",
            guide_slope=-1.0)
    accepts(verify.run_suites, "all", "small")
    accepts(verify.lemmas_suite, "paper")
    accepts(residuals.resolvent_apply, None, None)
    assert set(figures.FIGURES) == {"exam1", "exam2"}
    for scheme, kinds in schemes.COMPATIBLE_SCHEDULES.items():
        assert scheme in schemes.SCHEME_KINDS and kinds
