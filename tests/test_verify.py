"""The verify table's driver: shared runs, run errors, horizons, JSON rows."""

import json
from dataclasses import replace

import numpy as np
import pytest

from anchored import verify
from anchored.cli import main
from anchored.instances import desk_huber, desk_least_squares
from anchored.operators import counted
from anchored.schemes import run


def row(name):
    return next(r for r in verify.CHECKS if r.name == name)


def failing_after(inst, n_evals):
    """``inst`` with an operator that returns NaN after ``n_evals`` calls."""
    calls = [0]

    def eval_(y):
        calls[0] += 1
        g = inst.operator(y)
        return g if calls[0] <= n_evals else np.full_like(g, np.nan)

    return replace(inst, operator=replace(inst.operator, eval=eval_))


def test_run_plan_of_the_small_suites(monkeypatch):
    # 35 runs before sharing; 9 of them repeated another run or a prefix
    counters, seen = [], []
    for name in ("desk_least_squares", "desk_huber", "desk_bilinear"):
        def make(build=getattr(verify, name)):
            inst = build()
            op, counter = counted(inst.operator)
            counters.append(counter)
            return replace(inst, operator=op)
        monkeypatch.setattr(verify, name, make)

    def recording_run(solver, y0, K, trace_opts=None, observers=()):
        first = solver.schedule_factory()
        params = tuple(next(first) for _ in range(3))
        seen.append(((id(solver.operator), solver.scheme,
                      solver.meta.get("schedule"), params, y0.tobytes()),
                     trace_opts))
        return run(solver, y0, K, trace_opts, observers)

    monkeypatch.setattr(verify, "run", recording_run)
    results = verify.run_suites("all", "small")
    assert len(results) == 39 and all(r.ok for r in results)
    assert len(counters) == 3  # each instance built once
    assert len(seen) == 26
    assert all(opts.snapshot_stride == 0 for _, opts in seen)
    assert len({key for key, _ in seen}) == 26
    assert sum(c.count for c in counters) == 60026


@pytest.mark.parametrize("name", [
    "extra-gradient residual bound [huber]",                # column bound
    "constant-step extra-gradient rate constant [huber]",   # rate constant
    "past-extra residual bound [huber]",                    # fold
    "legacy past-extra residual slope [huber]",             # slope
])
def test_a_run_that_ends_in_an_error_fails_its_row(monkeypatch, name):
    monkeypatch.setattr(verify, "desk_huber",
                        lambda: failing_after(desk_huber(), 400))
    [result] = verify.run_checks([row(name)])
    assert not result.ok and not result.skipped
    assert result.detail.startswith("run error: non-finite iterate at step")


def test_shared_run_stopped_at_a_shorter_horizon(monkeypatch):
    # the shared 100-step run fails at step 50, which a 50-step run never
    # takes: the 50-step row runs again on its own and passes, as alone
    short = replace(row("anchored fast residual bound [ls]"), name="short",
                    K=lambda iters: 50)
    long = replace(short, name="long", K=lambda iters: 100)
    alone = verify.run_checks([short])
    calls = [0]

    def make():
        inst = desk_least_squares()

        def eval_(y):
            calls[0] += 1
            g = inst.operator(y)
            return np.full_like(g, np.nan) if calls[0] == 51 else g

        return replace(inst, operator=replace(inst.operator, eval=eval_))

    monkeypatch.setattr(verify, "desk_least_squares", make)
    shared_short, shared_long = verify.run_checks([short, long])
    assert shared_long.detail == "run error: non-finite iterate at step 50"
    assert (shared_short.ok, shared_short.detail) == (alone[0].ok,
                                                      alone[0].detail)
    assert shared_short.ok and calls[0] == 51 + 51


def test_shorter_row_reads_the_prefix_of_a_longer_run(monkeypatch):
    # the coupling identity at 500 steps rides on the 2000-step run of the
    # corrected slow bound and gives the bytes of its own run
    rows = [row("potential coupling identity [ls]"),
            row("corrected slow residual bound [ls]")]
    alone = verify.run_checks(rows[:1])
    calls = []
    real = verify.run
    monkeypatch.setattr(verify, "run", lambda *a, **kw: calls.append(a[2])
                        or real(*a, **kw))
    shared = verify.run_checks(rows)
    assert calls == [2000]
    assert shared[0].row() == alone[0].row()


def test_verify_json_rows(capsys):
    assert main(["verify", "--suite", "equivalence", "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [json.loads(line) for line in lines]
    assert len(rows) == 8
    for r in rows:
        assert set(r) == {"suite", "name", "status", "detail", "seconds"}
        assert r["suite"] == "equivalence" and r["status"] == "PASS"
        assert r["seconds"] > 0.0
