"""The verify table's driver: shared runs, run errors, horizons, JSON rows."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from anchored import diagnostics, verify
from anchored.cli import main
from anchored.instances import desk_huber, desk_least_squares, gen_least_squares
from anchored.operators import ResolventSpec, counted, least_squares_kind
from anchored.schemes import run


EQUIVALENCE = [r for r in verify.CHECKS if r.suite == "equivalence"]
CORRECTED = ("nesterov", "nag_eag", "nag_peag", "nag_comono")


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
    assert sum(c.count for c in counters) == 60226


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


def test_potential_and_gap_folds_take_sigma_from_the_run(monkeypatch):
    # a changed keyword reaches the folds of the rows that name it
    monkeypatch.setitem(verify.KWARGS, "sigma=2", lambda L: {"sigma": 3.0})
    rows = [r for r in verify.CHECKS if r.kw == "sigma=2"]
    assert [r.folds for r in rows] == [("potential",), ("potential", "gaps")]
    seen = []
    real = verify.run

    def recording_run(solver, y0, K, trace_opts=None, observers=()):
        seen.append((solver.meta["constants"],
                     [(type(fold).__name__, fold.sigma) for fold in observers]))
        return real(solver, y0, K, trace_opts, observers)

    monkeypatch.setattr(verify, "run", recording_run)
    verify.run_checks(rows)
    assert seen == [({"sigma": 3.0}, [("PeagPotentialFold", 3.0),
                                      ("PeagGapFold", 3.0)])]


def test_rate_row_prints_the_limit_stepsize_of_its_run():
    check = verify.Check("bounds", "varying-step rate at 0.4/L", "huber",
                         "eag/eag_varying", verify._rate, kw="eta0=0.4/L")
    [result] = verify.run_checks([check])
    L = desk_huber().operator.lipschitz
    eta_star = verify.dg.eag_varying_limit_lower_bound(0.4 / L, L)
    assert f" eta*L>={eta_star * L:.4f} " in result.detail
    assert " eta*L>=0.3863 " not in result.detail  # the value at 0.5/L


def test_verify_json_rows(capsys):
    assert main(["verify", "--suite", "equivalence", "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [json.loads(line) for line in lines]
    assert len(rows) == 8
    for r in rows:
        assert set(r) == {"suite", "name", "status", "detail", "seconds"}
        assert r["suite"] == "equivalence" and r["status"] == "PASS"
        assert r["seconds"] > 0.0


def test_plan_frees_each_run_and_fold_after_its_last_row():
    plan = verify.Plan(verify.CHECKS, "small")
    for i, check in enumerate(plan.rows):
        assert plan.result(check).ok
        if i == len(EQUIVALENCE) - 1:
            # no later row reads a recording
            assert all(name != "record" for _, _, name in plan._folds)
    assert plan._traces == {} and plan._folds == {}
    assert plan._cases == {}


def test_small_lemmas_plan_never_holds_two_instances():
    plan = verify.Plan([r for r in verify.CHECKS if r.suite == "lemmas"])
    held = []
    for check in plan.rows:
        assert plan.result(check).ok
        held.append(set(plan._cases))
    assert not any({"ls", "huber"} <= cases for cases in held)
    assert {"ls"} in held and {"huber"} in held


def test_each_suite_lists_its_rows_case_by_case():
    # a case that comes back after another would keep both alive between
    for suite in verify.SUITES[:-1]:
        labels = [r.instance.replace("prox bilinear", "bilinear")
                  for r in verify.CHECKS if r.suite == suite]
        blocks = [label for i, label in enumerate(labels)
                  if i == 0 or label != labels[i - 1]]
        assert len(blocks) == len(set(blocks)), (suite, blocks)


def test_small_equivalence_suite_holds_recordings_one_row_at_a_time():
    # all 16 recordings held at once peak at about 27 MB
    tracemalloc.start()
    try:
        results = verify.equivalence_suite("small")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.ok for r in results)
    assert peak <= 13e6


@pytest.mark.parametrize("check", EQUIVALENCE, ids=lambda r: r.name)
def test_equivalence_row_fails_on_a_perturbed_corrected_run(monkeypatch,
                                                            check):
    # theta_k * (1 + 1e-3) for k >= 1 in the corrected run only
    real = verify.solver_for

    def perturbed(op, scheme, schedule, **kw):
        solver = real(op, scheme, schedule, **kw)
        if scheme not in CORRECTED:
            return solver

        def factory(make=solver.schedule_factory):
            for p in make():
                yield p._replace(theta=p.theta * (1.0 + 1e-3)) if p.k else p

        return replace(solver, schedule_factory=factory)

    monkeypatch.setattr(verify, "solver_for", perturbed)
    [result] = verify.run_checks([check])
    assert result.status == "FAIL"
    assert float(result.detail.removeprefix("max_dev=")) > verify.EQUIV_TOL


@pytest.mark.parametrize("name", [
    "forward-backward residual co-coercive (1000 pairs)",
    "three-operator residual co-coercive (1000 pairs)",
])
def test_cocoercive_row_fails_on_an_overstated_modulus(monkeypatch, name):
    # the operator declares 4/L, four times its co-coercivity 1/L
    def overstated():
        inst = desk_least_squares()
        op = inst.operator
        return replace(inst, operator=replace(
            op, comonotone_modulus=4.0 / op.lipschitz))

    monkeypatch.setattr(verify, "desk_least_squares", overstated)
    [result] = verify.run_checks([row(name)])
    assert result.status == "FAIL"
    assert float(result.detail.removeprefix("worst_margin=")) < 0.0


def _shifted_halpern_weights(real):
    # p_k, q_k of index k + 1: a 1e-6 scaling of both would still PASS,
    # since a scaled potential decreases where the potential does
    return lambda k: real(k + 1)


def _shrunk_omega_t(real):
    return lambda k, gamma, omega: replace(
        real(k, gamma, omega), t=0.9 * real(k, gamma, omega).t)


def _inflated_coupling_a(real):
    return lambda k, beta, eta, L: replace(
        real(k, beta, eta, L), a=real(k, beta, eta, L).a * (1.0 + 1e-6))


@pytest.mark.parametrize("name,target,wrong", [
    ("anchored potential nonincreasing [ls, fast]",
     "halpern_potential_coeffs", _shifted_halpern_weights),
    ("corrected potential nonincreasing [ls, omega]",
     "omega_family_coeffs", _shrunk_omega_t),
], ids=["anchored", "omega"])
def test_decrease_row_fails_on_a_wrong_coefficient(monkeypatch, name, target,
                                                   wrong):
    monkeypatch.setattr(diagnostics, target,
                        wrong(getattr(diagnostics, target)))
    [result] = verify.run_checks([row(name)])
    assert result.status == "FAIL"
    violations = int(result.detail.split("violations=")[1].split()[0])
    assert violations > 100


def test_coupling_row_fails_on_a_wrong_coefficient(monkeypatch):
    monkeypatch.setattr(diagnostics, "anchor_to_corrected_coeffs",
                        _inflated_coupling_a(
                            diagnostics.anchor_to_corrected_coeffs))
    [result] = verify.run_checks([row("potential coupling identity [ls]")])
    assert result.status == "FAIL"
    assert float(result.detail.removeprefix("max_dev=")) > 1e-6


class _ScaledLambda(ResolventSpec):
    """A resolvent kind applied at 1.01 times the index it is given."""

    def with_lambda(self, lam):
        return super().with_lambda(1.01 * lam)


@pytest.mark.parametrize("kind", [
    lambda p_mat, b: least_squares_kind(p_mat, b * (1.0 + 1e-6)),
    lambda p_mat, b: _ScaledLambda("least_squares", matrix=p_mat, shift=b),
], ids=["b*(1+1e-6)", "1.01*lam"])
def test_change_of_variable_row_fails_on_a_perturbed_resolvent(monkeypatch,
                                                               kind):
    monkeypatch.setattr(verify, "least_squares_kind", kind)
    [result] = verify.run_checks([row("residual change-of-variable agreement")])
    assert result.status == "FAIL"
    assert float(result.detail.removeprefix("max_dev=")) > 1e-10


def test_change_of_variable_row_forms_no_n_by_n_matrix():
    # P is 60 x 600: the resolvent caches a 60 x 60 inverse; the Gram
    # P^T P alone would take n^2 * 8 bytes
    inst = gen_least_squares(60, 600, seed=7)
    op = inst.operator
    case = verify.Case(op, None, inst.solution, inst.meta, op.lipschitz, 0.0)
    tracemalloc.start()
    try:
        ok, detail = verify._change_of_variable(case, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok, detail
    assert peak < 600 * 600 * 8
