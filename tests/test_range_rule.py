"""One NaN-safe range rule: ``errors.in_range``.

Every range the package checks goes through it, so NaN and None fail
every range, an integer range compares ints as ints, and every refusal
is one :class:`InputError` line naming the value and the range. An AST
guard keeps it the only rule: outside ``errors.py`` no ``if`` whose test
holds an ordering comparison raises ``InputError``, and no
``schedules._need`` call tests one. A table feeds each call of the rule
NaN, +-inf, None, a string, a bool and each side of each bound, and one
value inside.
"""

import ast
import math
import pathlib
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import anchored
from anchored.errors import MAX_ENTRIES, InputError, in_range
from anchored.diagnostics import eag_varying_limit_lower_bound, rate_fit
from anchored.instances import (
    _check_seed_and_sizes,
    gen_bilinear,
    gen_least_squares,
    gen_minimax_huber,
)
from anchored.operators import (
    OperatorSpec,
    box_kind,
    huber_saddle_operator,
    identity_operator,
    l1_kind,
    spectral_norm,
    zero_kind,
)
from anchored.residuals import (
    SplittingSpec,
    cocoercivity_report,
    default_lambda,
    fb_residual,
)
from anchored.schedules import schedule_stream
from anchored.schemes import run, solver_for

PACKAGE = pathlib.Path(anchored.__file__).parent
ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
#: the two relation checks that are no range: two seeds that disagree,
#: and an operator outside the scheme's class
EXEMPT = {("cli.py", "len(seeds) > 1"),
          ("cli.py", "modulus is None or modulus < least")}


def _orders(node):
    return any(isinstance(sub, ast.Compare)
               and any(isinstance(op, ORDERING) for op in sub.ops)
               for sub in ast.walk(node))


def _raises_input_error(stmt):
    exc = stmt.exc if isinstance(stmt, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "InputError"


def hand_written_ranges(tree):
    """The tests of ``if`` statements that raise ``InputError`` on an
    ordering comparison, and of ``_need`` calls that make one."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _orders(node.test) \
                and any(map(_raises_input_error, node.body)):
            found.append(ast.unparse(node.test))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) \
                == "_need" and node.args and _orders(node.args[0]):
            found.append(ast.unparse(node.args[0]))
    return found


def flagged(package=PACKAGE):
    """(module, test) of each hand-written range check outside errors.py."""
    return [(path.name, test) for path in sorted(package.glob("*.py"))
            if path.name != "errors.py"
            for test in hand_written_ranges(ast.parse(path.read_text()))]


def test_every_range_check_is_a_call_of_the_rule():
    assert sorted(flagged()) == sorted(EXEMPT)


def test_guard_flags_a_hand_written_range():
    # control: the check SplittingSpec had, back in a parsed copy, and a
    # _need that tests a range, as eleven in schedules.py did
    path = PACKAGE / "residuals.py"
    tree = ast.parse(path.read_text())
    spec = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "__post_init__")
    spec.body[:0] = ast.parse(
        "if not 0.0 < lam < np.inf:\n"
        "    raise InputError('lam must be positive and finite')\n"
        "_need(0.0 < sigma < math.inf, 'sigma')\n").body
    assert hand_written_ranges(tree) == ["not 0.0 < lam < np.inf",
                                         "0.0 < sigma < math.inf"]
    assert hand_written_ranges(ast.parse(path.read_text())) == []


# -- the rule ----------------------------------------------------------------


@pytest.mark.parametrize("value", [2 ** 64 - 1, np.uint64(2 ** 64 - 1), 0])
def test_an_integer_range_compares_ints_as_ints(value):
    # as a float, 2^64 - 1 would round to 2^64 and fall outside
    assert in_range("seed", value, 0, 2 ** 64, "[)", integer=True) is value


@pytest.mark.parametrize("value", [True, 2.5, 2.0, np.float64(3.0), "3",
                                   None, math.nan])
def test_an_integer_range_refuses_what_is_no_int(value):
    with pytest.raises(InputError, match=r"^n = .* must be an integer in "
                                         r"\[1, 10\]$"):
        in_range("n", value, 1, 10, "[]", integer=True)


# -- every call of the rule --------------------------------------------------

L = 1.0


def _fb_with_forward(rho, lam):
    b = OperatorSpec(dim=1, eval=lambda y: y.copy(), lipschitz=1.0,
                     comonotone_modulus=rho)
    return fb_residual(SplittingSpec(a=l1_kind(0.1), b=b, lam=lam))


def _run(K):
    return run(solver_for(identity_operator(1), "halpern", "halpern_fast"),
               np.array([1.0]), K)


class Site:
    """One call of the rule, as ``build(v)`` reaches it with value v."""

    def __init__(self, function, name, build, lo, hi, ends="()",
                 integer=False, inside=(), outside=None):
        self.function, self.name, self.build = function, name, build
        self.lo, self.hi, self.ends, self.integer = lo, hi, ends, integer
        self.inside = inside
        self.outside = self._outside() if outside is None else outside

    def _outside(self):
        """NaN, None, a string, a bool, inf where excluded, and the value
        just outside each finite bound."""
        vals = [math.nan, "1", True]
        if None not in self.inside:
            vals.append(None)
        lo, hi, (left, right) = self.lo, self.hi, self.ends
        if self.integer:
            vals += [math.inf, -math.inf, lo + 0.5,
                     lo - 1 if left == "[" else lo]
            if hi != math.inf:
                vals.append(hi + 1 if right == "]" else hi)
            return vals
        if lo > -math.inf or left == "(":
            vals.append(-math.inf)
        if hi < math.inf or right == ")":
            vals.append(math.inf)
        if lo > -math.inf:
            vals.append(lo if left == "(" else math.nextafter(lo, -math.inf))
        if hi < math.inf:
            vals.append(hi if right == ")" else math.nextafter(hi, math.inf))
        return vals

    def message(self, v):
        kind = "be an integer in" if self.integer else "lie in"
        return (f"{self.name} = {v} must {kind} "
                f"{self.ends[0]}{self.lo}, {self.hi}{self.ends[1]}")


INF = math.inf
SITES = [
    Site("schedules._corrected.rule", "gamma",
         lambda v: schedule_stream("nesterov_fast", L, gamma=v), 0.0, INF,
         inside=(None, 2.5)),
    Site("schedules._halpern_omega", "gamma",
         lambda v: schedule_stream("halpern_omega", L, gamma=v), 0.0, 1.0 / L,
         inside=(None, 0.5, math.nextafter(1.0, 0.0))),
    Site("schedules._halpern_omega", "omega",
         lambda v: schedule_stream("halpern_omega", L, omega=v), 2.0, INF,
         inside=(None, 2.5)),
    Site("schedules._nesterov_omega", "gamma",
         lambda v: schedule_stream("nesterov_omega", L, gamma=v), 0.0, INF,
         inside=(None, 5.0)),
    Site("schedules._nesterov_omega", "omega",
         lambda v: schedule_stream("nesterov_omega", L, omega=v), 1.0, INF,
         "[)", inside=(None, 1.0)),
    Site("schedules._eag_constant", "eta",
         lambda v: schedule_stream("eag_constant", L, eta=v), 0.0,
         1.0 / (8.0 * L), "(]", inside=(None, 1.0 / (8.0 * L))),
    Site("schedules._eag_varying", "eta0",
         lambda v: schedule_stream("eag_varying", L, eta0=v), 0.0, 1.0 / L,
         inside=(0.5,)),
    Site("schedules._peag_legacy", "eta0",
         lambda v: schedule_stream("peag_legacy", L, eta0=v), 0.0,
         1.0 / (2.0 * L), inside=(0.25,)),
    Site("schedules._comono_eag", "rho",
         lambda v: schedule_stream("comono_eag", L, rho=v), -1.0 / (2.0 * L),
         1.0 / L, "(]", inside=(-0.25, 1.0)),
    Site("schedules._peag", "sigma",
         lambda v: schedule_stream("peag", L, sigma=v), 0.0, INF,
         inside=(None, 1e-3)),
    Site("schedules.constants", "L",
         lambda v: schedule_stream("halpern_fast", v), 0.0, INF,
         inside=(2.0,)),
    Site("residuals.SplittingSpec.__post_init__", "lam",
         lambda v: SplittingSpec(a=l1_kind(0.1), b=zero_kind(), lam=v), 0.0,
         INF, inside=(0.5,)),
    Site("residuals.default_lambda", "L", default_lambda, 0.0, INF,
         inside=(4.0,)),
    Site("residuals._modulus", "forward rho",
         lambda v: _fb_with_forward(v, 0.5), 0.0, INF, inside=(1.0,)),
    # lam is first checked positive by SplittingSpec: here only the top
    Site("residuals._modulus", "lam",
         lambda v: _fb_with_forward(0.25, v), 0.0, 1.0,
         inside=(0.5, math.nextafter(1.0, 0.0)), outside=(1.0, 1.5)),
    Site("residuals.cocoercivity_report", "n_pairs",
         lambda v: cocoercivity_report(identity_operator(2), 1.0, v), 1,
         MAX_ENTRIES // 3, "[]", integer=True, inside=(1, 5)),
    Site("residuals.cocoercivity_report", "co-coercivity modulus",
         lambda v: cocoercivity_report(identity_operator(2), v, 5), -INF,
         INF, "[]", inside=(1.0, -INF, INF)),
    Site("residuals.cocoercivity_report", "declared Lipschitz constant",
         lambda v: cocoercivity_report(
             replace(identity_operator(2), lipschitz=v), 1.0, 5), -INF, INF,
         "[]", inside=(None, 1.0, INF)),
    Site("residuals.cocoercivity_report", "dim",
         lambda v: cocoercivity_report(identity_operator(None), 1.0, 5,
                                       dim=v), 1, MAX_ENTRIES, "[]",
         integer=True, inside=(1, 3)),
    Site("operators.ResolventSpec.__post_init__", "lam",
         lambda v: l1_kind(0.1).with_lambda(v), 0.0, INF, inside=(0.5,)),
    Site("operators.ResolventSpec.__post_init__", "weight", l1_kind, 0.0, INF,
         inside=(0.5,)),
    Site("operators.ResolventSpec.__post_init__", "hi",
         lambda v: box_kind(-INF, v), -INF, INF, "[]",
         inside=(-INF, 0.0, INF)),
    Site("operators.ResolventSpec.__post_init__", "lo",
         lambda v: box_kind(v, 1.0), -INF, 1.0, "[]",
         inside=(-INF, 1.0)),
    Site("operators.spectral_norm", "tol",
         lambda v: spectral_norm(np.eye(2), tol=v), 0.0, INF, inside=(1e-6,)),
    Site("operators.spectral_norm", "power",
         lambda v: spectral_norm(np.eye(2), power=v), 1, INF, "[)",
         integer=True, inside=(1, 3)),
    Site("operators.huber_saddle_operator", "lam",
         lambda v: huber_saddle_operator(np.eye(2), v, 1.0, 0.05), 0.0, INF,
         inside=(0.5,)),
    Site("operators.huber_saddle_operator", "rho_w",
         lambda v: huber_saddle_operator(np.eye(2), 1.0, v, 0.05), 0.0, INF,
         inside=(0.5,)),
    Site("operators.huber_saddle_operator", "eps",
         lambda v: huber_saddle_operator(np.eye(2), 1.0, 1.0, v), 0.0, INF,
         inside=(0.5,)),
    Site("instances._check_seed_and_sizes", "seed",
         lambda v: gen_least_squares(4, 2, v), 0, 2 ** 64, "[)",
         integer=True, inside=(0, 2 ** 64 - 1)),
    Site("instances._check_seed_and_sizes", "m",
         lambda v: gen_minimax_huber(v, 3, 0), 1, MAX_ENTRIES // 2, "[]",
         integer=True, inside=(1, 3)),
    Site("instances._check_seed_and_sizes", "n",
         lambda v: gen_least_squares(v, 2, 0), 1, MAX_ENTRIES // 2, "[]",
         integer=True, inside=(1, 3)),
    Site("instances._check_seed_and_sizes", "n",
         lambda v: gen_bilinear(2, v, 0), 1, MAX_ENTRIES // 2, "[]",
         integer=True, inside=(1, 3)),
    # each dimension fits: only the matrix, their product, is too large
    Site("instances._check_seed_and_sizes", "n * p",
         lambda v: _check_seed_and_sizes(0, n=2 ** 14, p=v // 2 ** 14), 1,
         MAX_ENTRIES, "[]", inside=(MAX_ENTRIES,),
         outside=(MAX_ENTRIES + 2 ** 14,)),
    Site("instances.gen_least_squares", "noise_var",
         lambda v: gen_least_squares(4, 2, 0, noise_var=v), 0.0, INF, "[)",
         inside=(0.0, 0.1)),
    Site("diagnostics.eag_varying_limit_lower_bound", "eta0",
         lambda v: eag_varying_limit_lower_bound(v, L), 0.0,
         np.sqrt(0.75) / L, inside=(0.5,)),
    Site("diagnostics.rate_fit", "window start",
         lambda v: rate_fit(np.ones(10), (v, 9)), 0, 9, "[)", integer=True,
         inside=(0, 8)),
    Site("diagnostics.rate_fit", "window end",
         lambda v: rate_fit(np.ones(10), (2, v)), 2, 10, "()", integer=True,
         inside=(3, 9)),
    Site("schemes.run", "K", _run, 0, MAX_ENTRIES // 6 - 1, "[]",
         integer=True, inside=(0, 3)),
]


def rule_calls(package=PACKAGE):
    """How many calls of ``in_range`` each function of the package makes."""
    calls = Counter()

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            name = qualname
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{qualname}.{child.name}"
            elif isinstance(child, ast.Call) \
                    and getattr(child.func, "id", None) == "in_range":
                calls[qualname] += 1
            visit(child, name)

    for path in package.glob("*.py"):
        if path.name != "errors.py":
            visit(ast.parse(path.read_text()), path.stem)
    return calls


def test_the_table_covers_every_call_of_the_rule():
    # a call in a loop over names has a row per name
    tested = Counter(site.function for site in SITES)
    calls = rule_calls()
    assert set(tested) == set(calls)
    assert {f: n for f, n in calls.items() if tested[f] < n} == {}


CASES = [(site, v, False) for site in SITES for v in site.outside] \
    + [(site, v, True) for site in SITES for v in site.inside]


@pytest.mark.parametrize(
    "site,value,ok", CASES,
    ids=[f"{s.function}-{s.name}-{v!r}-{'in' if ok else 'out'}"
         for s, v, ok in CASES])
def test_each_call_of_the_rule(site, value, ok):
    if ok:
        site.build(value)
        return
    message = re.escape(site.message(value))
    with pytest.raises(InputError, match=f"^{message}$"):
        site.build(value)
