"""The verify table reads every schedule constant and bound from its run.

A row's bound kind is its schedule's ``schedules.SCHEDULES`` bound, and
its constants are the run's ``meta["constants"]``, resolved once by
``schemes.solver_for``. So ``verify.py`` names no bound kind and
resolves no constants itself: a row cannot check a bound at other
constants than its run used.
"""

import ast
import pathlib

from anchored import diagnostics, verify


def bound_literals_and_constants_calls(source):
    """Bound-kind string literals and ``constants(...)`` calls in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value in diagnostics.BOUND_KINDS:
            found.append(node.value)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if name == "constants":
                found.append("constants(...)")
    return sorted(found)


def test_verify_names_no_bound_kind_and_resolves_no_constants():
    source = pathlib.Path(verify.__file__).read_text()
    assert bound_literals_and_constants_calls(source) == []


def test_guard_sees_a_restated_bound_and_constants():
    # control: the row verdicts and folds verify once had
    source = ('_bound("comono", "comono")\n'
              'fold = PeagGapFold(L, **constants("peag", L))\n'
              'schedules.constants("eag_varying", L, eta0=0.5 / L)\n'
              'x = trace.meta["constants"]\n')
    assert bound_literals_and_constants_calls(source) == [
        "comono", "comono", "constants(...)", "constants(...)", "eag_varying"]
