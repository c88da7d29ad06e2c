"""A scheme step is its update formula and its operator evaluations.

:func:`anchored.schemes.run` owns what every step shares: the step index
(a step reads the schedule's ``p.k``), the divergence guard and
G(z_0) = G(y_0). The guard parses ``schemes.py`` and fails when a step
named in ``SCHEMES`` calls ``_check`` or reads or writes ``.k`` on its
state, or when ``IterateState`` declares a ``k`` field.
"""

import ast
import dataclasses
import pathlib

import anchored
from anchored.schemes import SCHEMES, IterateState


def _source():
    return (pathlib.Path(anchored.__file__).parent / "schemes.py").read_text()


def driver_rules(source, names):
    """(function, line, what) of each driver rule in the named functions."""
    found = []
    for function in ast.parse(source).body:
        if not isinstance(function, ast.FunctionDef) or \
                function.name not in names:
            continue
        state = function.args.args[0].arg
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "_check":
                found.append((function.name, node.lineno, "_check"))
            elif isinstance(node, ast.Attribute) and node.attr == "k" and \
                    getattr(node.value, "id", None) == state:
                found.append((function.name, node.lineno, f"{state}.k"))
    return sorted(found)


def _steps():
    return {row.step.__name__ for row in SCHEMES.values()}


def test_steps_leave_the_driver_rules_to_run():
    steps = _steps()
    # nag_comono runs the nag_eag step on its own schedule
    assert (len(steps), len(SCHEMES)) == (7, 8)
    source = _source()
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    assert steps <= defined
    assert driver_rules(source, steps) == []


def test_state_has_no_step_index():
    assert "k" not in {f.name for f in dataclasses.fields(IterateState)}


def test_guard_sees_a_step_that_keeps_a_driver_rule():
    # control: a step as they were once written
    source = ("def old_step(state, op, p):\n"
              "    y_next = state.y - p.eta * op(state.y)\n"
              "    _check(y_next, state.k)\n"
              "    state.k += 1\n"
              "    return p.k\n")
    assert driver_rules(source, {"old_step"}) == [
        ("old_step", 3, "_check"), ("old_step", 3, "state.k"),
        ("old_step", 4, "state.k")]
