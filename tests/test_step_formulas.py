"""A scheme step is its update formula and its operator evaluations.

:func:`anchored.schemes.run` owns what every step shares: the step index
(a step reads the schedule's ``p.k``), the divergence guard and
G(z_0) = G(y_0). The guard parses ``schemes.py`` and fails when a step
named in ``SCHEMES`` calls ``_check`` or reads or writes ``.k`` on its
state, or when ``IterateState`` declares a ``k`` field.

``run`` walks k = 0..K by one rule per index: a step index, or the last
one. Index 0 is no special case, because array identity tells it that
x_0, y_0 and z_0 are one point. A second guard fails when ``run``
compares ``k`` or ``K`` with 0, apart from the check of its argument
that only raises.
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


def zero_index_tests(source, name="run"):
    """(line, test) of each comparison of k or K with 0 in ``name``."""
    function = next(node for node in ast.parse(source).body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
    argument_checks = {
        id(node.test) for node in ast.walk(function)
        if isinstance(node, ast.If) and not node.orelse
        and all(isinstance(s, ast.Raise) for s in node.body)}
    found = []
    for node in ast.walk(function):
        if not isinstance(node, ast.Compare) or id(node) in argument_checks:
            continue
        sides = [node.left, *node.comparators]
        if any(getattr(s, "id", None) in ("k", "K") for s in sides) and \
                any(isinstance(s, ast.Constant) and s.value == 0
                    for s in sides):
            found.append((node.lineno, ast.unparse(node)))
    return found


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


def test_run_treats_no_index_as_zero():
    assert zero_index_tests(_source()) == []


def test_guard_sees_a_special_case_of_zero_steps():
    # control: run() with a K = 0 branch inserted in its loop
    tree = ast.parse(_source())
    function = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "run")
    loop = next(node for node in ast.walk(function)
                if isinstance(node, ast.For))
    loop.body.insert(0, ast.parse("if K == 0:\n    g_x = None").body[0])
    found = zero_index_tests(ast.unparse(tree))
    assert [test for _, test in found] == ["K == 0"]
