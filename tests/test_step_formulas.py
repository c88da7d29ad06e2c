"""A scheme step is its update formula and its operator evaluations.

:func:`anchored.schemes.run` owns what every step shares: the step index,
the divergence guard and G(z_0) = G(y_0). A step applies one formula at
every index, so it reads no index at all. The guard parses
``schemes.py`` and fails when a step named in ``SCHEMES`` calls
``_check``, reads or writes ``.k`` on its state or reads ``p.k`` of its
schedule parameters, or when ``IterateState`` declares a ``k`` field. A
second guard fails when a ``SCHEMES`` row's ``params`` is not exactly
the set of ``p.<field>`` names its step reads.

``run`` walks k = 0..K by one rule per index: a step index, or the last
one. Index 0 is no special case, because array identity tells it that
x_0, y_0 and z_0 are one point. A third guard fails when ``run``
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
        state, _, params = (a.arg for a in function.args.args)
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "_check":
                found.append((function.name, node.lineno, "_check"))
            elif isinstance(node, ast.Attribute) and node.attr == "k" and \
                    getattr(node.value, "id", None) in (state, params):
                found.append((function.name, node.lineno,
                              f"{node.value.id}.k"))
    return sorted(found)


def fields_read(source, rows):
    """(scheme, declared, read) of each row whose ``params`` is not exactly
    the set of schedule fields its step reads."""
    steps = {node.name: node for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef)}
    found = []
    for name, row in rows.items():
        function = steps[row.step.__name__]
        params = function.args.args[2].arg
        read = sorted({node.attr for node in ast.walk(function)
                       if isinstance(node, ast.Attribute)
                       and getattr(node.value, "id", None) == params})
        if sorted(row.params) != read:
            found.append((name, tuple(sorted(row.params)), tuple(read)))
    return found


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
        ("old_step", 4, "state.k"), ("old_step", 5, "p.k")]


def test_guard_sees_a_step_that_branches_on_its_index():
    # control: nag_peag_step with an index branch inserted
    tree = ast.parse(_source())
    function = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "nag_peag_step")
    function.body.insert(-1, ast.parse("if p.k == 0:\n"
                                       "    z_next = z_next + g_z").body[0])
    found = driver_rules(ast.unparse(tree), _steps())
    assert [(name, what) for name, _, what in found] == [
        ("nag_peag_step", "p.k")]


def test_rows_declare_exactly_the_fields_their_steps_read():
    assert fields_read(_source(), SCHEMES) == []


def test_guard_sees_a_row_that_declares_an_unread_field():
    # control: the nag_peag row with a field its step does not read
    row = SCHEMES["nag_peag"]
    rows = dict(SCHEMES, nag_peag=row._replace(params=row.params + ("beta",)))
    assert fields_read(_source(), rows) == [
        ("nag_peag", tuple(sorted(row.params + ("beta",))),
         tuple(sorted(row.params)))]


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
