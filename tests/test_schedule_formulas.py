"""Each schedule formula is written once, in ``schedules.py``.

A step's parameters are defined by the values passed to
``ScheduleParams(...)`` or ``._replace(...)`` and those
``halpern_params`` returns, with each
local name that is assigned once replaced by its value, and a name
assigned in several branches standing for each of them. The folds read
a run's parameters from ``TracePoint.p``; a fold that rewrote a formula
could agree with a run that used another schedule. The guard compares
the defining expressions that read the index with every expression of
the other modules, after renaming the index (``k``, ``i``, ``prev.k``)
and ``self.<name>`` to plain names. A constant such as 1/L is not a
formula of the index: ``schedules.constants`` resolves constants once,
and 1/L is also the co-coercive modulus of ``schemes.CLASSES``.

The corrected fields (theta, nu, kappa, zeta, gamma_hat) get values in
one function of ``schedules.py``, the anchored-to-corrected transform
``transformed_nesterov_stream``; every corrected rule runs an anchored
rule through it.
"""

import ast
import copy
import pathlib
from collections import defaultdict

import anchored
from anchored.schedules import ScheduleParams

INDEX = ("k", "i")


class _Plain(ast.NodeTransformer):
    """The index as ``k`` (also as an attribute, ``prev.k``),
    ``self.<name>`` as ``<name>``, and each name of ``values`` replaced
    by its value."""

    def __init__(self, values):
        self.values = values

    def visit_Name(self, node):
        if node.id in self.values:
            inner = _Plain({name: value for name, value in self.values.items()
                            if name != node.id})
            return inner.visit(copy.deepcopy(self.values[node.id]))
        return ast.Name("k" if node.id in INDEX else node.id, ast.Load())

    def visit_Attribute(self, node):
        if node.attr in INDEX:
            return ast.Name("k", ast.Load())
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return ast.Name(node.attr, ast.Load())
        return self.generic_visit(node)


def _plain(node, values):
    return _Plain(values).visit(copy.deepcopy(node))


def _reads_index(node):
    return any(isinstance(n, ast.Name) and n.id == "k" for n in ast.walk(node))


def definitions(source):
    """Plain dumps of the index formulas that define schedule parameters."""
    found = set()
    for function in ast.parse(source).body:
        if not isinstance(function, ast.FunctionDef):
            continue
        assigned = defaultdict(list)
        defining = []
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                assigned[node.targets[0].id].append(node.value)
            elif isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "ScheduleParams":
                defining += [arg for arg in node.args
                             if not isinstance(arg, ast.Starred)]
                defining += [keyword.value for keyword in node.keywords]
            elif isinstance(node, ast.Call) and \
                    getattr(node.func, "attr", None) == "_replace":
                defining += [keyword.value for keyword in node.keywords]
            elif isinstance(node, ast.Return) and node.value is not None \
                    and function.name == "halpern_params":
                value = node.value
                defining += value.elts if isinstance(value, ast.Tuple) \
                    else [value]
        once = {name: values[0] for name, values in assigned.items()
                if len(values) == 1}
        for node in defining:
            for expr in assigned.get(getattr(node, "id", None), [node]):
                plain = _plain(expr, once)
                if not isinstance(plain, ast.Name) and _reads_index(plain):
                    found.add(ast.dump(plain))
    return found


def restatements(source, formulas):
    """(line, text) of each expression in ``source`` that is one of
    ``formulas``, after the renaming of :func:`definitions`."""
    # renaming is local to each node, so the whole module is renamed
    # once; a renamed node keeps its position, a new plain name has none
    tree = _Plain({}).visit(ast.parse(source))
    return sorted((node.lineno, ast.get_source_segment(source, node))
                  for node in ast.walk(tree) if isinstance(node, ast.expr)
                  and ast.dump(node) in formulas)


def _package():
    return pathlib.Path(anchored.__file__).parent


def _formulas():
    return definitions((_package() / "schedules.py").read_text())


def test_definitions_cover_the_index_rules():
    formulas = _formulas()
    for text in ("1.0 / (k + 2)", "(k + 1.0) / (k + 2.0 * omega + 2.0)",
                 "(k + omega + 2.0) / (k + 2.0 * omega + 2.0)",
                 "(k + 1.0) / (L * (k + 2.0))"):
        assert ast.dump(ast.parse(text, mode="eval").body) in formulas, text


def test_no_other_module_restates_a_schedule_formula():
    formulas = _formulas()
    modules = sorted(p for p in _package().glob("*.py")
                     if p.name != "schedules.py")
    assert len(modules) >= 14
    found = {path.name: restatements(path.read_text(), formulas)
             for path in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_guard_sees_a_restated_formula():
    # control: the omega theta and the slow anchored rule as two folds
    # once rewrote them
    source = ("def term(self, prev):\n"
              "    i = prev.k - 1\n"
              "    carry = ((i + 1.0) / (i + 2.0 * self.omega + 2.0))"
              " * self._step\n"
              "    beta = 1.0 / (prev.k + 2)\n"
              "    beta = 1.0 / (k + 2)\n")
    assert restatements(source, _formulas()) == [
        (3, "(i + 1.0) / (i + 2.0 * self.omega + 2.0)"),
        (4, "1.0 / (prev.k + 2)"), (5, "1.0 / (k + 2)")]


CORRECTED = ("gamma_hat", "theta", "nu", "kappa", "zeta")


def corrected_writers(source):
    """(function, line, field) of each value other than None that a
    ``ScheduleParams(...)`` or ``._replace(...)`` call gives a corrected
    field; code outside any function is ``<module>``."""
    found = []
    for statement in ast.parse(source).body:
        owner = getattr(statement, "name", "<module>")
        for node in ast.walk(statement):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "id", None) == "ScheduleParams":
                given = list(zip(ScheduleParams._fields, node.args))
            elif getattr(node.func, "attr", None) == "_replace":
                given = []
            else:
                continue
            given += [(keyword.arg, keyword.value) for keyword in node.keywords]
            found += [(owner, value.lineno, name) for name, value in given
                      if name in CORRECTED and not (isinstance(
                          value, ast.Constant) and value.value is None)]
    return sorted(found)


def test_only_the_transform_writes_corrected_fields():
    # _nesterov_omega is exempt: its theta_0 = 1/(2 omega + 2) is not 0,
    # so no anchored stream started at beta_{-1} = 1 produces it
    writers = corrected_writers((_package() / "schedules.py").read_text())
    owners = {owner for owner, _, _ in writers}
    assert owners == {"transformed_nesterov_stream", "_nesterov_omega"}
    assert {name for owner, _, name in writers
            if owner == "transformed_nesterov_stream"} == set(CORRECTED)


def test_guard_sees_a_rule_that_writes_theta():
    # control: a corrected rule with its own closed form, positional or
    # keyword, or patched onto an anchored stream
    source = ("def _rule(L):\n"
              "    return (ScheduleParams(k, 1.0 / (k + 2), theta=0.5)\n"
              "            for k in count())\n"
              "def _other(L):\n"
              "    p = ScheduleParams(0, 0.5, 1.0, None, 1.0, None, 0.0)\n"
              "    return p._replace(nu=0.5)\n")
    assert corrected_writers(source) == [
        ("_other", 5, "theta"), ("_other", 6, "nu"), ("_rule", 2, "theta")]
