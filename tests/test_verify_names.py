"""The verify table reads every schedule constant and bound from its run.

A row's bound kind is its schedule's ``schedules.SCHEDULES`` bound, and
its constants are the run's ``meta["constants"]``, resolved once by
``schemes.solver_for``. So ``verify.py`` names no bound kind and
resolves no constants itself: a row cannot check a bound at other
constants than its run used. Likewise the equivalence rows come from
``schemes.SCHEMES`` and the ``corrects`` column of ``SCHEDULES``: no
equivalence row is written by hand, and each corrected kind has one row
per case of its operator class.
"""

import ast
import pathlib
from dataclasses import replace

from anchored import diagnostics, verify
from anchored.schedules import SCHEDULES
from anchored.schemes import SCHEMES


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


def hand_written_equivalences(source):
    """Lines of ``Check("equivalence", ...)`` calls that no comprehension
    makes: an equivalence row written out by hand, or by a helper."""
    tree = ast.parse(source)
    made = {id(node) for comp in ast.walk(tree)
            if isinstance(comp, (ast.ListComp, ast.GeneratorExp))
            for node in ast.walk(comp.elt)}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "Check"):
            continue
        suite = node.args[0] if node.args else next(
            (kw.value for kw in node.keywords if kw.arg == "suite"), None)
        if getattr(suite, "value", None) == "equivalence" \
                and id(node) not in made:
            found.append(node.lineno)
    return sorted(found)


def unmatched_equivalences(checks):
    """(anchored run, corrected run, case) triples that are not exactly one
    equivalence row of ``checks``. Each schedule kind of a corrected scheme
    (its step reads theta) that ``corrects`` an anchored kind needs one row
    per case of its class, against the anchored scheme listing that kind."""
    want = set()
    for name, scheme in SCHEMES.items():
        for kind in scheme.schedules if "theta" in scheme.params else ():
            corrects = SCHEDULES[kind].corrects
            want |= {(f"{a}/{corrects}", f"{name}/{kind}", case)
                     for a, s in SCHEMES.items() if "theta" not in s.params
                     and corrects in s.schedules
                     for case in verify.EQUIV_CASES[scheme.operator_class]}
    got = [(*row.runs.split(), row.instance) for row in checks
           if row.suite == "equivalence"]
    return sorted({key for key in want if got.count(key) != 1}
                  | {key for key in got if key not in want})


def test_verify_writes_no_equivalence_row_by_hand():
    source = pathlib.Path(verify.__file__).read_text()
    assert hand_written_equivalences(source) == []
    assert unmatched_equivalences(verify.CHECKS) == []
    assert sum(row.suite == "equivalence" for row in verify.CHECKS) == 10


def test_guard_sees_hand_written_and_missing_equivalence_rows():
    # control: the helper and the table lines verify once had
    source = ('def _twins(name, instance, runs, names, kw=None):\n'
              '    return Check("equivalence", f"{name} [{instance}]",\n'
              '                 instance, runs, _equivalent(*names))\n'
              'CHECKS = (\n'
              '    _twins("eag<->nag_eag", "ls", _EAG, "yz"),\n'
              '    Check(suite="equivalence", name="peag<->nag_peag [ls]"),\n'
              '    *(Check("lemmas", n, "ls") for n in "ab"),\n'
              ')\n')
    assert hand_written_equivalences(source) == [2, 6]
    # a row dropped, and one the table does not ask for
    rows = [row for row in verify.CHECKS
            if row.name != "peag<->nag_peag [huber]"]
    rows.append(replace(rows[0], runs="eag/eag_constant nag_eag/nag_eag"))
    assert unmatched_equivalences(rows) == [
        ("eag/eag_constant", "nag_eag/nag_eag", "ls"),
        ("peag/peag", "nag_peag/nag_peag", "huber")]
