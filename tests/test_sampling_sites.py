"""The package samples operator pairs in one place.

``residuals.cocoercivity_report`` is the one sampled check of an
operator's declared inequalities; a second loop drawing pairs from
``SplitMix64.uniform_symmetric`` would be a second copy of it, with its
own stream, slack and handling of NaN. The guard reads every module's
source and names each function that calls ``uniform_symmetric``. The
generator's own module is left out: its polar method draws through it.
"""

import ast
import pathlib

import anchored

#: the functions allowed to draw uniform points, as module.qualname
ALLOWED = {"residuals.cocoercivity_report", "verify._change_of_variable"}


def uniform_symmetric_callers(source, module):
    """``module.qualname`` of each function in ``source`` that calls
    ``uniform_symmetric``; module level counts as ``module.<module>``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                fn = child.func
                name = fn.attr if isinstance(fn, ast.Attribute) else \
                    getattr(fn, "id", None)
                if name == "uniform_symmetric":
                    found.add(".".join([module] + (scope or ["<module>"])))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_only_the_sampled_check_and_the_change_of_variable_row_draw():
    package = pathlib.Path(anchored.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "rng.py")
    assert len(modules) >= 14
    found = set()
    for path in modules:
        found |= uniform_symmetric_callers(path.read_text(), path.stem)
    assert found == ALLOWED


def test_guard_sees_a_second_sampling_loop():
    # control: the pair sampler and checker this package once had beside
    # cocoercivity_report, plus the bare-name and module-level forms
    source = ("from .rng import SplitMix64\n"
              "def sampled_differences(op, n_pairs, seed=0):\n"
              "    rng = SplitMix64(seed)\n"
              "    for _ in range(n_pairs):\n"
              "        x = rng.uniform_symmetric(op.dim)\n"
              "        y = rng.uniform_symmetric(op.dim)\n"
              "        yield x - y, op(x) - op(y)\n"
              "class Checker:\n"
              "    def pairs(self, draw):\n"
              "        return [uniform_symmetric(2) for _ in range(3)]\n"
              "POINT = SplitMix64(1).uniform_symmetric(3)\n")
    assert uniform_symmetric_callers(source, "operators") == {
        "operators.sampled_differences", "operators.Checker.pairs",
        "operators.<module>"}
