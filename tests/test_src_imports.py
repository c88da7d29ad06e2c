"""No module of the package imports ``warnings``.

Bad input is an ``InputError`` (exit code 2 with a one-line message),
never a warning beside a quietly weakened result: a residual built
outside its stepsize window once came back without a modulus and a
``UserWarning``. The guard reads every module's source, so a new
warning path fails here instead of shipping.
"""

import ast
import pathlib

import anchored


def warnings_imports(source):
    """The lines of ``source`` that import ``warnings`` or from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "warnings" for name in names):
            found.append(node.lineno)
    return sorted(found)


def test_no_module_imports_warnings():
    package = pathlib.Path(anchored.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 15
    found = {path.name: warnings_imports(path.read_text()) for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_guard_sees_each_import_form():
    # control: the import the residual builders once had, and its variants
    source = ("import warnings\n"
              "import numpy as np, warnings as w\n"
              "from warnings import warn\n"
              "from .errors import InputError\n"
              "def f():\n"
              "    import warnings\n")
    assert warnings_imports(source) == [1, 2, 3, 6]
