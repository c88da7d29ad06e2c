"""``anchored run`` reads every scheme, schedule and generator fact from a row.

The operator class, the potential, the schedule defaults and the
generator keys live in ``schemes.SCHEMES``, ``schedules.SCHEDULES``,
``diagnostics.POTENTIALS`` and ``instances.GENERATORS``. The CLI names
no scheme, schedule or generator except its three run defaults, so a
name test cannot creep back into it.
"""

import ast
import pathlib

from anchored import cli, instances, schedules, schemes

#: the defaults of ``[run] scheme``, ``[run] schedule`` and
#: ``[instance] generator``
DEFAULTS = {"halpern", "halpern_fast", "least_squares"}


def named_literals(source):
    """String literals of ``source`` naming a scheme, schedule or generator."""
    names = set(schemes.SCHEMES) | set(schedules.SCHEDULES) \
        | set(instances.GENERATORS)
    return sorted({node.value for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str) and node.value in names}
                  - DEFAULTS)


def test_cli_names_only_its_defaults():
    assert named_literals(pathlib.Path(cli.__file__).read_text()) == []


def test_guard_sees_a_name_test():
    # control: the class rule and the generator branch the CLI once had
    source = ('if scheme in ("halpern", "nesterov"): pass\n'
              'if generator == "scalar_identity": pass\n'
              'print(f"{kind}: peag")\n')
    assert named_literals(source) == ["nesterov", "scalar_identity"]


def test_config_sections_accept_the_rows_keys():
    # derived from the rows, and the same sets as when they were listed
    assert set(cli.CONFIG_KEYS["schedule"]) == {
        "gamma", "omega", "sigma", "rho", "eta", "eta0"}
    assert set(cli.CONFIG_KEYS["instance"]) == {
        "generator", "n", "p", "m", "noise_var", "seed"}
