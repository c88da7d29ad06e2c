"""Every input exits 0, 1 or 2, in one line.

A seeded fuzz calls ``cli.main`` in process on ``run`` configs whose keys
take values from a fixed set of awkward spellings, and on ``figure`` and
``verify`` argument vectors that argparse or the seed rule refuse (a
valid ``verify`` takes over a second). It asserts that no exception
escapes, that exit 2 prints exactly one ``error:`` line, that exit 1
comes only with the divergence guard's message, and that numpy warns of
nothing. Size keys stay at 40 or below, except rows above the size cap,
which is checked before anything is allocated.
"""

import random
import re
import warnings

import pytest

from anchored.cli import CONFIG_KEYS, main
from anchored.errors import MAX_ENTRIES
from anchored.instances import GENERATORS
from anchored.schemes import COMPATIBLE_SCHEDULES

FUZZ_SEED = 20261021
CONFIGS = 200
FUZZ_RATE = 0.08
SPELLINGS = ("nan", "inf", "-inf", "0", "-0", "-1", "0.5", "1e300",
             "1e-300", "abc", "", "1/4", "0x10", "1_0", " 7 ")
SIZE_KEYS = ("iters", "n", "p", "m")
DIVERGED = re.compile(r"^error: (iterate magnitude exceeded 1e\+30|"
                      r"non-finite iterate) at step \d+$", re.M)


def _config(rng):
    """A run config: a compatible pair and the generator's keys, each key
    set to a fuzz spelling with probability ``FUZZ_RATE``."""
    scheme = rng.choice(sorted(COMPATIBLE_SCHEDULES))
    generator = rng.choice(sorted(GENERATORS))
    sections = {
        "run": {"scheme": scheme,
                "schedule": rng.choice(COMPATIBLE_SCHEDULES[scheme]),
                "iters": str(rng.randint(0, 40))},
        "schedule": {},
        "instance": {"generator": generator,
                     **{key: str(rng.randint(1, 40))
                        for key in GENERATORS[generator].keys
                        if key in SIZE_KEYS}},
        "trace": {},
    }
    for name in sections:
        for key in CONFIG_KEYS[name]:
            if rng.random() < FUZZ_RATE and (
                    name != "instance" or key == "generator"
                    or key in GENERATORS[generator].keys):
                sections[name][key] = rng.choice(SPELLINGS)
    return sections


def _text(sections):
    return "".join(f"[{name}]\n" + "".join(
        f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items())


def _main(argv, capsys):
    """(exit code, stdout, stderr) of ``main(argv)``, and any warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing a vector
            code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, [str(w.message) for w in caught]


def _assert_one_line_exit(code, out, err, caught):
    assert caught == []
    assert "Warning" not in err
    assert code in (0, 1, 2)
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1
    if code == 1:
        assert DIVERGED.search(out), out
    else:
        assert not DIVERGED.search(out)


def test_fuzzed_run_configs_exit_0_1_or_2(tmp_path, capsys):
    rng = random.Random(FUZZ_SEED)
    codes = []
    for i in range(CONFIGS):
        path = tmp_path / f"{i}.ini"
        path.write_text(_text(_config(rng)))
        code, out, err, caught = _main(
            ["run", "--config", str(path), "--out", str(tmp_path / str(i))],
            capsys)
        _assert_one_line_exit(code, out, err, caught)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not (tmp_path / str(i)).exists()
        codes.append(code)
    # the fuzz reaches runs as well as refusals
    assert codes.count(0) >= 10 and codes.count(2) >= 100


@pytest.mark.parametrize("argv", [
    ["figure"],
    ["figure", "--which", "exam3"],
    ["figure", "--which", "exam1", "--scale", "huge"],
    ["figure", "--which", "exam1", "--seed", "abc"],
    ["figure", "--which", "exam1", "--seed", "1e3"],
    ["figure", "--which", "exam1", "--seed", "-1"],
    ["figure", "--which", "exam2", "--seed", str(2 ** 64)],
    ["verify", "--suite", "nope"],
    ["verify", "--scale", "tiny"],
    ["verify", "--json", "yes"],
    ["verify", "--bogus"],
    ["run", "--iters", "abc"],
    ["run", "--iters", str(MAX_ENTRIES // 6)],
    ["run", "--iters", str(10 ** 10)],
    ["run", "--seed", "-1"],
    ["bogus"],
    [],
])
def test_refused_argument_vectors_exit_two(argv, tmp_path, capsys):
    code, out, err, caught = _main([*argv, "--out", str(tmp_path / "o")],
                                   capsys)
    _assert_one_line_exit(code, out, err, caught)
    assert code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("run,instance,cap", [
    ({}, {"n": str(10 ** 11)}, MAX_ENTRIES // 2),
    ({}, {"p": str(MAX_ENTRIES // 2 + 1)}, MAX_ENTRIES // 2),
    ({}, {"n": str(2 ** 14), "p": str(2 ** 13 + 1)}, MAX_ENTRIES),  # n p
    ({"iters": str(10 ** 10)}, {}, MAX_ENTRIES // 6 - 1),
])
def test_a_size_key_above_the_cap_exits_two(run, instance, cap, tmp_path,
                                            capsys):
    # these used to allocate, and end in a MemoryError traceback
    path = tmp_path / "cfg.ini"
    path.write_text(_text({"run": run, "instance": instance}))
    code, out, err, caught = _main(
        ["run", "--config", str(path), "--out", str(tmp_path / "o")], capsys)
    _assert_one_line_exit(code, out, err, caught)
    assert code == 2 and err.endswith(f", {cap}]\n")


def test_a_diverging_run_reports_only_the_divergence(tmp_path, capsys):
    # the overflow used to print two numpy RuntimeWarnings before it
    path = tmp_path / "cfg.ini"
    path.write_text("[run]\nscheme = nesterov\nschedule = nesterov_fast\n"
                    "iters = 5\n[schedule]\ngamma = 1e300\n")
    code, out, err, caught = _main(
        ["run", "--config", str(path), "--out", str(tmp_path / "o")], capsys)
    assert (code, err, caught) == (1, "", [])
    assert "error: iterate magnitude exceeded 1e+30 at step 1" in out
