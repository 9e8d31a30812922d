"""The table-driven command line against the argparse parser it replaced.

``conftest.reference_parser`` is that argparse parser. Both read the same
drawn command lines: they accept the same ones with equal fields, and on
the rest both exit 1 (0 for help), the table's parser with a ``usage:
graphmin`` first line and an ``error: `` last line on stderr.

Left out of the draws, since argparse's own reading of them differs across
Python 3.10-3.12: ``-1e3`` anywhere but among an int option's own values
(newer releases read it as a negative number, not an option), ``--`` more
than once or with no positional after it, and stuck short flags such as
``-hh``.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from graphmin.cli import _COMMANDS, _COMMON, _parse, main

from conftest import reference_parser
from test_readme import readme_commands

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = reference_parser()
VALUES = ["2", "-3", "1_000", "+4", "٦", "２", "", "x"]
INT_KINDS = ("int", "pair", "ints")


def outcome(parse, argv):
    """("ok", fields) or ("exit", code), with what went to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("ok", vars(parse(list(argv))))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def check_same(argv):
    got, out, err = outcome(_parse, argv)
    want, _, _ = outcome(REFERENCE.parse_args, argv)
    assert got == want, argv
    if got == ("exit", 1):
        lines = err.splitlines()
        assert out == "" and lines[0].startswith("usage: graphmin") and "error: " in lines[-1], (argv, err)
    if got == ("exit", 0):
        assert err == "" and out.startswith("usage: graphmin"), argv
    return got, err


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    _, _, positionals, options = _COMMANDS[command]
    options = options + _COMMON + (("--help", "flag", None, False, None, ""),)
    groups = [[draw(st.sampled_from(["g", "-3", "2", ""]))] for _ in range(draw(st.integers(0, len(positionals) + 1)))]
    for _ in range(draw(st.integers(0, 5))):
        name, kind = draw(st.sampled_from(options))[:2]
        spelled = name[:draw(st.integers(3, len(name)))] if len(name) > 3 else name
        if draw(st.integers(0, 9)) == 0:
            spelled = "-h"
        choices = list(kind) if isinstance(kind, tuple) else []
        arity = {"flag": 0, "pair": 2}.get(kind, 1)
        own = VALUES + choices + (["-1e3"] if kind in ("int", "pair") else [])
        if draw(st.integers(0, 4)) == 0:  # the = form
            groups.append([f"{spelled}={draw(st.sampled_from(VALUES + choices + ['-1e3']))}"])
            continue
        count = draw(st.integers(0, 3))
        words = [draw(st.sampled_from(own if i < arity or kind == "ints" and i < 1 else VALUES + choices))
                 for i in range(count)]
        groups.append([spelled, *words])
    order = draw(st.permutations(groups))
    argv = [command] + [w for g in order for w in g]
    tail = [draw(st.sampled_from(["g", "--dot", "-3"])) for _ in range(draw(st.integers(0, 2)))]
    if tail:
        argv += ["--", *tail]
    return argv


@given(command_lines())
def test_the_table_accepts_what_argparse_accepts(argv):
    check_same(argv)


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["--he"], ["--json", "foliage", "x"], ["folia", "x"],
                                  ["foliage"], ["--help=1"], ["-x", "foliage", "g"]])
def test_command_words_and_top_level_help(argv):
    check_same(argv)


def ci_command_lines():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    lines = []
    for line in text.splitlines():
        words = shlex.split(line.strip().rstrip("\\"), comments=False) if "graphmin " in line else []
        while words and "=" in words[0]:
            words = words[1:]
        if words[:1] == ["graphmin"]:
            stop = [i for i, w in enumerate(words) if w in (">", "2>", "|")]
            lines.append(words[1:stop[0] if stop else len(words)])
    return lines


def test_every_readme_and_ci_command_line_reads_as_before():
    argvs = [line.partition(" > ")[0].split()[1:] for line in readme_commands()] + ci_command_lines()
    assert len(argvs) > 25
    for argv in argvs:
        assert check_same(argv)[0][0] == "ok", argv


@pytest.mark.parametrize("argv, text", [
    (["orbit", "g", "--budget", "1_000"], "invalid int value: '1_000'"),
    (["bell", "--topology", "line"], "the following arguments are required: --pairA, --pairB"),
    (["bell", "--topology", "star", "--pairA", "1", "2", "--pairB", "3", "4"], "invalid choice"),
    (["orbit", "g", "--budget", "-1e3"], "expected one argument"),
    (["bell", "--topology", "line", "--pairA", "1", "--pairB", "3", "4"], "expected 2 arguments"),
    (["foliage", "g", "h"], "unrecognized arguments: h"),
    (["bell", "--topology", "line", "--pa", "1", "2"], "ambiguous option"),
])
def test_documented_errors_keep_their_text(argv, text):
    got, err = check_same(argv)
    assert got == ("exit", 1) and text in err.splitlines()[-1]


@pytest.mark.parametrize("argv, field, value", [
    (["reduce", "g", "--protect", "2", "-3"], "protect", [2, -3]),
    (["foliage", "g", "--level", "-3"], "level", -3),
    (["bell", "--topology", "line", "--pairA", "-1", "2", "--pairB", "3", "4"], "pairA", [-1, 2]),
])
def test_a_negative_number_is_a_value(argv, field, value):
    got, _ = check_same(argv)
    assert got[0] == "ok" and got[1][field] == value


@pytest.mark.parametrize("argv", [["bell", "--topology", "line", "--pairB", "3", "4", "--pa", "1", "2"],
                                  ["bell", "--topology", "line", "--pairB", "3", "4", "--pai=1"]])
def test_an_ambiguous_prefix_is_a_usage_error(argv):
    assert check_same(argv)[0] == ("exit", 1)


@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_names_every_command_or_option_with_its_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(["-h"] if command is None else [command, "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0].startswith("usage: graphmin")
    if command is None:
        rows = [(name, spec[1]) for name, spec in _COMMANDS.items()]
    else:
        rows = [(option[0], option[5]) for option in _COMMANDS[command][3] + _COMMON]
    for name, text in rows:
        assert any(line.split()[:1] == [name] and line.endswith(text) for line in lines), (name, text)


@pytest.mark.parametrize("argv", [[], ["--json", "foliage", "x"]])
def test_usage_errors_still_exit_1_with_usage_on_stderr(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == ""
    assert captured.err.startswith("usage: graphmin") and "error: " in captured.err.splitlines()[-1]
