"""Fuzzed command lines over every CLI input path.

Edge-list text, graph6 strings, witness JSON and option values are drawn
for every subcommand. Whatever the input, ``main`` exits 0, 1 or 2 and
raises nothing; an exit 1 prints nothing on stdout and one error line on
stderr (after the usage line for a malformed command line).
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, strategies as st

from graphmin.cli import main

# mostly small labels and option values, which reach the library; the
# rest are out of range or not integers at all (hypothesis leans towards
# the low end of a range, so the valid draws sit there)
labels = st.integers(1, 10).flatmap(lambda k: st.just(k) if k < 9 else st.sampled_from([-1, 0, 64, 65, 99]))
values = st.integers(1, 10).flatmap(
    lambda k: st.just(str(k)) if k < 9 else st.integers(-3, 70).map(str) if k == 9 else
    st.sampled_from(["-1e3", "1e3", "nan", "x", "", "0x10", "1.5"])
)


@st.composite
def edge_lists(draw):
    if draw(st.integers(0, 3)) == 3:
        return draw(st.text(alphabet="0123456789 -#\nvertices", max_size=40))
    if draw(st.booleans()):
        header = str(draw(st.integers(-1, 7) | st.just(65)))
    else:
        header = "vertices " + " ".join(map(str, draw(st.lists(labels, max_size=7))))
    lines = [header]
    for _ in range(draw(st.integers(0, 10))):
        edge = "%d %d" % (draw(labels), draw(labels))
        lines.append(draw(st.just(edge) | st.sampled_from(["", "# comment", "1 2 3", "x y", "1", "1 2 # c"])))
    return "\n".join(lines) + "\n"


graph6 = st.sampled_from(["A_", "Bw", "Ch", "DQc", ">>graph6<<Bw", "", "~", "~??"]) | st.text(
    alphabet=[chr(c) for c in range(60, 128)], max_size=8
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
steps = st.fixed_dictionaries(
    {"op": st.sampled_from(["lc", "delete", "measure_x", "measure_y", "measure_z", "swap"]),
     "vertex": labels | json_values},
    optional={"neighbor": labels | json_values},
)
witnesses = st.one_of(
    st.lists(steps, max_size=4).map(json.dumps),
    st.lists(steps, max_size=4).map(lambda s: json.dumps({"witness": s})),
    json_values.map(json.dumps),
    st.text(max_size=12),
)

# per subcommand: its positional graph files and its options with their arity
# (None: any number of values)
COMMANDS = {
    "foliage": (1, {"--level": 1, "--dot": 0}),
    "orbit": (1, {"--budget": 1, "--list": 0}),
    "decide": (2, {"--budget": 1, "--witness": 0}),
    "bell": (0, {"--topology": 1, "--n": 1, "--graph": 1, "--pairA": 2, "--pairB": 2, "--witness": 0}),
    "reduce": (1, {"--protect": None, "--replay": 1}),
    "verify-quantum": (1, {"--op": 1, "--vertex": 1}),
}
REQUIRED = {"bell": ["--topology", "--n", "--pairA", "--pairB"], "verify-quantum": ["--op", "--vertex"]}
CHOICES = {"--topology": ["line", "ring", "tree", "star"], "--op": ["lc", "x", "y", "z", "w"],
           "--format": ["edges", "g6", "dot"]}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@given(data=st.data())
def test_every_input_exits_0_1_or_2_with_one_error_line(workdir, data):
    draw = data.draw
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positional, options = COMMANDS[command]
    fmt = draw(st.sampled_from(["edges", "g6"]))
    files = {"graph": workdir / "a", "other": workdir / "b", "witness": workdir / "w.json"}
    for name in ("graph", "other"):
        files[name].write_text(draw(edge_lists() if fmt == "edges" else graph6))
    files["witness"].write_text(draw(witnesses))

    ends = iter(draw(st.permutations(range(1, 9))))  # distinct pair ends, so a Bell query can be decided

    def value(flag):
        if flag in ("--pairA", "--pairB") and not draw(st.booleans()):
            return str(next(ends, 1))
        if flag in CHOICES:
            return draw(st.sampled_from(CHOICES[flag]))
        if flag in ("--graph", "--replay"):
            return str(draw(st.sampled_from([files["graph"], files["witness"], workdir / "missing"])))
        return draw(values)

    argv = [command, *map(str, [files["graph"], files["other"]][:positional])]
    options = {**options, "--json": 0, "--format": 1}
    flags = REQUIRED.get(command, []) + draw(st.lists(st.sampled_from(sorted(options)), max_size=4))
    for flag in flags:
        arity = draw(st.integers(0, 3)) if options[flag] is None else options[flag]
        argv += [flag, *(value(flag) for _ in range(arity))]
    if "--format" not in flags:
        argv += ["--format", fmt]
    if command in ("orbit", "decide") and "--budget" not in flags:
        argv += ["--budget", "200"]  # a small budget keeps every orbit and search short
    if draw(st.integers(0, 4)) == 4:  # drop one word: a missing file, option or value
        del argv[draw(st.integers(0, len(argv) - 1))]

    out, err = io.StringIO(), io.StringIO()
    usage = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error
            code, usage = exc.code, True
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 1:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "", argv
        assert sum("error:" in line for line in lines) == 1, (argv, lines)
        if usage:
            assert lines[0].startswith("usage: graphmin") and ": error: " in lines[-1], (argv, lines)
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
