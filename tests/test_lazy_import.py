"""Each command loads only the modules it uses, and none loads NumPy.

Each check runs in a fresh interpreter, since the test process itself has
NumPy and every graphmin module loaded already.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES
from test_readme import readme_commands

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

# ``from graphmin import *`` before names were resolved on first use: every
# public name but the dense oracle's, submodules included; the oracle's names
# joined it once the oracle stopped loading NumPy; the foliage references that
# only the tests call live in the tests (docs/formats.md lists them)
STAR_NAMES = {
    "BellQuery", "BlockShape", "BudgetExceededError", "DEFAULT_NODE_BUDGET", "DELETE",
    "Decision", "FoliageGraph", "FormatError", "Graph", "InvalidPartitionError", "LC", "MAX_LABEL",
    "MEASURE_X", "MEASURE_Y", "MEASURE_Z", "NotATreeError", "Partition", "Step", "UnknownVertexError",
    "apply_step", "bell", "canonical_foliage_partition", "classify_block",
    "complete_graph", "connected_components", "decide_bell", "decide_bell_line", "decide_bell_ring",
    "decide_bell_tree", "decide_vertex_minor", "delete_vertex", "extract_foliage_graph", "foliage",
    "foliage_equivalent", "foliage_graph", "graph", "io",
    "is_foliage_partition", "lc_equivalent", "lc_orbit", "lc_orbit_paths", "lc_path",
    "line_query", "local_complement", "measure_x", "measure_y", "measure_z",
    "minor", "nth_foliage_graph", "ops", "orbit", "parse_edge_list", "parse_graph6", "path_graph",
    "read_graph", "replay", "ring_graph", "ring_query", "singletons", "source_reduce", "target_reduce",
    "tree_query", "write_edge_list",
}
ORACLE_NAMES = {"StateCapError", "find_measurement_correction", "graph_state", "verify_lc_unitary",
                "verify_measurement"}


def run_fresh(code: str) -> None:
    proc = subprocess.run([sys.executable, "-c", code, str(FIXTURES)],
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def imported(*argv: str) -> tuple[set[str], str]:
    """The modules that ``python -X importtime *argv`` imports, and its stdout."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (argv, proc.stderr)
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines}, proc.stdout


def test_readme_commands_load_only_what_they_use(tmp_path):
    startup, _ = imported("-c", "pass")  # what the interpreter loads before graphmin runs
    by_json = imported("-c", "import json")[0] - startup  # ``json`` imports ``re`` itself
    moved = {}  # files that README commands write, moved under tmp_path
    for line in readme_commands():
        command, _, redirect = line.partition(" > ")
        argv = [moved.get(a, a) for a in command.split()[1:]]
        loaded, out = imported("-m", "graphmin", *argv)
        loaded -= startup
        if redirect:
            moved[redirect.strip()] = str(tmp_path / Path(redirect.strip()).name)
            Path(moved[redirect.strip()]).write_text(out)
        assert "dataclasses" not in loaded, command
        assert "--json" in argv or "hashlib" not in loaded, command
        assert "numpy" not in loaded, command
        # the command line is read from the table, and edge lists by str methods
        unexpected = loaded - (by_json if "json" in loaded else set())
        assert not unexpected & {"argparse", "gettext", "locale", "re"}, command
        if argv[0] in ("orbit", "bell") or "--replay" in argv:
            assert not loaded & {"graphmin.minor", "graphmin.foliage"}, command
        # only the commands that decide LC-equivalence load it, and only
        # ``decide`` loads the decider: ``reduce --protect`` runs the
        # reductions in ``graphmin.reduction``
        if argv[0] not in ("orbit", "decide"):
            assert "graphmin.orbit" not in loaded, command
            assert "graphmin.minor" not in loaded, command


def test_lc_equivalence_has_one_module():
    # the exact test lives in ``graphmin.orbit``; it once had a module of its own
    assert importlib.util.find_spec("graphmin.lcequiv") is None


def test_bare_import_loads_no_submodule():
    startup, _ = imported("-c", "pass")
    loaded, _ = imported("-c", "import graphmin")
    assert {m for m in loaded - startup if m.startswith("graphmin")} == {"graphmin"}


def test_public_names_are_unchanged():
    run_fresh(f"""
import sys, graphmin
assert {{n for n in dir(graphmin) if not n.startswith("_")}} == {STAR_NAMES | ORACLE_NAMES!r}
assert set(graphmin.__all__) == {STAR_NAMES | ORACLE_NAMES!r}
star = {{}}
exec("from graphmin import *", star)
assert set(star) - {{"__builtins__"}} == {STAR_NAMES | ORACLE_NAMES!r}
assert "numpy" not in sys.modules and "dataclasses" not in sys.modules
assert graphmin.minor.decide_vertex_minor is graphmin.decide_vertex_minor
assert graphmin.Decision is graphmin.ops.Decision is graphmin.minor.Decision
""")


def test_import_does_not_load_numpy():
    run_fresh("import sys, graphmin\nassert 'numpy' not in sys.modules")


def test_graph_layer_commands_do_not_load_numpy():
    run_fresh("""
import contextlib, io, sys
from graphmin.cli import main
fx = sys.argv[1]
for argv in (
    ["foliage", f"{fx}/fig4a.edges"],
    ["orbit", f"{fx}/fig3.edges", "--list", "--json"],
    ["decide", f"{fx}/fig7b.edges", f"{fx}/fig7b_target.edges", "--witness"],
    ["bell", "--topology", "line", "--n", "6", "--pairA", "2", "3", "--pairB", "4", "6"],
    ["reduce", f"{fx}/fig6.edges", "--protect", "2", "4", "6", "8"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
""")


def test_dense_oracle_still_reachable():
    run_fresh("""
import contextlib, io, sys
import graphmin
from graphmin.cli import main
names = {"StateCapError", "find_measurement_correction", "graph_state",
         "verify_lc_unitary", "verify_measurement"}
assert names <= set(dir(graphmin)), names - set(dir(graphmin))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["verify-quantum", f"{sys.argv[1]}/fig3.edges", "--op", "y", "--vertex", "2"]) == 0
assert out.getvalue().startswith("measure y at 2: pass"), out.getvalue()
from graphmin import StateCapError, graph_state
import graphmin.quantum
assert StateCapError is graphmin.quantum.StateCapError
assert len(graph_state(graphmin.path_graph(3))) == 8
assert not hasattr(graphmin, "no_such_name")
assert "numpy" not in sys.modules
""")
