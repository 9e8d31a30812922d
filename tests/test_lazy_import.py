"""NumPy is loaded by the dense oracle only, never by the graph layer.

Each check runs in a fresh interpreter, since the test process itself has
NumPy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, str(FIXTURES)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
assert graph_state(graphmin.path_graph(3)).shape == (8,)
assert not hasattr(graphmin, "no_such_name")
""")
