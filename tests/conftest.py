import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import settings

from graphmin import Graph
from graphmin.graph import _x_neighbor, _x_rows, _z_rows

settings.register_profile("ci", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("ci")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fig2():
    return Graph(4, [(1, 2), (2, 3), (2, 4), (1, 3)])


def fig4a():
    return Graph(8, [(1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6), (7, 8)])


def fig6():
    return Graph(8, [(1, 3), (2, 3), (3, 7), (3, 8), (4, 5), (4, 6), (5, 6),
                     (4, 7), (4, 8), (5, 7), (5, 8)])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [pair for pair in combinations(range(1, n + 1), 2) if rng.random() < p]
    return Graph(n, edges)


def all_graphs(n: int):
    """Every labeled graph on vertices 1..n."""
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def eager_measure_rows(rows: tuple[int, ...], a: int) -> tuple[tuple[int, ...], ...]:
    """The z, y and x children of measuring ``a`` (x through its smallest
    neighbor), all built at once: the reference for ``graph._measure_rows``,
    which yields the distinct ones. y is z itself when ``a`` has one
    neighbor, and all three are ``rows`` itself when it has none."""
    nbrs = rows[a]
    if not nbrs:
        return rows, rows, rows
    z, b = _z_rows(rows, a), _x_neighbor(nbrs, a, None, 0)
    return z, z if nbrs == 1 << b else _z_rows(rows, a, True), _x_rows(rows, a, b)


def cut_rank(g: Graph, side) -> int:
    """GF(2) rank of the adjacency matrix between ``side`` and the other
    vertices, by elimination on the rows: the reference for the decider's
    pair cut-rank table."""
    outside = ~sum(1 << v for v in side)
    basis: list[int] = []  # distinct leading bits, largest first
    for v in side:
        row = g.neighbor_mask(v) & outside
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis = sorted(basis + [row], reverse=True)
    return len(basis)


def pair_rank_table(g: Graph) -> list[int]:
    """``cut_rank`` of every vertex pair, pairs in ascending label order."""
    return [cut_rank(g, (u, v)) for u, v in combinations(g.vertices, 2)]


def lifted_local_complement(g: Graph, w, a: int):
    """Quotient by ``w`` of ``g`` complemented at ``a``: the blockwise lift lemma's left side.

    For a vertex of degree > 1 this equals complementing the quotient at the
    block of ``a`` (criterion 6 and ``TestLiftedLocalComplement``). Degree
    <= 1 is rejected (the lemma does not hold there), and so is a ``w``
    that is not a foliage partition of ``g``: local complementation keeps
    the canonical partition, so checking ``w`` against the complemented
    graph is the same check.
    """
    from graphmin import foliage_graph, local_complement

    if g.degree(a) <= 1:
        raise ValueError(f"lifted complement needs degree > 1 at vertex {a}, got {g.degree(a)}")
    return foliage_graph(local_complement(g, a), w)


def prufer_tree(seq: tuple[int, ...], n: int) -> Graph:
    """Decode a Prufer sequence over labels 1..n into its tree."""
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    edges = []
    remaining = list(seq)
    for v in remaining:
        leaf = min(u for u in degree if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        del degree[leaf]
    last = sorted(u for u in degree if degree[u] >= 1)
    edges.append((last[0], last[1]))
    return Graph(n, edges)


def pair_placements(n: int):
    """Every way to split four of the labels 1..n into two pairs: per 4-subset
    (ascending), its smallest label paired with each other one in turn."""
    for four in combinations(range(1, n + 1), 4):
        anchor, *rest = four
        for partner in rest:
            yield (anchor, partner), tuple(v for v in rest if v != partner)


def bell_target(pair_a, pair_b) -> Graph:
    """The two Bell pairs ``pair_a`` and ``pair_b`` as a graph of two disjoint edges."""
    return Graph(set(pair_a) | set(pair_b), [tuple(pair_a), tuple(pair_b)])


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance pass/fail lines after the captured test output."""
    try:
        from test_acceptance import REPORT_LINES
    except ImportError:
        return
    if REPORT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in REPORT_LINES:
            terminalreporter.write_line(line)


def random_refinement(rng: random.Random, partition):
    """A uniform-ish random refinement: each block split at random cuts."""
    from graphmin import Partition

    blocks = []
    for block in partition.blocks:
        members = sorted(block)
        rng.shuffle(members)
        cuts = []
        if len(members) > 1:
            cuts = sorted(rng.sample(range(1, len(members)), rng.randint(0, len(members) - 1)))
        last = 0
        for cut in cuts + [len(members)]:
            blocks.append(members[last:cut])
            last = cut
    return Partition(blocks)


@pytest.fixture
def rng():
    return random.Random(20240817)


def reference_parser():
    """The argparse parser the CLI used before its table: the reference for ``graphmin.cli._parse``."""
    import argparse
    import sys

    from graphmin import cli
    from graphmin.io import parse_decimal

    class _Parser(argparse.ArgumentParser):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.register("type", int, parse_decimal)  # ``type=int`` options read plain decimals only

        def error(self, message):  # a usage error is an input error (exit 1); 2 means "unknown"
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="graphmin",
                     description="graph-state rewriting, foliage partitions, and vertex-minor decisions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.add_argument("--format", choices=("edges", "g6"), default="edges", help="input graph format")

    p = sub.add_parser("foliage")
    p.add_argument("graph")
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--dot", action="store_true")
    common(p)
    p.set_defaults(fn=cli._cmd_foliage)
    p = sub.add_parser("orbit")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--list", action="store_true")
    common(p)
    p.set_defaults(fn=cli._cmd_orbit)
    p = sub.add_parser("decide")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--witness", action="store_true")
    common(p)
    p.set_defaults(fn=cli._cmd_decide)
    p = sub.add_parser("bell")
    p.add_argument("--topology", choices=("line", "ring", "tree"), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--graph", default=None)
    p.add_argument("--pairA", type=int, nargs=2, required=True, metavar=("A1", "A2"))
    p.add_argument("--pairB", type=int, nargs=2, required=True, metavar=("B1", "B2"))
    p.add_argument("--witness", action="store_true")
    common(p)
    p.set_defaults(fn=cli._cmd_bell)
    p = sub.add_parser("reduce")
    p.add_argument("source")
    p.add_argument("--protect", type=int, nargs="*", default=[])
    p.add_argument("--replay", default=None, metavar="WITNESS_JSON")
    common(p)
    p.set_defaults(fn=cli._cmd_reduce)
    p = sub.add_parser("verify-quantum")
    p.add_argument("graph")
    p.add_argument("--op", choices=("lc", "x", "y", "z"), required=True)
    p.add_argument("--vertex", type=int, required=True)
    common(p)
    p.set_defaults(fn=cli._cmd_verify_quantum)
    return parser
