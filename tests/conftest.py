import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import settings

from graphmin import Graph

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
