"""Pieces shared by the workloads: seeded streams, query records, statistics."""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field

from refs import adj_from_edges, is_connected


@dataclass
class Query:
    """One closed-loop request: its index, class and generated input."""

    qid: int
    cls: str
    payload: object
    info: dict = field(default_factory=dict)  # what the checker needs beyond the input


def rng_for(workload: str, seed: int, stream: str, index: int) -> random.Random:
    """A generator that depends only on (workload, seed, stream, index)."""
    return random.Random(f"{workload}/{seed}/{stream}/{index}")


def random_connected(rng: random.Random, n: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Vertices 1..n and the edges of a connected G(n, p) draw, p uniform in 0.3..0.7."""
    while True:
        p = rng.uniform(0.3, 0.7)
        edges = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < p]
        if is_connected(adj_from_edges(range(1, n + 1), edges)):
            return list(range(1, n + 1)), edges


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    """90th percentile, interpolated between samples, never beyond them."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ms(seconds: float) -> float:
    return seconds * 1000.0
