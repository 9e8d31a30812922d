"""Workload ``vm_decide``: the brute-force vertex-minor decider.

Query classes, in a fixed cycle:

* ``line``, ``ring`` (n = 7..10) and ``tree`` (seeded random labeled trees,
  n = 6..9): is a two-Bell-pair target a vertex-minor? Each size appears
  once with a "yes" placement and once with a "no" placement, so the mix of
  first-hit searches and exhaustive 3^k "no" searches is the same at every
  seed. The closed-form ``bell`` deciders are the reference.
* ``constructed``: a random connected source (n = 7..9) with three random
  x/y/z measurements applied, so the answer is known to be yes. The query
  also takes the source's canonical foliage partition and quotient, runs
  ``source_reduce`` onto the target's labels and decides the reduced pair.

Target orbits stay tiny here, so measurement enumeration dominates and the
workload isolates ``minor`` from ``orbit``.
"""

from __future__ import annotations

from graphmin import (Graph, canonical_foliage_partition, decide_bell, decide_vertex_minor,
                      foliage_graph, line_query, replay, ring_query, source_reduce, tree_query)

import refs
from common import Query, median, ms, random_connected, rng_for
from refs import require

NAME = "vm_decide"
MEASURED = 3  # surplus vertices of a constructed minor
UNKNOWN = "unknown"
BASIS_DIGIT = {"measure_z": 0, "measure_y": 1, "measure_x": 2}  # the decider's (z, y, x) order


def _schedule(tiny: bool) -> list[tuple]:
    out = []
    for j in range(1 if tiny else 4):
        for want in ("yes", "no"):
            out += [("line", (6 if tiny else 7) + j, want), ("ring", (6 if tiny else 7) + j, want),
                    ("tree", 6 + j, want)]
        out.append(("constructed", 6 if tiny else (7, 8, 9, 8)[j], None))
    return out


def _prufer_tree(rng, n: int) -> Graph:
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in degree if degree[u] == 1)
        edges.append((leaf, v))
        degree[v] -= 1
        del degree[leaf]
    edges.append(tuple(sorted(degree)))
    return Graph(n, edges)


def _placement(rng, labels):
    a, b, c, d = rng.sample(labels, 4)
    return (a, b), (c, d)


def _bell_query(rng, topology: str, n: int, want: str):
    """A placement whose reference answer is ``want``, drawn by rejection."""
    while True:
        tree = _prufer_tree(rng, n) if topology == "tree" else None
        for _ in range(200):
            pair_a, pair_b = _placement(rng, list(range(1, n + 1)))
            if topology == "line":
                bell = line_query(n, pair_a, pair_b)
            elif topology == "ring":
                bell = ring_query(n, pair_a, pair_b)
            else:
                bell = tree_query(tree, pair_a, pair_b)
            if decide_bell(bell).answer == want:
                return bell


def _constructed(rng, n: int):
    """Source and target of a known-yes minor: three random Pauli measurements."""
    while True:
        src = refs.adj_from_edges(*random_connected(rng, n))
        tgt = src
        for v in rng.sample(sorted(src), MEASURED):
            tgt, _ = refs.measure(tgt, v, rng.choice("xyz"))
        if all(tgt.values()):  # source reduction needs a target without isolated vertices
            return src, tgt


def _graph(adj) -> Graph:
    return Graph(sorted(adj), refs.edges_of(adj))


def assignments(decision, source_labels, target_labels) -> int:
    """Measurement assignments the decider tried, derived from its answer alone.

    A "no" tries all 3^k assignments of the k surplus vertices. A "yes" stops
    at the first hit, whose bases lead the witness in ascending label order;
    it tried 1 plus that assignment's base-3 rank in (z, y, x) order.
    """
    surplus = sorted(set(source_labels) - set(target_labels))
    if decision.answer == "no":
        return 3 ** len(surplus)
    rank = 0
    for step, v in zip(decision.witness, surplus):
        require(step.op in BASIS_DIGIT and step.vertex == v,
                f"witness does not open with the measurement of {v}: {step}")
        rank = 3 * rank + BASIS_DIGIT[step.op]
    return 1 + rank


class Workload:
    name = NAME
    host_probe = "cpu"  # host-speed probe (hostspeed.py) for this workload's latencies

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.schedule = _schedule(tiny)

    def query(self, i: int, stream: str = "main") -> Query:
        cls, n, want = self.schedule[i % len(self.schedule)]
        rng = rng_for(NAME, self.seed, stream, i)
        if cls == "constructed":
            src, tgt = _constructed(rng, n)
            return Query(i, cls, (_graph(src), _graph(tgt)), {"src": src, "tgt": tgt})
        bell = _bell_query(rng, cls, n, want)
        return Query(i, cls, (bell.graph(), bell.target()), {"bell": bell, "want": want})

    def warmup(self, tr) -> None:
        for i in range(7):
            self.run(self.query(i, "warmup"), tr)

    # -- the calls under test -------------------------------------------------------

    def run(self, q: Query, tr):
        src, tgt = q.payload
        first = tr.call("minor.decide_vertex_minor", decide_vertex_minor, src, tgt)
        if q.cls != "constructed":
            return first
        part = tr.call("foliage.canonical_foliage_partition", canonical_foliage_partition, src)
        quotient = tr.call("foliage.foliage_graph", foliage_graph, src, part)
        reduced, ops = tr.call("minor.source_reduce", source_reduce, src, set(tgt.vertices))
        second = tr.call("minor.decide_vertex_minor", decide_vertex_minor, reduced, tgt)
        return first, part, quotient, reduced, ops, second

    @staticmethod
    def decisions(answer) -> list:
        return [answer[0], answer[5]] if isinstance(answer, tuple) else [answer]

    def failed(self, answer) -> str | None:
        return UNKNOWN if any(d.answer == UNKNOWN for d in self.decisions(answer)) else None

    def digest(self, q: Query, answer):
        return answer

    # -- answer checks ------------------------------------------------------------------

    def _replay_witness(self, tr, q, decision, start: Graph, expect, counters) -> None:
        out = tr.call("ops.replay", replay, start, decision.witness)
        counters["ops.replay_steps"] += len(decision.witness)
        require(refs.adj_of(out) == expect, f"q{q.qid}: witness replays elsewhere")
        require(refs.replay(refs.adj_of(start), decision.witness) == expect,
                f"q{q.qid}: witness misses under the reference rewrite")

    def _decided(self, tr, q, decision, start: Graph, expect_adj, counters) -> None:
        counters["minor.assignments"] += assignments(decision, start.vertices, expect_adj)
        if decision.answer == "yes":
            self._replay_witness(tr, q, decision, start, expect_adj, counters)

    def check(self, records, tr) -> dict:
        counters = dict.fromkeys(("minor.assignments", "ops.replay_steps", "bell.queries",
                                  "minor.reduce_steps"), 0)
        for q, got in records:
            src, tgt = q.payload
            if q.cls != "constructed":
                ref = tr.call("bell.decide_bell", decide_bell, q.info["bell"])
                counters["bell.queries"] += 1
                require(ref.answer == q.info["want"], f"q{q.qid}: bell reference moved")
                require(got.answer == ref.answer,
                        f"q{q.qid}: decider says {got.answer}, closed form says {ref.answer}")
                self._decided(tr, q, got, src, refs.adj_of(tgt), counters)
                continue
            first, part, quotient, reduced, ops, second = got
            tgt_adj = q.info["tgt"]
            require(first.answer == "yes", f"q{q.qid}: constructed minor decided {first.answer}")
            self._decided(tr, q, first, src, tgt_adj, counters)
            blocks = refs.foliage_blocks(q.info["src"])
            require([tuple(sorted(b)) for b in part.blocks] == blocks,
                    f"q{q.qid}: foliage partition {part} differs from {blocks}")
            require(list(quotient.representatives) == [b[0] for b in blocks]
                    and refs.adj_of(quotient.graph) == refs.quotient(q.info["src"], blocks),
                    f"q{q.qid}: foliage quotient differs from the reference")
            require(refs.replay(q.info["src"], ops) == refs.adj_of(reduced),
                    f"q{q.qid}: source-reduction steps do not replay to the reduced graph")
            require(set(tgt.vertices) <= set(reduced.vertices),
                    f"q{q.qid}: source reduction deleted a protected label")
            counters["minor.reduce_steps"] += len(ops)
            require(second.answer == "yes", f"q{q.qid}: reduced minor decided {second.answer}")
            self._decided(tr, q, second, reduced, tgt_adj, counters)
        return counters

    def corrupt(self, records) -> None:
        """Change one answer on the benchmark side; the checker must reject the run."""
        for k, (q, got) in enumerate(records):
            if q.cls != "constructed" and got.answer == "yes":
                records[k] = (q, type(got)("no", got.rule))
                return

    # -- per-layer metrics -------------------------------------------------------------

    def layer_metrics(self, tr, records, counters, failures) -> dict:
        pending = {q.qid: self.decisions(got) for q, got in records}
        decide_ms = {"yes": [], "no": []}
        for s in tr.spans:
            if s.name == "minor.decide_vertex_minor" and s.qid in pending:
                decide_ms[pending[s.qid].pop(0).answer].append(ms(s.end - s.start))
        decide_s = tr.total("minor.decide_vertex_minor")
        closure_s = tr.child_total("minor.decide_vertex_minor", "orbit.lc_orbit_paths")
        enumerate_s = decide_s - closure_s
        replay_s = tr.total("ops.replay")
        return {
            "minor.decide_s": (decide_s, "s"),
            "minor.yes_ms_p50": (median(decide_ms["yes"]), "ms"),
            "minor.no_ms_p50": (median(decide_ms["no"]), "ms"),
            "minor.assignments": (counters["minor.assignments"], "count"),
            "minor.assignments_per_s": (counters["minor.assignments"] / enumerate_s, "1/s"),
            "minor.enumerate_s": (enumerate_s, "s"),
            "minor.reduce_s": (tr.total("minor.source_reduce"), "s"),
            "minor.reduce_steps": (counters["minor.reduce_steps"], "count"),
            "minor.unknown": (sum(kind == UNKNOWN for _, kind in failures), "count"),
            "orbit.decide_closure_s": (closure_s, "s"),
            "orbit.share_of_decide": (closure_s / decide_s, "frac"),
            "bell.decide_s": (tr.total("bell.decide_bell"), "s"),
            "bell.queries": (counters["bell.queries"], "count"),
            "foliage.partition_s": (tr.total("foliage.canonical_foliage_partition"), "s"),
            "foliage.partition_calls": (len(tr.durations("foliage.canonical_foliage_partition")),
                                        "count"),
            "foliage.quotient_s": (tr.total("foliage.foliage_graph"), "s"),
            "ops.replay_steps": (counters["ops.replay_steps"], "count"),
            "ops.replay_steps_per_s": (counters["ops.replay_steps"] / replay_s, "1/s"),
        }
