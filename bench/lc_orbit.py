"""Workload ``lc_orbit``: orbit closure and LC-path search.

Three query classes per base graph, in a fixed cycle:

* ``closure``: ``lc_orbit_paths`` on the whole orbit;
* ``yes``: ``lc_path`` to the end of a short random LC walk, where the BFS
  stops at the walk's depth;
* ``no``: ``lc_path`` to that walk's end with one edge toggled so that the
  GF(2) cut-rank profile differs, which certifies "no" and forces the search
  to exhaust the orbit.

Orbit size sets the cost of a closure or a "no", and it varies by two orders
of magnitude between random graphs of one size. So the orbit family is drawn
once from a fixed family seed (random connected graphs, n = 6..9, edge
density 0.3..0.7), and the run seed picks each query's relabeling and its
position in the orbit. Runs at different seeds then see different inputs
with the same cost profile. The family seed is the first one, counting from
0, whose family holds a 9-vertex orbit of at least 9,000 members: its orbits
range from 40 to 9,100 members, and one cycle takes about 5 s.
"""

from __future__ import annotations

import random

from graphmin import Graph, lc_orbit_paths, lc_path, replay
from graphmin.ops import LC, Step
from graphmin.orbit import BudgetExceededError

import refs
from common import Query, median, ms, random_connected, rng_for
from refs import require

NAME = "lc_orbit"
FAMILY_SEED = 10
FAMILY = {6: 6, 7: 6, 8: 3, 9: 2}  # base graphs per size
TINY_FAMILY = {5: 2, 6: 1}
CLASSES = ("closure", "yes", "no")
SAMPLES_PER_ORBIT = 4
UNKNOWN = "unknown"


def _mask_code(masks) -> int:
    return hash(tuple(masks))


def _graph_code(g: Graph, verts) -> int:
    return _mask_code(g.neighbor_mask(v) for v in verts)


def _adj_code(adj, verts) -> int:
    return _mask_code(sum(1 << u for u in adj[v]) for v in verts)


def _lc_walk(rng: random.Random, adj, steps: int):
    last = None
    for _ in range(steps):
        v = rng.choice([u for u in sorted(adj) if u != last])
        adj = refs.lc(adj, v)
        last = v
    return adj


def _graph(adj) -> Graph:
    return Graph(sorted(adj), refs.edges_of(adj))


class Workload:
    name = NAME
    host_probe = "cpu"  # host-speed probe (hostspeed.py) for this workload's latencies

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        family_rng = random.Random(FAMILY_SEED)
        by_size = {n: [refs.adj_from_edges(*random_connected(family_rng, n)) for _ in range(k)]
                   for n, k in (TINY_FAMILY if tiny else FAMILY).items()}
        # round-robin over sizes spreads the heavy orbits through the cycle
        self.family = []
        while any(by_size.values()):
            for n in sorted(by_size):
                if by_size[n]:
                    self.family.append(by_size[n].pop(0))
        self.schedule = [(cls, b) for b in range(len(self.family)) for cls in CLASSES]
        self.orbit_sizes: dict[int, int] = {}  # base graph -> orbit size, over the whole run

    # -- inputs ------------------------------------------------------------------

    def query(self, i: int, stream: str = "main") -> Query:
        cls, b = self.schedule[i % len(self.schedule)]
        rng = rng_for(NAME, self.seed, stream, i)
        base = self.family[b]
        n = len(base)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        adj = _lc_walk(rng, refs.relabel(base, dict(zip(range(1, n + 1), perm))), rng.randint(0, n))
        info = {"adj": adj, "base": b}
        if cls == "closure":
            return Query(i, cls, (_graph(adj),), info)
        end = _lc_walk(rng, adj, rng.randint(1, max(1, n // 2)))
        if cls == "no":
            profile = refs.cut_rank_profile(adj)
            pairs = [(a, c) for a in range(1, n + 1) for c in range(a + 1, n + 1)]
            while True:
                a, c = rng.choice(pairs)
                toggled = refs.toggle(end, a, c)
                if refs.cut_rank_profile(toggled) != profile:
                    end = toggled
                    break
        info["target"] = end
        return Query(i, cls, (_graph(adj), _graph(end)), info)

    def warmup(self, tr) -> None:
        for i in range(3):
            self.run(self.query(i, "warmup"), tr)

    # -- the calls under test -------------------------------------------------------

    def run(self, q: Query, tr):
        try:
            if q.cls == "closure":
                return tr.call("orbit.lc_orbit_paths", lc_orbit_paths, *q.payload)
            return tr.call("orbit.lc_path", lc_path, *q.payload)
        except BudgetExceededError:
            return UNKNOWN

    def failed(self, answer) -> str | None:
        return UNKNOWN if answer is UNKNOWN else None

    def digest(self, q: Query, answer):
        """What the checker needs, small enough to keep for every query."""
        if q.cls != "closure":
            return answer
        members = list(answer.values())
        verts = q.payload[0].vertices
        picks = rng_for(NAME, self.seed, "sample", q.qid).sample(
            range(len(members)), min(SAMPLES_PER_ORBIT, len(members)))
        return {
            "size": len(members),
            "codes": {_graph_code(m, verts) for m, _ in members},
            "samples": [(refs.adj_of(members[k][0]), members[k][1]) for k in picks],
        }

    # -- answer checks ------------------------------------------------------------------

    def _replay_path(self, tr, q: Query, path, expect, counters) -> None:
        steps = [Step(LC, v) for v in path]
        out = tr.call("ops.replay", replay, q.payload[0], steps)
        counters["ops.replay_steps"] += len(steps)
        require(refs.adj_of(out) == expect, f"q{q.qid}: path {path} replays elsewhere")
        require(refs.replay(q.info["adj"], steps) == expect,
                f"q{q.qid}: path {path} misses under the reference rewrite")

    def check(self, records, tr) -> dict:
        counters = {"orbit.members": 0, "ops.replay_steps": 0}
        for q, got in records:
            adj = q.info["adj"]
            verts = sorted(adj)
            if q.cls == "closure":
                size = got["size"]
                counters["orbit.members"] += size
                require(size == len(got["codes"]), f"q{q.qid}: orbit lists a member twice")
                require(_adj_code(adj, verts) in got["codes"], f"q{q.qid}: orbit misses its root")
                # relabeling and LC walks keep the orbit size of the base graph
                require(self.orbit_sizes.setdefault(q.info["base"], size) == size,
                        f"q{q.qid}: orbit size {size} differs from "
                        f"{self.orbit_sizes[q.info['base']]} "
                        f"for the same base graph")
                profile = refs.cut_rank_profile(adj)
                for member, path in got["samples"]:
                    self._replay_path(tr, q, path, member, counters)
                    require(refs.cut_rank_profile(member) == profile,
                            f"q{q.qid}: orbit member with another cut-rank profile")
                    for v in verts:
                        require(_adj_code(refs.lc(member, v), verts) in got["codes"],
                                f"q{q.qid}: orbit not closed under lc at {v}")
            elif q.cls == "yes":
                require(got is not None, f"q{q.qid}: no path to the end of an LC walk")
                self._replay_path(tr, q, got, q.info["target"], counters)
            else:
                require(got is None, f"q{q.qid}: path {got} to a graph with another cut-rank profile")
                require(refs.cut_rank_profile(adj) != refs.cut_rank_profile(q.info["target"]),
                        f"q{q.qid}: 'no' target is not certified by its cut-rank profile")
        return counters

    def corrupt(self, records) -> None:
        """Change one answer on the benchmark side; the checker must reject the run."""
        for k, (q, got) in enumerate(records):
            if q.cls == "closure":
                records[k] = (q, dict(got, size=got["size"] + 1))
                return

    # -- per-layer metrics -------------------------------------------------------------

    def layer_metrics(self, tr, records, counters, failures) -> dict:
        cls_of = {q.qid: q.cls for q, _ in records}
        path_ms = {"yes": [], "no": []}
        for s in tr.spans:
            if s.name == "orbit.lc_path":
                path_ms[cls_of[s.qid]].append(ms(s.end - s.start))
        closure_s = tr.total("orbit.lc_orbit_paths")
        replay_s = tr.total("ops.replay")
        return {
            "orbit.closure_s": (closure_s, "s"),
            "orbit.members": (counters["orbit.members"], "count"),
            "orbit.members_per_s": (counters["orbit.members"] / closure_s, "1/s"),
            "orbit.path_yes_ms_p50": (median(path_ms["yes"]), "ms"),
            "orbit.path_no_ms_p50": (median(path_ms["no"]), "ms"),
            "orbit.budget_exhausted": (sum(kind == UNKNOWN for _, kind in failures), "count"),
            "ops.replay_steps": (counters["ops.replay_steps"], "count"),
            "ops.replay_steps_per_s": (counters["ops.replay_steps"] / replay_s, "1/s"),
        }
