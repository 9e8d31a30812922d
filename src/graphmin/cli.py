"""Command-line front end.

Subcommands parse graphs and queries, dispatch to the library, and print
either human-readable text or a JSON document with a stable schema
(``{"schema": 1, "command", "input_digest", "result", "witness"?, "rule"?}``).
Exit status: 0 for any decided query (yes or no), 2 when a budget ran out
("unknown"), 1 for input errors, usage errors included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from .bell import BellQuery, decide_bell
from .foliage import classify_block, nth_foliage_graph
from .graph import Graph
from .io import read_graph, write_edge_list
from .minor import UNKNOWN, YES, Decision, decide_vertex_minor, source_reduce
from .ops import replay, steps_from_json, steps_to_json
from .orbit import BudgetExceededError, lc_orbit

SCHEMA = 1


def _load(path: str, fmt: str) -> Graph:
    with open(path, encoding="utf-8") as handle:
        return read_graph(handle.read(), fmt)


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _emit(args, command: str, digest: str, result: dict, witness=None, rule: str | None = None,
          human: list[str] | None = None) -> None:
    if args.json:
        doc = {"schema": SCHEMA, "command": command, "input_digest": digest, "result": result}
        if rule is not None:
            doc["rule"] = rule
        if witness is not None:
            doc["witness"] = steps_to_json(witness)
        print(json.dumps(doc, indent=2))
    else:
        for line in human or []:
            print(line)


def _emit_decision(args, command: str, digest: str, decision: Decision, target: Graph) -> int:
    """Print a yes/no/unknown decision; a yes's witness replays to ``target``."""
    result = {"answer": decision.answer}
    human = [f"answer: {decision.answer}", f"rule: {decision.rule}"]
    witness = None
    if decision.answer == YES:
        result["result_graph"] = write_edge_list(target)
        if args.witness:
            witness = decision.witness
            human += ["witness: " + json.dumps(steps_to_json(witness))]
    _emit(args, command, digest, result, witness=witness, rule=decision.rule, human=human)
    return 2 if decision.answer == UNKNOWN else 0


# -- subcommands ----------------------------------------------------------------


def _cmd_foliage(args) -> int:
    g = _load(args.graph, args.format)
    fg = nth_foliage_graph(g, args.level)
    blocks = [sorted(b) for b in fg.partition.blocks]
    shapes = [classify_block(g, b).value for b in fg.partition.blocks] if args.level == 1 else None
    quotient = write_edge_list(fg.graph)
    human = ["blocks: " + " ".join("{%s}" % ",".join(map(str, b)) for b in blocks)]
    if shapes:
        human += ["shapes: " + " ".join(shapes)]
    human += ["representatives: " + " ".join(map(str, fg.representatives))]
    if args.dot:
        names = {rep: "b%s" % "_".join(map(str, sorted(block)))
                 for rep, block in zip(fg.representatives, fg.partition.blocks)}
        human += ["graph foliage {"]
        human += [f"  {names[rep]};" for rep in fg.representatives]
        human += [f"  {names[a]} -- {names[b]};" for a, b in fg.graph.edges()]
        human += ["}"]
    else:
        human += ["quotient:"] + quotient.rstrip("\n").split("\n")
    result = {
        "level": args.level,
        "blocks": blocks,
        "representatives": list(fg.representatives),
        "graph": quotient,
    }
    if shapes:
        result["shapes"] = shapes
    _emit(args, "foliage", _digest(write_edge_list(g)), result, human=human)
    return 0


def _cmd_orbit(args) -> int:
    g = _load(args.graph, args.format)
    orbit = lc_orbit(g, args.budget)
    ordered = sorted(orbit, key=Graph.edges)
    human = [f"orbit size: {len(orbit)}"]
    result: dict = {"size": len(orbit)}
    if args.list:
        members = [write_edge_list(member) for member in ordered]
        result["members"] = members
        human += ["members:"] + [m.rstrip("\n").replace("\n", "; ") for m in members]
    _emit(args, "orbit", _digest(write_edge_list(g)), result, human=human)
    return 0


def _cmd_decide(args) -> int:
    source = _load(args.source, args.format)
    target = _load(args.target, args.format)
    decision = decide_vertex_minor(source, target, args.budget)
    digest = _digest(write_edge_list(source), write_edge_list(target))
    return _emit_decision(args, "decide", digest, decision, target)


def _cmd_bell(args) -> int:
    pair_a, pair_b = tuple(args.pairA), tuple(args.pairB)
    if args.topology == "tree":
        if not args.graph:
            raise ValueError("--topology tree needs --graph FILE")
        query = BellQuery("tree", pair_a, pair_b, tree=_load(args.graph, args.format))
    else:
        if args.n is None:
            raise ValueError(f"--topology {args.topology} needs --n")
        query = BellQuery(args.topology, pair_a, pair_b, size=args.n)
    digest = _digest(write_edge_list(query.graph()), repr(sorted(pair_a)), repr(sorted(pair_b)))
    return _emit_decision(args, "bell", digest, decide_bell(query), query.target())


def _cmd_reduce(args) -> int:
    source = _load(args.source, args.format)
    digest = _digest(write_edge_list(source))
    if args.replay:
        with open(args.replay, encoding="utf-8") as handle:
            doc = json.load(handle)
        if isinstance(doc, dict) and "witness" not in doc:
            raise ValueError(f"{args.replay} is a JSON object without a 'witness' key")
        steps = steps_from_json(doc["witness"] if isinstance(doc, dict) else doc)
        text = write_edge_list(replay(source, steps))
        _emit(args, "reduce", digest, {"graph": text}, human=[text.rstrip("\n")])
        return 0
    reduced, ops = source_reduce(source, set(args.protect))
    text = write_edge_list(reduced)
    human = text.rstrip("\n").split("\n") + ["ops: " + json.dumps(steps_to_json(ops))]
    _emit(args, "reduce", digest, {"graph": text}, witness=ops, human=human)
    return 0


def _cmd_verify_quantum(args) -> int:
    # the dense oracle loads NumPy, which no other command needs
    from .quantum import CorrectionSearchExhausted, _corrections, verify_lc_unitary

    g = _load(args.graph, args.format)
    digest = _digest(write_edge_list(g))
    if args.op == "lc":
        ok = verify_lc_unitary(g, args.vertex, args.tolerance)
        human = [f"lc at {args.vertex}: {'pass' if ok else 'FAIL'}"]
        _emit(args, "verify-quantum", digest, {"ok": ok}, human=human)
        return 0
    try:
        found = _corrections(g, args.vertex, args.op, (+1, -1), args.tolerance)
    except CorrectionSearchExhausted as exc:
        raise ValueError(str(exc)) from exc
    corrections = {
        args.op + sign: None if corr is None else {str(v): word for v, word in corr.items()}
        for sign, corr in zip("+-", found)
    }
    human = [f"measure {args.op} at {args.vertex}: pass"]
    for tag, corr in corrections.items():
        if corr is None:
            human += [f"  {tag}: outcome has probability 0"]
        else:
            pretty = " ".join(f"{w}@{v}" for v, w in corr.items()) or "none"
            human += [f"  {tag}: correction {pretty}"]
    _emit(args, "verify-quantum", digest, {"ok": True, "corrections": corrections}, human=human)
    return 0


# -- parser -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error (exit 1); 2 means "unknown"
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphmin",
        description="graph-state rewriting, foliage partitions, and vertex-minor decisions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.add_argument("--format", choices=("edges", "g6"), default="edges",
                       help="input graph format")

    p = sub.add_parser("foliage", help="partition blocks, shapes, and the quotient graph")
    p.add_argument("graph")
    p.add_argument("--level", type=int, default=1, help="iterate the quotient this many times")
    p.add_argument("--dot", action="store_true", help="print the quotient as DOT text")
    common(p)
    p.set_defaults(fn=_cmd_foliage)

    p = sub.add_parser("orbit", help="closure under local complementation")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=None, help="node budget (default GRAPHMIN_BUDGET)")
    p.add_argument("--list", action="store_true", help="print every orbit member")
    common(p)
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("decide", help="is the target a vertex-minor of the source?")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--witness", action="store_true", help="include the replayable witness")
    common(p)
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("bell", help="two-Bell-pair extraction on a named topology")
    p.add_argument("--topology", choices=("line", "ring", "tree"), required=True)
    p.add_argument("--n", type=int, default=None, help="size for line/ring")
    p.add_argument("--graph", default=None, help="tree graph file")
    p.add_argument("--pairA", type=int, nargs=2, required=True, metavar=("A1", "A2"))
    p.add_argument("--pairB", type=int, nargs=2, required=True, metavar=("B1", "B2"))
    p.add_argument("--witness", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_bell)

    p = sub.add_parser("reduce", help="source-reduce a graph, or replay a witness")
    p.add_argument("source")
    p.add_argument("--protect", type=int, nargs="*", default=[],
                   help="labels that must survive the reduction")
    p.add_argument("--replay", default=None, metavar="WITNESS_JSON",
                   help="replay a stored witness instead of reducing")
    common(p)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("verify-quantum", help="check a rewrite against the state-vector oracle")
    p.add_argument("graph")
    p.add_argument("--op", choices=("lc", "x", "y", "z"), required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--tolerance", type=float, default=1e-10)
    common(p)
    p.set_defaults(fn=_cmd_verify_quantum)

    return parser


def _check_ranges(args) -> None:
    """Reject numeric options outside their domain as input errors."""
    for option in ("budget", "level", "n"):
        value = getattr(args, option, None)
        if value is not None and value < 1:
            raise ValueError(f"--{option} must be positive, got {value}")
    if not 0 <= getattr(args, "tolerance", 0) < 1 - 2 ** -0.5:  # quantum.MAX_TOLERANCE; nan fails too
        raise ValueError(f"--tolerance must be >= 0 and below 1 - 1/sqrt(2), got {args.tolerance}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ranges(args)
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
