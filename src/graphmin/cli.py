"""Command-line front end.

Subcommands parse graphs and queries, dispatch to the library, and print
either human-readable text or a JSON document with a stable schema
(``{"schema": 1, "command", "input_digest", "result", "witness"?, "rule"?}``).
Exit status: 0 for any decided query (yes or no), 2 when a budget ran out
("unknown"), 1 for input errors, usage errors included.
"""

from __future__ import annotations

import argparse
import sys

from .graph import Graph
from .io import parse_decimal, read_graph, write_edge_list

SCHEMA = 1


def _load(path: str, fmt: str) -> Graph:
    with open(path, encoding="utf-8") as handle:
        return read_graph(handle.read(), fmt)


def _digest(*parts: str) -> str:
    import hashlib  # only ``--json`` prints the digest
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _emit(args, command: str, inputs: tuple[str, ...], result: dict, witness: list | None = None,
          rule: str | None = None, human: list[str] | None = None) -> None:
    """Print ``human``, or under ``--json`` the envelope: ``inputs`` digested, ``witness`` as JSON."""
    if args.json:
        import json  # like hashlib, loaded only where JSON is printed or read
        doc = {"schema": SCHEMA, "command": command, "input_digest": _digest(*inputs), "result": result}
        if rule is not None:
            doc["rule"] = rule
        if witness is not None:
            doc["witness"] = witness
        print(json.dumps(doc, indent=2))
    else:
        for line in human or []:
            print(line)


def _emit_decision(args, command: str, inputs: tuple[str, ...], decision, target: Graph) -> int:
    """Print a yes/no/unknown ``ops.Decision``; a yes's witness replays to ``target``."""
    from .ops import UNKNOWN, YES, steps_to_json
    result = {"answer": decision.answer}
    human = [f"answer: {decision.answer}", f"rule: {decision.rule}"]
    witness = None
    if decision.answer == YES:
        result["result_graph"] = write_edge_list(target)
        if args.witness:
            import json
            witness = steps_to_json(decision.witness)
            human += ["witness: " + json.dumps(witness)]
    _emit(args, command, inputs, result, witness=witness, rule=decision.rule, human=human)
    return 2 if decision.answer == UNKNOWN else 0


# -- subcommands ----------------------------------------------------------------


def _cmd_foliage(args) -> int:
    from .foliage import classify_block, nth_foliage_graph
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
    _emit(args, "foliage", (write_edge_list(g),), result, human=human)
    return 0


def _cmd_orbit(args) -> int:
    from .orbit import BudgetExceededError, lc_orbit
    g = _load(args.graph, args.format)
    try:
        orbit = lc_orbit(g, args.budget)
    except BudgetExceededError as exc:  # the one command that lets it escape; decide answers "unknown"
        print(f"unknown: {exc}", file=sys.stderr)
        return 2
    ordered = sorted(orbit, key=Graph.edges)
    human = [f"orbit size: {len(orbit)}"]
    result: dict = {"size": len(orbit)}
    if args.list:
        members = [write_edge_list(member) for member in ordered]
        result["members"] = members
        human += ["members:"] + [m.rstrip("\n").replace("\n", "; ") for m in members]
    _emit(args, "orbit", (write_edge_list(g),), result, human=human)
    return 0


def _cmd_decide(args) -> int:
    from .minor import decide_vertex_minor
    source = _load(args.source, args.format)
    target = _load(args.target, args.format)
    decision = decide_vertex_minor(source, target, args.budget)
    inputs = (write_edge_list(source), write_edge_list(target))
    return _emit_decision(args, "decide", inputs, decision, target)


def _cmd_bell(args) -> int:
    from .bell import BellQuery, decide_bell
    if args.topology == "tree":
        if not args.graph:
            raise ValueError("--topology tree needs --graph FILE")
        query = BellQuery("tree", args.pairA, args.pairB, tree=_load(args.graph, args.format))
    else:
        if args.n is None:
            raise ValueError(f"--topology {args.topology} needs --n")
        query = BellQuery(args.topology, args.pairA, args.pairB, size=args.n)
    inputs = (write_edge_list(query.graph()), repr(sorted(query.pair_a)), repr(sorted(query.pair_b)))
    return _emit_decision(args, "bell", inputs, decide_bell(query), query.target())


def _cmd_reduce(args) -> int:
    import json  # both branches read or print a witness
    from .ops import replay, steps_from_json, steps_to_json
    source = _load(args.source, args.format)
    inputs = (write_edge_list(source),)
    if args.replay:
        with open(args.replay, encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except RecursionError:
                raise ValueError(f"{args.replay} nests JSON too deeply to be a witness") from None
        if isinstance(doc, dict) and "witness" not in doc:
            raise ValueError(f"{args.replay} is a JSON object without a 'witness' key")
        steps = steps_from_json(doc["witness"] if isinstance(doc, dict) else doc)
        text = write_edge_list(replay(source, steps))
        _emit(args, "reduce", inputs, {"graph": text}, human=[text.rstrip("\n")])
        return 0
    from .reduction import source_reduce
    reduced, ops = source_reduce(source, set(args.protect))
    text, witness = write_edge_list(reduced), steps_to_json(ops)
    human = text.rstrip("\n").split("\n") + ["ops: " + json.dumps(witness)]
    _emit(args, "reduce", inputs, {"graph": text}, witness=witness, human=human)
    return 0


def _cmd_verify_quantum(args) -> int:
    from .quantum import CorrectionSearchExhausted, _corrections, verify_lc_unitary

    g = _load(args.graph, args.format)
    inputs = (write_edge_list(g),)
    if args.op == "lc":
        ok = verify_lc_unitary(g, args.vertex)
        human = [f"lc at {args.vertex}: {'pass' if ok else 'FAIL'}"]
        _emit(args, "verify-quantum", inputs, {"ok": ok}, human=human)
        return 0
    try:
        found = _corrections(g, args.vertex, args.op, (+1, -1))
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
    _emit(args, "verify-quantum", inputs, {"ok": True, "corrections": corrections}, human=human)
    return 0


# -- parser -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.register("type", int, parse_decimal)  # ``type=int`` options read plain decimals only

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
    p.add_argument("--budget", type=int, default=None, help="node budget (default 2^20)")
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
    common(p)
    p.set_defaults(fn=_cmd_verify_quantum)

    return parser


def _check_ranges(args) -> None:
    """Reject numeric options outside their domain as input errors."""
    for option in ("budget", "level", "n"):
        value = getattr(args, option, None)
        if value is not None and value < 1:
            raise ValueError(f"--{option} must be positive, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ranges(args)
        return args.fn(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
