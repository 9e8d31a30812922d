"""Command-line front end.

Subcommands parse graphs and queries, dispatch to the library, and print
either human-readable text or a JSON document with a stable schema
(``{"schema": 1, "command", "input_digest", "result", "witness"?, "rule"?}``).
Exit status: 0 for any decided query (yes or no), 2 when a budget ran out
("unknown"), 1 for input errors, usage errors included. The table ``_COMMANDS``
gives each command's handler, positionals and options (kind, default, whether
required, metavar and help); ``_parse`` reads a command line by it.
"""

from __future__ import annotations

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


# -- command line -----------------------------------------------------------------

_ABOUT = "graph-state rewriting, foliage partitions, and vertex-minor decisions"
_COMMON = (  # every command's options, each (name, kind, default, required, metavar, help)
    ("--json", "flag", False, False, None, "emit a JSON document"),
    ("--format", ("edges", "g6"), "edges", False, None, "input graph format"),
)
# command: (handler, help, positionals, options as in _COMMON). A kind is "flag", "str", "int"
# (io.parse_decimal), "pair" (two ints), "ints" (any number of ints) or a tuple of choices.
_COMMANDS = {
    "foliage": (_cmd_foliage, "partition blocks, shapes, and the quotient graph", ("graph",), (
        ("--level", "int", 1, False, "LEVEL", "iterate the quotient this many times"),
        ("--dot", "flag", False, False, None, "print the quotient as DOT text"))),
    "orbit": (_cmd_orbit, "closure under local complementation", ("graph",), (
        ("--budget", "int", None, False, "BUDGET", "node budget (default 2^20)"),
        ("--list", "flag", False, False, None, "print every orbit member"))),
    "decide": (_cmd_decide, "is the target a vertex-minor of the source?", ("source", "target"), (
        ("--budget", "int", None, False, "BUDGET", "node budget (default 2^20)"),
        ("--witness", "flag", False, False, None, "include the replayable witness"))),
    "bell": (_cmd_bell, "two-Bell-pair extraction on a named topology", (), (
        ("--topology", ("line", "ring", "tree"), None, True, None, "the graph the pairs are extracted from"),
        ("--n", "int", None, False, "N", "size for line/ring"),
        ("--graph", "str", None, False, "GRAPH", "tree graph file"),
        ("--pairA", "pair", None, True, "A1 A2", "the first pair's two vertices"),
        ("--pairB", "pair", None, True, "B1 B2", "the second pair's two vertices"),
        ("--witness", "flag", False, False, None, "include the replayable witness"))),
    "reduce": (_cmd_reduce, "source-reduce a graph, or replay a witness", ("source",), (
        ("--protect", "ints", [], False, "PROTECT", "labels that must survive the reduction"),
        ("--replay", "str", None, False, "WITNESS_JSON", "replay a stored witness instead of reducing"))),
    "verify-quantum": (_cmd_verify_quantum, "check a rewrite against the state-vector oracle", ("graph",), (
        ("--op", ("lc", "x", "y", "z"), None, True, None, "the rewrite to check"),
        ("--vertex", "int", None, True, "VERTEX", "the vertex it acts on"))),
}
_ARITY = {"flag": 0, "pair": 2, "ints": -1}  # the values an option takes: 1 unless listed, -1 for any number


class _Args:  # the fields of a command line, read as attributes
    def __init__(self, fields: dict):
        self.__dict__.update(fields)


def _invocation(option) -> str:  # "--dot", "--level LEVEL", "--format {edges,g6}", "--protect [PROTECT ...]"
    name, kind, _, _, metavar, _ = option
    metavar = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else metavar
    return name if kind == "flag" else f"{name} [{metavar} ...]" if kind == "ints" else f"{name} {metavar}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: graphmin [-h] {%s} ..." % ",".join(_COMMANDS)
    _, _, positionals, options = _COMMANDS[command]
    words = [_invocation(o) if o[3] else f"[{_invocation(o)}]" for o in options + _COMMON]
    return " ".join(["usage: graphmin", command, "[-h]", *words, *positionals])


def _usage_error(command: str | None, message: str):
    """Exit 1, as for any input error (2 means "unknown"), with the usage and ``message`` on stderr."""
    prog = f"graphmin {command}" if command else "graphmin"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(1)


def _help(command: str | None, name: str, value: str | None):
    """``-h``: exit 0 with the usage, then each command, or each argument of ``command``, and its help."""
    if value is not None:
        _usage_error(command, f"argument {name}: ignored explicit argument {value!r}")
    if command is None:
        rows = [(c, spec[1]) for c, spec in _COMMANDS.items()]
        about = "graph-state rewriting, foliage partitions, and vertex-minor decisions"
    else:
        _, about, positionals, options = _COMMANDS[command]
        rows = [(p, "") for p in positionals] + [(_invocation(o), o[5]) for o in options + _COMMON]
    rows.append(("-h, --help", "show this help message and exit"))
    print(_usage(command), "", about, "", *(f"  {a:<22}  {b}".rstrip() for a, b in rows), sep="\n")
    raise SystemExit(0)


def _option(word: str, names, command: str | None):
    r"""The option ``word`` names and its ``=`` value; (None, None) if unknown, None for a value word.

    An option is an exact name, a name and ``=value``, a unique prefix of a ``--`` name (an
    ambiguous one is an error) or ``-h`` with a value stuck on. Any other word that starts with
    ``-`` is an unknown option unless it has a space or is a negative number, which is
    ``^-\d+$|^-\d*\.\d+$`` with ``\d`` read as ``str.isdecimal`` (``$`` allows a final newline).
    """
    if word[:1] != "-" or word == "-":
        return None
    if word in names:
        return word, None
    head, eq, value = word.partition("=")
    if eq and head in names:
        return head, value
    if word[1] == "-":
        hits = [name for name in names if name.startswith(head)]
        if len(hits) > 1:
            _usage_error(command, f"ambiguous option: {word} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif word.startswith("-h"):
        return "-h", word[2:]
    whole, dot, fraction = word[1:].removesuffix("\n").partition(".")
    negative = fraction.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()
    return None if negative or " " in word else (None, None)


def _parse(argv: list[str]) -> _Args:
    """Read a command line by the table: ``--opt value`` or ``--opt=value``, options and
    positionals in any order (the last repeat wins), ``--`` ending the options."""
    extras, at = [], 0  # unknown options, before the command and in it
    while at < len(argv) and argv[at] != "--" and (hit := _option(argv[at], ("-h", "--help"), None)):
        if hit[0] is not None:
            _help(None, *hit)
        extras.append(argv[at])
        at += 1
    if at == len(argv):
        _usage_error(None, "the following arguments are required: command")
    command, words = argv[at], argv[at + 1:]
    if command not in _COMMANDS:
        _usage_error(None, f"argument command: invalid choice: {command!r} "
                           f"(choose from {', '.join(map(repr, _COMMANDS))})")
    handler, _, positionals, options = _COMMANDS[command]
    specs = {option[0]: option for option in options + _COMMON}
    end = words.index("--") if "--" in words else len(words)
    found = [_option(word, ("-h", "--help", *specs), command) for word in words[:end]]
    fields = {"command": command, "fn": handler, **{name[2:]: spec[2] for name, spec in specs.items()}}
    seen, free, at = set(), [], 0
    while at < end:
        word, hit = words[at], found[at]
        at += 1
        if hit is None or hit[0] is None:
            (free if hit is None else extras).append(word)
            continue
        name, value = hit
        if name not in specs:
            _help(command, name, value)
        kind, arity = specs[name][1], _ARITY.get(specs[name][1], 1)
        if value is not None and arity == 0:
            _usage_error(command, f"argument {name}: ignored explicit argument {value!r}")
        stop = at
        while value is None and stop < end and found[stop] is None and stop - at != arity:
            stop += 1
        got, at = [value] if value is not None else words[at:stop], stop
        if len(got) < arity:
            _usage_error(command, f"argument {name}: expected {'one argument' if arity == 1 else '2 arguments'}")
        values = []
        for word in got:
            if isinstance(kind, tuple) and word not in kind:
                _usage_error(command, f"argument {name}: invalid choice: {word!r} "
                                      f"(choose from {', '.join(map(repr, kind))})")
            try:
                values.append(parse_decimal(word) if kind in ("int", "pair", "ints") else word)
            except ValueError:
                _usage_error(command, f"argument {name}: invalid int value: {word!r}")
        fields[name[2:]] = True if kind == "flag" else values if kind in ("pair", "ints") else values[0]
        seen.add(name)
    free += words[end + 1:]
    missing = [*positionals[len(free):], *(o[0] for o in options if o[3] and o[0] not in seen)]
    if missing:
        _usage_error(command, "the following arguments are required: " + ", ".join(missing))
    extras += free[len(positionals):]
    if extras:
        _usage_error(None, "unrecognized arguments: " + " ".join(extras))
    return _Args({**fields, **dict(zip(positionals, free))})


def _check_ranges(args) -> None:
    """Reject numeric options outside their domain as input errors."""
    for option in ("budget", "level", "n"):
        value = getattr(args, option, None)
        if value is not None and value < 1:
            raise ValueError(f"--{option} must be positive, got {value}")


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        _check_ranges(args)
        return args.fn(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
