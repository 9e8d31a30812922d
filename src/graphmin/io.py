"""Graph text formats: edge lists in, canonical edge lists out, graph6 in.

The primary input format is a line count followed by one edge per line
(1-based labels); an explicit ``vertices`` header form covers graphs whose
alive labels are not 1..n, which deletions produce. Details, including the
graph6 subset accepted, live in docs/formats.md.
"""

from __future__ import annotations

from .graph import MAX_LABEL, Graph


class FormatError(ValueError):
    """Unparseable graph text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format (either the ``n`` or ``vertices`` header)."""
    labels: Graph | None = None  # the header's vertices, without edges
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = _fields(raw)
        if not fields:
            continue
        if labels is None:
            listed = fields[0][1] == "vertices"
            if not listed and len(fields) != 1:
                raise FormatError("expected a vertex count or 'vertices' header", lineno)
            values = _int_fields(fields[listed:], lineno, "vertex label" if listed else "vertex count")
            for (column, _), v in zip(fields[listed:], values):
                try:  # each label, or the count, alone: the error is at its column
                    Graph([v] if listed else v)
                except ValueError as exc:
                    raise FormatError(str(exc), lineno, column) from None
            labels = Graph(values if listed else values[0])
            continue
        if len(fields) != 2:
            raise FormatError(f"expected an 'a b' edge, got {len(fields)} fields", lineno)
        a, b = _int_fields(fields, lineno, "vertex label")
        for (column, _), v in zip(fields, (a, b)):
            if not labels.has_vertex(v):
                raise FormatError(f"unknown vertex label {v}", lineno, column)
        if a == b:
            raise FormatError(f"self-loop on vertex {a}", lineno, fields[1][0])
        edges.append((a, b))
    if labels is None:
        raise FormatError("empty input; expected a header line", 1)
    return Graph(labels.vertices, edges)


def _fields(line: str) -> list[tuple[int, str]]:
    """Each significant field of ``line`` (the text before any ``#``) with its 1-based column."""
    fields, column = [], 0
    for field in line.split("#", 1)[0].split():  # ``str.split`` breaks where ``str.isspace``: ``re``'s ``\s``
        column = line.find(field, column)
        fields.append((column + 1, field))
        column += len(field)
    return fields


def _int_fields(fields, lineno: int, what: str) -> list[int]:
    out = []
    for column, field in fields:
        try:
            out.append(parse_decimal(field))
        except ValueError:
            raise FormatError(f"{what} {field!r} is not an integer", lineno, column) from None
    return out


def parse_decimal(text: str) -> int:
    """``int`` for plain decimals (an optional ``-`` and ASCII digits); ``1_000`` or ``+3`` raise."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid decimal integer {text!r}")
    return int(text)


def write_edge_list(g: Graph) -> str:
    """Canonical text: deterministic, parseable, byte-stable for equal graphs."""
    verts = g.vertices
    if verts == tuple(range(1, g.n + 1)):
        lines = [str(g.n)]
    else:
        lines = ["vertices " + " ".join(map(str, verts))]
    lines.extend(f"{a} {b}" for a, b in g.edges())
    return "\n".join(lines) + "\n"


# -- graph6 --------------------------------------------------------------------


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (optional >>graph6<< header, no sparse6)."""
    data = text.strip(" \t\n\r\f\v")  # ASCII whitespace: ``str.strip`` also drops \x1c-\x1f
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<"):]
    if not data:
        raise FormatError("empty graph6 input", 1)
    raw = [ord(c) - 63 for c in data]
    if any(not 0 <= v < 64 for v in raw):
        bad = next(i for i, v in enumerate(raw) if not 0 <= v < 64)
        raise FormatError(f"byte {data[bad]!r} outside graph6 range", 1, bad + 1)
    if raw[0] < 63:
        n, body = raw[0], raw[1:]
    else:
        if len(raw) < 4 or raw[1] == 63:
            raise FormatError("unsupported graph6 size encoding", 1)
        n = (raw[1] << 12) | (raw[2] << 6) | raw[3]
        body = raw[4:]
    if n > MAX_LABEL:
        raise FormatError(f"graph6 order {n} exceeds the {MAX_LABEL}-vertex cap", 1)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise FormatError(f"expected {need} body bytes for order {n}, got {len(body)}", 1)
    bits = [(value >> shift) & 1 for value in body for shift in range(5, -1, -1)]
    pairs = [(i + 1, j + 1) for j in range(1, n) for i in range(j)]  # graph6's column-major order
    return Graph(n, [pair for pair, bit in zip(pairs, bits) if bit])


def read_graph(text: str, fmt: str = "edges") -> Graph:
    if fmt == "edges":
        return parse_edge_list(text)
    if fmt == "g6":
        return parse_graph6(text)
    raise ValueError(f"unknown graph format {fmt!r}")
