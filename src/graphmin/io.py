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
    header: tuple | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if fields[0] == "vertices":
                header = ("vertices", _int_fields(fields[1:], lineno, raw, "vertex label"))
            elif len(fields) == 1:
                header = ("count", _int_fields(fields, lineno, raw, "vertex count")[0])
            else:
                raise FormatError("expected a vertex count or 'vertices' header", lineno)
            continue
        if len(fields) != 2:
            raise FormatError(f"expected an 'a b' edge, got {len(fields)} fields", lineno)
        a, b = _int_fields(fields, lineno, raw, "vertex label")
        edges.append((a, b))
    if header is None:
        raise FormatError("empty input; expected a header line", 1)
    try:
        return Graph(header[1], edges)
    except ValueError as exc:
        raise FormatError(str(exc), 1) from exc


def _int_fields(fields, lineno: int, raw: str, what: str) -> list[int]:
    out = []
    for field in fields:
        try:
            out.append(int(field))
        except ValueError:
            column = raw.index(field) + 1
            raise FormatError(f"{what} {field!r} is not an integer", lineno, column) from None
    return out


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
    data = text.strip()
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
