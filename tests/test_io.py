import re
import sys

import pytest
from hypothesis import given, strategies as st

import graphmin.io as graphmin_io

from graphmin import (
    FormatError,
    Graph,
    complete_graph,
    delete_vertex,
    parse_edge_list,
    parse_graph6,
    path_graph,
    read_graph,
    write_edge_list,
)

from conftest import fig4a


class TestEdgeList:
    def test_count_header(self):
        g = parse_edge_list("4\n1 2\n2 3\n2 4\n1 3\n")
        assert g == Graph(4, [(1, 2), (2, 3), (2, 4), (1, 3)])

    def test_vertices_header(self):
        g = parse_edge_list("vertices 1 3 4\n1 3\n")
        assert g == Graph([1, 3, 4], [(1, 3)])

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# a path\n3\n\n1 2  # first\n2 3\n")
        assert g == path_graph(3)

    def test_round_trip_standard_labels(self):
        g = path_graph(4)
        assert parse_edge_list(write_edge_list(g)) == g
        assert write_edge_list(g) == "4\n1 2\n2 3\n3 4\n"

    def test_round_trip_sparse_labels(self):
        g = delete_vertex(path_graph(4), 2)
        text = write_edge_list(g)
        assert text.startswith("vertices 1 3 4\n")
        assert parse_edge_list(text) == g

    def test_empty_input_rejected(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_edge_list("")

    def test_bad_integer_reports_line_and_column(self):
        with pytest.raises(FormatError) as err:
            parse_edge_list("3\n1 2\n1 x\n")
        assert err.value.line == 3
        assert err.value.column == 3

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_edge_list("3\n1 2 3\n")

    def test_two_field_header_rejected(self):
        with pytest.raises(FormatError, match="^line 1, column 1: expected a vertex count or 'vertices' header$"):
            parse_edge_list("4 5\n1 2\n")

    def test_edge_outside_range_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("2\n1 5\n")

    @pytest.mark.parametrize("text, line, column, message", [
        ("4\n1 2\n2 3\n\n3 99\n", 5, 3, "unknown vertex label 99"),
        ("4\n1 2\n  99   3\n", 3, 3, "unknown vertex label 99"),
        ("3\n1 2\n2 2\n", 3, 3, "self-loop on vertex 2"),
        ("# a comment\n3\n1 5\n", 3, 3, "unknown vertex label 5"),
        ("\n  -3\n", 2, 3, "vertex count must be >= 0"),
        ("  65\n", 1, 3, "got 65"),
        ("# header below\nvertices 1 2 99 0\n", 2, 14, "got 99"),
        ("vertices 1 s\n", 1, 12, "'s' is not an integer"),
        ("12\n1_1 2\n", 2, 1, "'1_1' is not an integer"),
        ("3\n1 \u0662\n", 2, 3, "'\u0662' is not an integer"),
        ("3\n+1 2\n", 2, 1, "'\\+1' is not an integer"),
        ("1_0\n", 1, 1, "vertex count '1_0' is not an integer"),
        ("vertices 1 \uff12\n", 1, 12, "'\uff12' is not an integer"),
        ("3\n-1 2\n", 2, 1, "unknown vertex label -1"),
        ("vertices 2 -1\n", 1, 12, "got -1"),
    ], ids=["unknown-after-blank", "unknown-indented", "self-loop", "after-comment", "negative-count",
            "count-above-cap", "label-above-cap", "text-seen-earlier-on-line", "underscore-label",
            "arabic-indic-label", "plus-sign-label", "underscore-count", "fullwidth-header-label",
            "negative-edge-label", "negative-header-label"])
    def test_graph_errors_report_their_own_line_and_column(self, text, line, column, message):
        with pytest.raises(FormatError, match=message) as err:
            parse_edge_list(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value).startswith(f"line {line}, column {column}: ")


class TestGraph6:
    def test_single_edge(self):
        assert parse_graph6("A_") == Graph(2, [(1, 2)])

    def test_triangle(self):
        assert parse_graph6("Bw") == complete_graph(3)

    def test_path_four(self):
        assert parse_graph6("Ch") == path_graph(4)

    def test_five_vertex_sample(self):
        assert parse_graph6("DQc") == Graph(5, [(1, 3), (1, 5), (2, 4), (4, 5)])

    def test_partition_demo_graph(self):
        assert parse_graph6("GXKW?C") == fig4a()

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<A_") == Graph(2, [(1, 2)])

    def test_truncated_body_rejected(self):
        with pytest.raises(FormatError, match="body"):
            parse_graph6("C")

    def test_byte_out_of_range_rejected(self):
        # \x1f is a control character, not whitespace to strip: it is the byte at column 2
        with pytest.raises(FormatError, match=r"^line 1, column 2: byte '\\x1f' outside graph6 range$"):
            parse_graph6("A\x1f")

    def test_byte_above_the_range_reports_its_column(self):
        # the byte past the top of the range, as "A\x1f" above is the one below it
        with pytest.raises(FormatError, match=r"^line 1, column 2: byte '\\x7f' outside graph6 range$"):
            parse_graph6("A\x7f")

    def test_eight_byte_size_form_rejected(self):
        with pytest.raises(FormatError, match="^line 1, column 1: unsupported graph6 size encoding$"):
            parse_graph6("~~??????")

    def test_read_graph_dispatch(self):
        assert read_graph("A_", "g6") == Graph(2, [(1, 2)])
        assert read_graph("2\n1 2\n", "edges") == Graph(2, [(1, 2)])
        with pytest.raises(ValueError):
            read_graph("A_", "gml")


class TestAgainstRegexReferences:
    """The str-method field split and ``parse_decimal`` against the ``re`` forms they replaced."""

    @staticmethod
    def reference_fields(line):
        return [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line.split("#", 1)[0])]

    @staticmethod
    def reference_decimal(text):
        if not re.fullmatch(r"-?[0-9]+", text):
            raise ValueError(f"invalid decimal integer {text!r}")
        return int(text)

    def test_isspace_is_the_regex_whitespace_on_every_code_point(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        kept = "".join(c for c in every if not c.isspace())
        assert re.sub(r"\s", "", every) == kept == "".join(every.split())

    @given(st.text(alphabet="12 -#x\t\x1c\x1d\x1e\x1f\x85　 ٦２_+vertices\n", max_size=40))
    def test_fields_columns_and_errors_match(self, text):
        for line in text.splitlines():
            assert graphmin_io._fields(line) == self.reference_fields(line)
        for word in text.split():
            want = got = None
            try:
                want = self.reference_decimal(word)
            except ValueError as exc:
                want = str(exc)
            try:
                got = graphmin_io.parse_decimal(word)
            except ValueError as exc:
                got = str(exc)
            assert got == want
        with pytest.MonkeyPatch.context() as patch:
            want = self.parsed(text)
            patch.setattr(graphmin_io, "_fields", self.reference_fields)
            patch.setattr(graphmin_io, "parse_decimal", self.reference_decimal)
            assert self.parsed(text) == want

    @staticmethod
    def parsed(text):
        try:
            return parse_edge_list(text)
        except FormatError as exc:
            return str(exc)
