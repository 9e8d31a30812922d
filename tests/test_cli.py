import json
import time

import pytest

from graphmin.cli import main

from conftest import FIXTURES


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_input_error(code, out, err, *words):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(word in err for word in words)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestFoliageCommand:
    def test_blocks_and_shapes(self, capsys):
        code, out, _ = run(capsys, "foliage", FIXTURES / "fig4a.edges")
        assert code == 0
        assert "blocks: {1,2,3} {4,5} {6} {7,8}" in out
        assert "star clique singleton star" in out

    def test_json_document(self, capsys):
        code, doc, _ = run_json(capsys, "foliage", FIXTURES / "fig4a.edges")
        assert code == 0
        assert doc["schema"] == 1
        assert doc["command"] == "foliage"
        assert doc["result"]["blocks"] == [[1, 2, 3], [4, 5], [6], [7, 8]]
        assert len(doc["input_digest"]) == 64

    def test_second_level(self, capsys):
        code, doc, _ = run_json(capsys, "foliage", FIXTURES / "fig4a.edges", "--level", "2")
        assert doc["result"]["blocks"] == [[1, 2, 3, 4, 5, 6], [7, 8]]

    def test_huge_level_stops_at_the_fixed_point(self, capsys):
        start = time.perf_counter()
        code, doc, _ = run_json(capsys, "foliage", FIXTURES / "fig4a.edges", "--level", "1000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert doc["result"]["level"] == 1000000000
        assert doc["result"]["blocks"] == [[1, 2, 3, 4, 5, 6], [7, 8]]

    def test_edge_list_error_names_its_line_and_column(self, capsys, tmp_path):
        f = tmp_path / "bad.edges"
        f.write_text("4\n1 2\n2 3\n\n3 99\n")
        assert run(capsys, "foliage", f) == (1, "", "error: line 5, column 3: unknown vertex label 99\n")

    @pytest.mark.parametrize("level", ["0", "-1"])
    def test_level_below_one_exits_1(self, capsys, level):
        code, out, err = run(capsys, "foliage", FIXTURES / "fig4a.edges", "--level", level)
        assert_input_error(code, out, err, "--level")

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "foliage", FIXTURES / "fig4a.edges", "--dot")
        assert code == 0
        assert "graph foliage {" in out
        assert "b1_2_3 -- b4_5;" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "foliage", FIXTURES / "nope.edges")
        assert code == 1 and "error" in err

    def test_directory_input_exits_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "foliage", tmp_path)
        assert_input_error(code, out, err)


class TestOrbitCommand:
    def test_size(self, capsys):
        code, out, _ = run(capsys, "orbit", FIXTURES / "fig2.edges")
        assert code == 0 and "orbit size: 11" in out

    def test_budget_exhaustion_exits_2(self, capsys):
        code, _, err = run(capsys, "orbit", FIXTURES / "fig9.edges", "--budget", "3")
        assert code == 2 and "unknown" in err

    def test_budget_env_is_not_read(self, capsys, monkeypatch):
        # GRAPHMIN_BUDGET once set the default budget; only --budget does now
        monkeypatch.setenv("GRAPHMIN_BUDGET", "3")
        code, out, _ = run(capsys, "orbit", FIXTURES / "fig9.edges")
        assert code == 0 and out.startswith("orbit size: ")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_exits_1(self, capsys, budget):
        code, out, err = run(capsys, "orbit", FIXTURES / "fig9.edges", "--budget", budget)
        assert_input_error(code, out, err, "--budget")

    def test_list_members(self, capsys):
        code, doc, _ = run_json(capsys, "orbit", FIXTURES / "fig2.edges", "--list")
        assert len(doc["result"]["members"]) == 11


class TestDecideCommand:
    def test_yes_with_witness(self, capsys):
        code, doc, _ = run_json(
            capsys, "decide", FIXTURES / "fig7b.edges", FIXTURES / "fig7b_target.edges", "--witness"
        )
        assert code == 0
        assert doc["result"]["answer"] == "yes"
        assert doc["witness"]
        assert doc["result"]["result_graph"].startswith("vertices 1 2 4 5")

    def test_no_still_exits_0(self, capsys):
        code, doc, _ = run_json(
            capsys, "decide", FIXTURES / "fig7a.edges", FIXTURES / "fig7a_target.edges"
        )
        assert code == 0
        assert doc["result"]["answer"] == "no"

    def test_unknown_exits_2(self, capsys):
        code, doc, _ = run_json(
            capsys, "decide", FIXTURES / "fig9.edges", FIXTURES / "fig8.edges", "--budget", "1"
        )
        assert code == 2
        assert doc["result"]["answer"] == "unknown"

    def test_budget_below_one_exits_1(self, capsys):
        code, out, err = run(capsys, "decide", FIXTURES / "fig9.edges", FIXTURES / "fig8.edges",
                             "--budget", "0")
        assert_input_error(code, out, err, "--budget")

    def test_search_budget_from_env_exits_2(self, capsys, tmp_path):
        # a one-member target orbit: only the measurement search spends budget
        # (the budget once came from GRAPHMIN_BUDGET, which is no longer read)
        source, target = tmp_path / "path.edges", tmp_path / "ends.edges"
        source.write_text("12\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 12)))
        target.write_text("vertices 1 12\n")
        code, doc, _ = run_json(capsys, "decide", source, target, "--budget", "3")
        assert code == 2
        assert doc["result"]["answer"] == "unknown" and doc["rule"] == "budget-exhausted"

    def test_trivial_empty_pair(self, capsys, tmp_path):
        f = tmp_path / "point.edges"
        f.write_text("1\n")
        code, doc, _ = run_json(capsys, "decide", f, f, "--witness")
        assert code == 0
        assert doc["result"]["answer"] == "yes"
        assert doc["witness"] == []

    def test_zero_vertex_graphs_decide(self, capsys, tmp_path):
        f = tmp_path / "empty.edges"
        f.write_text("0\n")
        code, doc, _ = run_json(capsys, "decide", f, f, "--witness")
        assert code == 0
        assert doc["result"]["answer"] == "yes"
        assert doc["witness"] == []


class TestBellCommand:
    def test_ring_yes_with_witness(self, capsys):
        code, doc, _ = run_json(
            capsys, "bell", "--topology", "ring", "--n", "8",
            "--pairA", "1", "6", "--pairB", "2", "4", "--witness",
        )
        assert code == 0
        assert doc["result"]["answer"] == "yes"
        assert doc["rule"] == "ring-extraction"
        assert doc["witness"][0] == {"op": "measure_y", "vertex": 5}

    def test_line_no_names_rule(self, capsys):
        code, doc, _ = run_json(
            capsys, "bell", "--topology", "line", "--n", "6",
            "--pairA", "1", "6", "--pairB", "3", "4",
        )
        assert code == 0
        assert doc["result"]["answer"] == "no"
        assert doc["rule"] == "line-nested"

    def test_tree_topology_reads_graph(self, capsys):
        code, doc, _ = run_json(
            capsys, "bell", "--topology", "tree", "--graph", FIXTURES / "fig8.edges",
            "--pairA", "1", "2", "--pairB", "5", "6",
        )
        assert doc["result"]["answer"] == "yes"

    def test_bad_vertex_exits_1(self, capsys):
        code, _, err = run(
            capsys, "bell", "--topology", "line", "--n", "5",
            "--pairA", "1", "2", "--pairB", "4", "9",
        )
        assert code == 1 and "error" in err

    def test_missing_size_exits_1(self, capsys):
        code, _, err = run(
            capsys, "bell", "--topology", "line",
            "--pairA", "1", "2", "--pairB", "4", "5",
        )
        assert code == 1

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_size_below_one_exits_1(self, capsys, n):
        code, out, err = run(
            capsys, "bell", "--topology", "line", "--n", n,
            "--pairA", "1", "2", "--pairB", "4", "5",
        )
        assert_input_error(code, out, err, f"--n must be positive, got {n}")

    def test_tree_without_graph_exits_1(self, capsys):
        code, out, err = run(capsys, "bell", "--topology", "tree", "--pairA", "1", "2", "--pairB", "4", "5")
        assert (code, out, err) == (1, "", "error: --topology tree needs --graph FILE\n")

    def test_size_above_label_cap_exits_1(self, capsys):
        code, out, err = run(
            capsys, "bell", "--topology", "line", "--n", "100",
            "--pairA", "1", "3", "--pairB", "5", "7",
        )
        assert_input_error(code, out, err, "line queries need n <= 64, got 100")


class TestReduceCommand:
    def test_source_reduction(self, capsys):
        code, doc, _ = run_json(
            capsys, "reduce", FIXTURES / "fig6.edges", "--protect", "2", "4", "6", "8"
        )
        assert code == 0
        assert doc["result"]["graph"] == "vertices 2 4 6 8\n2 8\n4 6\n4 8\n"
        assert doc["witness"]

    def test_replay_round_trip_is_byte_identical(self, capsys, tmp_path):
        code, doc, _ = run_json(
            capsys, "bell", "--topology", "ring", "--n", "8",
            "--pairA", "1", "6", "--pairB", "2", "4", "--witness",
        )
        witness_file = tmp_path / "witness.json"
        witness_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "reduce", FIXTURES / "fig9.edges", "--replay", witness_file)
        assert code == 0
        assert out == doc["result"]["result_graph"]

    def test_replay_accepts_bare_step_list(self, capsys, tmp_path):
        witness_file = tmp_path / "steps.json"
        witness_file.write_text('[{"op": "measure_z", "vertex": 2}]')
        code, out, _ = run(capsys, "reduce", FIXTURES / "fig2.edges", "--replay", witness_file)
        assert code == 0
        assert out == "vertices 1 3 4\n1 3\n"

    @pytest.mark.parametrize("witness", [
        "[5]",
        '[{"op": "measure_x", "vertex": 2, "neighbor": "1"}]',
        '[{"op": "measure_x", "vertex": 2, "neighbor": -1}]',
        '[{"op": "lc", "vertex": true}]',
        '[{"op": "lc", "vertex": "2"}]',
        '{"witness": 5}',
    ])
    def test_replay_rejects_malformed_witness(self, capsys, tmp_path, witness):
        witness_file = tmp_path / "bad.json"
        witness_file.write_text(witness)
        code, out, err = run(capsys, "reduce", FIXTURES / "fig2.edges", "--replay", witness_file)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_replay_names_a_negative_neighbor_label(self, capsys, tmp_path):
        witness_file = tmp_path / "bad.json"
        witness_file.write_text('[{"op": "measure_x", "vertex": 2, "neighbor": -1}]')
        code, out, err = run(capsys, "reduce", FIXTURES / "fig9.edges", "--replay", witness_file)
        assert (code, out, err) == (1, "", "error: unknown vertex label -1\n")

    def test_replay_names_a_missing_witness_key(self, capsys, tmp_path):
        witness_file = tmp_path / "doc.json"
        witness_file.write_text('{"schema": 1, "result": {}}')
        code, out, err = run(capsys, "reduce", FIXTURES / "fig2.edges", "--replay", witness_file)
        assert_input_error(code, out, err, "'witness' key")

    def test_replay_of_deeply_nested_json_exits_1(self, capsys, tmp_path):
        witness_file = tmp_path / "deep.json"
        witness_file.write_text("[" * 3000 + "]" * 3000)
        code, out, err = run(capsys, "reduce", FIXTURES / "fig9.edges", "--replay", witness_file)
        assert_input_error(code, out, err, "too deeply")

    def test_replay_from_a_directory_exits_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "reduce", FIXTURES / "fig3.edges", "--replay", tmp_path)
        assert_input_error(code, out, err)

    def test_decide_witness_round_trip_is_byte_identical(self, capsys, tmp_path):
        code, doc, _ = run_json(
            capsys, "decide", FIXTURES / "fig7b.edges", FIXTURES / "fig7b_target.edges", "--witness"
        )
        witness_file = tmp_path / "decide.json"
        witness_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "reduce", FIXTURES / "fig7b.edges", "--replay", witness_file)
        assert code == 0
        assert out == doc["result"]["result_graph"]


class TestVerifyQuantumCommand:
    def test_lc(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify-quantum", FIXTURES / "fig3.edges", "--op", "lc", "--vertex", "2"
        )
        assert code == 0 and doc["result"]["ok"] is True

    def test_measurement_reports_corrections(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify-quantum", FIXTURES / "fig3.edges", "--op", "y", "--vertex", "2"
        )
        assert code == 0
        assert doc["result"]["ok"] is True
        assert set(doc["result"]["corrections"]) == {"y+", "y-"}

    def test_isolated_x_has_no_byproduct_and_an_impossible_outcome(self, capsys, tmp_path):
        f = tmp_path / "two.edges"
        f.write_text("2\n")
        code, out, err = run(capsys, "verify-quantum", f, "--op", "x", "--vertex", "1")
        assert (code, err) == (0, "")
        assert out == "measure x at 1: pass\n  x+: correction none\n  x-: outcome has probability 0\n"

    def test_vertex_out_of_range_exits_1(self, capsys):
        code, _, err = run(
            capsys, "verify-quantum", FIXTURES / "fig3.edges", "--op", "z", "--vertex", "7"
        )
        assert code == 1

    def test_unknown_lc_vertex_names_the_label(self, capsys):
        code, out, err = run(
            capsys, "verify-quantum", FIXTURES / "fig3.edges", "--op", "lc", "--vertex", "99"
        )
        assert (code, out, err) == (1, "", "error: unknown vertex label 99\n")

    def test_state_cap_exits_1_with_one_error_line(self, capsys, tmp_path):
        f = tmp_path / "path13.edges"
        f.write_text("13\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 13)))
        code, out, err = run(capsys, "verify-quantum", f, "--op", "z", "--vertex", "1")
        assert (code, out, err) == (1, "", "error: 13 qubits exceeds the dense-state cap of 12\n")

    def test_exhausted_correction_search_exits_1(self, capsys, monkeypatch):
        import graphmin.quantum as quantum

        def exhausted(*args):
            raise quantum.CorrectionSearchExhausted("no local byproduct matches")

        monkeypatch.setattr(quantum, "_corrections", exhausted)
        code, out, err = run(capsys, "verify-quantum", FIXTURES / "fig3.edges",
                             "--op", "x", "--vertex", "2")
        assert (code, out, err) == (1, "", "error: no local byproduct matches\n")


class TestUsageErrors:
    """Malformed command lines exit 1 like other input errors; 2 means unknown."""

    @pytest.mark.parametrize("argv", [
        ["decide", FIXTURES / "fig9.edges"],
        [],
        ["verify-quantum", FIXTURES / "fig3.edges", "--op", "x", "--vertex", "2",
         "--tolerance", "-1e-9"],
        ["orbit", FIXTURES / "fig9.edges", "--budget", "-1e3"],
        ["orbit", FIXTURES / "fig9.edges", "--budget", "1_000"],
        ["bell", "--topology", "line", "--n", "6", "--pairA", "4", "\u0666", "--pairB", "1", "2"],
        ["foliage", FIXTURES / "fig9.edges", "--level", " 2"],
        ["reduce", FIXTURES / "fig6.edges", "--protect", "2", "+4"],
        ["verify-quantum", FIXTURES / "fig3.edges", "--op", "x", "--vertex", "\uff12"],
    ], ids=["decide-without-target", "no-command", "negative-tolerance-read-as-option",
            "negative-budget-read-as-option", "underscore-budget", "arabic-indic-pair", "blank-in-level",
            "plus-sign-protect", "fullwidth-vertex"])
    def test_exit_1_with_usage_on_stderr(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        assert captured.err.startswith("usage: graphmin")
        assert "error: " in captured.err.splitlines()[-1]


class TestFormats:
    def test_g6_input(self, capsys, tmp_path):
        f = tmp_path / "t.g6"
        f.write_text("Bw\n")
        code, out, _ = run(capsys, "orbit", f, "--format", "g6")
        assert code == 0 and "orbit size: 4" in out
