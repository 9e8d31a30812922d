#!/usr/bin/env python3
"""Standing mutant table: small wrong edits of graphmin that named tests must catch.

Run from the repository root:

    python tools/mutants.py

Each mutant names a file, an exact old text, the new text that replaces it
and the test ids that must fail. The script copies the repository to a
temporary directory and first runs every listed id on the unchanged copy,
where each must pass, so a misspelled id or a failing test is not counted
as a kill. Then, for each mutant, it replaces the old text in the copy,
runs pytest on that mutant's ids alone and puts the file back. A listed id
of a parametrized test counts as failed when one of its cases fails.

It exits 1 when an old text is not found exactly once, when a listed test
fails on the unchanged copy, or when a mutant survives: some listed test
did not fail.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
AS_GIVEN = "tests/test_foliage.py::TestUncheckedBuilds::test_members_are_checked_as_given"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    kills: tuple[str, ...]


MUTANTS = (
    Mutant("Partition checks its members after a set merged them", "src/graphmin/foliage.py",
           "        for members in map(tuple, blocks):\n",
           "        for members in map(frozenset, blocks):\n",
           (f"{AS_GIVEN}[Partition-True]", f"{AS_GIVEN}[Partition-1.0]")),
    Mutant("classify_block checks its members after a set merged them", "src/graphmin/foliage.py",
           "    members = list(block)\n",
           "    members = set(block)\n",
           (f"{AS_GIVEN}[classify_block-True]", f"{AS_GIVEN}[classify_block-1.0]")),
    Mutant("source_reduce checks its labels after a set merged them", "src/graphmin/reduction.py",
           "    protected = list(protected)\n",
           "    protected = set(protected)\n",
           (f"{AS_GIVEN}[source_reduce-True]", f"{AS_GIVEN}[source_reduce-1.0]")),
    Mutant("Graph equality ignores the alive labels", "src/graphmin/graph.py",
           '    __slots__ = ("_rows", "_alive")\n',
           '    __slots__ = ("_rows", "_alive")\n\n'
           "    def __eq__(self, other):\n"
           "        return other.__class__ is self.__class__ and self._rows == other._rows\n",
           ("tests/test_graph.py::TestLabelIndexedRows::test_equal_rows_on_two_label_sets_are_two_graphs",)),
    Mutant("_graph keeps the whole rows tuple", "src/graphmin/graph.py",
           "rows[:alive.bit_length()]",
           "rows",
           ("tests/test_graph.py::TestValueSemantics::test_rewritten_graph_finds_entry_of_equal_built_graph",
            *(f"tests/test_graph.py::TestLabelIndexedRows::test_every_rewrite_at_label_64_is_the_rewrite_at_label_4"
              f"[{rewrite}]" for rewrite in ("delete", "z", "y", "x")),
            *(f"tests/test_graph.py::TestLabelIndexedRows::test_removing_the_largest_label_equals_the_graph_built"
              f"_directly[{remove}]" for remove in ("delete_vertex", "measure_y", "measure_x", "replay")))),
    Mutant("_live shifts by a negative label", "src/graphmin/graph.py",
           "and v > 0 and mask >> v & 1",
           "and mask >> v & 1",
           ("tests/test_graph.py::TestConstruction::test_an_unknown_label_reads_as_its_repr[negative-Graph-edge]",
            "tests/test_graph.py::TestConstruction::test_an_unknown_label_reads_as_its_repr[negative-has_edge]",
            "tests/test_graph.py::TestConstruction::test_an_unknown_label_reads_as_its_repr"
            "[negative-measure_x-neighbor]",
            "tests/test_graph.py::TestConstruction::test_an_unknown_label_reads_as_its_repr[negative-replay]",
            "tests/test_graph.py::TestLabelIndexedRows::test_has_vertex_is_false_outside_the_labels[-1]",
            "tests/test_graph.py::TestLabelIndexedRows::test_a_negative_label_is_unknown")),
    Mutant("_is_int takes a bool for an int", "src/graphmin/graph.py",
           "    return isinstance(v, int) and not isinstance(v, bool)\n",
           "    return isinstance(v, int)\n",
           ("tests/test_bell.py::TestQueryValidation::test_endpoints_must_be_int_labels",
            "tests/test_quantum.py::TestMeasurements::test_rejects_an_outcome_that_is_not_an_int_of_plus_or_minus_one",
            "tests/test_minor.py::TestSourceReduce::test_non_integer_protected_label_raises",
            "tests/test_graph.py::TestConstruction::test_rejects_bool_label")),
    Mutant("_step rewrites at a label that is not alive", "src/graphmin/graph.py",
           "    if not _live(alive, a):\n"
           "        raise _unknown(a)\n"
           '    if kind == "lc":\n',
           '    if kind == "lc":\n',
           ("tests/test_ops.py::test_replay_rejects_dead_target",
            "tests/test_graph.py::TestLocalComplement::test_unknown_vertex",
            "tests/test_graph.py::TestDeletion::test_unknown_vertex")),
    Mutant("replay takes an x step of a non-isolated vertex without its neighbor", "src/graphmin/ops.py",
           "        if step.op == MEASURE_X and step.neighbor is None and rows[step.vertex]:",
           "        if False:",
           ("tests/test_ops.py::test_replay_errors_name_the_bad_step[no-neighbor]",)),
    Mutant("decide_bell_ring skips the gap pair (wrap, arc_p)", "src/graphmin/bell.py",
           "for g in range(4))",
           "for g in range(1, 4))",
           ("tests/test_bell.py::TestRing::test_three_consecutive_exactly_where_the_scan_flags_a_non_crossing_placement",
            "tests/test_bell.py::TestRing::test_agrees_with_brute_force_n6",
            "tests/test_bell.py::test_decisions_match_pinned_digest")),
    Mutant("a Bell extraction measures y along the interior in reverse", "src/graphmin/bell.py",
           "    steps += [Step(MEASURE_Y, v) for v in interior]\n",
           "    steps += [Step(MEASURE_Y, v) for v in reversed(interior)]\n",
           ("tests/test_bell.py::test_decisions_match_pinned_digest",)),
    Mutant("classify_block does not test the foliage relation", "src/graphmin/foliage.py",
           "    if not _one_class(g, members):\n"
           '        raise ValueError(f"block {members} is not a valid foliage class shape")\n',
           "",
           ("tests/test_foliage.py::TestClassifyBlock::test_invalid_block_raises",
            "tests/test_foliage.py::TestClassifyBlock::test_inequivalent_independent_set_raises")),
    Mutant("Partition.block_of finds a label by in, unchecked", "src/graphmin/foliage.py",
           "        if not _is_int(v):  # as given: ``True`` and ``3.0`` are found by ``in``\n"
           "            raise _unknown(v)\n",
           "",
           (f"{AS_GIVEN}[block_of-True]", f"{AS_GIVEN}[block_of-1.0]",
            "tests/test_foliage.py::TestUncheckedBuilds::test_quotient_labels_are_checked[bool-representative]",
            "tests/test_foliage.py::TestUncheckedBuilds::test_quotient_labels_are_checked[float-representative]")),
    Mutant("the state memo is looked up before the cap check", "src/graphmin/quantum.py",
           "    if (n := alive.bit_count()) > STATE_CAP:\n"
           '        raise StateCapError(f"{n} qubits exceeds the dense-state cap of {STATE_CAP}")\n'
           "    return _build(rows, live, alive)\n",
           "    return _capped(rows, live, alive)\n\n\n"
           "@functools.lru_cache(maxsize=16)\n"
           "def _capped(rows, live, alive):\n"
           "    if (n := alive.bit_count()) > STATE_CAP:\n"
           '        raise StateCapError(f"{n} qubits exceeds the dense-state cap of {STATE_CAP}")\n'
           "    return _build(rows, live, alive)\n",
           ("tests/test_quantum.py::TestStateMemo::test_the_cap_is_checked_on_a_cached_state",)),
    Mutant("the state memo key drops the live mask", "src/graphmin/quantum.py",
           "    return _build(rows, live, alive)\n",
           "    return _BY_ROWS.setdefault((rows, alive), _build(rows, live, alive))\n\n\n_BY_ROWS = {}\n",
           ("tests/test_quantum.py::TestStateMemo::test_equal_rows_on_two_label_sets_are_two_states",)),
    Mutant("the ray test reads u's first field as an unsigned byte", "src/graphmin/quantum.py",
           "ufr, ufi = ((ur & top) >> shift ^ 128) - 128, ((ui & top) >> shift ^ 128) - 128",
           "ufr, ufi = (ur & top) >> shift, (ui & top) >> shift",
           ("tests/test_quantum.py::TestSameRay::test_a_multiple_is_on_the_ray",)),
    Mutant("diag(1, d) on a complex state drops the (d - 1) * im1 term", "src/graphmin/quantum.py",
           "im + (dr - 1) * im1 + di * re1",
           "im + di * re1",
           ("tests/test_quantum.py::TestGateKernel::test_matches_kronecker_operator_at_every_bit[diagonal]",)),
    Mutant("the qubit of label v is v - 1", "src/graphmin/quantum.py",
           "    return (alive & (1 << v) - 1).bit_count()\n",
           "    return v - 1\n",
           ("tests/test_quantum.py::TestScatteredLabels::test_x_at_a_vertex_of_four_scattered_labels",
            "tests/test_quantum.py::TestScatteredLabels::test_verdicts_and_corrections_match_the_graph_on_one_to_n",
            "tests/test_quantum.py::TestGraphState::test_bit_identical_on_scattered_labels")),
    Mutant("the search does not refute a graph that isolates a target vertex", "src/graphmin/minor.py",
           "        for v in wired:\n"
           "            if not rows[v]:\n"
           "                return True\n",
           "",
           ("tests/test_minor.py::TestMemoizedSearch::test_a_graph_that_isolates_a_target_vertex_is_not_measured",
            "tests/test_minor.py::TestMemoizedSearch::test_a_source_that_isolates_a_target_vertex_is_a_no_at_once",
            "tests/test_minor.py::TestMemoizedSearch::test_budgets_match_graph_keyed_search",
            "tests/test_minor.py::TestMemoizedSearch::test_budget_never_turns_into_a_wrong_no",
            "tests/test_minor.py::test_decisions_match_pinned_digest")),
    Mutant("a vertex with one neighbor yields a y child", "src/graphmin/graph.py",
           '    if nbrs & nbrs - 1:\n        yield "y"',
           '    if nbrs:\n        yield "y"',
           ("tests/test_ops.py::test_measure_rows_shares_children_only_where_the_search_skips_them",
            "tests/test_ops.py::test_measure_rows_yields_the_distinct_eager_children_on_scattered_labels")),
    Mutant("a vertex with one neighbor yields no x child", "src/graphmin/graph.py",
           '    if nbrs:\n        yield "x"',
           '    if nbrs & nbrs - 1:\n        yield "x"',
           ("tests/test_ops.py::test_measure_rows_shares_children_only_where_the_search_skips_them",
            "tests/test_ops.py::test_measure_rows_yields_the_distinct_eager_children_on_scattered_labels",
            "tests/test_minor.py::TestMemoizedSearch::test_matches_plain_enumeration_on_random_instances",
            "tests/test_minor.py::test_decisions_match_pinned_digest")),
    Mutant("a target with a vertex of two neighbors is taken for its own orbit", "src/graphmin/minor.py",
           "_closure(h._rows, budget) if any(row & row - 1 for row in h._rows) else None",
           "_closure(h._rows, budget) if False else None",
           ("tests/test_minor.py::TestOrbitEntry::test_draws_only_the_members_a_leaf_needs[hit-at-the-root]",
            "tests/test_minor.py::TestLazyOrbit::test_matches_eager_orbit_reference_on_large_orbits",
            "tests/test_minor.py::test_decisions_match_pinned_digest")),
    Mutant("the conflict pairs keep a foliage-equivalent pair", "src/graphmin/minor.py",
           "    return tuple([pair for pair in pairs if not _any_equivalent(h._rows, (pair,))])\n",
           "    return tuple(pairs)\n",
           ("tests/test_minor.py::TestPersistencePruning::test_conflict_check_agrees_with_class_persistence",
            "tests/test_minor.py::TestPersistencePruning::test_decider_matches_plain_enumeration_on_two_pair_placements",
            "tests/test_minor.py::test_decisions_match_pinned_digest")),
    Mutant("a solved block turns the exact test's None into True", "src/graphmin/orbit.py",
           "        verdict = verdict and solved\n",
           "        verdict = solved\n",
           ("tests/test_orbit.py::test_a_block_it_cannot_tell_keeps_the_verdict_none_after_a_solved_block",)),
    Mutant("a negative-number word is read as an option", "src/graphmin/cli.py",
           '    return None if negative or " " in word else (None, None)\n',
           '    return None if " " in word else (None, None)\n',
           ("tests/test_cli_args.py::test_a_negative_number_is_a_value",)),
    Mutant("an ambiguous option prefix is read as its first match", "src/graphmin/cli.py",
           "        if len(hits) > 1:\n"
           "            _usage_error(command, f\"ambiguous option: {word} could match {', '.join(hits)}\")\n",
           "",
           ("tests/test_cli_args.py::test_an_ambiguous_prefix_is_a_usage_error",
            "tests/test_cli_args.py::test_documented_errors_keep_their_text")),
    Mutant("parse_decimal accepts a non-ASCII digit", "src/graphmin/io.py",
           "    if not (digits.isascii() and digits.isdigit()):\n",
           "    if not digits.isdigit():\n",
           ("tests/test_io.py::TestEdgeList::test_graph_errors_report_their_own_line_and_column[arabic-indic-label]",
            "tests/test_io.py::TestEdgeList::test_graph_errors_report_their_own_line_and_column"
            "[fullwidth-header-label]",
            "tests/test_cli.py::TestUsageErrors::test_exit_1_with_usage_on_stderr[arabic-indic-pair]",
            "tests/test_cli.py::TestUsageErrors::test_exit_1_with_usage_on_stderr[fullwidth-vertex]")),
    Mutant("the edge-list field split breaks only on ASCII space", "src/graphmin/io.py",
           '    for field in line.split("#", 1)[0].split():',
           '    for field in line.split("#", 1)[0].split(" "):',
           ("tests/test_io.py::TestAgainstRegexReferences::test_fields_columns_and_errors_match",
            "tests/test_io.py::TestEdgeList::test_comments_and_blank_lines")),
)


def run_tests(copy: Path, ids) -> tuple[int, set[str], str]:
    """Run pytest on ``ids`` in ``copy``, importing its ``src``; the exit code, the failed ids, the output."""
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *ids],
                          cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
                          capture_output=True, text=True)
    return done.returncode, set(re.findall(r"^FAILED (\S+)", done.stdout, re.M)), done.stdout


def failed(listed: str, failures: set[str]) -> bool:
    return any(f == listed or f.startswith(listed + "[") for f in failures)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                                                  ".hypothesis", "*.egg-info"))
        stale = [m for m in MUTANTS if (copy / m.path).read_text().count(m.old) != 1]
        for m in stale:
            print(f"STALE     {m.name}: the old text is not found exactly once in {m.path}")
        if stale:
            return 1
        code, _, out = run_tests(copy, sorted({i for m in MUTANTS for i in m.kills}))
        if code != 0:
            print(out)
            print("BASELINE  a listed test does not pass on the unchanged copy")
            return 1
        survivors = 0
        for m in MUTANTS:
            path = copy / m.path
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            _, failures, out = run_tests(copy, m.kills)
            path.write_text(original)
            passed = [i for i in m.kills if not failed(i, failures)]
            if passed:
                survivors += 1
                print(out)
                print(f"SURVIVED  {m.name}: these listed tests did not fail: {', '.join(passed)}")
            else:
                print(f"killed    {m.name} ({len(failures)} failed)")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
