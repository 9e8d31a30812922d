"""Self-tests of the benchmark harness (run: python3 -m pytest bench/tests -q)."""

from __future__ import annotations

import collections
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from refs import CheckFailure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
EXACT_COUNTERS = ("orbit.members", "ops.replay_steps", "quantum.checks", "minor.assignments")


def test_spec_names_the_workloads_run_knows():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == [w for w in run.WORKLOADS if w in names]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_smoke_run(name):
    doc = run.end_to_end(name, seed=5, seconds=0, tiny=True, setup_samples=1)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_untraced_loop_checks_every_cycle_and_keeps_no_answers():
    wl, _ = run.setup("lc_orbit", seed=5, tiny=True)
    done = run.loop(wl, run.NoTracer(), seconds=math.inf, max_queries=3 * len(wl.schedule))
    assert done.records == [] and len(done.latencies) == done.attempted
    assert len(done.scaled) == len(done.latencies)  # every latency has a host-speed scale
    assert done.counters["orbit.members"] == 3 * sum(wl.orbit_sizes.values())


def test_tiny_traced_run_reports_every_layer_metric():
    doc = run.per_layer("vm_decide", seed=5, seconds=0, tiny=True)
    assert set(doc["metrics"]) == PER_LAYER


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corrupted_answer_fails_the_run(name):
    with pytest.raises(CheckFailure):
        run.end_to_end(name, seed=5, seconds=0, tiny=True, setup_samples=1, corrupt=True)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_new_seed_changes_inputs_but_not_the_mix(name):
    module = importlib.import_module(name)
    cycles = []
    for seed in (1, 2):
        wl = module.Workload(seed)
        try:
            cycles.append([wl.query(i) for i in range(len(wl.schedule))])
        finally:
            getattr(wl, "close", lambda: None)()
    first, second = cycles
    assert [q.payload for q in first] != [q.payload for q in second]
    assert collections.Counter(q.cls for q in first) == collections.Counter(q.cls for q in second)


@pytest.mark.parametrize("name, queries", [("lc_orbit", 9), ("vm_decide", 28),
                                           ("quantum_oracle", 12)])
def test_exact_counters_repeat_at_one_seed(name, queries):
    counts = []
    for _ in range(2):
        wl, _ = run.setup(name, seed=7)
        _, done, layer = run.traced_pass(wl, seconds=math.inf, max_queries=queries)
        assert done.attempted == queries
        counts.append({k: layer[k][0] for k in EXACT_COUNTERS if k in layer})
    assert counts[0] and counts[0] == counts[1]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lc_orbit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
