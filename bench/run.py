#!/usr/bin/env python3
"""Answer-checked benchmark for graphmin.

Run from the repository root:

    python3 bench/run.py --workload lc_orbit --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one table

One process and one client drive a closed loop: each query is sent only
after the previous one returned, until ``--seconds`` have passed and the
current cycle of the workload's query classes is complete. Inputs come from
``--seed`` alone. After the loop every answer is checked against a
reference that does not call the code path under test; a wrong answer, a
witness that does not replay or a broken invariant exits with status 1.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics instead: the workload runs untraced for half the time,
then the same queries run again with spans around every call into the
library, and the slowdown between the two is the tracing overhead. Each
other workload then runs traced for a short slice (at least one full cycle
of its query classes), so every per-layer metric is measured in every
traced run; a metric the named workload produces itself comes from it.

Each workload is a module with a ``Workload(seed, tiny)`` class: ``schedule``
(one cycle of query slots), ``query(i)``, ``warmup(tracer)``, ``run(query,
tracer)``, ``failed(answer)``, ``digest(query, answer)``, ``check(records,
tracer)`` (raises ``CheckFailure``, returns exact counters), ``corrupt(records)``
for the self-tests and ``layer_metrics(...)``.

Answers are checked at the end of each cycle, outside the timed region, and
then dropped, so the benchmark's own memory does not grow with the run.
Throughput is answered queries over the loop's busy time (the sum of query
latencies); the percentiles are over every answered query. Every time
metric is scaled to a reference host speed (``hostspeed.py``): a probe that
graphmin cannot move is timed before the loop and after each window of
queries, and the latencies between two timings are scaled by
``hostspeed.scale`` of the mean probe time of the two; each set-up sample is
scaled by a NumPy-import probe run right after it. The plain figures are
printed above the table. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# BENCHMARK.json lists all but lc_orbit, whose p90 is not steady enough to gate on
# (bench/BENCHMARK.md); it still runs on request and in every traced run.
WORKLOADS = ("lc_orbit", "vm_decide", "quantum_oracle", "cli_readme")
SETUP_SAMPLES = 9  # this process plus eight fresh ones that only set up
WINDOW_S = {"cpu": 0.5, "import": 2.0}  # busy time between two host-speed probes
PROBE_SHARE = 0.1  # probe time per window, as a share of the window's busy time
PROBE_MIN_S = 0.02
SLICE_SHARE = 8  # other workloads' traced slice: whole cycles for run_seconds / SLICE_SHARE
CHILD_TIMEOUT_S = 170
MIN_QUERIES = 100  # a 90th percentile with ten samples beyond it

sys.path[:0] = [str(SRC), str(BENCH)]
os.environ.pop("GRAPHMIN_BUDGET", None)  # the library's default budgets apply

import hostspeed  # noqa: E402
from common import median, ms, p90  # noqa: E402
from refs import CheckFailure  # noqa: E402
from tracing import NoTracer, Tracer  # noqa: E402


@dataclass
class Loop:
    latencies: list = field(default_factory=list)  # seconds, answered queries only
    scaled: list = field(default_factory=list)  # the same at reference host speed
    failures: list = field(default_factory=list)  # (query, kind)
    counters: Counter = field(default_factory=Counter)  # exact counters from the checks
    records: list = field(default_factory=list)  # (query, digest), kept only when asked
    attempted: int = 0

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def scaled_busy(self) -> float:
        return sum(self.scaled)


def setup(name: str, seed: int, tiny: bool = False):
    """Import the workload (and with it the library), make its inputs and warm up."""
    start = time.perf_counter()
    wl = importlib.import_module(name).Workload(seed, tiny)
    lib = sys.modules.get("graphmin")
    if lib is not None and not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"graphmin imported from {lib.__file__}, not from {SRC}")
    wl.warmup(NoTracer())
    return wl, time.perf_counter() - start


def scaled_setup(seconds: float) -> float:
    """A set-up time at reference host speed, by a NumPy-import probe run right after it."""
    return seconds * hostspeed.scale("import", hostspeed.import_seconds(0))


def loop(wl, tr, seconds: float, max_queries: int | None = None, min_queries: int = 0,
         keep: bool = False, corrupt: bool = False) -> Loop:
    """Closed loop over queries 0, 1, 2, ... in whole cycles of the workload's schedule.

    It stops at the first cycle boundary after ``seconds`` and ``min_queries``
    (so after one cycle at least): every run holds the same mix of query
    classes and no heavy query falls off the end. Each cycle's answers are
    checked when it ends, outside the timed region; ``keep`` also keeps them,
    ``corrupt`` changes one before the first check.
    """
    out = Loop()
    cycle = len(wl.schedule)
    pending: list = []
    window: list = []  # latencies since the last host-speed probe
    probe = wl.host_probe
    probe_s = hostspeed.measure(probe, PROBE_MIN_S)
    deadline = time.perf_counter() + seconds

    def close_window():
        nonlocal probe_s
        if not window:
            return
        after = hostspeed.measure(probe, max(PROBE_MIN_S, PROBE_SHARE * sum(window)))
        factor = hostspeed.scale(probe, (probe_s + after) / 2)
        out.scaled += [x * factor for x in window]
        probe_s = after
        window.clear()

    def settle():
        nonlocal corrupt
        if corrupt:
            wl.corrupt(pending)
            corrupt = False
        out.counters.update(wl.check(pending, tr))
        if keep:
            out.records += pending
        pending.clear()

    i = 0
    while max_queries is None or i < max_queries:
        if i and i % cycle == 0:
            settle()
            if i >= min_queries and time.perf_counter() >= deadline:
                break
        q = wl.query(i)
        tr.qid = i
        start = time.perf_counter()
        try:
            answer = tr.call("bench.query", wl.run, q, tr)
        except Exception:  # a failed query is counted, reported, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            out.failures.append((q, "exception"))
        else:
            elapsed = time.perf_counter() - start
            kind = wl.failed(answer)
            if kind:
                out.failures.append((q, kind))
            else:
                out.latencies.append(elapsed)
                window.append(elapsed)
                pending.append((q, wl.digest(q, answer)))
        i += 1
        if window and sum(window) >= WINDOW_S[probe]:
            close_window()
    close_window()
    settle()
    out.attempted = i
    return out


@contextlib.contextmanager
def decide_closure_spans(tr):
    """Wrap the decider's one target-orbit closure per call, in traced runs only."""
    minor = sys.modules.get("graphmin.minor")
    if minor is None:
        yield
        return
    original = minor.lc_orbit_paths
    minor.lc_orbit_paths = lambda *a, **k: tr.call("orbit.lc_orbit_paths", original, *a, **k)
    try:
        yield
    finally:
        minor.lc_orbit_paths = original


def setup_sample_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup-only child failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def closed(wl):
    close = getattr(wl, "close", None)
    return contextlib.closing(wl) if close else contextlib.nullcontext(wl)


def end_to_end(name: str, seed: int, seconds: float, max_queries=None, tiny=False,
               setup_samples=SETUP_SAMPLES, corrupt=False) -> dict:
    wl, setup_s = setup(name, seed, tiny)
    samples = [scaled_setup(setup_s)]
    with closed(wl):
        run = loop(wl, NoTracer(), seconds, max_queries, 0 if tiny else MIN_QUERIES,
                   corrupt=corrupt)
        peak_kb = wl.peak_rss_kb() if hasattr(wl, "peak_rss_kb") else \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples += [scaled_setup(setup_sample_in_child(name, seed)) for _ in range(setup_samples - 1)]
    answered = len(run.latencies)
    print(f"plain figures: queries_per_s {answered / run.busy:.6g} 1/s, "
          f"latency_p50_ms {ms(median(run.latencies)):.6g} ms, "
          f"latency_p90_ms {ms(p90(run.latencies)):.6g} ms, "
          f"scale {run.scaled_busy / run.busy:.4g}")
    metrics = {
        "queries_per_s": (answered / run.scaled_busy, "1/s"),
        "latency_p50_ms": (ms(median(run.scaled)), "ms"),
        "latency_p90_ms": (ms(p90(run.scaled)), "ms"),
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "answered_frac": (answered / run.attempted if run.attempted else 0.0, "frac"),
    }
    return result(run, metrics)


def traced_pass(wl, seconds, max_queries=None):
    tr = Tracer()
    with decide_closure_spans(tr):
        run = loop(wl, tr, seconds, max_queries, keep=True)
    layer = wl.layer_metrics(tr, run.records, run.counters, run.failures)
    for module, busy in tr.self_times().items():
        if busy > 0:
            layer[f"self.{module}_s"] = (busy, "s")
    return tr, run, layer


def per_layer(name: str, seed: int, seconds: float, max_queries=None, tiny=False,
              spans_out: Path | None = None) -> dict:
    metrics: dict = {}
    for other in WORKLOADS:
        if other == name:
            continue
        wl, _ = setup(other, seed, tiny)
        with closed(wl):
            metrics.update(traced_pass(wl, seconds / SLICE_SHARE, max_queries)[2])
    wl, _ = setup(name, seed, tiny)
    with closed(wl):
        plain = loop(wl, NoTracer(), seconds / 2, max_queries, keep=True)
        tr, run, layer = traced_pass(wl, math.inf, plain.attempted)
        if [d for _, d in plain.records] != [d for _, d in run.records]:
            raise CheckFailure("traced and untraced runs of the same queries gave different answers")
    metrics.update(layer)
    metrics["trace.overhead_frac"] = (run.busy / plain.busy - 1.0 if plain.busy else 0.0, "frac")
    if spans_out is not None:
        tr.dump(spans_out)
    return result(run, metrics)


def result(run: Loop, metrics: dict) -> dict:
    return {
        "correct": True,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def print_table(title: str, doc: dict) -> None:
    print(f"== {title}: attempted {doc['attempted']}, failed {doc['failed']}, "
          f"correct {doc['correct']}")
    for key, m in doc["metrics"].items():
        print(f"  {key:<28} {m['value']:>14.6g} {m['unit']}")


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"== {name}: FAILED (exit {proc.returncode})")
            combined["correct"] = False
            status = 1
            continue
        doc = json.loads(lines[-1])
        print_table(name, doc)
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        combined["correct"] &= doc["correct"]
        for key, m in doc["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-queries", type=int, default=None,
                        help="stop after this many queries (exact-count runs)")
    parser.add_argument("--spans", default=None, help="traced runs: write the spans here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "graphmin" / "__init__.py").is_file():
        print(f"error: no graphmin sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        wl, seconds = setup(args.workload, args.seed)
        with closed(wl):
            print(repr(seconds))
        return 0
    try:
        if args.trace:
            doc = per_layer(args.workload, args.seed, args.seconds, args.max_queries,
                            spans_out=Path(args.spans) if args.spans else None)
        else:
            doc = end_to_end(args.workload, args.seed, args.seconds, args.max_queries)
    except CheckFailure as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        return 1
    print_table(args.workload, doc)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
