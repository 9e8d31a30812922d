"""Host-speed probes: fixed jobs, timed beside the program, that graphmin cannot move.

On a shared virtual machine the same code runs up to 1.5 times faster or
slower from one minute to the next, and process CPU time changes with it.
Two independent states of the host matter here, so there are two probes:

* ``cpu``: a pure-Python job (graph rewrites on bitmasks, then short-lived
  containers), about 1 ms. It is timed between short windows of in-process
  queries.
* ``import``: a fresh interpreter importing NumPy, timed from inside it.
  Loading large extension modules follows a state of its own (page faults,
  relocations, library start-up) that the CPU job barely sees. It is timed
  after each set-up sample and between windows of CLI processes.

A time measured next to a probe that took ``t`` is scaled to a reference
host, on which the probe takes ``REF_S[kind]``, by ``(REF_S[kind] / t) **
ELASTICITY``. A change to graphmin cannot move a probe, so a scaled figure
moves with the program by the same share as the plain one does.

The probes feel the host's state more than graphmin does. On the baseline
machine the log of a set-up time moved by 0.62 times the log of the NumPy
import time next to it (311 fresh processes, correlation 0.75), and query
throughput by 0.68 to 0.70 times the log of the CPU job's time (three sets
of five 36-s runs). With an exponent of 1 the scaling overshoots, hence
``ELASTICITY``.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

REF_S = {"cpu": 0.001, "import": 0.1}  # probe times on the reference host
ELASTICITY = 0.6  # share of a probe's speed change that graphmin's times follow
MIN_JOBS = 5
TIMEOUT_S = 60
_N = 12
_FULL = (1 << _N) - 1
_IMPORT_PROBE = "import time\nstart = time.perf_counter()\nimport numpy\nprint(time.perf_counter() - start)"


def job() -> int:
    """Local complementations on a 12-vertex bitmask graph, then short-lived containers.

    Dict rows of int masks, bit tricks, tuple hashing, and tuples, lists and
    frozensets made and dropped: the interpreter and allocator work that
    dominates graphmin's kernels and the Python side of its NumPy calls.
    """
    rows = {v: ((v * 2654435761) >> 7) & _FULL & ~(1 << v) for v in range(_N)}
    for v in range(_N):  # symmetrize
        for u in range(_N):
            if rows[v] >> u & 1:
                rows[u] |= 1 << v
    seen = set()
    acc = 0
    for step in range(75):
        a = (step * 7) % _N
        nb = rows[a]
        for u in range(_N):
            if nb >> u & 1:
                rows[u] ^= nb & ~(1 << u)
        key = tuple(sorted(rows.items()))
        seen.add(hash(key))
        acc ^= sum(m.bit_count() for m in rows.values())
    table = {}
    for i in range(150):
        t = tuple(range(i % 17, i % 17 + 12))
        table[t] = [x * 3 for x in t]
        acc += len(frozenset(t[::2]) | frozenset(t[1::3])) + sum(table[t][:4])
    return acc + len(seen) + len(sorted(table, key=lambda t: (t[-1], t[0])))


def cpu_seconds(budget_s: float) -> float:
    """Mean time of one job over ``budget_s`` seconds of jobs (at least MIN_JOBS).

    The mean, not the median: a query's latency takes in the host's
    interruptions too, so the job's time must take them in the same way.
    """
    jobs = 0
    start = time.perf_counter()
    deadline = start + budget_s
    while jobs < MIN_JOBS or time.perf_counter() < deadline:
        job()
        jobs += 1
    return (time.perf_counter() - start) / jobs


def import_seconds(budget_s: float) -> float:
    """Mean NumPy import time of fresh interpreters, started until ``budget_s`` has passed."""
    times = []
    deadline = time.perf_counter() + budget_s
    while not times or time.perf_counter() < deadline:
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=Path(__file__).parent,
                              capture_output=True, text=True, check=True, timeout=TIMEOUT_S)
        times.append(float(proc.stdout))
    return sum(times) / len(times)


def measure(kind: str, budget_s: float) -> float:
    return {"cpu": cpu_seconds, "import": import_seconds}[kind](budget_s)


def scale(kind: str, probe_s: float) -> float:
    """Factor that takes a time measured next to a probe of ``probe_s`` to the reference host."""
    return (REF_S[kind] / probe_s) ** ELASTICITY
