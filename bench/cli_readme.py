"""Workload ``cli_readme``: every command of README.md's Command line section.

Each query runs one command as a fresh ``python -m graphmin`` process in the
benchmark's own temporary directory (a copy of ``fixtures/``; ``/tmp/``
paths in the README are redirected into it). Process start and imports
dominate here, so this is the only place where the ``cli`` and ``io`` layers
and the import cost show.

Expected answers are the ones the README and the test suite state. Every
witness a command prints is replayed with the benchmark's own rewrites. A
README command without an entry below is held to exit status 0 only.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import refs
from common import Query, median, ms
from refs import require

NAME = "cli_readme"
ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"
PROBES = 5  # bare-interpreter and import-only processes per traced run
TIMEOUT_S = 60


def _fixture(name: str):
    return refs.parse_edges_text((ROOT / "fixtures" / name).read_text(encoding="utf-8"))


def _line(n: int):
    return refs.adj_from_edges(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def _ring(n: int):
    return refs.adj_from_edges(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])


def _human_witness(out: str) -> list:
    lines = [ln for ln in out.splitlines() if ln.startswith("witness: ")]
    require(len(lines) == 1, "no witness line in the output")
    return json.loads(lines[0][len("witness: "):])


def _replays(source, steps, expect, what: str) -> None:
    got = source
    for s in steps:
        got = refs.apply_step(got, s["op"], s["vertex"], s.get("neighbor"))
    require(got == expect, f"{what}: witness replays to {refs.edges_of(got)}")


def _two_edges(a, b):
    return refs.adj_from_edges(sorted({*a, *b}), [a, b])


def _orbit_list(out: str) -> None:
    members = json.loads(out)["result"]["members"]
    require(len(members) == 11 and len(set(members)) == 11, "fig3 orbit is not 11 members")
    profile = refs.cut_rank_profile(_fixture("fig3.edges"))
    for text in members:
        require(refs.cut_rank_profile(refs.parse_edges_text(text)) == profile,
                "fig3 orbit member with another cut-rank profile")


def _ring_witness(out: str) -> None:
    doc = json.loads(out)
    require(doc["result"]["answer"] == "yes", "ring-8 answer moved")
    _replays(_ring(8), doc["witness"], _two_edges((1, 6), (2, 4)), "ring-8")


def _reduce_protect(out: str) -> None:
    lines = out.splitlines()
    require(lines[:4] == ["vertices 2 4 6 8", "2 8", "4 6", "4 8"], "fig6 reduction moved")
    ops = json.loads(lines[4][len("ops: "):])
    _replays(_fixture("fig6.edges"), ops, refs.parse_edges_text("\n".join(lines[:4])),
             "fig6 reduction")


def _contains(*needles):
    def check(out: str) -> None:
        for needle in needles:
            require(needle in out, f"expected {needle!r} in the output")
    return check


def _all(*checks):
    def check(out: str) -> None:
        for c in checks:
            c(out)
    return check


EXPECTED = {
    "foliage fixtures/fig4a.edges":
        _contains("blocks: {1,2,3} {4,5} {6} {7,8}", "shapes: star clique singleton star"),
    "foliage fixtures/fig4a.edges --level 2": _contains("blocks: {1,2,3,4,5,6} {7,8}"),
    "foliage fixtures/fig4a.edges --dot": _contains("graph foliage {", "b1_2_3 -- b4_5;"),
    "orbit fixtures/fig2.edges": _contains("orbit size: 11"),
    "orbit fixtures/fig3.edges --list --json": _orbit_list,
    "decide fixtures/fig7b.edges fixtures/fig7b_target.edges --witness": _all(
        _contains("answer: yes"),
        lambda out: _replays(_fixture("fig7b.edges"), _human_witness(out),
                             _fixture("fig7b_target.edges"), "fig7b")),
    "decide fixtures/fig7a.edges fixtures/fig7a_target.edges": _contains("answer: no"),
    "bell --topology line --n 6 --pairA 1 2 --pairB 4 6 --witness": _all(
        _contains("answer: yes"),
        lambda out: _replays(_line(6), _human_witness(out), _two_edges((1, 2), (4, 6)),
                             "line-6")),
    "bell --topology line --n 6 --pairA 2 3 --pairB 4 6": _contains("answer: no"),
    "bell --topology line --n 6 --pairA 2 6 --pairB 3 4": _contains("answer: no"),
    "bell --topology line --n 6 --pairA 2 4 --pairB 3 6": _contains("answer: no"),
    "bell --topology tree --graph fixtures/fig8.edges --pairA 1 2 --pairB 5 6":
        _contains("answer: yes"),
    "bell --topology ring --n 8 --pairA 1 6 --pairB 2 4 --witness --json": _ring_witness,
    "reduce fixtures/fig9.edges --replay bell.json": lambda out: require(
        refs.parse_edges_text(out) == _two_edges((1, 6), (2, 4)),
        "ring-8 replay does not land on the edges {1,6} and {2,4}"),
    "reduce fixtures/fig6.edges --protect 2 4 6 8": _reduce_protect,
    "verify-quantum fixtures/fig3.edges --op lc --vertex 2": _contains("lc at 2: pass"),
    "verify-quantum fixtures/fig3.edges --op y --vertex 2": _contains("measure y at 2: pass"),
    "verify-quantum fixtures/fig3.edges --op x --vertex 2 --json": lambda out: require(
        json.loads(out)["result"]["ok"] is True, "x at 2 failed the oracle"),
}


def readme_commands() -> list[tuple[str, list[str], str | None]]:
    """(command, argv, redirect file) for each ``$ graphmin`` line of the Command line section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line", 1)[1].split("\n## ", 1)[0]
    out = []
    for line in section.splitlines():
        if not line.startswith("$ graphmin "):
            continue
        command, _, redirect = line[len("$ graphmin "):].partition(" > ")
        command = command.replace("/tmp/", "")
        require("/" not in redirect.replace("/tmp/", "") and " /" not in command,
                f"README command writes outside its directory: {line}")
        out.append((command, command.split(), redirect.replace("/tmp/", "").strip() or None))
    require(bool(out), "no graphmin commands in README.md's Command line section")
    return out


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GRAPHMIN_BUDGET"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class _RssPopen(subprocess.Popen):
    """A Popen that keeps its own child's peak resident memory (kB) when it reaps it."""

    maxrss_kb = 0

    def _try_wait(self, wait_flags):
        try:
            pid, status, usage = os.wait4(self.pid, wait_flags)
        except ChildProcessError:  # reaped elsewhere; as Popen does, report exit status 0
            return self.pid, 0
        if pid == self.pid:
            self.maxrss_kb = usage.ru_maxrss
        return pid, status


class Workload:
    name = NAME
    host_probe = "import"  # host-speed probe (hostspeed.py) for this workload's latencies

    def __init__(self, seed: int, tiny: bool = False):
        commands = readme_commands()
        # the commands are the README's; the seed only fixes the order they run in
        random.Random(f"{NAME}/{seed}").shuffle(commands)
        self.schedule = commands[:4] if tiny else commands
        WORK.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK))
        shutil.copytree(ROOT / "fixtures", self.workdir / "fixtures")
        self.env = _env()
        self.peak_kb = 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    def _spawn(self, argv, redirect=None):
        with _RssPopen([sys.executable, "-m", "graphmin", *argv], cwd=self.workdir, env=self.env,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            try:
                out, _ = proc.communicate(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        self.peak_kb = max(self.peak_kb, proc.maxrss_kb)
        if redirect:
            (self.workdir / redirect).write_text(out, encoding="utf-8")
        return proc.returncode, out

    def query(self, i: int, stream: str = "main") -> Query:
        command, argv, redirect = self.schedule[i % len(self.schedule)]
        return Query(i, argv[0], (argv, redirect), {"command": command})

    def warmup(self, tr) -> None:
        # the replay command reads the witness file that an earlier command writes
        for command, argv, redirect in readme_commands():
            if redirect:
                self._spawn(argv, redirect)

    def run(self, q: Query, tr):
        argv, redirect = q.payload
        return tr.call(f"cli.{argv[0].replace('-', '_')}", self._spawn, argv, redirect)

    def failed(self, answer) -> str | None:
        return "exit" if answer[0] != 0 else None

    def digest(self, q: Query, answer):
        return answer

    def peak_rss_kb(self) -> int:
        """Largest CLI process so far (other child processes, such as probes, do not count)."""
        return self.peak_kb

    def check(self, records, tr) -> dict:
        for q, (code, out) in records:
            check = EXPECTED.get(q.info["command"])
            if check is not None:
                try:
                    check(out)
                except (ValueError, KeyError, IndexError) as exc:
                    raise refs.CheckFailure(f"{q.info['command']}: unreadable output ({exc})")
        return {}

    def corrupt(self, records) -> None:
        """Change one answer on the benchmark side; the checker must reject the run."""
        for k, (q, (code, out)) in enumerate(records):
            if q.info["command"] in EXPECTED:
                records[k] = (q, (code, ""))
                return

    def _probe_ms(self, code: str) -> float:
        samples = []
        for _ in range(PROBES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=self.workdir, env=self.env,
                           check=True, timeout=TIMEOUT_S)
            samples.append(ms(time.perf_counter() - start))
        return median(samples)

    def layer_metrics(self, tr, records, counters, failures) -> dict:
        start_ms = self._probe_ms("pass")
        out = {
            "cli.python_start_ms": (start_ms, "ms"),
            "cli.import_ms": (self._probe_ms("import graphmin") - start_ms, "ms"),
        }
        for sub in ("foliage", "orbit", "decide", "bell", "reduce", "verify_quantum"):
            out[f"cli.{sub}_ms"] = (ms(median(tr.durations(f"cli.{sub}"))), "ms")
        return out
