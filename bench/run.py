"""Fresh-process benchmark of tautring.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root; the package is imported from ``src/``.
Every module-level memo cache in tautring lives for one process, so each
pass of a workload runs in a fresh child process (``bench/child.py``), one
at a time: a closed loop with one client.  Passes repeat until S seconds
have gone by; the metrics are medians over the passes of the run.

``--trace 0`` reports the end-to-end metrics of the untraced passes.
``--trace 1`` runs untraced passes for S/2 seconds as the reference, then
one traced pass, and reports the per-layer metrics; the spans of the traced
pass go to ``.bench_work/trace-<workload>.jsonl``.  The last line of
standard output is one JSON object; the lines before it are for people.
``--workload all`` runs every workload untraced and prints every
end-to-end metric, ``failed_frac`` included.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("paper_checks", "pairing_ranks", "correlators_cold",
             "correlators_warm")

# Import-only children per run, for the set-up time.
PROBES = 10
# A run must end within 180 s; no child may run past this.
RUN_LIMIT_S = 170.0
# Per-run seeds of the passes: pass i uses seed * SEED_STRIDE + i.
SEED_STRIDE = 1000

# The bounded metrics.  peak_rss_mib (ru_maxrss) and failed_frac are
# printed too; ru_maxrss counts mapped file pages, whose resident share
# follows the host's page cache, so anon_rss_mib is the bounded one.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "anon_rss_mib": "MiB"}
PRINTED = dict(END_TO_END, peak_rss_mib="MiB")


class Child:
    """Measurements of one finished child process."""

    def __init__(self, cache: Path, spawn: float, exited: float, rusage,
                 status: int, record: dict | None) -> None:
        self.cache = cache
        self.record = record or {}
        self.ok = status == 0 and record is not None and \
            Path(self.record.get("tautring", "")) == SRC / "tautring"
        self.setup_s = self.record.get("ready", exited) - spawn
        self.wall_s = exited - self.record.get("ready", spawn)
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.peak_rss_mib = rusage.ru_maxrss / 1024.0
        self.anon_rss_mib = self.record.get("anon_rss_kib", 0) / 1024.0
        self.import_s = self.record.get("ready", 0.0) - \
            self.record.get("start", 0.0)
        self.exit_s = exited - self.record.get("ops_done", exited)
        ops = self.record.get("ops", [])
        # a child that crashed or was killed counts as one failed operation
        self.attempted = len(ops) if self.ok else len(ops) + 1
        self.failed = sum(not op["ok"] for op in ops) + (not self.ok)


def spawn(args: list[str], out: Path, cache: Path, deadline: float,
          log: Path) -> Child:
    """Run ``child.py *args`` to completion, killing it at ``deadline``;
    ``out`` is the result path the child writes."""
    env = dict(os.environ, PYTHONPATH=str(SRC), TAUTRING_CACHE_DIR=str(cache))
    out.unlink(missing_ok=True)
    with open(log, "ab") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py")]
                                + args, env=env, stdin=subprocess.DEVNULL,
                                stdout=err, stderr=err, cwd=str(ROOT))
    timer = threading.Timer(max(0.0, deadline - start),
                            os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        exited = time.monotonic()
    finally:
        timer.cancel()
        timer.join()
    # reap with wait4 for this child's own rusage
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = None
    if proc.returncode == 0 and out.exists():
        record = json.loads(out.read_text(encoding="utf-8"))
    return Child(cache, start, exited, rusage, proc.returncode, record)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Run:
    """One run of one workload: its work directory, deadline and children."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.dir = WORK / ("run-%s-%d-%d" % (workload, seed, os.getpid()))
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.log = self.dir / "children.log"
        self.count = 0
        self.warm_cache: Path | None = None

    def cache(self) -> Path:
        """An empty correlator cache, or the filled one for the warm runs."""
        if self.warm_cache is not None:
            return self.warm_cache
        self.count += 1
        return self.dir / ("cache-%d" % self.count)

    def probe(self) -> Child:
        out = self.dir / "probe.json"
        return spawn(["--probe", str(out)], out, self.dir / "probe-cache",
                     self.deadline, self.log)

    def pass_(self, index: int, trace: Path | None = None,
              workload: str | None = None) -> Child:
        out = self.dir / "pass.json"
        args = [workload or self.workload,
                str(self.seed * SEED_STRIDE + index), str(out)]
        if trace is not None:
            args.append(str(trace))
        return spawn(args, out, self.cache(), self.deadline, self.log)

    def prepare(self) -> list[Child]:
        """For correlators_warm, fill the cache that every pass reads, by
        one cold pass of the code under test."""
        if self.workload != "correlators_warm":
            return []
        self.warm_cache = self.dir / "warm-cache"
        return [self.pass_(SEED_STRIDE - 1, workload="correlators_cold")]

    def cache_status(self, cache: Path) -> Child:
        out = self.dir / "status.json"
        return spawn(["--cache-status", str(out)], out, cache, self.deadline,
                     self.log)

    def passes(self, seconds: float) -> list[Child]:
        """Untraced passes, one after another, until ``seconds`` have gone
        by; at least one."""
        t0 = time.monotonic()
        out = [self.pass_(0)]
        while time.monotonic() - t0 < seconds and out[-1].ok:
            out.append(self.pass_(len(out)))
        return out

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool
                 ) -> tuple[dict, list[str]]:
    """One run; returns the JSON result and lines for people."""
    run = Run(workload, seed)
    try:
        run.probe()  # compiles the bytecode on the first run in a checkout
        probes = [run.probe() for _ in range(PROBES)]
        prep = run.prepare()
        if trace:
            children = run.passes(seconds / 2)
            spans = WORK / ("trace-%s.jsonl" % workload)
            traced = run.pass_(len(children), spans)
            status = run.cache_status(traced.cache)
            measured = children + [traced]
        else:
            children = run.passes(seconds)
            measured = children
        every = probes + prep + measured
        attempted = sum(c.attempted for c in prep + measured)
        failed = sum(c.failed for c in prep + measured)
        correct = failed == 0 and all(c.ok for c in every)
        lines = []
        for c in prep + measured:
            for op in c.record.get("ops", []):
                if not op["ok"]:
                    lines.append("FAILED %s: %s" % (op["op"], op["error"]))
        if trace:
            metrics = dict(traced.record.get("layers", {}))
            metrics["integrate.wk_cache.disk_entries"] = \
                status.record.get("disk_entries", 0)
            metrics["integrate.wk_cache.disk_bytes"] = \
                status.record.get("disk_bytes", 0)
            metrics["integrate.exit_s"] = statistics.median(
                c.exit_s for c in children)
            metrics["cli.import_s"] = statistics.median(
                c.import_s for c in probes)
            metrics["trace_overhead"] = traced.wall_s / statistics.median(
                c.wall_s for c in children)
            units = {name: _layer_unit(name) for name in metrics}
            lines.append("%s: %d untraced passes, 1 traced; spans in %s"
                         % (workload, len(children), spans.relative_to(ROOT)))
        else:
            samples = {
                "wall_s": [c.wall_s for c in children],
                "cpu_s": [c.cpu_s for c in children],
                "setup_s": [c.setup_s for c in probes + children],
                "anon_rss_mib": [c.anon_rss_mib for c in children],
            }
            metrics = {name: statistics.median(v)
                       for name, v in samples.items()}
            units = END_TO_END
            samples["peak_rss_mib"] = [c.peak_rss_mib for c in children]
            lines.append("%s: %d passes, %d set-ups" % (
                workload, len(children), len(samples["setup_s"])))
            for name, v in samples.items():
                q1, q3 = quartiles(v)
                lines.append("  %-13s median %.4f %s  (q1 %.4f, q3 %.4f, n=%d)"
                             % (name, statistics.median(v), PRINTED[name],
                                q1, q3, len(v)))
            lines.append("  %-13s %.4f  (%d of %d operations)" % (
                "failed_frac", failed / max(attempted, 1), failed,
                attempted))
    finally:
        run.close()
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".disk_bytes"):
        return "B"
    if name.endswith((".useful_ratio", "trace_overhead")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tautring" / "cli.py").is_file():
        print("no tautring package under %s" % SRC, file=sys.stderr)
        return 2
    src_lines = sum(len(path.read_bytes().splitlines())
                    for path in (SRC / "tautring").glob("*.py"))
    print("python %s, %d CPUs, src/tautring %d lines"
          % (sys.version.split()[0], os.cpu_count(), src_lines))
    if args.workload == "all":
        results = {}
        for workload in WORKLOADS:
            result, lines = run_workload(workload, args.seed, args.seconds,
                                         bool(args.trace))
            print("\n".join(lines), flush=True)
            results[workload] = result
        print(json.dumps(results))
        return 0
    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
