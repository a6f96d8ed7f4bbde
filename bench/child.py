"""One pass of a benchmark workload, in a fresh process.

    child.py WORKLOAD SEED RESULT_PATH [TRACE_PATH]
    child.py --probe RESULT_PATH
    child.py --cache-status RESULT_PATH

The first statement imports ``tautring.cli``, as a CLI start does; the
moment it returns is the end of set-up.  The workload's operations then run
in the order SEED gives, each judged by its oracle.  The result file holds
the timestamps (CLOCK_MONOTONIC, comparable with the parent's) and one
record per operation.  With TRACE_PATH, the layer functions are wrapped
before the first operation, the per-layer counters go into the result, and
the spans are written to TRACE_PATH.  The exit-time correlator-cache flush
runs after the result is written, so the parent sees it in the exit time.

``--probe`` only imports; ``--cache-status`` reports the correlator disk
cache named by TAUTRING_CACHE_DIR.
"""

import time

T_START = time.monotonic()
import tautring.cli  # noqa: E402,F401  (the import a CLI start pays)
T_READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tautring  # noqa: E402

# An operation slower than this counts as failed.  The slowest operation,
# pairing_matrix(1,4,1), takes about 9 s untraced on one 2.1 GHz Xeon vCPU.
OP_LIMIT_S = 60.0


def _write(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def _cache_status() -> dict:
    from tautring.integrate import wk_cache_status
    status = wk_cache_status()
    root = status["dir"]
    size = 0
    if os.path.isdir(root):
        for name in os.listdir(root):
            path = os.path.join(root, name)
            if os.path.isfile(path):
                size += os.path.getsize(path)
    return {"disk_entries": status["wk_disk_entries"], "disk_bytes": size}


def anon_rss_kib() -> int:
    """Anonymous resident memory of this process.  Unlike ru_maxrss it
    leaves out mapped file pages, whose resident count follows the host's
    page cache rather than this program."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("RssAnon:"):
                return int(line.split()[1])
    raise RuntimeError("no RssAnon in /proc/self/status")


def run_pass(workload: str, seed: int, trace_path: str | None) -> dict:
    import workloads

    tracer = None
    if trace_path:
        from layertrace import LayerTrace
        tracer = LayerTrace()
        tracer.install()
    ops = workloads.build(workload, seed)
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        error = None
        t0 = time.perf_counter()
        try:
            ok = bool(op.check(op.run()))
        except Exception as exc:  # a crash is a failed operation, not a stop
            ok, error = False, repr(exc)
        elapsed = time.perf_counter() - t0
        if elapsed > OP_LIMIT_S:
            ok, error = False, "over the %.0f s limit" % OP_LIMIT_S
        records.append({"op": op.name, "s": elapsed, "ok": ok,
                        "error": error})
    out = {"ops": records}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        with open(trace_path, "w", encoding="utf-8") as fh:
            # the first line names the operations; then one JSON array per
            # span: id (from 0), function, start, end, parent span id,
            # operation index
            fh.write(json.dumps([op.name for op in ops]) + "\n")
            for i, span in enumerate(tracer.spans):
                fh.write(json.dumps((i,) + span) + "\n")
    return out


def main(argv: list[str]) -> int:
    record = {"start": T_START, "ready": T_READY,
              "tautring": os.path.dirname(os.path.realpath(tautring.__file__))}
    if argv[0] == "--probe":
        _write(argv[1], record)
        return 0
    if argv[0] == "--cache-status":
        record.update(_cache_status())
        _write(argv[1], record)
        return 0
    workload, seed, out_path = argv[0], int(argv[1]), argv[2]
    trace_path = argv[3] if len(argv) > 3 else None
    record.update(run_pass(workload, seed, trace_path))
    record["ops_done"] = time.monotonic()
    # every memo cache is still held here, so this is the retained memory
    record["anon_rss_kib"] = anon_rss_kib()
    _write(out_path, record)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
