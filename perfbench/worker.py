"""Run one workload's passes; started by run.py, not by hand.

    worker.py probe <workload> <seed>
        import hyperfield, build the workload's inputs, print "ready".
    worker.py run <workload> <seed> <seconds> <trace>
        run passes for about <seconds> seconds and print one JSON summary.

Each pass runs in a fresh fork of this process, taken after hyperfield is
imported and the workload's fixed inputs are built, so no program state
carries from one pass to the next.  In the fork: draw the pass's seeded
inputs, time reference slices just before the pass, during it (Sampler)
and just after it, time the pass, then check the outputs and send
everything back.  With trace on, every other pass runs with the tracer
installed (in its fork only), so untraced passes of the same run give
the tracing overhead.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

from workloads import FAILED, WORKLOADS, WRONG

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

REF_LOOPS = 4096          # one reference slice, 0.4-0.7 ms on a 2-core Xeon
REF_BRACKET = 20          # slices just before and just after a pass
REF_INTERVAL = 0.02       # seconds between slices during a pass
REF_TABLE = {i: i * 7 % 13 for i in range(64)}
REF_SUM = sum(REF_TABLE.values())


def reference_slice() -> float:
    """Time of one fixed pure-Python loop; no hyperfield code runs.

    A logistic-map recurrence in floats plus a lookup in a small fixed
    dict: bytecode dispatch, float arithmetic and dict access, the mix the
    program spends its time in, allocating nothing but float temporaries.
    """
    t0 = time.perf_counter()
    x, acc, table = 0.3, 0, REF_TABLE
    for i in range(REF_LOOPS):
        x = 3.9 * x * (1.0 - x)
        acc += table[i & 63]
    elapsed = time.perf_counter() - t0
    if acc != REF_LOOPS // 64 * REF_SUM or not 0.0 < x < 1.0:
        raise RuntimeError("reference computation went wrong")
    return elapsed


class Sampler:
    """Runs a reference slice every REF_INTERVAL seconds of a pass.

    Host speed on a shared machine changes within a pass, so slices taken
    only before and after it miss part of the drift; a SIGALRM timer runs
    slices between the program's bytecodes throughout the pass.
    """

    def __init__(self):
        self.times: list[float] = []

    def _tick(self, _signum, _frame):
        self.times.append(reference_slice())

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)


def pass_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def one_pass(wl, seed: int, index: int, traced: bool) -> dict:
    """Body of a forked pass: draw, time, check; returns the pass record."""
    rng = random.Random(pass_seed(seed, index))
    workdir = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    try:
        inputs = wl.draw(rng, workdir)
        tracer = None
        if traced:
            import tracer as tracing
            tracer = tracing.Tracer().install()
        before = [reference_slice() for _ in range(REF_BRACKET)]
        if tracer:
            t0 = time.perf_counter()
            outputs = wl.run(inputs)
            wall = time.perf_counter() - t0
            tracer.uninstall()
            during = []
        else:
            with Sampler() as sampler:
                t0 = time.perf_counter()
                outputs = wl.run(inputs)
                wall = time.perf_counter() - t0
            during = sampler.times
        after = [reference_slice() for _ in range(REF_BRACKET)]
        verdicts = wl.check(inputs, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "traced": traced,
        # the program's own time: the slices taken during the pass are
        # measured and left out
        "wall": wall - sum(during),
        "ref": statistics.mean(before + during + after),
        "attempted": len(verdicts),
        "failed": sum(1 for _n, s, _d in verdicts if s == FAILED),
        "wrong": [f"{n}: {d}" for n, s, d in verdicts if s == WRONG][:5],
        "failed_ops": sorted({n for n, s, _d in verdicts if s == FAILED}),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layer": tracer.metrics() if tracer else None,
        "spans": tracer.spans if tracer else None,
    }


def forked_pass(wl, seed: int, index: int, traced: bool) -> dict:
    """Run one_pass in a child process and return its record."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 0
        try:
            record = one_pass(wl, seed, index, traced)
        except BaseException:
            record = {"error": traceback.format_exc()}
            code = 1
        try:
            with os.fdopen(w, "wb") as fh:
                fh.write(json.dumps(record).encode())
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _pid, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"pass {index} ended with status {status} and no record")
    record = json.loads(data)
    if "error" in record:
        raise RuntimeError(f"pass {index} raised:\n{record['error']}")
    return record


def load(workload: str):
    """Check where hyperfield came from and build the workload."""
    import hyperfield
    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.abspath(hyperfield.__file__).startswith(src + os.sep):
        raise SystemExit(f"hyperfield imported from {hyperfield.__file__}, "
                         f"not from {src}")
    return WORKLOADS[workload]()


def probe(workload: str, seed: int) -> None:
    wl = load(workload)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        wl.draw(random.Random(pass_seed(seed, 0)), workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    wl = load(workload)
    os.makedirs(OUT, exist_ok=True)
    records = []
    start = time.perf_counter()
    while True:
        index = len(records)
        t0 = time.perf_counter()
        rec = forked_pass(wl, seed, index, traced=trace and index % 2 == 1)
        rec["elapsed"] = time.perf_counter() - t0
        records.append(rec)
        # stop before a pass like the last two would overrun the run
        next_cost = max(r["elapsed"] for r in records[-2:])
        if (len(records) >= (2 if trace else 1)
                and time.perf_counter() - start + next_cost > seconds):
            break
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    summary = {
        "passes": len(plain),
        "pass_s": [r["wall"] for r in plain],
        "ref_s": [r["ref"] for r in plain],
        "pass_ref": [r["wall"] / r["ref"] for r in plain],
        "peak_rss_mb": max(r["rss_mb"] for r in plain),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "failed_ops": sorted({n for r in records for n in r["failed_ops"]}),
        "wrong": [w for r in records for w in r["wrong"]][:10],
    }
    if traced:
        layer = {key: statistics.median(r["layer"][key] for r in traced)
                 for key in traced[0]["layer"]}
        traced_s = statistics.median(r["wall"] for r in traced)
        layer["trace.pass_s"] = traced_s
        layer["trace.overhead_s"] = traced_s - statistics.median(summary["pass_s"])
        summary["layer"] = layer
        path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for i, r in enumerate(traced):
                for name, s, e, parent in r["spans"]:
                    fh.write(json.dumps([i, name, s, e, parent]) + "\n")
        summary["spans_file"] = os.path.relpath(path)
    print(json.dumps(summary))


def main(argv: list[str]) -> None:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "probe":
        probe(workload, seed)
    else:
        run(workload, seed, float(argv[3]), argv[4] == "1")


if __name__ == "__main__":
    main(sys.argv[1:])
