"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload {verify,lattice,vacuum,sweeps}
        --seed N --seconds S --trace {0,1}

Run from the root of a hyperfield source tree; the package is imported
from ./src.  Every child process gets one BLAS/OpenMP thread and
PYTHONHASHSEED=0.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: with --trace 0 the
end-to-end metrics (pass_ref, setup_s, peak_rss_mb), with --trace 1 the
per-layer metrics of a traced run.  The median pass time in seconds is
printed on the line before.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify", "lattice", "vacuum", "sweeps")
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
RUN_TIMEOUT = 170.0

ENV_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

def child_env() -> dict:
    env = dict(os.environ)
    env.update(ENV_PINS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p)
    return env


def setup_seconds(workload: str, seed: int, env: dict) -> float:
    """Fresh interpreter to "ready": import hyperfield, build the inputs."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER, "probe", workload, str(seed)],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return ready


def import_seconds(env: dict) -> dict:
    """Cumulative import times from python -X importtime -c 'import hyperfield'."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import hyperfield"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) * 1e-6
    names = {"numpy_s": "numpy", "scipy_special_s": "scipy.special",
             "hyperfield_s": "hyperfield"}
    return {f"setup.import.{key}": cumulative[mod] for key, mod in names.items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hyperfield", "__init__.py")):
        print(f"error: no hyperfield sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = child_env()
    setups = [setup_seconds(args.workload, args.seed, env)
              for _ in range(SETUP_PROBES)]
    imports = []
    if args.trace:
        imports = [import_seconds(env) for _ in range(IMPORTTIME_PROBES)]
    # the worker and its forked passes share a new process group, so a
    # timeout stops all of them
    with subprocess.Popen([sys.executable, WORKER, "run", args.workload,
                           str(args.seed), str(args.seconds), str(args.trace)],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"error: worker still running after {RUN_TIMEOUT} s",
                  file=sys.stderr)
            return 1
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    s = json.loads(out.strip().splitlines()[-1])

    q = quartiles(s["pass_s"])
    r = quartiles(s["pass_ref"])
    print(f"{args.workload}: {s['passes']} untraced passes; pass_s quartiles "
          f"{q[0]:.4f} {q[1]:.4f} {q[2]:.4f}; pass_ref quartiles "
          f"{r[0]:.1f} {r[1]:.1f} {r[2]:.1f}; reference slice median "
          f"{statistics.median(s['ref_s']) * 1e6:.2f} us; setup probes "
          + " ".join(f"{v:.3f}" for v in setups))
    print("per pass (s / reference us): " + " ".join(
        f"{w:.4f}/{f * 1e6:.2f}" for w, f in zip(s["pass_s"], s["ref_s"])))
    if s["failed_ops"]:
        print("failed operations: " + ", ".join(s["failed_ops"]))
    for line in s["wrong"]:
        print(f"WRONG {line}")

    if args.trace:
        values = dict(s["layer"])
        for key in imports[0]:
            values[key] = statistics.median(i[key] for i in imports)
        print(f"traced pass {values['trace.pass_s']:.4f} s, overhead "
              f"{values['trace.overhead_s']:.4f} s; spans in {s['spans_file']}")
    else:
        values = {"pass_ref": r[1], "setup_s": statistics.median(setups),
                  "peak_rss_mb": s["peak_rss_mb"]}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": not s["wrong"], "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
