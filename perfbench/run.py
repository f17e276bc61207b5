"""curv4 benchmark: one command, three workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload documents --seed 1 --seconds 15 --trace 0

Run from the repository root (any directory works; paths resolve from this
file).  With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics of a traced run instead.  Lines before it give provenance
and a readable summary.  Exit code 0 means the run finished; `correct` is
false when a request raised or its output failed its check.

Each measurement runs in a fresh worker process (worker.py).  Set-up time is
the median over SETUP_SAMPLES fresh processes.  Documents are written to a
scratch directory under perfbench/.work and removed at the end; span dumps of
traced runs go to perfbench/out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oracles", "documents", "exact")

SETUP_SAMPLES = 7
# a whole run, set-up samples included, must end well inside three minutes
DEADLINE_S = 170.0


def _units(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_share")):
        return "frac"
    return "count"


def _worker(args, phase: str, workdir: str, deadline: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--phase", phase,
        "--workdir", workdir,
    ]
    left = deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError("out of time before the measurement could start")
    # a fixed hash seed keeps set and dict iteration order the same in every run
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=left)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker ({phase}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(setups: list, timed: dict) -> dict:
    loop = timed["untraced"]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "req_per_s": loop["req_per_s"],
        "peak_rss_mb": timed["peak_rss_mb"],
    }


_E2E_UNITS = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _terminate(signum, frame):
    # unwinding lets subprocess.run kill and reap the worker and `finally` clean up
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="curv4 benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "curv4", "__init__.py")):
        print(f"perfbench: no curv4 sources under {ROOT}/src; nothing to measure", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            runs = [_worker(args, "trace", workdir, deadline)]
        else:
            runs = [_worker(args, "setup", workdir, deadline) for _ in range(SETUP_SAMPLES - 1)]
            runs.append(_worker(args, "timed", workdir, deadline))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    final = runs[-1]
    print("# provenance " + json.dumps(final["provenance"]))
    if args.trace:
        loops = [final["untraced"], final["traced"]]
        metrics = {k: {"value": v, "unit": _units(k)} for k, v in final["layers"].items()}
        print("# trace " + json.dumps({"trace_file": final["trace_file"]}))
    else:
        loops = [final["untraced"]]
        values = _end_to_end(runs, final)
        metrics = {k: {"value": v, "unit": _E2E_UNITS[k]} for k, v in values.items()}
        setup_keys = ("setup_s", "import_s", "first_request_s")
        print("# setup " + json.dumps([{k: r[k] for k in setup_keys} for r in runs]))
        rss_keys = ("rss_after_import_mb", "rss_before_loop_mb", "peak_rss_mb")
        print("# process " + json.dumps({k: final[k] for k in rss_keys}))
    for loop in loops:
        print("# loop " + json.dumps(loop))
    attempted = sum(loop["attempted"] for loop in loops)
    failed = sum(loop["failed"] for loop in loops)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
