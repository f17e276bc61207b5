"""One benchmark process: set-up, then a closed loop of requests, untraced or traced.

Run by run.py, one fresh process per set-up sample, so that `import curv4` is
timed cold, before anything else of the benchmark has imported numpy.

    python3 perfbench/worker.py --workload documents --seed 1 --seconds 30 \
        --phase timed --workdir perfbench/.work/x

Phases: `setup` measures set-up only; `timed` adds the untraced loop; `trace`
runs half the time untraced and half traced, with probes, and dumps the spans.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

import spans  # stdlib only: importing it loads no numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# documents written per measured second; a faster program cycles through them
POOL_PER_SECOND = {"oracles": 2, "documents": 200, "exact": 200}
MIN_POOL = 64


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Outcome of one closed loop: one client, the next request after the last returns."""

    def __init__(self):
        self.attempted = 0
        self.latencies = []
        self.cpu = []
        self.outcomes = Counter()
        self.first_error = {}
        self.requests = []
        self.elapsed = 0.0

    @property
    def failed(self) -> int:
        return self.attempted - len(self.latencies)


def run_loop(requests, start, seconds, run, check, tracer, probe=None) -> Loop:
    """Issue requests[start:] (cycling) until `seconds` of wall time have passed.

    A request fails when it raises or when its output check fails; either
    makes the run incorrect, since every generated input is valid and inside
    the domain the program handles.  Only completed requests contribute
    latencies, but every request's time counts in the wall time.  Each
    completed request records its wall latency and the process CPU time it
    took (its service time in this one-thread loop).
    """
    loop = Loop()
    began = time.perf_counter()
    i = start
    while True:
        req = requests[i % len(requests)]
        tracer.request_id = i
        i += 1
        state = {}
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with tracer.span(spans.REQUEST):
                run(req, tracer, state)
                with tracer.span("bench.check"):
                    check(req, state)
        # the loop is the boundary that must keep running: any exception a
        # request raises on valid input is recorded as that request's failure
        except Exception as exc:  # noqa: BLE001
            outcome = type(exc).__name__
            loop.first_error.setdefault(outcome, f"{req.kind}: {exc}")
        else:
            loop.latencies.append(time.perf_counter() - t0)
            loop.cpu.append(time.process_time() - c0)
            verdict = state.get("verdict")
            outcome = verdict.verdict if verdict is not None else "ok"
        loop.attempted += 1
        loop.outcomes[f"{req.kind}:{outcome}"] += 1
        loop.requests.append(req)
        if probe is not None:
            probe(req, state, tracer)
        if time.perf_counter() - began >= seconds:
            break
    loop.elapsed = time.perf_counter() - began
    return loop


def _share(requests, attr: str) -> float:
    return sum(1 for r in requests if getattr(r, attr)) / len(requests) if requests else 0.0


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def loop_summary(loop: Loop) -> dict:
    lat_ms = [x * 1e3 for x in loop.latencies]
    cpu_ms = [x * 1e3 for x in loop.cpu]
    completed = len(lat_ms)
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "completed": completed,
        "elapsed_s": loop.elapsed,
        "req_per_s": completed / loop.elapsed,
        "req_mean_ms": statistics.fmean(lat_ms) if lat_ms else 0.0,
        "req_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
        "cpu_p99_ms": _quantile(cpu_ms, 0.99) if cpu_ms else 0.0,
        "wall_p99_ms": _quantile(lat_ms, 0.99) if lat_ms else 0.0,
        "attempt_rate": loop.attempted / loop.elapsed,

        "outcomes": dict(sorted(loop.outcomes.items())),
        "first_error": loop.first_error,
        "input": {
            "a3_gt_1_share": _share(loop.requests, "a3_gt_1"),
            "exact_share": _share(loop.requests, "exact"),
        },
    }


def _rederive_share(tracer) -> float:
    """Model rebuild time over classify time, on requests whose classify returned."""
    classify_s = tracer.by_request("classify.classify")
    rederive_s = tracer.by_request("classify.model_rederive")
    both = classify_s.keys() & rederive_s.keys()
    total = sum(classify_s[k] for k in both)
    return sum(rederive_s[k] for k in both) / total if total else 0.0


def _battery_overhead_ms(tracer) -> float:
    """Mean run_battery time not spent inside its oracle calls (their elapsed_ms)."""
    battery = tracer.durations("cli.battery")
    if not battery:
        return 0.0
    return (sum(battery) * 1e3 - tracer.counts["cli.oracle_ms_in_battery"]) / len(battery)


def layer_metrics(tracer, untraced: dict, traced: dict) -> dict:
    """The per-layer figures of the traced run, keyed by their BENCHMARK.json names."""
    import workloads

    med = tracer.median_ms
    us = tracer.median_us
    c = tracer.counts
    m = {
        "io.load_ms": med("io.load"),
        "bivector.operator_ms": med("bivector.operator"),
        "bivector.decompose_ms": med("bivector.decompose"),
        "bivector.model_space_ms": med("bivector.model_space"),
        "bivector.conjugate_ms": med("bivector.conjugate"),
        "berger.extract_ms": med("berger.extract"),
        "berger.to_operator_ms": med("berger.to_operator"),
        "berger.frame_ms": med("berger.frame"),
        "berger.degenerate_frames": c["berger.degenerate_frames"],
        "berger.frame_sampler_ms": med("berger.frame_sampler"),
        "berger.frame_sampler_peak_mb": tracer.values.get("berger.frame_sampler_peak_mb", 0.0),
        "classify.classify_ms": med("classify.classify"),
        "classify.model_rederive_ms": med("classify.model_rederive"),
        "classify.model_rederive_share": _rederive_share(tracer),
        "classify.verdict.model_data": c["classify.verdict.model_data"],
        "classify.verdict.rigidity_regime": c["classify.verdict.rigidity_regime"],
        "classify.verdict.inconclusive": c["classify.verdict.inconclusive"],
        "classify.domain_errors": c["classify.domain_errors"],
        "classify.wpm_oracle_ms": med("classify.wpm_oracle"),
        "estimates.polytope_ms": med("estimates.polytope"),
        "estimates.polytope_peak_mb": tracer.values.get("estimates.polytope_peak_mb", 0.0),
        "estimates.polytope_infeasible": (
            c["estimates.polytope_infeasible"] / c["cli.battery_passes"]
            if c["cli.battery_passes"]
            else 0.0
        ),
        "estimates.polytope_feasible_frac": (
            1.0 - c["estimates.polytope_infeasible"] / c["estimates.polytope_checks"]
            if c["estimates.polytope_checks"]
            else 0.0
        ),
        "estimates.k3k1_ms": med("estimates.k3k1"),
        "estimates.algebraic2_ms": med("estimates.algebraic2"),
        "estimates.closed_form_float_us": us("estimates.closed_form_float"),
        "estimates.closed_form_exact_us": us("estimates.closed_form_exact"),
        "surd.sharp_constants_ms": med("surd.sharp_constants"),
        "surd.sqrt_us": us("surd.sqrt"),
        "surd.compare_us": us("surd.compare", per=len(workloads.THRESHOLDS)),
        "surd.enclosure_us": us("surd.enclosure"),
        "topology.admissible_us": us("topology.admissible"),
        "cli.battery_ms": med("cli.battery"),
        "cli.hamilton_models_ms": med("cli.hamilton_models"),
        "cli.verification_overhead_ms": _battery_overhead_ms(tracer),
    }
    for key, value in traced["input"].items():
        m[f"input.{key}"] = value
    request_s = tracer.durations(spans.REQUEST)
    n = len(request_s)
    self_times = tracer.self_times()
    for layer in (*spans.LAYERS, "bench"):
        m[f"self.{layer}_ms"] = self_times.get(layer, 0.0) * 1e3 / n
    # request time without the probes: the rate the traced requests themselves ran at
    traced_rate = n / sum(request_s)
    m["trace.requests"] = n
    m["trace.overhead_frac"] = 1.0 - traced_rate / untraced["attempt_rate"]
    m["trace.layer_cover_frac"] = (tracer.layer_time() / n) / (1.0 / untraced["attempt_rate"])
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("oracles", "documents", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", required=True, choices=("setup", "timed", "trace"))
    parser.add_argument("--workdir", required=True, help="scratch directory for the documents")
    args = parser.parse_args(argv)

    # set-up, part one: the cold import, before the benchmark itself loads numpy
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t_import = time.perf_counter()
    import curv4  # noqa: F401
    import curv4.cli  # noqa: F401

    import_s = time.perf_counter() - t_import
    rss_import = _rss_mb()

    import inputs
    import workloads
    from provenance import provenance

    run, check, probe = workloads.WORKLOADS[args.workload]
    pool = max(MIN_POOL, int(args.seconds * POOL_PER_SECOND[args.workload]))
    if args.phase == "setup":
        pool = 1
    requests = inputs.build_requests(args.workload, args.seed, range(pool), args.workdir)

    # set-up, part two: the first request, with whatever lazy work it triggers
    t_first = time.perf_counter()
    warm_ok = True
    try:
        run(requests[0], spans.NULL_TRACER, {})
    except Exception:  # noqa: BLE001 -- a failing first request still sets up
        warm_ok = False
    first_s = time.perf_counter() - t_first
    result = {
        "setup_s": import_s + first_s,
        "import_s": import_s,
        "first_request_s": first_s,
        "first_request_ok": warm_ok,
        "rss_after_import_mb": rss_import,
    }
    if args.phase == "setup":
        print(json.dumps(result))
        return 0

    is_trace = args.phase == "trace"
    result["provenance"] = provenance(ROOT, args.workload, args.seed, args.seconds, is_trace)
    rss_before = _rss_mb()
    seconds = args.seconds if args.phase == "timed" else args.seconds / 2.0
    untraced = run_loop(requests, 1, seconds, run, check, spans.NULL_TRACER)
    result["untraced"] = loop_summary(untraced)
    result["rss_before_loop_mb"] = rss_before
    result["peak_rss_mb"] = _rss_mb()
    if args.phase == "timed":
        print(json.dumps(result))
        return 0

    tracer = spans.Tracer()
    workloads.probe_sharp_constants(tracer)
    start = 1 + untraced.attempted
    traced = run_loop(requests, start, seconds, run, check, tracer, probe)
    result["traced"] = loop_summary(traced)
    wide = inputs.out_of_domain_requests(args.workload, args.seed, args.workdir)
    workloads.probe_domain_errors(wide, tracer)
    result["layers"] = layer_metrics(tracer, result["untraced"], result["traced"])
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"trace-{args.workload}-{args.seed}.jsonl")
    tracer.dump(path, result["provenance"])
    result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
