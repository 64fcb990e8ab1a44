"""Benchmark for reproducing and serving quantized networks.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload reproduce --seed 0 --seconds 20 --trace 0

``--workload`` is one of ``reproduce``, ``serve_inproc`` and
``serve_fleet_mixed`` (see README.md).  A run sets up, then runs whole
rounds of its workload until ``--seconds`` have passed, checks every
output and prints a report.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric of BENCHMARK.json with ``--trace 0``, every
per-layer metric with ``--trace 1``).  The exit code is 0 when every
check passed, 1 when a check failed and 2 when the checkout holds no
program source.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Dict, List

from common import (
    OUT_DIR,
    ROOT,
    SourceMissing,
    end_child_processes,
    over_rounds,
    now,
    peak_rss_mb,
    use_program_source,
)

WORKLOADS = ("reproduce", "serve_inproc", "serve_fleet_mixed")
#: per-layer metrics a workload never exercises report 0
NOT_EXERCISED = {
    "reproduce": ("serve.", "fleet.", "loadgen."),
    "serve_inproc": ("core.float_baseline_s", "core.qat_s.", "fleet."),
    "serve_fleet_mixed": ("core.float_baseline_s", "core.qat_s.", "serve."),
}


def load_declared() -> Dict[str, List[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def make_run(workload: str, seed: int, rec):
    if workload == "reproduce":
        from reproduce import ReproduceRun

        return ReproduceRun(seed, rec)
    import serving

    spec = serving.INPROC if workload == "serve_inproc" else serving.FLEET
    return serving.ServeRun(spec, seed, rec)


def run_rounds(run, seconds: float):
    """Whole rounds until ``seconds`` have passed, at least one.  Also
    returns the peak memory after the first round, which does not depend
    on how many rounds fit in the run."""
    rounds, layers, failures = [], [], []
    failed = attempted = 0
    rss_mb = 0.0
    start = now()
    index = 0
    while True:
        e2e, layer, round_failures, round_failed = run.round(index)
        rounds.append(e2e)
        layers.append(layer)
        failures += round_failures
        failed += round_failed
        attempted += run.ops_per_round()
        index += 1
        rss_mb = rss_mb or peak_rss_mb()
        if now() - start >= seconds:
            return rounds, layers, failures, attempted, failed, rss_mb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_program_source()
        declared = load_declared()
    except (SourceMissing, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    # one BLAS thread per thread of the program: two serving workers or
    # replicas then fill two cores instead of sharing them four ways.
    # Set before numpy is imported; replica processes inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # a terminated run unwinds like a failed one, stopping its processes
    signal.signal(signal.SIGTERM, _terminated)

    from spans import Recorder

    rec = Recorder(enabled=False)
    run = make_run(args.workload, args.seed, rec)
    try:
        setup_s = run.setup()
        run.build_oracle()
        if args.trace:
            metrics, failures, attempted, failed = traced(run, rec, args, declared)
        else:
            rounds, _, failures, attempted, failed, rss_mb = run_rounds(
                run, args.seconds)
            values = over_rounds(rounds)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = rss_mb
            print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds, "
                  f"set-up {len(run.setup_times)} times; {run.samples_note()}")
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in declared["end_to_end"]}
            for name in ("light.p99_ms", "heavy.p99_ms"):
                print(f"  {name:36s} {values[name]:14.6g} ms (not gated: too "
                      f"unsteady between runs, see README)")
    finally:
        try:
            run.stop()
        finally:
            end_child_processes()
    for key, value in getattr(run, "accuracy", {}).items():
        print(f"  accuracy {key:27s} {value:14.4f}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(f"attempted {attempted} operations, {failed} failed, "
          f"checks {'passed' if not failures else 'FAILED'}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


def traced(run, rec, args, declared):
    """One untraced round as the base, the same round traced, then the
    layer probes; returns the per-layer metrics.  The tracing overhead
    compares the two rounds' wall times, span recording included."""
    from probes import all_probes

    t0 = now()
    _, _, failures, attempted, failed, _ = run_rounds(run, 0.0)
    base_s = now() - t0
    rec.enabled = True
    t0 = now()
    rounds, layers, more_failures, more_attempted, more_failed, _ = run_rounds(
        run, 0.0)
    traced_s = now() - t0
    failures += more_failures
    attempted += more_attempted
    failed += more_failed
    values = dict(layers[0])
    values["light.p99_ms"] = rounds[0]["light.p99_ms"]
    values["heavy.p99_ms"] = rounds[0]["heavy.p99_ms"]
    values.update(run.setup_layer_metrics())
    values.update(run.stop())
    if "fleet.replica_compute_ms.p50" in values:
        # dispatch-to-result time at the front-end minus replica compute
        values["fleet.ipc_ms.p50"] = (values["fleet.compute_ms.p50"]
                                      - values["fleet.replica_compute_ms.p50"])
    values.update(all_probes(rec))
    values["trace.base_round_s"] = base_s
    values["trace.overhead_pct"] = 100.0 * (traced_s / base_s - 1.0)
    rec.enabled = False

    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    rec.write_chrome(path)
    print(f"{args.workload}: traced round {traced_s:.2f} s, "
          f"{len(rec.spans)} spans written to {os.path.relpath(path, ROOT)}")
    print("self time per layer (traced round and probes):")
    for layer, seconds in sorted(rec.self_times().items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {seconds * 1e3:12.3f} ms")
    skip = NOT_EXERCISED[args.workload]
    metrics = {}
    for metric in declared["per_layer"]:
        name = metric["name"]
        if name not in values and not name.startswith(skip):
            raise KeyError(f"per-layer metric {name} was not measured")
        metrics[name] = {"value": values.get(name, 0.0), "unit": metric["unit"]}
    return metrics, failures, attempted, failed


if __name__ == "__main__":
    sys.exit(main())
