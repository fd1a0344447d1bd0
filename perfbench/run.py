"""Benchmark of the repro release system, end to end and layer by layer.

Usage::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workloads (see ``METRICS.md``):

* ``serve-hot``   -- the durable ``repro serve`` daemon, two tenants;
* ``stream-bulk`` -- ``StreamExecutor.stream_durable`` over a ``.npy`` stream;
* ``cold-design`` -- a fixed grid of LP design points from an empty registry.

Every input (counts, arrival schedule, grid order) comes from ``--seed``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is a ``report`` object with the workload's named figures, its
per-phase operation counts and the machine, kernel and source identity.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import traceback

import common
from tracer import LAYERS

WORKLOADS = ("serve-hot", "stream-bulk", "cold-design")

#: ``(name, unit, better)`` of the end-to-end metrics (``--trace 0``).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: ``(name, unit, better)`` of the per-layer metrics (``--trace 1``).
PER_LAYER = (
    ("import.repro_s", "s", "lower"),
    ("serving.protocol.decode_us", "us", "lower"),
    ("serving.protocol.encode_us", "us", "lower"),
    ("serving.daemon.batches", "count", "higher"),
    ("serving.daemon.requests_per_batch", "count", "higher"),
    ("engine.durability.charge_us", "us", "lower"),
    ("engine.durability.fsync_p50_ms", "ms", "lower"),
    ("engine.durability.fsync_p99_ms", "ms", "lower"),
    ("serving.tenant_store.stage_commit_us", "us", "lower"),
    ("serving.cache.memory_hits", "count", "higher"),
    ("serving.cache.registry_hits", "count", "higher"),
    ("serving.cache.misses", "count", "lower"),
    ("serving.cache.memory_get_or_design_ms", "ms", "lower"),
    ("serving.cache.registry_get_or_design_ms", "ms", "lower"),
    ("serving.cache.miss_get_or_design_ms", "ms", "lower"),
    ("serving.registry.get_ms", "ms", "lower"),
    ("serving.registry.put_ms", "ms", "lower"),
    ("lp.build_s", "s", "lower"),
    ("lp.solve_s", "s", "lower"),
    ("lp.iterations", "count", "lower"),
    ("lp.solves", "count", "lower"),
    ("engine.plan.prepare_ms", "ms", "lower"),
    ("engine.plan.closed_form.sample_us_per_call", "us", "lower"),
    ("engine.plan.closed_form.sample_ns_per_count", "ns", "lower"),
    ("engine.plan.sparse.sample_us_per_call", "us", "lower"),
    ("engine.plan.sparse.sample_ns_per_count", "ns", "lower"),
    ("core.mechanism.max_alpha_ms", "ms", "lower"),
    ("engine.executor.chunks", "count", "higher"),
    ("engine.executor.chunk_ms", "ms", "lower"),
    ("engine.stream_io.read_ms", "ms", "lower"),
    ("engine.stream_io.write_ms", "ms", "lower"),
    ("engine.stream_io.sync_ms", "ms", "lower"),
    *((f"self_share.{layer}", "share", "lower") for layer in LAYERS),
    ("trace.uncovered_share", "share", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("uncertified_plans", "count", "lower"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        common.require_source()
        workload = importlib.import_module(args.workload.replace("-", "_"))
        result = workload.run(args.seed, args.seconds, bool(args.trace))
        environment = common.environment()
    except common.MissingSourceError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    expected = PER_LAYER if args.trace else END_TO_END
    values = dict(result["metrics"])
    if args.trace:
        # A layer the workload never reaches reads 0.
        values = {**{name: 0.0 for name, _, _ in PER_LAYER}, **values}
    mismatched = {name for name, _, _ in expected} ^ set(values)
    if mismatched:
        print(f"perfbench: metric set mismatch: {sorted(mismatched)}", file=sys.stderr)
        return 1
    phases = result["phases"]
    attempted = sum(phase.attempted for phase in phases.values())
    failed = sum(phase.failed for phase in phases.values())
    details = dict(result["report"])
    figures = {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in details.pop("figures").items()
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "figures": figures,
        "phases": {name: phase.payload() for name, phase in phases.items()},
        **details,
        "environment": environment,
    }
    print(json.dumps({"report": report}))
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit, _ in expected
    }
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
