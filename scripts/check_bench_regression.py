#!/usr/bin/env python3
"""Gate the benchmark suite's perf trajectory against committed baselines.

``benchmarks/conftest.py`` writes one ``BENCH_<suite>.json`` artifact per
benchmark module run (see ``docs/performance.md`` for the schema).  This
script compares a directory of fresh artifacts against the committed
reference run and fails CI when the trajectory degrades:

* a baselined suite produced no artifact (the module vanished or crashed
  before collection),
* a baselined case is missing from the artifact, failed, or silently
  became a skip (coverage loss),
* a case that was substantial in the baseline (``--min-seconds``) got more
  than ``--max-ratio`` times slower,
* a structured case metric (recorded via ``benchmarks/_metrics.py`` under
  the case's ``"metrics"`` key) regressed: ``req_per_s`` and speedup
  factors (``*_x``) are higher-is-better and gated whenever baselined;
  ``p50_ms``/``p99_ms`` are lower-is-better and gated when the baseline
  latency clears ``--min-latency-ms`` (sub-millisecond percentiles on
  shared runners are noise); duration metrics (``*_s``/``*_seconds``,
  e.g. the solve times in ``BENCH_registry.json``) are lower-is-better
  and gated when the baseline clears 50 ms.  Metrics use their own ``--metric-max-ratio`` (looser than the
  wall-clock gate: a percentile from a short closed-loop run is a noisier
  estimator than an aggregate duration).  A baselined metric that
  vanishes from the artifact fails, like a vanished case.

Structure and outcome are gated unconditionally; wall-clock ratios only
for cases whose baseline duration clears ``--min-seconds``, because
sub-second timings on shared CI runners are noise.  Memory is recorded in
the artifacts but not gated — ``ru_maxrss`` is a process-wide watermark,
so per-case attribution depends on execution order.

Usage::

    python scripts/check_bench_regression.py \
        --artifacts benchmarks/artifacts --baselines benchmarks/baselines/tiny

Exit status 0 when every gate passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Structured case metrics the gate understands and their better-direction.
METRIC_GATES = {
    "req_per_s": "higher",
    "p50_ms": "lower",
    "p99_ms": "lower",
}

#: Seconds metrics below this baseline value are not gated: a sub-50ms
#: duration on a shared runner is scheduler noise, like the latency floor.
MIN_METRIC_SECONDS = 0.05


def metric_direction(name: str):
    """Better-direction for a metric name, or ``None`` when ungated.

    Beyond the explicit :data:`METRIC_GATES` table, duration metrics
    (``*_s`` / ``*_seconds``, e.g. ``cold_solve_s`` from
    ``BENCH_registry.json``) are lower-is-better and speedup factors
    (``*_x``) are higher-is-better.  Rate names like ``req_per_s`` end in
    ``per_s`` and are *not* durations — the explicit table wins first and
    the suffix rule excludes them.
    """
    if name in METRIC_GATES:
        return METRIC_GATES[name]
    if name.endswith("_seconds") or (name.endswith("_s") and not name.endswith("per_s")):
        return "lower"
    if name.endswith("_x"):
        return "higher"
    return None


def load_bench(path: Path) -> dict:
    payload = json.loads(path.read_text())
    for key in ("schema_version", "suite", "tiny", "cases"):
        if key not in payload:
            raise ValueError(f"{path}: missing required key {key!r}")
    return payload


def compare_metrics(
    suite: str,
    case: str,
    base_metrics: dict,
    new_metrics: dict,
    *,
    max_ratio: float,
    min_latency_ms: float,
) -> tuple[list[str], list[str]]:
    """Gate one case's structured metrics (throughput up, durations down)."""
    failures: list[str] = []
    notes: list[str] = []
    for name in sorted(base_metrics):
        direction = metric_direction(name)
        if direction is None:
            continue
        if name not in new_metrics:
            failures.append(
                f"{suite}::{case}: baselined metric {name!r} missing from artifact"
            )
            continue
        base_value = float(base_metrics[name])
        value = float(new_metrics[name])
        is_seconds = name not in METRIC_GATES and direction == "lower"
        if direction == "lower":
            floor = MIN_METRIC_SECONDS if is_seconds else min_latency_ms
            if base_value < floor:
                continue  # sub-threshold durations are runner noise
            ratio = value / base_value if base_value > 0 else float("inf")
            unit = "s" if is_seconds else "ms"
            detail = f"{value:.3f}{unit} vs baseline {base_value:.3f}{unit}"
        else:
            ratio = base_value / value if value > 0 else float("inf")
            unit = "x" if name.endswith("_x") else "/s"
            detail = f"{value:.1f}{unit} vs baseline {base_value:.1f}{unit}"
        if ratio > max_ratio:
            failures.append(
                f"{suite}::{case}: {name} regressed — {detail} "
                f"({ratio:.2f}x > {max_ratio:.2f}x)"
            )
        elif ratio > 1.0:
            notes.append(
                f"{suite}::{case}: {name} {detail} ({ratio:.2f}x, within gate)"
            )
    return failures, notes


def compare_suite(
    baseline: dict,
    artifact: dict,
    *,
    max_ratio: float,
    min_seconds: float,
    min_latency_ms: float = 2.0,
    metric_max_ratio: float = 4.0,
) -> tuple[list[str], list[str]]:
    """Return (failures, notes) for one suite's baseline/artifact pair."""
    failures: list[str] = []
    notes: list[str] = []
    suite = baseline["suite"]

    if artifact["schema_version"] != baseline["schema_version"]:
        failures.append(
            f"{suite}: schema_version mismatch "
            f"(baseline {baseline['schema_version']}, "
            f"artifact {artifact['schema_version']})"
        )
        return failures, notes
    if bool(artifact["tiny"]) != bool(baseline["tiny"]):
        failures.append(
            f"{suite}: tiny-mode mismatch (baseline tiny={baseline['tiny']}, "
            f"artifact tiny={artifact['tiny']}) — comparison is meaningless; "
            "regenerate the baseline or fix REPRO_BENCH_TINY"
        )
        return failures, notes

    base_cases = baseline["cases"]
    new_cases = artifact["cases"]
    for case, base in sorted(base_cases.items()):
        current = new_cases.get(case)
        if current is None:
            failures.append(f"{suite}::{case}: baselined case missing from artifact")
            continue
        if current["outcome"] not in ("passed", "skipped"):
            failures.append(f"{suite}::{case}: outcome is {current['outcome']!r}")
            continue
        if base["outcome"] == "passed" and current["outcome"] == "skipped":
            failures.append(
                f"{suite}::{case}: passed in baseline but skipped now (coverage loss)"
            )
            continue
        if base["outcome"] != "passed" or current["outcome"] != "passed":
            continue
        metric_failures, metric_notes = compare_metrics(
            suite,
            case,
            base.get("metrics", {}),
            current.get("metrics", {}),
            max_ratio=metric_max_ratio,
            min_latency_ms=min_latency_ms,
        )
        failures.extend(metric_failures)
        notes.extend(metric_notes)
        base_wall = float(base["wall_s"])
        wall = float(current["wall_s"])
        if base_wall < min_seconds:
            continue
        ratio = wall / base_wall if base_wall > 0 else float("inf")
        if ratio > max_ratio:
            failures.append(
                f"{suite}::{case}: {wall:.3f}s vs baseline {base_wall:.3f}s "
                f"({ratio:.2f}x > {max_ratio:.2f}x)"
            )
        elif ratio > 1.0:
            notes.append(
                f"{suite}::{case}: {wall:.3f}s vs baseline {base_wall:.3f}s "
                f"({ratio:.2f}x, within gate)"
            )

    for case in sorted(set(new_cases) - set(base_cases)):
        notes.append(f"{suite}::{case}: new case (no baseline yet)")
    return failures, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "artifacts",
        help="directory holding the fresh BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--baselines",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "baselines",
        help="directory holding the committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=3.0,
        help="fail when a gated case is more than this factor slower (default 3.0)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.5,
        help="only gate wall time for cases whose baseline took at least this long",
    )
    parser.add_argument(
        "--min-latency-ms",
        type=float,
        default=2.0,
        help="only gate p50/p99 latency metrics whose baseline is at least "
             "this many milliseconds (default 2.0)",
    )
    parser.add_argument(
        "--metric-max-ratio",
        type=float,
        default=4.0,
        help="fail when a gated case metric (req/s, p50/p99) is more than "
             "this factor worse (default 4.0 — looser than --max-ratio "
             "because short-run percentiles are noisier than durations)",
    )
    parser.add_argument(
        "--suites",
        nargs="*",
        default=None,
        help="restrict the check to these suite names, space- or "
             "comma-separated (default: every baseline)",
    )
    args = parser.parse_args(argv)

    baseline_files = sorted(args.baselines.glob("BENCH_*.json"))
    if args.suites is not None:
        wanted = {name for token in args.suites for name in token.split(",") if name}
        baseline_files = [
            p for p in baseline_files if p.stem[len("BENCH_") :] in wanted
        ]
    if not baseline_files:
        print(f"error: no baseline BENCH_*.json files under {args.baselines}")
        return 1

    failures: list[str] = []
    notes: list[str] = []
    checked = 0
    for baseline_path in baseline_files:
        baseline = load_bench(baseline_path)
        artifact_path = args.artifacts / baseline_path.name
        if not artifact_path.exists():
            failures.append(
                f"{baseline['suite']}: no artifact at {artifact_path} "
                "(suite not run or crashed before sessionfinish)"
            )
            continue
        suite_failures, suite_notes = compare_suite(
            baseline,
            load_bench(artifact_path),
            max_ratio=args.max_ratio,
            min_seconds=args.min_seconds,
            min_latency_ms=args.min_latency_ms,
            metric_max_ratio=args.metric_max_ratio,
        )
        failures.extend(suite_failures)
        notes.extend(suite_notes)
        checked += 1

    for note in notes:
        print(f"note: {note}")
    for failure in failures:
        print(f"FAIL: {failure}")
    print(
        f"bench regression check: {checked}/{len(baseline_files)} suite(s) compared, "
        f"{len(failures)} failure(s)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
