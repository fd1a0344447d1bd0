"""cold-design: a fixed grid of design points, from an empty registry.

Phase 1 compiles every point once from an empty registry directory and
releases one batch through it.  Compile points go through
``ReleasePlan.compile`` with a ``DesignCache`` on that directory, at α where
the Figure-5 selector takes a WM branch, so each solves an LP and writes a
registry row.  Design points call ``design_mechanism`` directly, including
property sets that contain S.  HiGHS solve time is nearly all of phase 1.

Phase 2 opens a fresh ``DesignCache`` on the same directory and compiles
every compile point again; it must solve no LP.  Phase 1 writes the
registry and phase 2 reads it, so a change that speeds reads but slows
writes shows in one of the two.

This is the only workload that reaches ``core.selector``, ``core.design``
and ``lp``.  The grid's n and α are chosen for solve time alone.

All of this work is computation, so a host-speed probe (``SolverProbe``)
runs before and after each phase-1 pass and each phase-2 window, and the
metrics are medians of their timings scaled to the reference host.  The raw
medians and the probe's own time stay in the report.
"""

from __future__ import annotations

import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from common import (
    Phase,
    SolverProbe,
    WorkDir,
    import_repro,
    latency_figures,
    median,
    percentile,
    self_peak_rss_mb,
    source_env,
)

#: ``(n, alpha, properties)`` served through ``ReleasePlan.compile`` + cache.
COMPILE_POINTS: Tuple[Tuple[int, float, str], ...] = (
    (24, 0.6, "CM"),
    (32, 0.75, "WH+CM"),
    (40, 0.9, "WH+CM"),
    (48, 0.85, "WH+CM"),
    (16, 0.9, "WH"),
    (30, 0.95, "WH"),
    (36, 0.7, "CH"),
)
#: ``(n, alpha, properties)`` solved with ``design_mechanism`` directly.
DESIGN_POINTS: Tuple[Tuple[int, float, str], ...] = (
    (24, 0.5, "F+S+WH+CM"),
    (32, 0.6, "WH+CM"),
    (28, 0.8, "S+CM"),
    (20, 0.9, "S+WH"),
    (24, 0.7, "S"),
    (36, 0.9, "S+RH"),
)
GRID = tuple(("compile",) + p for p in COMPILE_POINTS) + tuple(
    ("design",) + p for p in DESIGN_POINTS
)
RELEASE_COUNTS = 16
SETUP_REPEATS = 5
#: Phase-2 time after each phase-1 pass, as a share of that pass's time.
RELOAD_RATIO = 0.5
MIN_COLD_PASSES = 3
#: Per-point reload samples: enough that p99 has 10 beyond it.
MIN_RELOAD_SAMPLES = 1000
#: Set-up as a fresh process pays it: import, then open an empty registry.
SETUP_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import repro\n"
    "cache = repro.DesignCache(directory=sys.argv[1])\n"
    "elapsed = time.perf_counter() - start\n"
    "cache.close()\n"
    "print(repr(elapsed))\n"
)


def _setup_probe(directory: Path) -> float:
    result = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(directory)],
        env=source_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(result.stdout.strip().splitlines()[-1])


class _Grid:
    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.order = [int(i) for i in rng.permutation(len(GRID))]
        self.counts = [rng.integers(0, point[1] + 1, size=RELEASE_COUNTS) for point in GRID]
        self.cold_phase = Phase("cold")
        self.reload_phase = Phase("reload")
        self.passes = 0
        self.uncertified = 0
        self.reload_solves = 0

    def cold_pass(self) -> Tuple[float, Path]:
        """Phase 1 from an empty registry; returns (seconds, registry dir)."""
        import repro

        index = self.passes
        self.passes += 1
        directory = self.work / f"registry-{index}"
        cache = repro.DesignCache(directory=directory)
        plans = []
        start = time.perf_counter()
        for point in self.order:
            kind, n, alpha, properties = GRID[point]
            try:
                if kind == "compile":
                    plan = repro.ReleasePlan.compile(n, alpha, properties=properties, cache=cache)
                else:
                    plan = repro.ReleasePlan.from_mechanism(
                        repro.design_mechanism(n, alpha, properties=properties),
                        alpha_cost=alpha,
                    )
                released = plan.execute(
                    self.counts[point], rng=np.random.default_rng([self.seed, index, point])
                )
            except Exception:  # a raising design is a failed operation, not a crash
                self.cold_phase.record(False, traceback.format_exc(limit=2))
                continue
            ok = released.shape == (RELEASE_COUNTS,) and released.min() >= 0 and released.max() <= n
            self.cold_phase.record(ok, None if ok else f"{GRID[point]} released {released.tolist()}")
            plans.append((point, plan))
        elapsed = time.perf_counter() - start
        cache.close()
        self.uncertified = self._count_uncertified(plans)
        return elapsed, directory

    @staticmethod
    def _count_uncertified(plans) -> int:
        """Plans whose measured α is below the α charged or that miss a property."""
        from repro.core.properties import violations

        uncertified = 0
        for point, plan in plans:
            _, _, alpha, properties = GRID[point]
            mechanism = plan.mechanism
            if mechanism.max_alpha() < alpha or violations(mechanism, properties):
                uncertified += 1
        return uncertified

    def reload_pass(self, directory: Path, latencies: List[float]) -> float:
        """Phase 2: every compile point again through a fresh cache."""
        import repro
        from repro.lp.solver import solve_call_count

        start = time.perf_counter()
        cache = repro.DesignCache(directory=directory)
        solves_before = solve_call_count()
        for point in self.order:
            kind, n, alpha, properties = GRID[point]
            if kind != "compile":
                continue
            began = time.perf_counter()
            plan = repro.ReleasePlan.compile(n, alpha, properties=properties, cache=cache)
            latencies.append(time.perf_counter() - began)
            tier = plan.mechanism.metadata.get("design_cache")
            self.reload_phase.record(tier == "disk", f"{GRID[point]} came from tier {tier!r}")
        solves = solve_call_count() - solves_before
        cache.close()
        elapsed = time.perf_counter() - start
        if solves:
            self.reload_solves += solves
            self.reload_phase.fail(len(COMPILE_POINTS), f"phase 2 solved {solves} LPs")
        return elapsed


class _Samples:
    """Raw timings of a run, and the same scaled to the reference host."""

    def __init__(self) -> None:
        self.speed_probe = SolverProbe()
        self.setups: List[float] = []
        self.cold: List[float] = []
        self.reloads: List[float] = []
        self.latencies: List[float] = []
        self.window_p50s: List[float] = []
        self.ref_setups: List[float] = []
        self.ref_cold: List[float] = []
        self.ref_window_p50s: List[float] = []


def _measure(grid: _Grid, seconds: float, setup_probes: int, samples: _Samples) -> None:
    """Alternate phase 1 and phase 2 for ``seconds``.

    After each phase-1 pass, phase 2 re-reads that pass's registry for
    ``RELOAD_RATIO`` of its time, so both phases sample the whole run.  The
    first ``setup_probes`` cycles each begin with one set-up probe, which
    shares the host-speed probes of that cycle's phase-1 pass.
    """
    speed_probe = samples.speed_probe
    speed_probe()
    start = time.perf_counter()
    while (
        len(samples.cold) < MIN_COLD_PASSES
        or len(samples.latencies) < MIN_RELOAD_SAMPLES
        or time.perf_counter() - start < seconds
    ):
        setup = None
        if len(samples.setups) < setup_probes:
            setup = _setup_probe(grid.work / f"setup-{len(samples.setups)}")
            samples.setups.append(setup)
        elapsed, directory = grid.cold_pass()
        cold_scale = speed_probe()
        reload_until = time.perf_counter() + elapsed * RELOAD_RATIO
        window: List[float] = []
        while True:
            samples.reloads.append(grid.reload_pass(directory, window))
            if time.perf_counter() >= reload_until:
                break
        window_p50 = percentile(window, 50)
        reload_scale = speed_probe()
        samples.cold.append(elapsed)
        samples.ref_cold.append(elapsed * cold_scale)
        samples.latencies.extend(window)
        samples.window_p50s.append(window_p50)
        samples.ref_window_p50s.append(window_p50 * reload_scale)
        if setup is not None:
            samples.ref_setups.append(setup * cold_scale)


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from tracer import Tracer, install_layer_wrappers, summarize

    with WorkDir() as work:
        import_s = import_repro()
        grid = _Grid(work, seed)
        samples = _Samples()
        if not trace:
            _measure(grid, seconds, SETUP_REPEATS, samples)
        else:
            _measure(grid, seconds / 2.0, 0, samples)
            untraced = median(samples.cold)
            tracer = Tracer()
            install_layer_wrappers(tracer)
            window_start = time.perf_counter_ns()
            try:
                traced, directory = grid.cold_pass()
                grid.reload_pass(directory, [])
            finally:
                window = (window_start, time.perf_counter_ns())
                tracer.uninstall()
        figures = {
            "setup_s": (median(samples.setups), "s"),
            "setup_ref_s": (median(samples.ref_setups), "s"),
            "cold_design_s": (median(samples.cold), "s"),
            "cold_design_ref_s": (median(samples.ref_cold), "s"),
            "registry_reload_s": (median(samples.reloads), "s"),
            **latency_figures("reload_latency", [value * 1e3 for value in samples.latencies]),
            "reload_latency_window_p50_ref_ms": (median(samples.ref_window_p50s) * 1e3, "ms"),
            "speed_probe_s": (median(samples.speed_probe.times), "s"),
            "peak_rss_mb": (self_peak_rss_mb(), "MB"),
            "uncertified_plans": (float(grid.uncertified), "count"),
        }
        report = {
            "figures": figures,
            "grid_points": len(GRID),
            "cold_passes": len(samples.cold),
            "reload_passes": len(samples.reloads),
            "reload_lp_solves": grid.reload_solves,
        }
        if not trace:
            metrics = {
                "setup_s": figures["setup_ref_s"][0],
                "throughput_per_s": len(GRID) / figures["cold_design_ref_s"][0],
                "latency_p50_ms": figures["reload_latency_window_p50_ref_ms"][0],
                "peak_rss_mb": figures["peak_rss_mb"][0],
            }
        else:
            metrics = summarize(tracer.spans, window)
            metrics["import.repro_s"] = import_s
            metrics["uncertified_plans"] = float(grid.uncertified)
            metrics["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    return {
        "metrics": metrics,
        "phases": {"cold": grid.cold_phase, "reload": grid.reload_phase},
        "report": report,
    }
