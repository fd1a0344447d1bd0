"""stream-bulk: the ``serve-stream --ledger`` path, driven in-process.

One process, no workers.  Each pass is one ``serve-stream --ledger`` run.
Set-up (timed as ``setup_s``) opens a ``DesignCache`` on the registry,
compiles the plan through it with ``ReleasePlan.compile`` and opens an
``AccountantLedger``.  The pass streams a seeded ``.npy`` count file
through ``StreamExecutor.stream_durable`` with a fresh ledger, into an
``NpyCountWriter`` that is synced before each chunk is marked done (the
loop the CLI runs).  The plan is an LP-designed WM[WH+CM] sparse plan; its
LP is solved into the registry before any timing, so set-up reads it back
from disk.

Protocol, the daemon's batcher and bisection sampling are not on this
path: column-CDF sampling, executor chunking, stream I/O and one durable
charge per chunk do the work.

Sampling dominates, so a host-speed probe (``SamplingProbe``) runs between
every two passes, and the metrics are medians over the passes of their
timings scaled to the reference host.  The raw medians stay in the report.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from common import (
    Phase,
    SamplingProbe,
    WorkDir,
    import_repro,
    latency_figures,
    median,
    percentile,
    self_peak_rss_mb,
)

N = 64
ALPHA = 0.75
PROPERTIES = "WH+CM"
#: Counts per chunk (``--chunk-size``).  At the CLI's default of 8192 the
#: per-chunk fsyncs dominate and counts/s moved by a quarter between runs
#: of the same code on a shared 2-vCPU host; at 65536 sampling dominates.
CHUNK_SIZE = 65536
#: Counts per pass; one pass is one ledger-backed stream of the input file.
PASS_COUNTS = 1 << 21
BUDGET_ALPHA = 1e-300
MIN_PASSES = 3
#: Chunks of every pass re-derived through the unmetered ``run_seeded`` path.
PREFIX_CHUNKS = 1


class _Stream:
    """The measured part of a run: set-up and passes over one input file."""

    def __init__(self, work: Path, seed: int, phase: Phase) -> None:
        self.work = work
        self.seed = seed
        self.phase = phase
        self.registry = work / "registry"
        self.counts_path = work / "counts.npy"
        self.passes = 0
        self.uncertified = 0

    def prepare(self) -> None:
        """Untimed: solve the plan's LP into the registry, write the input."""
        import repro

        cache = repro.DesignCache(directory=self.registry)
        try:
            repro.ReleasePlan.compile(N, ALPHA, properties=PROPERTIES, cache=cache)
        finally:
            cache.close()
        rng = np.random.default_rng(self.seed)
        np.save(self.counts_path, rng.integers(0, N + 1, size=PASS_COUNTS))

    def setup(self, label: str):
        """Registry open + plan compile + ledger open; returns (seconds, plan)."""
        import repro

        start = time.perf_counter()
        cache = repro.DesignCache(directory=self.registry)
        plan = repro.ReleasePlan.compile(N, ALPHA, properties=PROPERTIES, cache=cache)
        ledger_path = self.work / f"setup-{label}.wal"
        ledger = repro.AccountantLedger.open(ledger_path, alpha_target=BUDGET_ALPHA)
        elapsed = time.perf_counter() - start
        ledger.close()
        ledger_path.unlink()
        cache.close()
        if plan.mechanism.metadata.get("design_cache") != "disk":
            raise RuntimeError("the stream plan was not served from the registry")
        return elapsed, plan

    def certify(self, plan) -> None:
        from repro.core.properties import violations

        mechanism = plan.mechanism
        self.uncertified = int(
            mechanism.max_alpha() < ALPHA or bool(violations(mechanism, PROPERTIES))
        )

    def one_pass(self, plan, chunk_latencies: List[float]) -> float:
        """Stream the input once through a fresh ledger; return counts/s."""
        import repro
        from repro.engine import stream_io

        index = self.passes
        self.passes += 1
        pass_seed = self.seed * 1000 + index
        ledger_path = self.work / f"pass-{index}.wal"
        out_path = self.work / f"pass-{index}.npy"
        start = time.perf_counter()
        source = stream_io.open_npy_counts(self.counts_path)
        ledger = repro.AccountantLedger.open(ledger_path, alpha_target=BUDGET_ALPHA)
        executor = repro.StreamExecutor(plan, chunk_size=CHUNK_SIZE, ledger=ledger)
        writer = stream_io.NpyCountWriter(out_path)
        chunks = 0
        try:
            mark = time.perf_counter()
            for chunk_index, released in executor.stream_durable(source, seed=pass_seed):
                writer.write(released)
                writer.sync()
                ledger.mark_done(chunk_index, int(released.size), writer.records, writer.offset)
                now = time.perf_counter()
                chunk_latencies.append(now - mark)
                mark = now
                chunks += 1
        finally:
            writer.close()
        elapsed = time.perf_counter() - start
        history = ledger.accountant.history()
        spent_epsilon = ledger.accountant.spent_epsilon()
        ledger.close()
        for _ in range(chunks):
            self.phase.record(True)
        self._check(plan, source, out_path, pass_seed, chunks, history, spent_epsilon)
        ledger_path.unlink()
        out_path.unlink()
        return PASS_COUNTS / elapsed

    def _check(self, plan, source, out_path: Path, pass_seed: int, chunks: int,
               history, spent_epsilon: float) -> None:
        import repro

        released = np.load(out_path)
        expected_chunks = math.ceil(PASS_COUNTS / CHUNK_SIZE)
        if released.shape != source.shape or chunks != expected_chunks:
            self.phase.fail(chunks, f"pass released {released.shape[0]} counts in {chunks} chunks")
            return
        if released.min() < 0 or released.max() > N:
            self.phase.fail(chunks, f"released value outside [0, {N}]")
        if len(history) != chunks or any(alpha != plan.alpha_cost for _, alpha in history) or not (
            math.isclose(spent_epsilon, chunks * -math.log(plan.alpha_cost), rel_tol=1e-9)
        ):
            self.phase.fail(chunks, f"ledger spent epsilon {spent_epsilon} over {len(history)} charges")
        prefix = PREFIX_CHUNKS * CHUNK_SIZE
        reference = repro.StreamExecutor(plan, chunk_size=CHUNK_SIZE).run_seeded(
            source[:prefix], seed=pass_seed
        )
        if not np.array_equal(reference, released[:prefix]):
            self.phase.fail(PREFIX_CHUNKS, "prefix differs from the unmetered run_seeded path")


class _Samples:
    """Raw timings of a run, and the same scaled to the reference host."""

    def __init__(self) -> None:
        self.speed_probe = SamplingProbe()
        self.setups: List[float] = []
        self.rates: List[float] = []
        self.latencies: List[float] = []
        self.ref_setups: List[float] = []
        self.ref_rates: List[float] = []
        self.ref_chunk_p50s: List[float] = []


def _measure(stream: _Stream, seconds: float, samples: _Samples, probe: bool) -> List[float]:
    """Set-up + one pass, repeated for ``seconds``; returns counts/s per pass.

    With ``probe``, a host-speed probe runs before the first pass and after
    every pass (a traced run leaves it out of its traced window).
    """
    rates: List[float] = []
    deadline = time.perf_counter() + seconds
    if probe:
        samples.speed_probe()
    while len(rates) < MIN_PASSES or time.perf_counter() < deadline:
        setup, plan = stream.setup(str(stream.passes))
        chunk_latencies: List[float] = []
        rate = stream.one_pass(plan, chunk_latencies)
        rates.append(rate)
        samples.setups.append(setup)
        samples.latencies.extend(chunk_latencies)
        if probe:
            scale = samples.speed_probe()
            samples.ref_setups.append(setup * scale)
            samples.ref_rates.append(rate / scale)
            samples.ref_chunk_p50s.append(percentile(chunk_latencies, 50) * scale)
    samples.rates.extend(rates)
    stream.certify(plan)
    return rates


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from tracer import Tracer, install_layer_wrappers, summarize

    phase = Phase("stream")
    with WorkDir() as work:
        import_s = import_repro()
        stream = _Stream(work, seed, phase)
        stream.prepare()
        samples = _Samples()
        if not trace:
            _measure(stream, seconds, samples, True)
        else:
            untraced = median(_measure(stream, seconds / 2.0, samples, True))
            tracer = Tracer()
            install_layer_wrappers(tracer)
            window_start = time.perf_counter_ns()
            try:
                rates = _measure(stream, seconds / 2.0, samples, False)
            finally:
                window = (window_start, time.perf_counter_ns())
                tracer.uninstall()
        figures = {
            "setup_s": (median(samples.setups), "s"),
            "setup_ref_s": (median(samples.ref_setups), "s"),
            "counts_per_s": (median(samples.rates), "1/s"),
            "counts_per_ref_s": (median(samples.ref_rates), "1/s"),
            **latency_figures("chunk_latency", [value * 1e3 for value in samples.latencies]),
            "chunk_latency_p50_ref_ms": (median(samples.ref_chunk_p50s) * 1e3, "ms"),
            "speed_probe_s": (median(samples.speed_probe.times), "s"),
            "peak_rss_mb": (self_peak_rss_mb(), "MB"),
            "uncertified_plans": (float(stream.uncertified), "count"),
        }
        report = {"figures": figures, "passes": stream.passes, "chunk_size": CHUNK_SIZE}
        if not trace:
            metrics = {
                "setup_s": figures["setup_ref_s"][0],
                "throughput_per_s": figures["counts_per_ref_s"][0],
                "latency_p50_ms": figures["chunk_latency_p50_ref_ms"][0],
                "peak_rss_mb": figures["peak_rss_mb"][0],
            }
        else:
            metrics = summarize(tracer.spans, window)
            metrics["import.repro_s"] = import_s
            metrics["uncertified_plans"] = float(stream.uncertified)
            metrics["trace.overhead_pct"] = (untraced / median(rates) - 1.0) * 100.0
    return {"metrics": metrics, "phases": {"stream": phase}, "report": report}
