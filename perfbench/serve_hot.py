"""serve-hot: the durable ``repro serve`` daemon under two tenants' load.

The daemon runs as a child process with a fresh ``--state-dir``, a fixed
``--seed`` and a budget no request can exhaust.  Two tenants each hold one
connection and send 4-count releases against one GM design at
n = 100 000, which puts the closed form in its bisection regime.  Every
per-request layer runs: protocol, admission and batching, the durable
charge with its group-commit fsync, and bisection sampling.  The plan is
served from memory after the first request, so no LP is solved.

Phase A is a closed loop (each connection sends its next request when the
previous answer arrives) and gives the request rate.  Phase B is an open
loop at one fixed arrival rate below phase A's capacity, pipelined onto
the same two connections; each latency is timed from the request's due
time, so a stall also charges the requests queued behind it.  Arrival gaps
are the mean gap times a seeded uniform factor in [0.5, 1.5]: Poisson
bursts would make the tail mostly a measure of burst queueing, which the
drifting speed of a shared host turns into run-to-run noise.

The daemon's start-up, the request rate and phase-B latency all slow with
the host, so a host-speed probe (``SolverProbe``) runs before and after each
set-up spawn, phase-A window and phase-B window, and the metrics are medians
of their timings scaled to the reference host.  The raw medians stay in the
report.
"""

from __future__ import annotations

import asyncio
import gc
import json
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import (
    Phase,
    SolverProbe,
    SpeedProbe,
    WorkDir,
    import_repro,
    latency_figures,
    median,
    percentile,
    process_peak_rss_mb,
    source_env,
)

N = 100_000
ALPHA = 0.9
COUNTS_PER_REQUEST = 4
#: The accountant refuses only when the spent product falls below
#: ``target - 1e-15``; with a target this small that never happens.
BUDGET_ALPHA = 1e-300
DAEMON_SEED = 20180416
TENANTS = ("bench-0", "bench-1")
#: Daemon spawns per run; ``setup_s`` is their median spawn-to-health time.
SETUP_REPEATS = 5
#: Unmeasured requests per tenant before phase A (first plan compile).
WARMUP_REQUESTS = 50
#: Phase B arrival rate (requests/s): a constant, about a third of the
#: phase-A capacity measured on a 2-vCPU host (~950 req/s).  Open-loop
#: arrivals often meet no partner within the batch window, so batches are
#: smaller than in phase A; this rate keeps the queue bounded.
PHASE_B_RATE = 300.0
#: One round is two phase-A windows then 600 phase-B requests.  On a shared
#: 2-vCPU host the rate swings by a quarter between half-second windows, so
#: the request rate is the median over the run's phase-A windows; latency
#: percentiles are over every phase-B request of the run.
PHASE_A_WINDOW_SECONDS = 0.5
PHASE_A_WINDOWS_PER_ROUND = 2
PHASE_B_REQUESTS = 600
ROUND_SECONDS = PHASE_A_WINDOW_SECONDS * PHASE_A_WINDOWS_PER_ROUND + PHASE_B_REQUESTS / PHASE_B_RATE
MIN_ROUNDS = 3
#: Responses re-derived in the benchmark process and compared bit for bit.
VERIFY_SAMPLE = 200
COUNT_POOL = 1 << 16
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
PERFBENCH = Path(__file__).resolve().parent


class Daemon:
    """One ``repro serve`` child process (optionally under the span tracer)."""

    def __init__(self, work: Path, label: str, trace_path: Optional[Path] = None) -> None:
        self.state_dir = work / f"state-{label}"
        self.log_path = work / f"daemon-{label}.log"
        self.trace_path = trace_path
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> float:
        """Spawn the daemon; return seconds from spawn to its first health reply."""
        serve_args = [
            "--host", self.host, "--port", "0",
            "--state-dir", str(self.state_dir),
            "--seed", str(DAEMON_SEED),
            "--budget-alpha", repr(BUDGET_ALPHA),
        ]
        if self.trace_path is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        else:
            command = [
                sys.executable, str(PERFBENCH / "serve_launcher.py"),
                str(self.trace_path), *serve_args,
            ]
        log = open(self.log_path, "wb")
        start = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, env=source_env(),
                cwd=str(self.state_dir.parent),
            )
        finally:
            log.close()
        line = self._read_stdout_line(START_TIMEOUT)
        if not line.startswith("serving on "):
            raise RuntimeError(f"daemon did not start: {line!r}; {self.log_tail()}")
        self.port = int(line.rsplit(":", 1)[1])
        reply = self.control({"op": "health"})
        elapsed = time.perf_counter() - start
        if reply.get("code") != 0:
            raise RuntimeError(f"health check failed: {reply}")
        return elapsed

    def _read_stdout_line(self, timeout: float) -> str:
        assert self.process is not None and self.process.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError(f"daemon printed nothing in {timeout}s")
        return self.process.stdout.readline().decode("utf-8", "replace").strip()

    def control(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response on a short-lived control connection."""
        with socket.create_connection((self.host, self.port), timeout=STOP_TIMEOUT) as sock:
            sock.sendall(json.dumps(message).encode() + b"\n")
            with sock.makefile("rb") as stream:
                return json.loads(stream.readline())

    def peak_rss_mb(self) -> float:
        assert self.process is not None
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Shut the daemon down and wait for it; kill it if it hangs."""
        if self.process is None:
            return
        try:
            if self.process.poll() is None:
                try:
                    self.control({"op": "shutdown"})
                except OSError:
                    pass
                self.process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        finally:
            if self.process.stdout is not None:
                self.process.stdout.close()

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""


class _Connection:
    def __init__(self, tenant: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.tenant = tenant
        self.reader = reader
        self.writer = writer


class _Scaled:
    """Phase-A rates and per-window phase-B p50s, scaled to the reference host."""

    def __init__(self) -> None:
        self.rates: List[float] = []
        self.latency_p50s: List[float] = []


class LoadClient:
    """Two tenant connections on one event loop, driving phases A and B."""

    def __init__(self, daemon: Daemon, seed: int) -> None:
        self.daemon = daemon
        rng = np.random.default_rng(seed)
        self.pool = rng.integers(0, N + 1, size=(COUNT_POOL, COUNTS_PER_REQUEST))
        self.schedule_rng = np.random.default_rng([seed, 1])
        self.next_request = 0
        self.connections: List[_Connection] = []
        #: ``(phase, tenant, seq, counts, released)`` of every served request.
        self.served: List[Tuple[Phase, int, int, np.ndarray, List[int]]] = []

    async def connect(self) -> None:
        for tenant, name in enumerate(TENANTS):
            reader, writer = await asyncio.open_connection(
                self.daemon.host, self.daemon.port, limit=1 << 20
            )
            writer.write(json.dumps({"op": "hello", "tenant": name}).encode() + b"\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            if reply.get("code") != 0:
                raise RuntimeError(f"hello for {name} refused: {reply}")
            self.connections.append(_Connection(tenant, reader, writer))

    async def close(self) -> None:
        for connection in self.connections:
            connection.writer.close()
            try:
                await connection.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.connections = []

    def _request(self) -> Tuple[bytes, np.ndarray]:
        index = self.next_request
        self.next_request += 1
        counts = self.pool[index % COUNT_POOL]
        line = json.dumps(
            {"op": "release", "id": index, "counts": counts.tolist(), "n": N, "alpha": ALPHA}
        ).encode() + b"\n"
        return line, counts

    def _check(self, phase: Phase, tenant: int, counts: np.ndarray, raw: bytes) -> None:
        try:
            response = json.loads(raw)
        except ValueError:
            phase.record(False, f"unparseable response {raw[:80]!r}")
            return
        released = response.get("released")
        problem = None
        if response.get("code") != 0:
            problem = f"code {response.get('code')}: {response.get('error')}"
        elif not isinstance(released, list) or len(released) != len(counts):
            problem = "released has the wrong length"
        elif min(released) < 0 or max(released) > N:
            problem = f"released value outside [0, {N}]"
        elif not isinstance(response.get("seq"), int):
            problem = "durable response carries no seq"
        phase.record(problem is None, problem)
        if problem is None:
            self.served.append((phase, tenant, response["seq"], counts, released))

    async def closed_loop(self, phase: Phase, requests: Optional[int], seconds: float) -> float:
        """Each connection sends its next request after the previous reply.

        Runs ``requests`` per connection, or until ``seconds`` elapse.
        Returns completed requests per second.
        """
        deadline = time.perf_counter() + seconds
        done = [0]

        async def drive(connection: _Connection) -> None:
            sent = 0
            while (requests is None and time.perf_counter() < deadline) or (
                requests is not None and sent < requests
            ):
                line, counts = self._request()
                connection.writer.write(line)
                await connection.writer.drain()
                raw = await connection.reader.readline()
                if not raw:
                    raise RuntimeError("daemon closed the connection")
                self._check(phase, connection.tenant, counts, raw)
                sent += 1
                done[0] += 1

        start = time.perf_counter()
        await asyncio.gather(*(drive(c) for c in self.connections))
        return done[0] / (time.perf_counter() - start)

    async def open_loop(self, phase: Phase, rate: float, total: int,
                        latencies: List[float], lags: List[float]) -> None:
        """``total`` arrivals at mean ``rate``, alternating over the connections.

        Appends each request's latency from its due time, and how late the
        generator sent it, in seconds.
        """
        offsets = np.cumsum(self.schedule_rng.uniform(0.5, 1.5, size=total) / rate)
        width = len(self.connections)
        due = [0.0] * total
        waiting: List[deque] = [deque() for _ in self.connections]
        begin = time.perf_counter() + 0.01

        async def send() -> None:
            for index in range(total):
                when = begin + float(offsets[index])
                now = time.perf_counter()
                if when > now:
                    await asyncio.sleep(when - now)
                    now = time.perf_counter()
                connection = self.connections[index % width]
                line, counts = self._request()
                due[index] = when
                waiting[index % width].append((index, counts))
                connection.writer.write(line)
                lags.append(now - when)
            for connection in self.connections:
                await connection.writer.drain()

        async def receive(slot: int) -> None:
            connection = self.connections[slot]
            for _ in range(len(range(slot, total, width))):
                raw = await connection.reader.readline()
                arrived = time.perf_counter()
                if not raw:
                    raise RuntimeError("daemon closed the connection")
                index, counts = waiting[slot].popleft()
                latencies.append(arrived - due[index])
                self._check(phase, connection.tenant, counts, raw)

        await asyncio.gather(send(), *(receive(slot) for slot in range(width)))


def _verify(client: LoadClient, seed: int) -> Dict[str, int]:
    """Re-derive a seeded sample of responses through the library, bit for bit."""
    import repro
    from repro.core.properties import violations
    from repro.serving import TenantSession
    from repro.serving.protocol import tenant_seed_sequence

    plan = repro.ReleasePlan.compile(N, ALPHA)
    sessions = [
        TenantSession(name, tenant_seed_sequence(name, server_seed=DAEMON_SEED), None)
        for name in TENANTS
    ]
    rng = np.random.default_rng([seed, 2])
    picks = rng.choice(len(client.served), size=min(VERIFY_SAMPLE, len(client.served)), replace=False)
    mismatches = 0
    for pick in picks:
        phase, tenant, seq, counts, released = client.served[int(pick)]
        uniforms = np.random.default_rng(sessions[tenant].substream_at(seq)).random(len(counts))
        expected = plan.execute_with_uniforms(counts, uniforms)
        if [int(value) for value in expected] != released:
            mismatches += 1
            phase.fail(1, f"tenant {tenant} seq {seq}: released {released}, library gives {expected.tolist()}")
    mechanism = plan.mechanism
    uncertified = int(mechanism.max_alpha() < ALPHA or bool(violations(mechanism, "")))
    return {"verified": len(picks), "mismatches": mismatches, "uncertified_plans": uncertified}


async def _drive(daemon: Daemon, seed: int, phases: Dict[str, Phase], rounds: int,
                 open_loop: bool, probe: SpeedProbe, scaled: Optional[_Scaled],
                 ) -> Tuple[LoadClient, List[float], List[float], List[float]]:
    """Warm up, then ``rounds`` x (phase-A windows, one phase-B window).

    Alternating the phases spreads a slow stretch of the machine over both.
    The load generator runs with the cyclic garbage collector off, so its
    own collection pauses never land in the daemon's measured latency.
    Unless ``scaled`` is None, every window lies between two host-speed
    probes and its scaled rate or p50 goes to ``scaled``; no request is in
    flight while a probe runs.
    """
    client = LoadClient(daemon, seed)
    await client.connect()
    rates: List[float] = []
    latencies: List[float] = []
    lags: List[float] = []
    gc.disable()
    try:
        await client.closed_loop(phases["warmup"], WARMUP_REQUESTS, 0.0)
        if scaled is not None:
            probe()
        for _ in range(rounds):
            for _ in range(PHASE_A_WINDOWS_PER_ROUND):
                rates.append(
                    await client.closed_loop(phases["closed_loop"], None, PHASE_A_WINDOW_SECONDS)
                )
                if scaled is not None:
                    scaled.rates.append(rates[-1] / probe())
            if open_loop:
                window: List[float] = []
                await client.open_loop(
                    phases["open_loop"], PHASE_B_RATE, PHASE_B_REQUESTS, window, lags
                )
                latencies.extend(window)
                if scaled is not None:
                    scaled.latency_p50s.append(percentile(window, 50) * probe())
    finally:
        gc.enable()
        await client.close()
    return client, rates, latencies, lags


def _serve_once(work: Path, label: str, seed: int, phases: Dict[str, Phase], rounds: int,
                open_loop: bool, probe: SpeedProbe, scaled: Optional[_Scaled],
                trace_path: Optional[Path] = None):
    """Start a daemon, load it, read its stats and peak RSS, stop it.

    The set-up time is returned raw and scaled to the reference host.
    """
    daemon = Daemon(work, label, trace_path)
    try:
        probe()
        raw = daemon.start()
        setup_s = (raw, raw * probe())
        client, rates, latencies, lags = asyncio.run(
            _drive(daemon, seed, phases, rounds, open_loop, probe, scaled)
        )
        stats = daemon.control({"op": "stats"})["stats"]
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    return setup_s, client, rates, latencies, lags, stats, rss


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from tracer import load_trace, summarize

    phases = {name: Phase(name) for name in ("warmup", "closed_loop", "open_loop")}
    rounds = max(MIN_ROUNDS, round(seconds / ROUND_SECONDS))
    with WorkDir() as work:
        import_repro()
        probe = SolverProbe()
        setups: List[Tuple[float, float]] = []
        scaled = _Scaled()
        for repeat in range(SETUP_REPEATS - 1):
            daemon = Daemon(work, f"setup-{repeat}")
            try:
                probe()
                setup_s = daemon.start()
                setups.append((setup_s, setup_s * probe()))
            finally:
                daemon.stop()
        if not trace:
            setup_s, client, rates, latencies, lags, stats, rss = _serve_once(
                work, "load", seed, phases, rounds, True, probe, scaled
            )
            setups.append(setup_s)
        else:
            # Untraced phase-A reference for the tracing overhead, then the
            # traced daemon for the remaining rounds.
            reference_rounds = max(1, rounds // 3)
            setup_s, _, reference_rates, _, _, _, _ = _serve_once(
                work, "reference", seed, phases, reference_rounds, False, probe, scaled
            )
            setups.append(setup_s)
            trace_path = work / "spans.json"
            _, client, rates, latencies, lags, stats, rss = _serve_once(
                work, "traced", seed, phases, max(1, rounds - reference_rounds), True,
                probe, None, trace_path,
            )
            document = load_trace(str(trace_path))
        checks = _verify(client, seed)
        requests_per_batch = stats["requests"] / stats["batches"] if stats["batches"] else 0.0
        figures = {
            "setup_s": (median([raw for raw, _ in setups]), "s"),
            "setup_ref_s": (median([ref for _, ref in setups]), "s"),
            "req_per_s": (median(rates), "1/s"),
            "req_per_ref_s": (median(scaled.rates), "1/s"),
            "latency_window_p50_ref_ms": (median(scaled.latency_p50s) * 1e3, "ms"),
            "speed_probe_s": (median(probe.times), "s"),
            **latency_figures("latency", [value * 1e3 for value in latencies]),
            "loadgen.lag_p99_ms": (percentile([value * 1e3 for value in lags], 99), "ms"),
            "peak_rss_mb": (rss, "MB"),
            "uncertified_plans": (float(checks["uncertified_plans"]), "count"),
        }
        report = {
            "figures": figures,
            "phase_b_rate": PHASE_B_RATE,
            "phase_a_windows": len(rates),
            "daemon": {
                "batches": stats["batches"],
                "requests": stats["requests"],
                "requests_per_batch": requests_per_batch,
                "lp_solves": stats["lp_solves"],
            },
            "verified": checks["verified"],
            "mismatches": checks["mismatches"],
        }
        if not trace:
            metrics = {
                "setup_s": figures["setup_ref_s"][0],
                "throughput_per_s": figures["req_per_ref_s"][0],
                "latency_p50_ms": figures["latency_window_p50_ref_ms"][0],
                "peak_rss_mb": rss,
            }
        else:
            metrics = summarize(document["spans"])
            metrics["import.repro_s"] = document["import_s"]
            metrics["serving.daemon.batches"] = float(stats["batches"])
            metrics["serving.daemon.requests_per_batch"] = requests_per_batch
            metrics["loadgen.lag_p99_ms"] = figures["loadgen.lag_p99_ms"][0]
            metrics["uncertified_plans"] = figures["uncertified_plans"][0]
            untraced = median(reference_rates)
            metrics["trace.overhead_pct"] = (untraced / median(rates) - 1.0) * 100.0
            report["untraced_req_per_s"] = untraced
    return {"metrics": metrics, "phases": phases, "report": report}
