"""Shared helpers: locating the source tree, statistics, run records."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch files of a run (state dirs, registries, streams) live here and
#: are removed when the run ends.
WORK_ROOT = ROOT / ".perfbench-work"


class MissingSourceError(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSourceError(
            f"no repro package under {SRC}; run the benchmark from a checkout "
            "of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_repro() -> float:
    """Import ``repro`` from the checkout's ``src`` and return the seconds it took."""
    require_source()
    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.cli  # noqa: F401

    return time.perf_counter() - start


def source_env() -> Dict[str, str]:
    """Environment for a child process that imports ``repro`` from ``src``."""
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + previous if previous else "")
    return env


class WorkDir:
    """A fresh scratch directory inside the checkout, removed on exit."""

    def __enter__(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        return self.path

    def __exit__(self, *exc_info: Any) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return float(ordered[rank])


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def latency_figures(prefix: str, samples_ms: List[float]) -> Dict[str, Tuple[float, str]]:
    """Median, p95 and p99 of a latency sample, with its size and tail count."""
    p99 = percentile(samples_ms, 99)
    return {
        f"{prefix}_p50_ms": (percentile(samples_ms, 50), "ms"),
        f"{prefix}_p95_ms": (percentile(samples_ms, 95), "ms"),
        f"{prefix}_p99_ms": (p99, "ms"),
        f"{prefix}_samples": (float(len(samples_ms)), "count"),
        f"{prefix}_beyond_p99": (float(sum(value > p99 for value in samples_ms)), "count"),
    }


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live child process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


class SpeedProbe:
    """Scales timings to the reference host.

    On a shared host the speed of computation drifts by a third within
    minutes as other tenants come and go, far more than the benchmark's
    bounds.  A workload calls its probe before and after each timed piece of
    work.  The probe times fixed work of the benchmark's own, of the same
    kind as the workload's, and returns the factor that turns the piece's
    timings into reference-host timings: ``reference_s`` over the mean of
    the two probes around it.  No probe uses ``repro``, so no change to the
    program can move it.
    """

    #: The probe's time on the reference host, a 2-vCPU x86-64 VM (Xeon),
    #: at a quiet moment.
    reference_s = 1.0

    def __init__(self) -> None:
        self.times: List[float] = []
        self.work()  # warm-up: imports and first calls

    def work(self) -> None:
        raise NotImplementedError

    def __call__(self) -> float:
        """Probe now; return the factor for the work since the last probe."""
        start = time.perf_counter()
        self.work()
        self.times.append(time.perf_counter() - start)
        return self.reference_s / median(self.times[-2:])


class SolverProbe(SpeedProbe):
    """Small LPs solved with HiGHS, each followed by a JSON-to-numpy round
    trip: the kind of work of LP design, registry reads and request
    handling."""

    reference_s = 0.065
    ROUNDS = 6

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.a_ub = rng.random((60, 120))
        self.b_ub = self.a_ub @ rng.random(120)
        self.c = 0.2 - rng.random(120)
        self.payload = json.dumps(rng.random(2500).tolist())
        super().__init__()

    def work(self) -> None:
        import numpy as np
        from scipy.optimize import linprog

        for _ in range(self.ROUNDS):
            result = linprog(self.c, A_ub=self.a_ub, b_ub=self.b_ub, bounds=(0, 1), method="highs")
            if result.status != 0:
                raise RuntimeError(f"host-speed probe LP failed: {result.message}")
            matrix = np.asarray(json.loads(self.payload)).reshape(50, 50)
            matrix = np.cumsum(matrix / matrix.sum(axis=0), axis=0)
            json.dumps(matrix.tolist())


class SamplingProbe(SpeedProbe):
    """Inverse-CDF draws of 65536 counts against fixed column CDFs with
    numpy: the kind of work of stream sampling."""

    reference_s = 0.050
    ROUNDS = 5
    SIZE = 65536
    N = 64

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        columns = np.cumsum(rng.random((self.N + 1, self.N + 1)), axis=0)
        self.columns = columns / columns[-1]
        self.inputs = rng.integers(0, self.N + 1, size=self.SIZE)
        super().__init__()

    def work(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(self.ROUNDS):
            uniforms = rng.random(self.SIZE)
            released = np.empty(self.SIZE, dtype=np.int64)
            for column in range(self.N + 1):
                rows = self.inputs == column
                released[rows] = np.searchsorted(self.columns[:, column], uniforms[rows])


class Phase:
    """Operations attempted, succeeded and failed in one workload phase."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def record(self, ok: bool, note: Optional[str] = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note is not None and len(self.notes) < 5:
                self.notes.append(note)

    def fail(self, count: int, note: str) -> None:
        """Mark ``count`` already-attempted operations as failed."""
        self.failed = min(self.attempted, self.failed + count)
        if len(self.notes) < 5:
            self.notes.append(note)

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "attempted": self.attempted,
            "succeeded": self.attempted - self.failed,
            "failed": self.failed,
        }
        if self.notes:
            body["failures"] = self.notes
        return body


def _git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> Dict[str, Any]:
    """Machine, interpreter, sampling kernel and source identity of a run."""
    import numpy
    import scipy
    from repro.core._kernels import kernel_name

    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
        "os": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel": kernel_name(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
    }
