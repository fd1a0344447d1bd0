"""Batch serving layer: design caching and vectorised release sessions.

The core library answers one design question at a time: ``choose_mechanism``
runs the Figure-5 flowchart and, on the two WM branches, solves an LP from
scratch; ``Mechanism.sample`` draws one noisy count.  Production traffic —
many users, many groups, a handful of distinct ``(n, alpha, properties)``
configurations — needs neither repeated: this package adds

* :class:`~repro.serving.cache.DesignCache` — the plan tier: one LRU of
  designs and their compiled :class:`~repro.engine.plan.ReleasePlan`
  objects keyed by the full design request, so repeated requests never
  touch the LP solver or rebuild a plan; its persistent tier is
* :class:`~repro.serving.registry.PlanRegistry` — one WAL-mode sqlite
  artifact store per cache directory, safe for concurrent multi-process
  readers and a writer, with per-row checksums and schema versioning;
* :func:`~repro.serving.warm.warm_grid` — the offline grid precompiler
  behind ``repro-mechanisms warm``, which fills a registry so a freshly
  started daemon serves every grid point with zero LP solves;
* :class:`~repro.serving.session.BatchReleaseSession` — routes mixed streams
  of ``(group, count, design request)`` records through the cache's shared
  plans, optionally
  guarded by a :class:`~repro.privacy.PrivacyAccountant` budget;
* :class:`~repro.serving.session.ReleaseRequest` /
  :class:`~repro.serving.session.ReleasedCount` — the record types of that
  stream;
* :class:`~repro.serving.daemon.ServingDaemon` — the long-lived asyncio
  front-end (``repro-mechanisms serve``): per-tenant
  :class:`~repro.privacy.PrivacyAccountant` sessions over one shared
  plan tier, with a coalescing batcher that merges same-plan
  requests from different tenants into single vectorised draws while
  staying bit-identical to per-request serving — with durable per-tenant
  budgets (:class:`~repro.serving.tenant_store.TenantStore` under
  ``--state-dir``), restart recovery, deadlines and backpressure;
* :class:`~repro.serving.protocol.AsyncDaemonClient` and the line-delimited
  JSON protocol helpers (:mod:`repro.serving.protocol`), plus the shared
  machine-readable statistics schema (:mod:`repro.serving.stats`).

The session is a thin adapter over :mod:`repro.engine`; use
:class:`~repro.engine.executor.StreamExecutor` directly (or the
``serve-stream`` CLI) for chunked streams of unbounded length.

See ``docs/architecture.md`` for the data-flow diagram and
``benchmarks/test_bench_serving.py`` / ``benchmarks/test_bench_daemon.py``
for the throughput guarantees.
"""

from repro.serving.cache import CacheStats, DesignCache, design_key
from repro.serving.daemon import DaemonStats, ServingDaemon, TenantSession
from repro.serving.registry import (
    PlanRegistry,
    RegistryError,
    RegistryVersionError,
    parse_design_key,
)
from repro.serving.warm import parse_grid, warm_grid
from repro.serving.protocol import (
    AsyncDaemonClient,
    ProtocolError,
    tenant_seed_sequence,
)
from repro.serving.session import BatchReleaseSession, ReleaseRequest, ReleasedCount
from repro.serving.stats import health_payload, stats_payload
from repro.serving.tenant_store import RecoveredTenant, TenantStore, tenant_slug

__all__ = [
    "AsyncDaemonClient",
    "BatchReleaseSession",
    "CacheStats",
    "DaemonStats",
    "DesignCache",
    "PlanRegistry",
    "ProtocolError",
    "RecoveredTenant",
    "RegistryError",
    "RegistryVersionError",
    "ReleaseRequest",
    "ReleasedCount",
    "ServingDaemon",
    "TenantSession",
    "TenantStore",
    "design_key",
    "health_payload",
    "parse_design_key",
    "parse_grid",
    "stats_payload",
    "warm_grid",
    "tenant_seed_sequence",
    "tenant_slug",
]
