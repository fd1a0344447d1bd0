"""Compiled release plans: design once, release forever.

Every workflow here has the two-phase shape the paper prescribes — *design*
a constrained mechanism once (an LP solve or a closed form), then *apply*
it to many counts.  :class:`ReleasePlan` is the compiled artifact of the
first phase that every caller of the second shares.  A plan owns

* the **resolved mechanism** (any representation — dense, closed-form or
  sparse) plus the :class:`~repro.core.selector.SelectorDecision` that
  produced it when known;
* **eagerly prepared sampling state** — :meth:`prepare` runs the
  representation's warm-up (:meth:`~repro.core.mechanism.Mechanism
  .prepare_sampling`);
* **privacy metadata** — :attr:`alpha_cost`, the α charged against a
  :class:`~repro.privacy.PrivacyAccountant` per executed release;
* an optional **post-processing hook** applied to every released array,
  for plans wrapped with :meth:`from_mechanism`.

:meth:`ReleasePlan.compile` is the one place a design request becomes a
plan.  Given a :class:`~repro.serving.cache.DesignCache` it returns the
cache's shared plan for the request on every call until the entry is
evicted, so the daemon, batch sessions, the CLI and library callers all
execute the same object — directly (:meth:`execute` /
:meth:`execute_tiled`) or through a :class:`~repro.engine.executor
.StreamExecutor` for chunked, budget-guarded streams.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.losses import Objective
from repro.core.mechanism import Mechanism
from repro.core.properties import StructuralProperty
from repro.core.selector import SelectorDecision, choose_mechanism
from repro.privacy import BudgetExceededError, PrivacyAccountant

PropertiesLike = Union[None, str, Iterable[Union[str, StructuralProperty]]]

#: Signature of a plan's post-processing hook: released counts in, processed
#: array out.  Receives exactly the array the sampler produced — 1-D for
#: :meth:`ReleasePlan.execute`, ``(repetitions, batch)`` for
#: :meth:`ReleasePlan.execute_tiled`, and *one chunk at a time* under a
#: :class:`~repro.engine.executor.StreamExecutor` (so only elementwise
#: hooks commute with chunking; apply cumulative transforms such as prefix
#: sums to the assembled result instead).
PostProcess = Callable[[np.ndarray], np.ndarray]


def _check_chargeable_alpha(alpha: float) -> float:
    """Refuse a non-positive α: its privacy cost is unbounded (ε = ∞)."""
    if not (0.0 < alpha <= 1.0):
        raise BudgetExceededError(
            f"release at alpha={alpha:g} has unbounded privacy cost (epsilon = inf); "
            "an accountant-guarded path cannot serve it"
        )
    return float(alpha)


def charge_release(
    accountant: Optional[PrivacyAccountant],
    alpha: float,
    label: str = "release",
    releases: int = 1,
) -> None:
    """Charge ``releases`` sequential α-DP releases against an accountant.

    The single budget-enforcement point every engine-routed path uses
    (directly, or through :func:`charge_release_group` for mixed batches):
    ``None`` accountant means unmetered (free) serving; a non-positive α has
    unbounded privacy cost (ε = ∞) and is always refused.  Raises
    :class:`~repro.privacy.BudgetExceededError` *before* the caller draws
    any samples — charging precedes sampling everywhere in the engine.
    """
    if accountant is None:
        return
    alpha = _check_chargeable_alpha(alpha)
    if int(releases) != releases or releases < 1:
        raise ValueError("releases must be a positive integer")
    composed = alpha ** int(releases)
    if not accountant.can_release(composed):
        raise BudgetExceededError(
            f"{releases} release(s) at alpha={alpha:g} would push the guarantee below "
            f"the target {accountant.alpha_target:g} "
            f"(already spent alpha={accountant.spent_alpha():g})"
        )
    accountant.record(composed, label=label)


def charge_release_group(
    accountant: Optional[PrivacyAccountant],
    releases: Sequence[Tuple[float, str]],
) -> None:
    """All-or-nothing charge of several α-DP releases served together.

    The whole group (a mixed serving batch: one ``(alpha, label)`` entry
    per about-to-execute bucket) is checked against the budget *before*
    anything is recorded, so a refusal leaves the accountant untouched and
    the caller has drawn nothing.  On success each release is recorded
    individually, preserving per-bucket history labels.
    """
    if accountant is None or not releases:
        return
    composed = 1.0
    for alpha, _ in releases:
        composed *= _check_chargeable_alpha(alpha)
    if not accountant.can_release(composed):
        raise BudgetExceededError(
            f"serving this request (composed alpha={composed:g}) would push the "
            f"guarantee below the target {accountant.alpha_target:g} "
            f"(already spent alpha={accountant.spent_alpha():g})"
        )
    for alpha, label in releases:
        accountant.record(alpha, label=label)


class ReleasePlan:
    """A compiled, reusable recipe for releasing counts through one design.

    Build one with :meth:`compile` (resolve a ``(n, alpha, properties,
    objective)`` design request, optionally through the shared plan tier of
    a :class:`~repro.serving.cache.DesignCache`) or :meth:`from_mechanism`
    (wrap an already-built mechanism).  Construction eagerly prepares the
    representation's sampling state, so the first executed batch pays no
    warm-up cost.

    Parameters
    ----------
    mechanism:
        The resolved mechanism the plan releases through.
    decision:
        The Figure-5 :class:`~repro.core.selector.SelectorDecision` that
        produced the mechanism, when the plan came from a design request.
    alpha_cost:
        The α charged per executed release against a
        :class:`~repro.privacy.PrivacyAccountant`.  Defaults to the
        mechanism's design α (falling back to its measured
        :meth:`~repro.core.mechanism.Mechanism.max_alpha` when the design α
        is unknown).
    postprocess:
        Optional hook applied to every released array before it is returned
        (estimation, prefix sums, clamping, …).
    key:
        The canonical design-cache key, when the plan was compiled through
        a cache.
    prepare:
        Run the sampling warm-up at construction (default).  Pass ``False``
        when compiling many plans whose first use is far away.
    """

    #: Class-level count of :class:`ReleasePlan` objects constructed in this
    #: process — design requests resolved by :meth:`compile` *and* existing
    #: mechanisms wrapped by :meth:`from_mechanism` (e.g. one per sweep
    #: evaluation task).  Snapshot it around a code path to measure how many
    #: plans the engine built for it, in the style of
    #: :attr:`Mechanism.densifications`.
    compilations = 0

    def __init__(
        self,
        mechanism: Mechanism,
        decision: Optional[SelectorDecision] = None,
        alpha_cost: Optional[float] = None,
        postprocess: Optional[PostProcess] = None,
        key: Optional[str] = None,
        prepare: bool = True,
    ) -> None:
        self.mechanism = mechanism
        self.decision = decision
        if alpha_cost is None:
            alpha_cost = mechanism.alpha if mechanism.alpha is not None else mechanism.max_alpha()
        self.alpha_cost = float(alpha_cost)
        if not (0.0 <= self.alpha_cost <= 1.0):
            raise ValueError("alpha_cost must lie in [0, 1]")
        self.postprocess = postprocess
        self.key = key
        self.prepared = False
        # Execution counters (plan-level stats surfaced by describe()).
        self.executions = 0
        self.records_released = 0
        ReleasePlan.compilations += 1
        if prepare:
            self.prepare()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def compile(
        cls,
        n: int,
        alpha: float,
        properties: PropertiesLike = (),
        objective: Optional[Objective] = None,
        cache: Optional[Any] = None,
    ) -> "ReleasePlan":
        """Resolve a design request into an executable plan.

        The Figure-5 selector answers the request and the resulting
        mechanism is wrapped with its decision, design-cache key and
        per-release α cost.  With a :class:`~repro.serving.cache.DesignCache`
        the cache's shared plan for the request is returned instead, built
        here only on a plan miss (:meth:`~repro.serving.cache.DesignCache
        .get_or_compile`), so repeated compilations neither re-solve an LP
        nor rebuild the mechanism.
        """

        def build(mechanism: Mechanism, decision: SelectorDecision) -> "ReleasePlan":
            return cls(
                mechanism,
                decision=decision,
                alpha_cost=float(alpha),
                key=mechanism.metadata.get("design_cache_key"),
            )

        if cache is not None:
            return cache.get_or_compile(n, alpha, properties, objective, build)
        return build(*choose_mechanism(n, alpha, properties=properties, objective=objective))

    @classmethod
    def from_mechanism(
        cls,
        mechanism: Mechanism,
        decision: Optional[SelectorDecision] = None,
        alpha_cost: Optional[float] = None,
        postprocess: Optional[PostProcess] = None,
        prepare: bool = True,
    ) -> "ReleasePlan":
        """Wrap an existing mechanism (any representation) as a plan."""
        return cls(
            mechanism,
            decision=decision,
            alpha_cost=alpha_cost,
            postprocess=postprocess,
            prepare=prepare,
        )

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Group size covered by the plan's mechanism."""
        return self.mechanism.n

    @property
    def branch(self) -> str:
        """The selector branch that produced the mechanism (name if unknown)."""
        if self.decision is not None:
            return self.decision.branch
        return self.mechanism.name

    def prepare(self) -> "ReleasePlan":
        """Eagerly run the representation's sampling warm-up (idempotent)."""
        if not self.prepared:
            self.mechanism.prepare_sampling()
            self.prepared = True
        return self

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        true_counts: Union[Sequence[int], np.ndarray],
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Release one batch of counts (one independent draw per element).

        Bit-identical to :meth:`Mechanism.sample_batch` on the same
        generator — the plan adds preparation, counting and the optional
        post-processing hook, never a different sampler.
        """
        released = self.mechanism.sample_batch(true_counts, rng=rng)
        self.executions += 1
        self.records_released += int(released.shape[0])
        if self.postprocess is not None:
            released = np.asarray(self.postprocess(released))
        return released

    def execute_with_uniforms(
        self,
        true_counts: Union[Sequence[int], np.ndarray],
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """Release one batch from caller-supplied uniforms (engine hot path).

        Bit-identical to :meth:`execute` whenever ``uniforms`` is
        ``rng.random(len(true_counts))`` from the same generator state; the
        :class:`~repro.engine.executor.StreamExecutor` uses this to draw one
        uniform block covering several chunks and release each chunk from
        its slice.  Counting and the post-processing hook behave exactly as
        in :meth:`execute`.
        """
        released = self.mechanism.sample_with_uniforms(true_counts, uniforms)
        self.executions += 1
        self.records_released += int(released.shape[0])
        if self.postprocess is not None:
            released = np.asarray(self.postprocess(released))
        return released

    def execute_tiled(
        self,
        true_counts: Union[Sequence[int], np.ndarray],
        repetitions: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Release the same batch ``repetitions`` times in one vectorised call.

        Delegates to :meth:`Mechanism.sample_tiled`, so row ``r`` is
        bit-identical to the ``r``-th of ``repetitions`` sequential
        :meth:`execute` calls on the same generator.
        """
        released = self.mechanism.sample_tiled(true_counts, repetitions, rng=rng)
        self.executions += 1
        self.records_released += int(released.size)
        if self.postprocess is not None:
            released = np.asarray(self.postprocess(released))
        return released

    def charge(
        self,
        accountant: Optional[PrivacyAccountant],
        releases: int = 1,
        label: str = "",
    ) -> None:
        """Charge ``releases`` executions of this plan against an accountant.

        Raises :class:`~repro.privacy.BudgetExceededError` (and records
        nothing) when the budget cannot cover them; call *before* sampling.
        """
        charge_release(
            accountant,
            self.alpha_cost,
            label=label or f"{self.mechanism.name} release",
            releases=releases,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line summary used by the CLI's ``--stats`` output."""
        return (
            f"plan[{self.mechanism.name}/{self.mechanism.representation} "
            f"n={self.n} branch={self.branch} alpha_cost={self.alpha_cost:g} "
            f"executions={self.executions} records={self.records_released}]"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReleasePlan(mechanism={self.mechanism.name!r}, n={self.n}, "
            f"representation={self.mechanism.representation!r}, "
            f"alpha_cost={self.alpha_cost:g})"
        )
