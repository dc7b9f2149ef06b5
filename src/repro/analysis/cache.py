"""Content-addressed memoisation for the MILP analysis hot path.

Reproducing a Fig. 2 sweep means thousands of response-time fixpoints,
and the delay MILP of one fixpoint step depends on its window ``t``
*only through integer quantities*: the interference budgets
``eta_j(t) + 1``, the interval count ``N_i(t)``, and the cancellation
budget — all staircase functions of ``t``. Two fixpoint iterations
whose windows fall on the same staircase plateau therefore build the
*identical* MILP, and so does the final "confirming" solve of every
converged fixpoint. This module gives those repeats a name: a
content-addressed cache keyed by a canonical digest of everything the
MILP optimum depends on —

* the analysed task's phase durations ``(l, C, u)``;
* every other task's ``(l, C, u)``, LS flag, and hp/lp side, listed in
  priority order (names are deliberately excluded: the cache is
  content-addressed, two isomorphic task sets share entries);
* the per-task interference budgets and the cancellation budget the
  window induces (the *only* way ``t`` enters the formulation);
* the interval count ``N_i(t)``;
* the higher-priority WCRTs when the carry refinement is active;
* the analysis mode and the solver-relevant options (method,
  time limit, MIP gap, resilience configuration).

Because the key captures the MILP's full semantic content, a hit
returns the exact float a fresh build-and-solve would produce — cached
and uncached runs are bit-identical, which the experiment tests assert.

Scoping
-------
:func:`cache_scope` installs a cache for a dynamic extent; every
analysis constructed inside the scope (e.g. by
:func:`repro.analysis.schedulability.is_schedulable`) shares it, so a
greedy LS search's repeated whole-set analyses reuse each other's
solves. The experiment runner opens one scope per (point, task set)
work unit — the same scoping in the sequential and the parallel engine,
which keeps the surfaced hit/miss counters deterministic and identical
between the two.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Protocol, TypeVar

from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.obs import events as obs


class PersistentStoreLike(Protocol):
    """What the cache needs from an on-disk tier (see store.py)."""

    def fetch(self, digest: str) -> tuple[object | None, bool]:
        """Return ``(value, corrupted)`` for one digest."""

    def store(self, digest: str, value: object) -> None:
        """Upsert one digest's value."""

#: Counter names every cache exposes (missing ones read as 0).
#: ``hits`` counts the in-memory tier; ``persistent.hits`` the on-disk
#: tier (its ``bump`` events are the ``cache.persistent.*`` trace
#: family); ``misses`` means neither tier had the digest.
#: ``milp_warm_starts`` counts fixpoint iterations that reused the
#: previous iteration's compiled model — either retargeted in place or
#: squeezed closed by its LP bound without an integer solve.
#: ``unit_store.hits`` counts whole finished *work units* the sweep
#: service answered from the persistent store without dispatching any
#: analysis (see :func:`repro.experiments.units.served_unit`).
COUNTER_NAMES = (
    "hits",
    "misses",
    "persistent.hits",
    "persistent.corrupt",
    "milp_solves",
    "lp_solves",
    "milp_warm_starts",
    "closed_form_screens",
    "lp_screens",
    "screened_out",
    "unit_store.hits",
)

_F = TypeVar("_F", bound=Callable[..., object])


def bound_producer(fn: _F) -> _F:
    """Mark a function as an approved producer of bound entries.

    Bound entries — ``("lp", ub)`` screens and ``("interval", lb, ub)``
    decisions — bracket an optimum without being one; a bound entry
    must never be able to shadow an exact ``("milp", ...)`` verdict.
    The persistent store enforces that dynamically with rank-ordered
    upserts, and the ``screen-soundness`` lint rule enforces the
    *direction* statically: every bound-entry tuple must be built
    inside a function carrying this decorator, so new bound producers
    are an explicit, reviewable act rather than an accident of
    refactoring. The decorator itself is
    behaviour-neutral — it only tags the function object.
    """
    setattr(fn, "__bound_producer__", True)
    return fn


#: Rank of each entry tag, lowest first. A write never replaces an
#: entry of higher rank: exact optima upgrade decided intervals, which
#: upgrade screening bounds, never the other way round. The memory tier
#: (:meth:`AnalysisCache.put`) and the sqlite store's upsert
#: (:mod:`repro.analysis.store`) both rank by this one table; the
#: ``screen-soundness`` lint rule pins its order.
ENTRY_RANKS = {"lp": 1, "interval": 2, "milp": 3}


def entry_rank(value: object) -> int:
    """Soundness rank of a cache entry: bounds below exact verdicts.

    ``("lp", bound)`` screens rank lowest, ``("interval", lb, ub)``
    decisions next; ``("milp", ...)`` tuples and bare solved objectives
    are exact.
    """
    if isinstance(value, tuple) and value and value[0] in ENTRY_RANKS:
        return ENTRY_RANKS[value[0]]
    return ENTRY_RANKS["milp"]


def entry_bounds(value: object) -> tuple[float | None, float | None]:
    """``(lower, upper)`` bounds an entry proves on a delay optimum.

    An exact entry pins both sides; an LP screen gives an upper bound
    only; a decided interval gives whichever sides its decision proved.
    Anything else proves nothing (``(None, None)``).
    """
    if not (isinstance(value, tuple) and value):
        return None, None
    if value[0] == "milp":
        return value[1], value[1]
    if value[0] == "lp":
        return None, value[1]
    if value[0] == "interval":
        return value[1], value[2]
    return None, None


class AnalysisCache:
    """Bounded content-addressed memo for per-task analysis results.

    Two tiers: a per-scope in-memory LRU dict, optionally backed by a
    cross-run/cross-process :class:`repro.analysis.store.PersistentStore`.
    A persistent hit fills the memory tier, so each digest pays the
    disk read at most once per scope.

    Args:
        capacity: Maximum number of entries kept (least recently used
            entries are evicted first). The default comfortably holds
            every distinct MILP of a full Fig. 2 point.
        enabled: With ``False`` the cache never stores or returns
            entries but still counts solves — used by tests and
            benchmarks to measure the uncached (seed) behaviour with
            identical instrumentation.
        persistent: Optional on-disk tier, consulted on memory misses
            and written through on :meth:`put`.
    """

    def __init__(
        self,
        capacity: int = 50_000,
        enabled: bool = True,
        persistent: "PersistentStoreLike | None" = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self.persistent = persistent
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def get(self, key: str) -> object | None:
        """Look up a digest in both tiers, counting the hit or miss."""
        if not self.enabled:
            self.bump("misses")
            return None
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.bump("hits")
            return entry
        if self.persistent is not None:
            value, corrupted = self.persistent.fetch(key)
            if corrupted:
                # The digest check caught a torn/garbled row: the store
                # dropped it, we report it, and the caller re-solves.
                self.bump("persistent.corrupt")
            if value is not None:
                self._remember(key, value)
                self.bump("persistent.hits")
                return value
        self.bump("misses")
        return None

    def _remember(self, key: str, value: object) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def put(self, key: str, value: object, persist: bool = True) -> None:
        """Store a value under a digest (evicting LRU entries).

        With ``persist=False`` the value stays in the memory tier only
        — used for screening bounds whose floating-point value depends
        on scope-local batching and therefore must not be shared across
        work units (the persistent tier only holds values that are a
        pure function of the digest).
        """
        if not self.enabled:
            return
        existing = self._entries.get(key)
        if existing is not None and entry_rank(value) < entry_rank(existing):
            # A bound entry never overwrites an exact verdict —
            # the memory-tier twin of the store's rank-ordered upsert.
            return
        self._remember(key, value)
        if persist and self.persistent is not None:
            self.persistent.store(key, value)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._counters.clear()

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a named counter (solves, screens, hits...).

        Mirrors every increment as a ``cache.<name>`` trace event, so a
        run's trace reconciles with its surfaced ``analysis_stats`` by
        construction: both are sums over the same ``bump`` calls.
        """
        self._counters[name] = self._counters.get(name, 0) + amount
        obs.emit(f"cache.{name}", amount=amount)

    @property
    def counters(self) -> dict[str, int]:
        """A copy of the nonzero counters."""
        return dict(self._counters)

    def stats(self) -> dict[str, int]:
        """All standard counters, including zero-valued ones."""
        return {name: self._counters.get(name, 0) for name in COUNTER_NAMES}

    @property
    def hit_rate(self) -> float:
        """Hits (either tier) over lookups (0.0 when none happened)."""
        hits = self._counters.get("hits", 0) + self._counters.get(
            "persistent.hits", 0
        )
        lookups = hits + self._counters.get("misses", 0)
        return hits / lookups if lookups else 0.0


# ----------------------------------------------------------------------
# scoping
# ----------------------------------------------------------------------
_SCOPES: list[AnalysisCache] = []


def active_cache() -> AnalysisCache | None:
    """The innermost scoped cache, or ``None`` outside any scope."""
    return _SCOPES[-1] if _SCOPES else None


@contextmanager
def cache_scope(cache: AnalysisCache | None = None) -> Iterator[AnalysisCache]:
    """Install ``cache`` (or a fresh one) for the dynamic extent.

    Every analysis object constructed inside the scope without an
    explicit cache shares the scoped one, so independent entry points
    (``is_schedulable`` per protocol, greedy rounds, ...) pool their
    memoised solves and report into one set of counters.
    """
    scoped = cache if cache is not None else AnalysisCache()
    _SCOPES.append(scoped)
    try:
        yield scoped
    finally:
        _SCOPES.pop()


# ----------------------------------------------------------------------
# key construction
# ----------------------------------------------------------------------
def _task_signature(task: Task) -> tuple:
    """The parameters of one task that enter a delay MILP.

    Deadlines and names are deliberately absent: neither appears in the
    formulation (deadlines only gate verdicts, names only label
    variables), and leaving them out lets isomorphic inputs share
    entries. Arrival curves enter solely through the integer budgets,
    which the caller supplies separately.
    """
    return (task.copy_in, task.exec_time, task.copy_out, task.latency_sensitive)


def digest(parts: tuple) -> str:
    """Stable content digest of a canonical key tuple.

    ``repr`` of floats round-trips exactly, so two keys collide only
    when every semantic input is identical.
    """
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def delay_milp_key(
    taskset: TaskSet,
    task: Task,
    mode: str,
    num_intervals: int,
    budgets: tuple[int, ...],
    cancellation_budget: int,
    hp_wcrt: Mapping[str, float] | None,
    solver_signature: tuple,
) -> str:
    """Digest of one windowed delay MILP's full semantic content.

    ``budgets`` lists, in priority order over the *other* tasks, the
    execution budget each receives (``eta_j(t)+1`` refined or not for
    higher-priority tasks, 1 for lower-priority blockers); together
    with ``num_intervals`` and ``cancellation_budget`` they carry every
    window dependence of the formulation.
    """
    others = tuple(
        (
            _task_signature(j),
            j.priority < task.priority,
            (
                None
                if hp_wcrt is None
                else hp_wcrt.get(j.name)
            ),
        )
        for j in taskset
        if j.name != task.name
    )
    return digest(
        (
            "delay",
            mode,
            _task_signature(task),
            others,
            budgets,
            num_intervals,
            cancellation_budget,
            solver_signature,
        )
    )


def case_b_key(taskset: TaskSet, task: Task, solver_signature: tuple) -> str:
    """Digest of the (window-independent) LS case-(b) MILP."""
    others = tuple(
        (_task_signature(j), j.priority < task.priority)
        for j in taskset
        if j.name != task.name
    )
    return digest(("ls_b", _task_signature(task), others, solver_signature))
