"""Per-layer tracing for the benchmark, done entirely from outside ``src/``.

:class:`Tracer` wraps each layer's public entry points by patching the
module attribute the caller looks the function up through (for example
``repro.milp.highs.milp``, the SciPy call HiGHS sits behind). Every
wrapper records a span: its inclusive duration, its self time (the
duration minus the spans it encloses) and a call count. Spans live in
memory and are summarised when the run ends.

Work that runs in forked child processes (process-pool workers, the
sweep service) inherits the patched functions. The first wrapped call in
a child resets the inherited copy of the accumulators and registers a
``multiprocessing`` finaliser, which writes the child's totals to
``<dump_dir>/layers-<pid>.json`` when the child exits normally.
:meth:`Tracer.collect_children` folds those files back in.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import multiprocessing.util
import os
import time
from collections import defaultdict
from pathlib import Path

#: (module, attribute, span name) of every plain function wrapped.
_FUNCTION_SPANS = (
    ("repro.analysis.proposed.response_time", "closed_form_delay_bound",
     "screen.closed_form"),
    ("repro.analysis.proposed.response_time",
     "closed_form_delay_bounds_batch", "screen.closed_form"),
    ("repro.milp.relaxation", "_relaxed", "screen.lp"),
    ("repro.analysis.proposed.response_time", "build_delay_milp",
     "milp.build"),
    ("repro.analysis.proposed.response_time", "update_delay_milp",
     "milp.build"),
    ("repro.experiments.units", "_save_checkpoint_traced", "checkpoint"),
    ("repro.experiments.runner", "_save_checkpoint_traced", "checkpoint"),
    ("repro.experiments.runner", "run_point", "dispatch"),
    ("repro.experiments.runner", "_run_experiment_parallel", "dispatch"),
    ("repro.service.client", "sweep_from_dict", "client.decode"),
)

class Tracer:
    """In-memory span accounting with reversible monkey-patches."""

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = Path(dump_dir)
        self.pid = os.getpid()
        #: Set in forked children; their wire traffic is not the client's.
        self.is_child = False
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- accounting ----------------------------------------------------
    def reset(self) -> None:
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: One record per SciPy ``milp`` call made by the HiGHS backend.
        self.solves: list[dict] = []
        self.context: dict[str, object] = {}
        self._stack: list[list] = []

    def _check_process(self) -> None:
        if os.getpid() == self.pid:
            return
        # First wrapped call in a forked child: drop the parent's totals
        # copied by fork and dump this child's own totals at exit.
        self.pid = os.getpid()
        self.is_child = True
        self.reset()
        multiprocessing.util.Finalize(self, self._dump, exitpriority=100)

    def enter(self, name: str) -> float:
        self._check_process()
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def exit(self, start: float) -> float:
        duration = time.perf_counter() - start
        name, enclosed = self._stack.pop()
        self.incl_s[name] += duration
        self.self_s[name] += duration - enclosed
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def _dump(self) -> None:
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"layers-{os.getpid()}.json"
        path.write_text(json.dumps(self._totals()))

    def _totals(self) -> dict:
        return {
            "incl_s": dict(self.incl_s),
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "solves": self.solves,
        }

    def collect_children(self, timeout: float = 30.0) -> None:
        """Wait for forked children to exit and fold in their dumps."""
        deadline = time.monotonic() + timeout
        for child in multiprocessing.active_children():
            child.join(max(0.0, deadline - time.monotonic()))
        if not self.dump_dir.is_dir():
            return
        for path in sorted(self.dump_dir.glob("layers-*.json")):
            totals = json.loads(path.read_text())
            path.unlink()
            for table in ("incl_s", "self_s", "calls", "counts"):
                target = getattr(self, table)
                for name, value in totals[table].items():
                    target[name] += value
            self.solves.extend(totals["solves"])

    # -- patching ------------------------------------------------------
    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per install)."""
        if self._patches:
            return
        for module_name, attr, span in _FUNCTION_SPANS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._span_wrapper(
                getattr(module, attr), span
            ))
        for module_name in ("repro.experiments.units",
                            "repro.experiments.runner"):
            module = importlib.import_module(module_name)
            self._patch(module, "_merge_units",
                        self._merge_wrapper(module._merge_units))
        units = importlib.import_module("repro.experiments.units")
        runner = importlib.import_module("repro.experiments.runner")
        for module in (units, runner):
            self._patch(module, "generate_tasksets",
                        self._generator_wrapper(module.generate_tasksets))
        self._patch(units, "is_schedulable",
                    self._analysis_wrapper(units.is_schedulable))
        self._patch(runner, "_evaluate_unit",
                    self._unit_wrapper(runner._evaluate_unit))
        highs = importlib.import_module("repro.milp.highs")
        self._patch(highs, "milp", self._highs_wrapper(highs.milp))
        store = importlib.import_module("repro.analysis.store")
        cls = store.PersistentStore
        self._patch(cls, "fetch", self._store_wrapper(cls.fetch, "fetch"))
        self._patch(cls, "fetch_many",
                    self._store_wrapper(cls.fetch_many, "fetch_many"))
        self._patch(cls, "store", self._store_wrapper(cls.store, "store"))
        wire = importlib.import_module("repro.service.wire")
        self._patch(wire, "_decode_payload",
                    self._decode_wrapper(wire._decode_payload))
        self._patch(wire, "encode_frame",
                    self._encode_wrapper(wire.encode_frame))

    # -- wrapper factories ---------------------------------------------
    def _span_wrapper(self, original, span: str):
        def wrapper(*args, **kwargs):
            start = self.enter(span)
            try:
                return original(*args, **kwargs)
            finally:
                self.exit(start)

        return wrapper

    def _generator_wrapper(self, original):
        """Time the lazy generator's consumption, one task set per step."""
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                start = self.enter("generator")
                try:
                    taskset = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.exit(start)
                self.counts["generator.tasksets"] += 1
                yield taskset

        return wrapper

    def _analysis_wrapper(self, original):
        def wrapper(taskset, protocol, *args, **kwargs):
            self.context["protocol"] = protocol
            start = self.enter(f"analysis.{protocol}")
            try:
                return original(taskset, protocol, *args, **kwargs)
            finally:
                self.exit(start)

        return wrapper

    def _unit_wrapper(self, original):
        def wrapper(point, config, seed, taskset_index, *args, **kwargs):
            self._check_process()
            self.context["point"] = seed - config.seed
            self.context["unit"] = taskset_index
            return original(point, config, seed, taskset_index, *args,
                            **kwargs)

        return wrapper

    def _merge_wrapper(self, original):
        def wrapper(point, config, units, elapsed_seconds):
            self.counts["units.elapsed_s"] += sum(
                u.elapsed_seconds for u in units
            )
            start = self.enter("merge")
            try:
                return original(point, config, units, elapsed_seconds)
            finally:
                self.exit(start)

        return wrapper

    def _highs_wrapper(self, original):
        def wrapper(c, *args, **kwargs):
            start = self.enter("highs")
            try:
                result = original(c, *args, **kwargs)
            finally:
                wall = self.exit(start)
            constraints = kwargs.get("constraints")
            rows = 0 if constraints is None else int(constraints.A.shape[0])
            self.solves.append({
                "wall_s": wall,
                "status": int(result.status),
                "nodes": getattr(result, "mip_node_count", None),
                "gap": getattr(result, "mip_gap", None),
                "dual_bound": getattr(result, "mip_dual_bound", None),
                "rows": rows,
                "vars": int(len(c)),
                "point": self.context.get("point"),
                "unit": self.context.get("unit"),
                "protocol": self.context.get("protocol"),
            })
            return result

        return wrapper

    def _store_wrapper(self, original, kind: str):
        def wrapper(store, *args, **kwargs):
            if kind == "fetch_many":
                digests = list(args[0])
                args = (digests,) + args[1:]
                self.counts["store.reads"] += len(digests)
            elif kind == "fetch":
                self.counts["store.reads"] += 1
            else:
                self.counts["store.writes"] += 1
            start = self.enter("store")
            try:
                return original(store, *args, **kwargs)
            finally:
                self.exit(start)

        return wrapper

    def _decode_wrapper(self, original):
        def wrapper(payload):
            self._check_process()
            if self.is_child:
                return original(payload)
            self.counts["wire.bytes"] += len(payload) + 4
            start = self.enter("client.decode")
            try:
                return original(payload)
            finally:
                self.exit(start)

        return wrapper

    def _encode_wrapper(self, original):
        def wrapper(message):
            frame = original(message)
            self._check_process()
            if not self.is_child:
                self.counts["wire.bytes"] += len(frame)
            return frame

        return wrapper


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: name -> (unit, better). The order is the order of the report.
PER_LAYER = {
    "highs.self_s": ("s", "lower"),
    "highs.solves": ("count", "lower"),
    "highs.nodes": ("count", "lower"),
    "highs.max_s": ("s", "lower"),
    "highs.top5_share": ("ratio", "lower"),
    "highs.gap_nonzero": ("count", "lower"),
    "milp.build.self_s": ("s", "lower"),
    "milp.build.calls": ("count", "lower"),
    "screen.closed_form.self_s": ("s", "lower"),
    "screen.closed_form.calls": ("count", "lower"),
    "screen.lp.self_s": ("s", "lower"),
    "screen.lp.calls": ("count", "lower"),
    "screen.settled_ratio": ("ratio", "higher"),
    "analysis.self_s": ("s", "lower"),
    "analysis.proposed_s": ("s", "lower"),
    "analysis.wasly_s": ("s", "lower"),
    "analysis.nps_carry_s": ("s", "lower"),
    "generator.self_s": ("s", "lower"),
    "generator.tasksets": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.warm_starts": ("count", "higher"),
    "store.reads": ("count", "lower"),
    "store.writes": ("count", "lower"),
    "store.self_s": ("s", "lower"),
    "merge.self_s": ("s", "lower"),
    "dispatch.self_s": ("s", "lower"),
    "dispatch.busy_frac": ("ratio", "higher"),
    "checkpoint.writes": ("count", "lower"),
    "checkpoint.self_s": ("s", "lower"),
    "service.served_ratio": ("ratio", "higher"),
    "service.coordinator_ms": ("ms", "lower"),
    "wire.bytes_per_submit": ("B", "lower"),
    "client.decode_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.untraced_sweep_s": ("s", "lower"),
    "trace.traced_sweep_s": ("s", "lower"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    stats: dict[str, int],
    sweeps: int,
    jobs: int,
    traced_s: list[float],
    untraced_s: list[float],
    units: int,
    submits: int = 0,
    coordinator_ms: float = 0.0,
) -> dict[str, float]:
    """Fold one traced run's spans and the program's counters into the
    :data:`PER_LAYER` metrics.

    ``stats`` sums ``analysis_stats`` over the traced sweeps' points;
    ``sweeps`` is how many traced sweeps (or submits) the spans cover
    and ``units`` how many (point, task set) units they asked for.
    Times are totals per traced sweep; ratios need no scaling.

    Definitions the names do not carry: ``screen.settled_ratio`` is the
    verdicts settled by a closed-form or LP screen over those plus the
    integer solves made; ``dispatch.self_s`` is time in ``run_point`` or
    the process-pool loop outside every other span, waiting for workers
    included; ``dispatch.busy_frac`` is the summed unit
    ``elapsed_seconds`` over ``jobs`` times the traced sweep time;
    ``highs.gap_nonzero`` counts solves that stopped at a nonzero
    ``mip_gap``; ``trace.overhead_frac`` compares the medians of the
    traced and the untraced sweeps.
    """
    from statistics import median

    per = 1.0 / max(1, sweeps)
    solve_walls = sorted((s["wall_s"] for s in tracer.solves), reverse=True)
    highs_total = sum(solve_walls)
    settled = (
        stats.get("closed_form_screens", 0)
        + stats.get("lp_screens", 0)
        + stats.get("screened_out", 0)
    )
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    traced = median(traced_s) if traced_s else 0.0
    untraced = median(untraced_s) if untraced_s else 0.0
    analysis_self = sum(
        v for k, v in tracer.self_s.items() if k.startswith("analysis.")
    )
    metrics = {
        "highs.self_s": highs_total * per,
        "highs.solves": len(solve_walls) * per,
        "highs.nodes": sum(s["nodes"] or 0 for s in tracer.solves) * per,
        "highs.max_s": solve_walls[0] if solve_walls else 0.0,
        "highs.top5_share": _ratio(sum(solve_walls[:5]), highs_total),
        "highs.gap_nonzero": sum(
            1 for s in tracer.solves if s["gap"] and s["gap"] > 0
        ) * per,
        "milp.build.self_s": tracer.self_s["milp.build"] * per,
        "milp.build.calls": tracer.calls["milp.build"] * per,
        "screen.closed_form.self_s": tracer.self_s["screen.closed_form"] * per,
        "screen.closed_form.calls": tracer.calls["screen.closed_form"] * per,
        "screen.lp.self_s": tracer.self_s["screen.lp"] * per,
        "screen.lp.calls": tracer.calls["screen.lp"] * per,
        "screen.settled_ratio": _ratio(
            settled, settled + stats.get("milp_solves", 0)
        ),
        "analysis.self_s": analysis_self * per,
        "analysis.proposed_s": tracer.incl_s["analysis.proposed"] * per,
        "analysis.wasly_s": tracer.incl_s["analysis.wasly"] * per,
        "analysis.nps_carry_s": tracer.incl_s["analysis.nps_carry"] * per,
        "generator.self_s": tracer.self_s["generator"] * per,
        "generator.tasksets": tracer.counts["generator.tasksets"] * per,
        "cache.hit_ratio": _ratio(stats.get("hits", 0), lookups),
        "cache.warm_starts": stats.get("milp_warm_starts", 0) * per,
        "store.reads": tracer.counts["store.reads"] * per,
        "store.writes": tracer.counts["store.writes"] * per,
        "store.self_s": tracer.self_s["store"] * per,
        "merge.self_s": tracer.self_s["merge"] * per,
        "dispatch.self_s": tracer.self_s["dispatch"] * per,
        "dispatch.busy_frac": _ratio(
            tracer.counts["units.elapsed_s"], jobs * sum(traced_s)
        ),
        "checkpoint.writes": tracer.calls["checkpoint"] * per,
        "checkpoint.self_s": tracer.self_s["checkpoint"] * per,
        "service.served_ratio": _ratio(
            stats.get("unit_store.hits", 0), units
        ),
        "service.coordinator_ms": coordinator_ms,
        "wire.bytes_per_submit": _ratio(tracer.counts["wire.bytes"], submits),
        "client.decode_ms": _ratio(
            1000.0 * tracer.self_s["client.decode"], submits
        ),
        "trace.overhead_frac": _ratio(traced - untraced, untraced),
        "trace.untraced_sweep_s": untraced,
        "trace.traced_sweep_s": traced,
    }
    assert list(metrics) == list(PER_LAYER)
    return metrics


def top_solves(tracer: Tracer, count: int = 5) -> list[dict]:
    """The ``count`` longest HiGHS calls, heaviest first."""
    return sorted(tracer.solves, key=lambda s: -s["wall_s"])[:count]
