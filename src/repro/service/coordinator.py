"""Sweep-service coordinator: shard, probe the store, dispatch, merge.

One asyncio server accepts both roles on one port (the first frame's
``hello`` names the role). Workers register into an idle pool; clients
submit sweep configs and stream progress back. Sweeps are processed
one at a time — the coordinator is the *parent* of the sweep: the only
writer of the trace, the checkpoint, and the unit-result store.
``repro serve`` runs a long-lived service; ``run_experiment(...,
jobs=N)`` runs each sweep on a private one with ``N`` local workers.

The dispatch pipeline per sweep:

1. **Resume.** The sweep's checkpoint (``checkpoint_dir/<config
   digest>.json`` for a submitted sweep) is loaded tolerantly; points
   it already holds are skipped, digest-failed points are dropped and
   re-solved — the same ``checkpoint_version`` 1/2 recovery the CLI
   ``--resume`` path uses, which is what makes a *coordinator* restart
   survivable: resubmit, and only the lost tail is recomputed.
2. **Store probe.** Every pending (point, task set) unit's content
   address (:func:`repro.experiments.units.unit_digest`) is probed
   against the persistent store in one batched ``fetch_many`` *before
   anything is dispatched*. Hits are recorded immediately as served
   units (zero analysis, a ``unit_store.hits`` counter, a
   ``service.unit.served`` trace event); only unseen digests reach a
   worker. A fully-warm repeat submit therefore completes without a
   single solve or dispatch. With a fault plan active the probe and
   the store writes are disabled — injected faults must actually
   execute, and their outcomes must not poison the store.
3. **Dispatch.** Remaining units go, in sorted order, through one
   *lane* per live worker: a lane sends its worker one unit, awaits the
   result, and sends the next, so every worker has exactly one unit in
   flight and the wire is never pipelined. Workers the service spawned
   count as live from the moment they are spawned — a sweep waits for
   them to join instead of replacing them — and one that dies is
   replaced within a per-sweep respawn budget. A worker connection
   dying mid-unit is a crash of exactly the unit it held: the
   :class:`~repro.experiments.units.UnitScheduler` requeues it, re-runs
   it alone, and quarantines it on a second crash.
4. **Merge.** Unit results merge through the scheduler's parent-only
   checkpoint path; solved units are written back to the store so the
   next overlapping sweep starts warmer.
"""

from __future__ import annotations

import asyncio
import builtins
import multiprocessing
import multiprocessing.util
import os
import time
from collections import deque
from contextlib import asynccontextmanager, nullcontext
from typing import AsyncIterator, Awaitable, Callable

import repro.errors
from repro.analysis.interface import AnalysisOptions
from repro.analysis.store import PersistentStore
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import (
    _config_from_dict,
    cleanup_stale_tmp,
    config_digest,
    load_checkpoint_recovering,
    sweep_to_dict,
)
from repro.experiments.units import (
    FailurePolicy,
    PointResult,
    SweepResult,
    UnitScheduler,
    _coerce_policy,
    served_unit,
    unit_digest,
    unit_from_wire,
    unit_to_payload,
)
from repro.faults import injection as faults
from repro.faults.plan import FaultPlan
from repro.obs.events import TraceWriter
from repro.service.wire import (
    encode_frame,
    recv_message_async,
    send_message_async,
)
from repro.service.worker import options_from_dict, options_to_dict, spawn_worker

#: Seconds a stopping service gives its workers to exit on their own
#: before it terminates them.
_EXIT_GRACE_S = 5.0
#: Poll interval for state no event announces: a spawned worker dying
#: before it joins, a worker process exiting.
_POLL_S = 0.05

#: Dispatches one unit (worker, unit key, attempt) and records it.
_UnitRunner = Callable[["_WorkerConn", "tuple[int, int]", int], Awaitable[None]]


class _WorkerConn:
    """Coordinator-side state of one connected worker."""

    def __init__(
        self,
        worker_id: int,
        spawned: bool,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.id = worker_id
        #: Whether this service spawned the worker (and so replaces it).
        self.spawned = spawned
        self.reader = reader
        self.writer = writer
        self.alive = True
        #: Sweep ids whose config this worker already holds.
        self.known_sweeps: set[str] = set()
        #: Unit key currently dispatched to this worker, if any.
        self.in_flight: "tuple[int, int] | None" = None
        self.closed = asyncio.Event()


def _worker_error(error: dict, key: "tuple[int, int]") -> Exception:
    """Rebuild the exception a worker reported on a result frame.

    Only the type *name* crosses the wire — nothing is unpickled. A
    :mod:`repro.errors` class or a builtin ``Exception`` subclass is
    re-raised as itself with the worker's message, so a sweep fails
    with the same type under every ``jobs``; any other type becomes an
    :class:`ExperimentError` naming it.
    """
    name = str(error.get("type"))
    message = str(error.get("message"))
    cls = getattr(repro.errors, name, None) or getattr(builtins, name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            return cls(message)
        except TypeError:  # a constructor wanting more than a message
            pass
    return ExperimentError(
        f"worker failed evaluating (point {key[0]}, set {key[1]}): "
        f"{name}: {message}"
    )


class SweepService:
    """The coordinator: owns workers, the store, and sweep processing.

    Workers started with :meth:`spawn_workers` belong to the service: it
    counts each as live from its spawn, replaces the ones that die
    (bounded per sweep by a ``4 + 2 * units`` respawn budget), and joins
    them on :meth:`stop`. Workers that connect on their own (remote
    mode) are used but never replaced; a sweep left with no worker and
    nothing to spawn fails loudly.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_path: "str | None" = None,
        checkpoint_dir: "str | None" = None,
        trace_dir: "str | None" = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.cache_path = cache_path
        self.checkpoint_dir = checkpoint_dir
        self.trace_dir = trace_dir
        self.fault_plan = fault_plan
        self.store = (
            PersistentStore(cache_path) if cache_path is not None else None
        )
        self._server: "asyncio.AbstractServer | None" = None
        self._workers: dict[int, _WorkerConn] = {}
        self._idle: deque[_WorkerConn] = deque()
        #: Set whenever a worker joins or a dispatch lane ends.
        self._wake = asyncio.Event()
        #: Every worker process spawned and not yet reaped.
        self._spawned: list[multiprocessing.Process] = []
        #: Spawned workers that have not joined yet, by pid.
        self._unjoined: dict[int, multiprocessing.Process] = {}
        #: How many spawned workers the service keeps running.
        self._fleet = 0
        self._next_worker_id = 0
        self._next_sweep = 0
        self._sweep_lock = asyncio.Lock()
        self._writer: TraceWriter | None = None
        self._respawns = 0
        self._respawn_budget = 0
        self.sweeps_done = 0
        self._sweep_finished = asyncio.Event()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        multiprocessing.util.register_after_fork(
            self, SweepService._release_in_child
        )

    def _release_in_child(self) -> None:
        """In a forked child: let go of the coordinator's sockets.

        A forked worker inherits every descriptor this process holds.
        Pointing its copies of the listener and of the other workers'
        connections at ``/dev/null`` lets them close when the
        coordinator closes them: a worker spawned as the service stops
        is refused instead of waiting on a listener nobody accepts on,
        and a dropped worker reads end-of-stream.
        """
        sockets = list(self._server.sockets) if self._server else []
        sockets += [
            worker.writer.get_extra_info("socket")
            for worker in self._workers.values()
        ]
        devnull = os.open(os.devnull, os.O_RDWR)
        for sock in sockets:
            if sock is not None and sock.fileno() >= 0:
                os.dup2(devnull, sock.fileno())
        os.close(devnull)

    def spawn_workers(self, count: int) -> None:
        """Start ``count`` local worker processes owned by this service."""
        self._fleet += count
        for _ in range(count):
            self._spawn()

    def _spawn(self) -> None:
        process = spawn_worker(self.host, self.port)
        assert process.pid is not None
        self._spawned.append(process)
        self._unjoined[process.pid] = process

    async def stop(self) -> None:
        """Stop accepting, shut every worker down, reap spawned ones.

        Workers exit on the ``shutdown`` frame and run their exit
        handlers; only a worker still alive after a grace period is
        terminated.
        """
        if self._server is not None:
            self._server.close()
        deadline = time.monotonic() + _EXIT_GRACE_S
        while True:
            # A spawned worker may still join (its connection was
            # accepted before the close): shut it down as well.
            for worker in list(self._workers.values()):
                try:
                    await send_message_async(
                        worker.writer, {"type": "shutdown"}
                    )
                except (ConnectionError, OSError):
                    pass
                self._drop_worker(worker)
            if time.monotonic() >= deadline or not any(
                process.is_alive() for process in self._spawned
            ):
                break
            await asyncio.sleep(0.01)
        self._idle.clear()
        for process in self._spawned:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5)
        self._spawned.clear()
        self._unjoined.clear()
        if self._server is not None:
            await self._server.wait_closed()

    async def wait_for_sweeps(self, count: int) -> None:
        """Block until ``count`` sweeps have been processed."""
        while self.sweeps_done < count:
            self._sweep_finished.clear()
            await self._sweep_finished.wait()

    @property
    def live_workers(self) -> int:
        """Workers connected right now."""
        return len(self._workers)

    @property
    def workers(self) -> int:
        """Workers connected or spawned and still on their way."""
        return self.live_workers + sum(
            process.is_alive() for process in self._unjoined.values()
        )

    def _replenish(self) -> None:
        """Replace spawned workers that died, within the respawn budget."""
        self._spawned = [p for p in self._spawned if p.is_alive()]
        self._unjoined = {
            pid: p for pid, p in self._unjoined.items() if p.is_alive()
        }
        running = self.workers - sum(
            1 for worker in self._workers.values() if not worker.spawned
        )
        while running < self._fleet and self._respawns < self._respawn_budget:
            self._respawns += 1
            self._spawn()
            running += 1

    async def _woken(self, timeout: "float | None") -> None:
        """Wait for a worker to join or a lane to end, or ``timeout``."""
        try:
            await asyncio.wait_for(self._wake.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    async def _await_spawned(self) -> None:
        """Wait until every spawned worker has joined (or died)."""
        while True:
            self._wake.clear()
            if self.workers == self.live_workers:
                return
            await self._woken(_POLL_S)

    # -- connection handling -------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        hello = await recv_message_async(reader)
        if hello is None or hello.get("type") != "hello":
            writer.close()
            return
        if hello.get("role") == "worker":
            await self._handle_worker(reader, writer, int(hello.get("pid", -1)))
        else:
            await self._handle_client(reader, writer)

    async def _handle_worker(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        pid: int,
    ) -> None:
        spawned = self._unjoined.pop(pid, None) is not None
        worker = _WorkerConn(self._next_worker_id, spawned, reader, writer)
        self._next_worker_id += 1
        self._workers[worker.id] = worker
        try:
            await send_message_async(writer, {
                "type": "welcome",
                "cache_path": self.cache_path,
                "fault_plan": (
                    self.fault_plan.to_dict()
                    if self.fault_plan is not None
                    else None
                ),
            })
        except (ConnectionError, OSError):
            self._drop_worker(worker)
            return
        self._emit("service.worker.joined", worker=worker.id)
        self._idle.append(worker)
        self._wake.set()
        # Hold the connection open until the dispatch path (or stop())
        # declares the worker gone; all reads happen in _run_unit.
        await worker.closed.wait()

    def _drop_worker(self, worker: _WorkerConn) -> None:
        if not worker.alive:
            return
        worker.alive = False
        worker.closed.set()
        self._workers.pop(worker.id, None)
        self._emit(
            "service.worker.left",
            worker=worker.id,
            inflight=0 if worker.in_flight is None else 1,
        )
        try:
            worker.writer.close()
        except OSError:
            pass

    # -- client handling -----------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        message = await recv_message_async(reader)
        if message is None:
            writer.close()
            return
        if message.get("type") != "submit":
            await send_message_async(writer, {
                "type": "error", "error_type": "WireError",
                "message": f"expected a submit message, got "
                           f"{message.get('type')!r}",
            })
            writer.close()
            return

        def point_progress(result: PointResult) -> None:
            # Sync callback from the scheduler: buffer the frame; the
            # event loop flushes it with the next await.
            writer.write(encode_frame({
                "type": "progress",
                "x": result.x,
                "ratios": dict(result.ratios),
                "failures": len(result.failures),
            }))

        def unit_progress(done: int, total: int, served: int) -> None:
            writer.write(encode_frame({
                "type": "unit_done", "done": done, "total": total,
                "served": served,
            }))

        try:
            config = _config_from_dict(message["config"])
            sweep = await self.process_sweep(
                config,
                options=options_from_dict(message.get("options")),
                failure_policy=message.get(
                    "policy", FailurePolicy.COUNT_UNSCHEDULABLE.value
                ),
                progress=point_progress,
                unit_progress=unit_progress,
            )
        except Exception as exc:  # noqa: BLE001 - reported to the client
            try:
                await send_message_async(writer, {
                    "type": "error",
                    "error_type": type(exc).__name__,
                    "message": str(exc),
                })
            except (ConnectionError, OSError):
                pass
        else:
            try:
                await send_message_async(writer, {
                    "type": "sweep_done",
                    "sweep": sweep_to_dict(sweep),
                })
            except (ConnectionError, OSError):
                pass
        finally:
            writer.close()

    # -- sweep processing ----------------------------------------------
    def _emit(self, name: str, **fields: object) -> None:
        if self._writer is not None:
            self._writer.emit(name, **fields)  # type: ignore[arg-type]

    async def process_sweep(
        self,
        config: ExperimentConfig,
        *,
        options: AnalysisOptions | None = None,
        failure_policy: "FailurePolicy | str" = (
            FailurePolicy.COUNT_UNSCHEDULABLE
        ),
        progress: "Callable[[PointResult], None] | None" = None,
        unit_progress: "Callable[[int, int, int], None] | None" = None,
        trace_path: "str | None" = None,
    ) -> SweepResult:
        """Run one submitted sweep: resume, then probe → dispatch → merge.

        Serialised: concurrent submits queue on the sweep lock. The
        full experiment contract of :func:`repro.experiments.runner.
        run_experiment` applies — same unit decomposition, same
        checkpoint format, same trace schema, bit-identical results.
        """
        async with self._sweep_lock:
            try:
                return await self._process_sweep_locked(
                    config, options, _coerce_policy(failure_policy),
                    progress, unit_progress, trace_path,
                )
            finally:
                self.sweeps_done += 1
                self._sweep_finished.set()

    async def _process_sweep_locked(
        self,
        config: ExperimentConfig,
        options: AnalysisOptions | None,
        policy: FailurePolicy,
        progress: "Callable[[PointResult], None] | None",
        unit_progress: "Callable[[int, int, int], None] | None",
        trace_path: "str | None",
    ) -> SweepResult:
        digest = config_digest(config)
        checkpoint_path: "str | None" = None
        completed: dict[int, PointResult] = {}
        recovered: list[str] = []
        if self.checkpoint_dir is not None:
            os.makedirs(self.checkpoint_dir, exist_ok=True)
            checkpoint_path = os.path.join(
                self.checkpoint_dir, f"{digest}.json"
            )
            cleanup_stale_tmp(checkpoint_path)
            completed, recovered = load_checkpoint_recovering(
                checkpoint_path, config
            )
        if trace_path is None and self.trace_dir is not None:
            os.makedirs(self.trace_dir, exist_ok=True)
            # One file per *sweep* (named by the id run_sweep is about
            # to assign), not per config: a repeat submit of the same
            # config (resumed or store-served, hence a nearly empty
            # trace) must not clobber the cold run's full trace.
            trace_path = os.path.join(
                self.trace_dir,
                f"{digest}.s{self._next_sweep}.trace.jsonl",
            )
        writer = (
            TraceWriter(trace_path, run_id=digest[:12])
            if trace_path is not None
            else None
        )
        plan_scope = (
            faults.injecting(self.fault_plan)
            if self.fault_plan is not None
            else nullcontext()
        )
        try:
            with plan_scope:
                if writer is not None:
                    writer.emit(
                        "run.start",
                        points=len(config.points),
                        sets=config.sets_per_point,
                        jobs=self.workers,
                        resumed=len(completed),
                    )
                    for problem in recovered:
                        writer.emit("checkpoint.recovered", detail=problem)
                run_start = time.perf_counter()
                result = await self.run_sweep(
                    config,
                    options,
                    policy,
                    completed,
                    checkpoint_path=checkpoint_path,
                    writer=writer,
                    progress=progress,
                    unit_progress=unit_progress,
                )
                if writer is not None:
                    writer.emit(
                        "run.end", dur=time.perf_counter() - run_start
                    )
                return result
        finally:
            if writer is not None:
                writer.close()

    async def run_sweep(
        self,
        config: ExperimentConfig,
        options: AnalysisOptions | None,
        policy: FailurePolicy,
        completed: "dict[int, PointResult]",
        *,
        checkpoint_path: "str | None" = None,
        writer: TraceWriter | None = None,
        progress: "Callable[[PointResult], None] | None" = None,
        unit_progress: "Callable[[int, int, int], None] | None" = None,
    ) -> SweepResult:
        """Probe the store for, dispatch, and merge a sweep's pending units.

        The caller owns the sweep's resume state (``completed``), its
        checkpoint, its trace writer, and the fault-plan scope:
        :meth:`process_sweep` for submitted sweeps,
        :func:`repro.experiments.runner.run_experiment` for ``jobs > 1``.
        """
        sweep_id = f"s{self._next_sweep}"
        self._next_sweep += 1
        self._writer = writer
        try:
            self._emit("service.start", port=self.port, workers=self.workers)
            scheduler = UnitScheduler(
                config,
                policy,
                completed,
                checkpoint_path=checkpoint_path,
                writer=writer,
                fault_plan=self.fault_plan,
                progress=progress,
            )
            total_units = len(scheduler.pending)
            self._respawns = 0
            self._respawn_budget = 4 + 2 * total_units
            self._emit(
                "service.submit",
                points=len(config.points),
                units=total_units,
                resumed=len(completed),
            )
            served = 0
            dispatched = 0

            def report_units() -> None:
                if unit_progress is not None:
                    unit_progress(
                        total_units - len(scheduler.pending),
                        total_units,
                        served,
                    )

            digests: dict[tuple[int, int], str] = {}
            # Pre-dispatch store probe: with a fault plan active the
            # store is bypassed entirely (reads *and* writes) so
            # injected faults execute and their outcomes stay out of
            # the store.
            if self.store is not None and self.fault_plan is None:
                digests = {
                    key: unit_digest(config, key[0], key[1], options, policy)
                    for key in scheduler.pending
                }
                hits = self.store.fetch_many(digests.values())
                for key in sorted(digests):
                    value = hits.get(digests[key])
                    if (
                        isinstance(value, tuple)
                        and len(value) == 2
                        and value[0] == "unit"
                    ):
                        self._emit(
                            "service.unit.served", point=key[0], unit=key[1]
                        )
                        scheduler.record_unit(
                            key[0],
                            served_unit(value[1], trace=writer is not None),
                        )
                        served += 1
                        report_units()
            sweep_context = {
                "type": "sweep",
                "sweep": sweep_id,
                "config": message_config(config),
                "options": options_to_dict(options),
                "policy": policy.value,
                "trace": writer is not None,
            }

            async def run_unit(
                worker: _WorkerConn, key: "tuple[int, int]", attempt: int
            ) -> None:
                nonlocal dispatched
                if await self._run_unit(
                    worker, sweep_context, key, attempt, scheduler, digests
                ):
                    dispatched += 1
                    report_units()

            if not scheduler.done:
                await self._await_spawned()
            while not scheduler.done:
                # Crash-implicated units re-run alone: an isolated
                # repeat crash is unambiguous, innocent collateral
                # passes.
                suspect_keys = scheduler.suspects()
                batch = (
                    [suspect_keys[0]]
                    if suspect_keys
                    else sorted(scheduler.pending)
                )
                await self._dispatch(
                    [(key, scheduler.pending[key]) for key in batch],
                    run_unit,
                )
            self._emit(
                "service.sweep.done", served=served, dispatched=dispatched
            )
            return scheduler.result()
        finally:
            self._writer = None

    async def _dispatch(
        self, batch: "list[tuple[tuple[int, int], int]]", run_unit: _UnitRunner
    ) -> None:
        """Run every (unit key, attempt) of ``batch`` through worker lanes.

        One lane per idle worker, started as workers join or return;
        dead spawned workers are replaced as lanes end. A lane's error
        ends the batch once the other lanes have finished the unit they
        hold, so no worker is left with a unit in flight; cancellation
        abandons the lanes (and their workers) at once.
        """
        queue = deque(batch)
        lanes: set[asyncio.Task[None]] = set()
        try:
            while queue or lanes:
                self._wake.clear()
                finished = {lane for lane in lanes if lane.done()}
                lanes -= finished
                for lane in finished:
                    lane.result()
                if queue:
                    self._replenish()
                    while self._idle:
                        lanes.add(asyncio.create_task(
                            self._lane(self._idle.popleft(), queue, run_unit)
                        ))
                    if not lanes and not self.workers:
                        raise ExperimentError(
                            f"sweep service aborted: workers kept dying "
                            f"({self._respawns} respawns)"
                            if self._fleet
                            else "sweep service has no live workers and "
                            "no way to spawn replacements; connect "
                            "workers and resubmit"
                        )
                if queue or lanes:
                    # Lanes ending and workers joining set the wake
                    # event; a spawned worker dying before it joins
                    # does not, so poll while no lane runs.
                    await self._woken(None if lanes else _POLL_S)
        except asyncio.CancelledError:
            for lane in lanes:
                lane.cancel()
            raise
        finally:
            queue.clear()
            if lanes:
                await asyncio.gather(*lanes, return_exceptions=True)

    async def _lane(
        self,
        worker: _WorkerConn,
        queue: "deque[tuple[tuple[int, int], int]]",
        run_unit: _UnitRunner,
    ) -> None:
        """Feed ``worker`` one unit at a time until the queue is empty
        or the worker is gone, then hand the worker back."""
        try:
            while queue and worker.alive:
                key, attempt = queue.popleft()
                await run_unit(worker, key, attempt)
        finally:
            if worker.alive and worker.in_flight is None:
                self._idle.append(worker)
            else:
                self._drop_worker(worker)
            self._wake.set()

    async def _run_unit(
        self,
        worker: _WorkerConn,
        sweep_context: dict,
        key: "tuple[int, int]",
        attempt: int,
        scheduler: UnitScheduler,
        digests: "dict[tuple[int, int], str]",
    ) -> bool:
        """Evaluate one unit on ``worker``; returns True when evaluated.

        A worker connection dying before the result frame lands is this
        unit's crash: the worker is dropped and the scheduler decides
        requeue vs. quarantine.
        """
        sweep_id = sweep_context["sweep"]
        reply: "dict | None" = None
        worker.in_flight = key
        try:
            if sweep_id not in worker.known_sweeps:
                await send_message_async(worker.writer, sweep_context)
                worker.known_sweeps.add(sweep_id)
            await send_message_async(worker.writer, {
                "type": "unit", "sweep": sweep_id,
                "point": key[0], "unit": key[1], "attempt": attempt,
            })
            self._emit(
                "service.unit.dispatched",
                point=key[0],
                unit=key[1],
                worker=worker.id,
            )
            reply = await recv_message_async(worker.reader)
        except (ConnectionError, OSError):
            reply = None
        if reply is None or reply.get("type") != "result":
            self._drop_worker(worker)
            self._emit(
                "worker.crash",
                point=key[0],
                unit=key[1],
                attempt=attempt,
                crashes=scheduler.crash_counts.get(key, 0) + 1,
            )
            scheduler.record_crash(
                key,
                attempt,
                "WorkerCrashError",
                "service worker disconnected while evaluating this task set",
            )
            return False
        worker.in_flight = None
        error = reply.get("error")
        if error is not None:
            if error.get("repro") or scheduler.policy is FailurePolicy.RAISE:
                raise _worker_error(error, key)
            scheduler.record_crash(
                key, attempt, error["type"], error["message"]
            )
            return False
        unit = unit_from_wire(reply["payload"])
        scheduler.record_unit(key[0], unit)
        if self.store is not None and self.fault_plan is None:
            self.store.store(
                digests[key], ("unit", unit_to_payload(unit))
            )
        return True


def message_config(config: ExperimentConfig) -> dict:
    """The wire form of a sweep config (persistence's checkpoint form)."""
    from repro.experiments.persistence import _config_to_dict

    return _config_to_dict(config)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
@asynccontextmanager
async def _local_service(
    workers: int,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    cache_path: "str | None" = None,
    checkpoint_dir: "str | None" = None,
    trace_dir: "str | None" = None,
    fault_plan: FaultPlan | None = None,
) -> AsyncIterator[SweepService]:
    """A started service owning ``workers`` local worker processes.

    The one lifecycle behind :func:`serve`, :func:`run_service_sweep`,
    and ``run_experiment(..., jobs=N)``: bind, spawn, run the body,
    then stop (workers told to shut down and joined; only stragglers
    terminated).
    """
    service = SweepService(
        host,
        port,
        cache_path=cache_path,
        checkpoint_dir=checkpoint_dir,
        trace_dir=trace_dir,
        fault_plan=fault_plan,
    )
    await service.start()
    try:
        service.spawn_workers(workers)
        yield service
    finally:
        await service.stop()


def run_service_sweep(
    config: ExperimentConfig,
    *,
    workers: int = 2,
    options: AnalysisOptions | None = None,
    failure_policy: "FailurePolicy | str" = FailurePolicy.COUNT_UNSCHEDULABLE,
    cache_path: "str | None" = None,
    checkpoint_dir: "str | None" = None,
    trace_path: "str | None" = None,
    fault_plan: FaultPlan | None = None,
    progress: "Callable[[PointResult], None] | None" = None,
) -> SweepResult:
    """One sweep through an ephemeral local service (workers included).

    The in-process backbone behind tests, benchmarks, and one-shot use:
    starts a coordinator on a free port, spawns ``workers`` local
    worker processes over the real socket transport, processes exactly
    this sweep, and tears everything down. Equivalent to ``repro
    serve`` + one ``repro submit``, minus the client socket hop.
    """

    async def sweep() -> SweepResult:
        async with _local_service(
            workers,
            cache_path=cache_path,
            checkpoint_dir=checkpoint_dir,
            fault_plan=fault_plan,
        ) as service:
            return await service.process_sweep(
                config,
                options=options,
                failure_policy=failure_policy,
                progress=progress,
                trace_path=trace_path,
            )

    return asyncio.run(sweep())


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    workers: int = 2,
    cache_path: "str | None" = None,
    checkpoint_dir: "str | None" = None,
    trace_dir: "str | None" = None,
    fault_plan: FaultPlan | None = None,
    max_sweeps: "int | None" = None,
    ready: "Callable[[int], None] | None" = None,
) -> None:
    """Run a sweep service until stopped (or ``max_sweeps`` processed).

    Binds the coordinator, spawns ``workers`` local worker processes,
    reports the bound port through ``ready`` (port 0 binds a free one),
    and serves ``repro submit`` clients. ``max_sweeps`` gives CI and
    tests a deterministic exit.
    """

    async def main() -> None:
        async with _local_service(
            workers,
            host=host,
            port=port,
            cache_path=cache_path,
            checkpoint_dir=checkpoint_dir,
            trace_dir=trace_dir,
            fault_plan=fault_plan,
        ) as service:
            if ready is not None:
                ready(service.port)
            if max_sweeps is not None:
                await service.wait_for_sweeps(max_sweeps)
            else:
                assert service._server is not None
                await service._server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
