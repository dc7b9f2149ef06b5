"""Sweep-service worker: a synchronous unit-evaluation loop.

A worker is one OS process holding one socket to the coordinator. It
announces itself (``hello``), receives the run context (``welcome``:
persistent-cache path, fault plan), then loops: receive a ``unit``
message, evaluate it through
:func:`repro.experiments.runner._worker_evaluate` (fresh per-unit
analysis-cache scope, per-unit fault-injection scope, buffered trace
events), and send the ``result`` frame back. ``run_experiment(...,
jobs=N)`` and ``repro serve`` both run their units on these workers.
Sweep configs travel once per (worker, sweep) in a ``sweep`` frame and
are cached by id, so steady-state unit frames are a few dozen bytes.

Crash semantics: an injected ``worker.death`` (``exit`` mode) calls
``os._exit`` mid-unit, the socket dies with the process, and the
coordinator's connection-loss path blames the unit it had sent —
requeue with an incremented attempt, probe, quarantine. An exception
escaping the evaluation travels back as an ``error`` on the result
frame (its type name, message, and whether it is a ``ReproError``);
the coordinator decides whether to ledger or re-raise it. The
service-specific ``service.disconnect`` fault site additionally models
a *network* failure: the worker drops its connection on the way into a
unit and exits without evaluating anything.

Workers never write trace files, checkpoints, or the unit-result store
— they ship buffered events and counters on the result frame and the
coordinator (the single writer) persists everything.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import socket
from contextlib import nullcontext
from typing import Any

from repro.analysis.interface import AnalysisOptions
from repro.errors import ReproError
from repro.experiments.persistence import _config_from_dict
from repro.experiments.runner import _worker_evaluate
from repro.experiments.units import unit_to_wire
from repro.faults import injection as faults
from repro.faults.plan import FaultPlan
from repro.milp.resilient import ResilienceConfig
from repro.milp.solution import DegradationLevel
from repro.model.platform import RegulationConfig
from repro.service.wire import recv_message, send_message


def options_to_dict(options: "AnalysisOptions | None") -> "dict | None":
    """JSON-safe form of :class:`AnalysisOptions` for the wire."""
    if options is None:
        return None
    raw: dict[str, Any] = dataclasses.asdict(options)
    if raw.get("resilience") is not None:
        resilience = dict(raw["resilience"])
        resilience["max_degradation"] = int(resilience["max_degradation"])
        raw["resilience"] = resilience
    return raw


def options_from_dict(raw: "dict | None") -> "AnalysisOptions | None":
    """Rebuild :class:`AnalysisOptions` from :func:`options_to_dict`.

    The structured protocol knobs are re-normalised to their canonical
    in-memory shapes (tuples, :class:`RegulationConfig`): the JSON wire
    collapses tuples to lists, and a reconstructed options object must
    ``repr`` identically to a locally-built one — unit digests (and so
    the store's served-unit tier) hash that ``repr``.
    """
    if raw is None:
        return None
    fields = dict(raw)
    resilience = fields.pop("resilience", None)
    if resilience is not None:
        resilience = dict(resilience)
        resilience["max_degradation"] = DegradationLevel(
            resilience["max_degradation"]
        )
        resilience = ResilienceConfig(**resilience)
    thresholds = fields.pop("preemption_thresholds", None)
    if thresholds is not None:
        thresholds = tuple(
            (str(name), int(theta)) for name, theta in thresholds
        )
    regulation = fields.pop("regulation", None)
    if regulation is not None:
        regulation = RegulationConfig(**regulation)
    return AnalysisOptions(
        **fields,
        resilience=resilience,
        preemption_thresholds=thresholds,
        regulation=regulation,
    )


def _check_disconnect(
    plan: "FaultPlan | None", point: int, unit: int, attempt: int
) -> bool:
    """Whether an injected ``service.disconnect`` fires for this unit."""
    if plan is None:
        return False
    with faults.injecting(plan, point=point, unit=unit, attempt=attempt):
        return faults.fire("service.disconnect") is not None


def worker_main(host: str, port: int) -> None:
    """Connect to the coordinator and evaluate units until told to stop.

    Process entry point (see :func:`spawn_worker`); exits when the
    coordinator is unreachable, sends ``shutdown``, closes the
    connection, or an injected fault drops/kills this worker.
    """
    try:
        sock = socket.create_connection((host, port))
    except OSError:
        return  # the coordinator is already gone
    try:
        send_message(sock, {"type": "hello", "role": "worker",
                            "pid": os.getpid()})
        welcome = recv_message(sock)
        if welcome is None or welcome.get("type") != "welcome":
            return
        cache_path = welcome.get("cache_path")
        plan_raw = welcome.get("fault_plan")
        fault_plan = (
            FaultPlan.from_dict(plan_raw) if plan_raw is not None else None
        )
        run_scope = (
            faults.injecting(fault_plan)
            if fault_plan is not None
            else nullcontext()
        )
        sweeps: dict[str, dict] = {}
        with run_scope:
            while True:
                message = recv_message(sock)
                if message is None or message.get("type") == "shutdown":
                    return
                if message["type"] == "sweep":
                    sweeps[message["sweep"]] = {
                        "config": _config_from_dict(message["config"]),
                        "options": options_from_dict(message.get("options")),
                        "policy": message["policy"],
                        "trace": bool(message.get("trace", False)),
                    }
                    continue
                if message["type"] != "unit":
                    continue
                context = sweeps[message["sweep"]]
                point = int(message["point"])
                unit = int(message["unit"])
                attempt = int(message["attempt"])
                if _check_disconnect(fault_plan, point, unit, attempt):
                    # Simulated network partition: drop the connection
                    # without a result and die. The coordinator's
                    # connection-loss path must requeue the unit.
                    sock.close()
                    os._exit(70)
                try:
                    result = _worker_evaluate(
                        context["config"],
                        point,
                        unit,
                        context["options"],
                        context["policy"],
                        context["trace"],
                        fault_plan,
                        attempt,
                        cache_path,
                    )
                except Exception as exc:  # noqa: BLE001 - handled upstream
                    send_message(sock, {
                        "type": "result", "point": point, "unit": unit,
                        "attempt": attempt,
                        "error": {"type": type(exc).__name__,
                                  "message": str(exc),
                                  "repro": isinstance(exc, ReproError)},
                    })
                else:
                    send_message(sock, {
                        "type": "result", "point": point, "unit": unit,
                        "attempt": attempt,
                        "payload": unit_to_wire(result),
                    })
    finally:
        try:
            sock.close()
        except OSError:
            pass


def spawn_worker(host: str, port: int) -> multiprocessing.Process:
    """Start one local worker process connected to ``host:port``."""
    process = multiprocessing.Process(
        target=worker_main, args=(host, port), daemon=True
    )
    process.start()
    return process
