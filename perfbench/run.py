"""The repository benchmark: three sweep workloads, end to end and per layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fig2a-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``fig2a-cold`` — ``run_experiment`` of the reduced fig2a sweep (9
  points x 2 task sets, exact MILP method, ``jobs=1``) on a store that
  starts empty. Cold MILP cost is heavy-tailed across task sets (single
  units take from 1 ms to over 40 s), so every seed runs the same
  reference inputs (``reference.json``); only the recorded held-out seed
  runs the held-out inputs.
* ``closed-form-jobs2`` — ``run_experiment`` of fig2a with the closed-form
  method, :data:`CLOSED_FORM_SETS` sets per point, ``jobs=2`` and a
  checkpoint: per-unit dispatch, generation and screening, no HiGHS.
* ``service-repeat`` — a ``repro.service.serve`` process with two
  workers; one client resubmits the same closed-form sweep back to back
  (a closed loop), and every repeat is answered from the unit store.

Every workload repeats its measured operation for ``--seconds`` and
reports medians. End-to-end runs (``--trace 0``) patch nothing. A traced
run (``--trace 1``) alternates untraced and traced sweeps (or submits),
wraps the layers from :mod:`layers` for the traced ones, and reports
per-layer metrics plus the tracing overhead. Every run checks its
outputs; the last stdout line is the JSON result, the lines before it
the provenance and a readable summary.

``--write-reference HELDOUT_SEED`` recomputes ``reference.json``: the
reference and held-out outputs of every workload, with the fig2a-cold
references checked against the unscreened (``screening=False``) oracle.
``--write-manifest`` rewrites ``BENCHMARK.json`` from the constants below.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".bench_work"

WORKLOADS = ("fig2a-cold", "closed-form-jobs2", "service-repeat")
#: Worker processes of the parallel workloads (the machine's 2 cores).
JOBS = 2
#: Task sets per point of ``closed-form-jobs2`` (9 points -> 900 units).
CLOSED_FORM_SETS = 100
#: Task sets per point of the ``service-repeat`` sweep (450 units).
SERVICE_SETS = 50
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_TRIALS = 3
#: Dev seeds whose outputs ``--write-reference`` records.
DEV_SEEDS = tuple(range(1, 11))
HOST = "127.0.0.1"
IMPORTS = "import repro.experiments, repro.service, repro.analysis.store"

#: Seconds one run measures (``BENCHMARK.json``'s ``run_seconds``).
RUN_SECONDS = 20
#: Why each workload is in the benchmark (``BENCHMARK.json``).
WHY = {
    "fig2a-cold": "Cold exact-MILP reduced fig2a sweep (18 units, jobs=1, "
    "empty store) on fixed reference inputs; HiGHS is ~95% of it, so solver "
    "and MILP-tail work shows here",
    "closed-form-jobs2": "900 closed-form units per sweep through the jobs=2 "
    "process pool with a checkpoint: dispatch, generation and screening "
    "work, no HiGHS, so a solver change must not move it",
    "service-repeat": "One client resubmits a 450-unit closed-form sweep to "
    "a 2-worker sweep service; every repeat is served from the unit store: "
    "store reads, coordinator and wire, zero solves",
}
#: name -> (unit, better, bound) of the end-to-end metrics. A sweep is
#: one ``run_experiment`` call or one ``submit_sweep`` round trip. There
#: is no tail percentile among them: only ``service-repeat`` times enough
#: sweeps (~500 per run) for a high percentile with ten samples beyond
#: it, so that one is printed in the run summary. Nor is there a throughput:
#: with one client in a closed loop it is 1 / mean(sweep time), which
#: says nothing ``sweep_s`` does not and spread 10% across seeds. The
#: time bounds are as wide as allowed because the 2-CPU host this was
#: built on drifts between speed regimes: a fixed CPU-bound loop ran 43
#: to 57 iterations per second over one minute, for tens of seconds at a
#: time, and every timing moves with it.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "sweep_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}


class CheckFailed(Exception):
    """An output of the program differs from what it must be."""


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def summarize(result) -> dict:
    """The checked content of a sweep: per-point ratios and the ledger."""
    return json.loads(json.dumps({
        "ratios": [[p.x, dict(p.ratios)] for p in result.points],
        "failures": [
            [f.x, f.protocol, f.seed, f.taskset_index, f.taskset_digest,
             f.error_type]
            for f in result.failures
        ],
    }))


def summed_stats(results) -> dict[str, int]:
    totals: dict[str, int] = {}
    for result in results:
        for point in result.points:
            for name, value in point.analysis_stats.items():
                totals[name] = totals.get(name, 0) + value
    return totals


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_same(got: dict, want: dict, what: str) -> None:
    expect(got == want, f"{what}: got {got}, expected {want}")


def time_import() -> float:
    """Wall time of a fresh interpreter importing the program."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(SRC)!r}); {IMPORTS}"],
        check=True,
        cwd=ROOT,
    )
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def read_events(paths) -> dict[str, list[dict]]:
    from repro.obs.events import read_trace

    events: dict[str, list[dict]] = {}
    for path in paths:
        for event in read_trace(path):
            events.setdefault(event["name"], []).append(event)
    return events


def reconcile_solves(tracer, stats: dict, events: dict) -> None:
    """HiGHS calls seen by the harness == the program's own accounts."""
    solves = len(events.get("highs.solve", ()))
    retries = len(events.get("highs.retry", ()))
    expect(
        len(tracer.solves) == solves + retries,
        f"harness saw {len(tracer.solves)} HiGHS calls, the trace "
        f"{solves} solves + {retries} retries",
    )
    expect(
        solves == stats.get("milp_solves", 0),
        f"trace has {solves} highs.solve events, analysis_stats "
        f"{stats.get('milp_solves', 0)} milp_solves",
    )


def pair_order(pairs_done: int) -> tuple[bool, bool]:
    """Whether each half of the next untraced/traced pair is traced.

    The order alternates, so a drift in the host's speed over a run
    cancels out of the traced/untraced comparison instead of biasing it.
    """
    return (False, True) if pairs_done % 2 == 0 else (True, False)


class Phase:
    """A closed loop of timed operations lasting about ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds
        self.times: list[float] = []

    def running(self) -> bool:
        return not self.times or time.perf_counter() < self.deadline


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """Shared run structure: set-up trials, measured phase(s), checks.

    The sweep workloads implement :meth:`config`, :meth:`setup`,
    :meth:`sweep` and :meth:`check`; ``service-repeat`` overrides
    :meth:`run` and :meth:`run_traced` as well.
    """

    name = ""
    #: Worker processes a sweep of this workload uses.
    jobs = 1

    def __init__(self, args, work: Path, reference: dict) -> None:
        self.args = args
        self.work = work
        self.reference = reference
        self.setup_times: list[float] = []
        self.results: list = []

    def recorded(self) -> "dict | None":
        """The reference outputs recorded for this seed, if any."""
        table = self.reference[self.name]["seeds"]
        return table.get(str(self.args.seed))

    def attempted_failed(self) -> tuple[int, int]:
        """Taskset/protocol pairs attempted and failed over all sweeps."""
        attempted = sum(
            p.sets_evaluated * len(r.config.protocols)
            for r in self.results for p in r.points
        )
        failed = sum(len(r.failures) for r in self.results)
        return attempted, failed

    def run(self) -> dict:
        config = self.config()
        self.setup()
        phase = Phase(self.args.seconds)
        while phase.running():
            phase.times.append(self.sweep(config))
        self.check(config)
        return {"times": phase.times}

    def run_traced(self, tracer) -> dict:
        """Alternate untraced and traced sweeps; spans cover the latter."""
        config = self.config()
        untraced = Phase(self.args.seconds)
        traced_times: list[float] = []
        traced_results = []
        traces = []
        while untraced.running():
            for traced in pair_order(len(traced_times)):
                if not traced:
                    untraced.times.append(self.sweep(config))
                    continue
                traces.append(self.work / f"trace-{len(traces)}.jsonl")
                tracer.install()
                try:
                    traced_times.append(self.sweep(config, str(traces[-1])))
                finally:
                    tracer.uninstall()
                traced_results.append(self.results[-1])
                tracer.collect_children()
        self.check(config)
        stats = summed_stats(traced_results)
        reconcile_solves(tracer, stats, read_events(traces))
        return {
            "stats": stats,
            "sweeps": len(traced_times),
            "units": len(traced_times) * len(config.points)
            * config.sets_per_point,
            "jobs": self.jobs,
            "traced_s": traced_times,
            "untraced_s": untraced.times,
        }


class Fig2aCold(Workload):
    name = "fig2a-cold"

    def spec(self) -> dict:
        """The reference inputs, or the held-out ones for its seed."""
        heldout = self.args.seed == self.reference["heldout_seed"]
        return self.reference[self.name][
            "heldout" if heldout else "reference"
        ]

    def config(self):
        from repro.experiments import figure2_config

        spec = self.spec()
        return figure2_config(
            "fig2a", sets_per_point=spec["sets_per_point"],
            seed=spec["config_seed"],
        )

    def setup(self) -> None:
        from repro.analysis.store import PersistentStore

        for trial in range(SETUP_TRIALS):
            imported = time_import()
            start = time.perf_counter()
            store = PersistentStore(self.work / f"setup-{trial}.sqlite")
            len(store)
            store.close()
            self.setup_times.append(imported + time.perf_counter() - start)

    def sweep(self, config, trace_path=None) -> float:
        from repro.experiments import run_experiment

        store = self.work / f"cold-{len(self.results)}.sqlite"
        start = time.perf_counter()
        result = run_experiment(
            config, jobs=1, cache_path=str(store), trace_path=trace_path
        )
        elapsed = time.perf_counter() - start
        self.results.append(result)
        return elapsed

    def check(self, config) -> None:
        expected = self.spec()["expected"]
        for result in self.results:
            expect_same(summarize(result), expected,
                        "fig2a-cold sweep vs reference")


class ClosedFormJobs2(Workload):
    name = "closed-form-jobs2"
    jobs = JOBS

    def config(self):
        from repro.experiments import figure2_config

        return figure2_config(
            "fig2a", method="closed_form", sets_per_point=CLOSED_FORM_SETS,
            seed=self.args.seed,
        )

    def setup(self) -> None:
        self.setup_times = [time_import() for _ in range(SETUP_TRIALS)]

    def sweep(self, config, trace_path=None) -> float:
        from repro.experiments import run_experiment

        checkpoint = self.work / "sweep.checkpoint.json"
        start = time.perf_counter()
        result = run_experiment(
            config, jobs=JOBS, checkpoint_path=str(checkpoint),
            trace_path=trace_path,
        )
        elapsed = time.perf_counter() - start
        checkpoint.unlink()
        self.results.append(result)
        return elapsed

    def check(self, config) -> None:
        from repro.experiments import run_experiment

        oracle = summarize(run_experiment(config, jobs=1))
        recorded = self.recorded()
        if recorded is not None:
            expect_same(oracle, recorded, "jobs=1 sweep vs reference")
        for result in self.results:
            expect_same(summarize(result), oracle,
                        f"jobs={JOBS} sweep vs jobs=1 sweep")
        stats = summed_stats(self.results)
        expect(stats.get("milp_solves", 0) == 0,
               "closed-form sweep made integer solves")


class ServiceRepeat(Workload):
    name = "service-repeat"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        #: The cold set-up submit of every set-up trial.
        self.firsts: list = []
        self.submits = 0
        self.failed = 0
        self._services: list[multiprocessing.Process] = []

    def config(self):
        from repro.experiments import figure2_config

        return figure2_config(
            "fig2a", method="closed_form", sets_per_point=SERVICE_SETS,
            seed=self.args.seed,
        )

    # -- service lifecycle ---------------------------------------------
    def start_service(self, store: Path, trace_dir: "Path | None" = None):
        from repro.service import serve

        receiver, sender = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=serve,
            kwargs={
                "host": HOST, "workers": JOBS, "cache_path": str(store),
                "checkpoint_dir": None,
                "trace_dir": None if trace_dir is None else str(trace_dir),
                "ready": sender.send,
            },
        )
        process.start()
        self._services.append(process)
        if not receiver.poll(60):
            raise RuntimeError("sweep service did not report its port")
        return process, receiver.recv()

    def stop_service(self, process: multiprocessing.Process) -> None:
        if process.is_alive():
            os.kill(process.pid, signal.SIGINT)
        process.join(30)
        if process.is_alive():
            process.kill()
            process.join()
        self._services.remove(process)

    def stop_all(self) -> None:
        for process in list(self._services):
            self.stop_service(process)

    def submit(self, port: int, config):
        from repro.service import submit_sweep

        return submit_sweep(HOST, port, config, timeout=60)

    # -- phases ----------------------------------------------------------
    def setup(self, config):
        """Bring the service up cold several times; keep the last one."""
        service = None
        for trial in range(SETUP_TRIALS):
            imported = time_import()
            start = time.perf_counter()
            process, port = self.start_service(
                self.work / f"store-{trial}.sqlite"
            )
            self.firsts.append(self.submit(port, config))
            self.setup_times.append(imported + time.perf_counter() - start)
            if service is not None:
                self.stop_service(service[0])
            service = (process, port)
        return service

    def timed_submit(self, port: int, config, stats: dict) -> float:
        """One repeat submit, checked outside its timing.

        Answers are checked as they arrive and then dropped, so the
        client's heap does not grow over the loop; their
        ``analysis_stats`` are added to ``stats``.
        """
        start = time.perf_counter()
        result = self.submit(port, config)
        elapsed = time.perf_counter() - start
        self.submits += 1
        self.failed += bool(result.failures)
        units = len(config.points) * config.sets_per_point
        expect_same(summarize(result), summarize(self.firsts[-1]),
                    "repeat submit vs set-up submit")
        served = summed_stats([result])
        expect(served.get("unit_store.hits", 0) == units,
               f"repeat served {served.get('unit_store.hits', 0)} of "
               f"{units} units from the store")
        expect(served.get("milp_solves", 0) == 0,
               "repeat submit made integer solves")
        for name, value in served.items():
            stats[name] = stats.get(name, 0) + value
        return elapsed

    def check(self, config) -> None:
        from repro.experiments import run_experiment

        oracle = summarize(run_experiment(config, jobs=1))
        recorded = self.recorded()
        if recorded is not None:
            expect_same(oracle, recorded, "jobs=1 sweep vs reference")
        for first in self.firsts:
            expect_same(summarize(first), oracle, "set-up submit vs jobs=1")

    def attempted_failed(self) -> tuple[int, int]:
        """Submits attempted and submits whose sweep recorded failures."""
        return self.submits, self.failed

    def run(self) -> dict:
        config = self.config()
        try:
            _, port = self.setup(config)
            phase = Phase(self.args.seconds)
            while phase.running():
                phase.times.append(self.timed_submit(port, config, {}))
        finally:
            self.stop_all()
        self.check(config)
        return {"times": phase.times}

    def run_traced(self, tracer) -> dict:
        """Alternate submits to an untraced and a traced service.

        The traced service is forked with the layer wrappers installed
        and writes the coordinator's per-sweep traces; it opens the
        set-up's warm store, so every submit it answers (and every span
        it dumps) is a repeat.
        """
        config = self.config()
        trace_dir = self.work / "traces"
        stats: dict[str, int] = {}
        try:
            _, port = self.setup(config)
            tracer.install()
            try:
                _, traced_port = self.start_service(
                    self.work / f"store-{SETUP_TRIALS - 1}.sqlite", trace_dir
                )
            finally:
                tracer.uninstall()
            untraced = Phase(self.args.seconds)
            traced_times: list[float] = []
            while untraced.running():
                for traced in pair_order(len(traced_times)):
                    if not traced:
                        untraced.times.append(
                            self.timed_submit(port, config, {})
                        )
                        continue
                    tracer.install()
                    try:
                        traced_times.append(
                            self.timed_submit(traced_port, config, stats)
                        )
                    finally:
                        tracer.uninstall()
        finally:
            self.stop_all()
        tracer.collect_children()
        self.check(config)
        events = read_events(sorted(trace_dir.glob("*.trace.jsonl")))
        reconcile_solves(tracer, stats, events)
        coordinator = [1000.0 * e["dur"] for e in events.get("run.end", ())]
        expect(len(coordinator) == len(traced_times),
               f"{len(coordinator)} coordinator traces for "
               f"{len(traced_times)} submits")
        return {
            "stats": stats,
            "sweeps": len(traced_times),
            "units": len(traced_times) * len(config.points)
            * config.sets_per_point,
            "jobs": 1,
            "traced_s": traced_times,
            "untraced_s": untraced.times,
            "submits": len(traced_times),
            "coordinator_ms": statistics.median(coordinator),
        }


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (Fig2aCold, ClosedFormJobs2, ServiceRepeat)
}


# ----------------------------------------------------------------------
# provenance and reporting
# ----------------------------------------------------------------------
def source_digest() -> str:
    """sha256 over the program's source tree (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # SciPy bundles HiGHS, so its version pins the solver's too.
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run(args) -> int:
    from layers import PER_LAYER, Tracer, layer_metrics, top_solves

    reference = json.loads(REFERENCE.read_text())
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    tempfile.tempdir = str(work)
    workload = WORKLOAD_CLASSES[args.workload](args, work, reference)
    tracer = Tracer(work / "layers")
    problem = None
    try:
        try:
            if args.trace:
                outcome = workload.run_traced(tracer)
            else:
                outcome = workload.run()
        except CheckFailed as exc:
            problem = str(exc)
            outcome = None
    finally:
        for child in multiprocessing.active_children():
            child.join(10)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    attempted, failed = workload.attempted_failed()
    metrics: dict[str, dict] = {}
    if outcome is not None and args.trace:
        values = layer_metrics(
            tracer,
            stats=outcome["stats"],
            sweeps=outcome["sweeps"],
            units=outcome["units"],
            jobs=outcome["jobs"],
            traced_s=outcome["traced_s"],
            untraced_s=outcome["untraced_s"],
            submits=outcome.get("submits", 0),
            coordinator_ms=outcome.get("coordinator_ms", 0.0),
        )
        metrics = {
            name: {"value": values[name], "unit": PER_LAYER[name][0]}
            for name in PER_LAYER
        }
        for solve in top_solves(tracer):
            print("# top solve " + json.dumps(solve, sort_keys=True))
    elif outcome is not None:
        times = outcome["times"]
        values = {
            "setup_s": statistics.median(workload.setup_times),
            "sweep_s": statistics.median(times),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {
            name: {"value": values[name], "unit": END_TO_END[name][0]}
            for name in END_TO_END
        }
        print(f"# samples: {len(times)} timed sweeps/submits, "
              f"{len(workload.setup_times)} set-ups")
        # The highest whole percentile with ten samples beyond it.
        percent = int(100 * (1 - 10 / len(times)))
        if percent >= 50:
            tail = statistics.quantiles(times, n=100)[percent - 1]
            beyond = sum(1 for t in times if t > tail)
            print(f"# sweep p{percent} {tail:.6g} s ({beyond} of "
                  f"{len(times)} samples beyond it)")
    print("# provenance " + json.dumps(provenance(args), sort_keys=True))
    for name, metric in metrics.items():
        print(f"# {name:28s} {metric['value']:.6g} {metric['unit']}")
    if problem is not None:
        print(f"# output check FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": problem is None,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if problem is None else 1


# ----------------------------------------------------------------------
# reference outputs
# ----------------------------------------------------------------------
def write_reference(heldout_seed: int) -> int:
    """Recompute every recorded output (slow: minutes)."""
    from repro.analysis.interface import AnalysisOptions
    from repro.experiments import figure2_config, run_experiment

    reference: dict = {
        "heldout_seed": heldout_seed,
        "dev_seeds": list(DEV_SEEDS),
    }
    for key, config_seed in (("reference", 2020), ("heldout", heldout_seed)):
        config = figure2_config("fig2a", sets_per_point=2, seed=config_seed)
        start = time.perf_counter()
        expected = summarize(run_experiment(config, jobs=1))
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        oracle = summarize(run_experiment(
            config, options=AnalysisOptions(screening=False), jobs=1
        ))
        oracle_s = time.perf_counter() - start
        if oracle != expected:
            print(f"fig2a {key} inputs: screened != screening=False oracle",
                  file=sys.stderr)
            return 1
        reference.setdefault("fig2a-cold", {})[key] = {
            "config_seed": config_seed,
            "sets_per_point": 2,
            "oracle": "screening=False",
            "cold_s": round(cold_s, 1),
            "oracle_s": round(oracle_s, 1),
            "expected": expected,
        }
    for name, sets in (("closed-form-jobs2", CLOSED_FORM_SETS),
                       ("service-repeat", SERVICE_SETS)):
        seeds = {}
        for seed in DEV_SEEDS + (heldout_seed,):
            config = figure2_config(
                "fig2a", method="closed_form", sets_per_point=sets, seed=seed
            )
            seeds[str(seed)] = summarize(run_experiment(config, jobs=1))
        reference[name] = {"sets_per_point": sets, "seeds": seeds}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def write_manifest() -> int:
    """Write ``BENCHMARK.json`` from the constants above."""
    from layers import PER_LAYER

    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WHY[n]} for n in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, (u, b) in PER_LAYER.items()
        ],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", type=int, metavar="HELDOUT_SEED",
                        help="recompute reference.json with this held-out seed")
    parser.add_argument("--write-manifest", action="store_true",
                        help="rewrite BENCHMARK.json from the constants")
    args = parser.parse_args(argv)
    if not SRC.is_dir():
        parser.error(f"no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.write_reference is not None:
        return write_reference(args.write_reference)
    if args.write_manifest:
        return write_manifest()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
