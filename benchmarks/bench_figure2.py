"""Fig. 2 reproduction benchmarks: schedulability-ratio sweeps.

One test per inset (a)-(f). Each runs a *reduced-size* version of the
paper's experiment (subsampled sweep, ~8 task sets per point instead of
the paper's larger samples) with the full MILP analysis, prints the
series, and asserts the qualitative shape the paper reports:

* the proposed protocol schedules at least as many sets as protocol [3]
  and as NPS at every point (up to small-sample noise);
* at gamma = 0.1 (insets (a), (b), and the low end of (e)) protocol [3]
  can fall *below* NPS — the phenomenon motivating the paper;
* the advantage of the DMA protocols over NPS grows with gamma
  (inset (e)), and the advantage of the proposed protocol is largest
  for tight deadlines (small beta, inset (f)).

Full-size runs: ``repro figure fig2a --sets 50``.
"""

import pytest

from _helpers import assert_proposed_dominates, run_and_report, scaled_inset

#: Task sets per sweep point in the reduced benchmarks.
SETS = 8
#: fig2b uses n=10 tasks (bigger MILPs): fewer sets.
SETS_B = 4


def _run(benchmark, config, options):
    return benchmark.pedantic(
        lambda: run_and_report(config, options), rounds=1, iterations=1
    )


@pytest.mark.benchmark(group="figure2")
def test_fig2a(benchmark, bench_options):
    """Inset (a): ratio vs U; n=6, gamma=0.1, beta=0.5."""
    config = scaled_inset("fig2a", SETS, start=1, stop=5)  # U=.2,.3,.4,.5
    result = _run(benchmark, config, bench_options)
    assert_proposed_dominates(result)
    # Ratios must be non-increasing in U (monotone pressure).
    series = result.series("proposed")
    assert all(b <= a + 1 / SETS for (_, a), (_, b) in zip(series, series[1:]))


@pytest.mark.benchmark(group="figure2")
def test_fig2b(benchmark, bench_options):
    """Inset (b): as (a) with n=10 tasks."""
    config = scaled_inset("fig2b", SETS_B, start=1, stop=4)  # U=.2,.3,.4
    result = _run(benchmark, config, bench_options)
    assert_proposed_dominates(result)


@pytest.mark.benchmark(group="figure2")
def test_fig2c(benchmark, bench_options):
    """Inset (c): tighter deadlines (beta=0.25), gamma=0.3."""
    config = scaled_inset("fig2c", SETS, start=1, stop=5)  # U=.2,.3,.4,.5
    result = _run(benchmark, config, bench_options)
    assert_proposed_dominates(result)
    # The paper reports the largest NPS gap in this configuration.
    assert result.advantage("proposed", "nps_carry") >= 0.0


@pytest.mark.benchmark(group="figure2")
def test_fig2d(benchmark, bench_options):
    """Inset (d): memory-heavy tasks (gamma=0.5)."""
    config = scaled_inset("fig2d", SETS, start=1, stop=5)  # U=.2,.3,.4,.5
    result = _run(benchmark, config, bench_options)
    assert_proposed_dominates(result)


@pytest.mark.benchmark(group="figure2")
def test_fig2e(benchmark, bench_options):
    """Inset (e): ratio vs gamma at U=0.5.

    The DMA advantage must grow with gamma: the gap between the
    proposed protocol and NPS at gamma=0.5 is at least the gap at
    gamma=0.1 (up to one-set noise).
    """
    config = scaled_inset("fig2e", SETS, keep_every=2)  # gamma=.1,.3,.5
    result = _run(benchmark, config, bench_options)
    assert_proposed_dominates(result)
    gaps = [
        p.ratios["proposed"] - p.ratios["nps_carry"] for p in result.points
    ]
    assert gaps[-1] >= gaps[0] - 1 / SETS


@pytest.mark.benchmark(group="figure2")
def test_fig2f(benchmark, bench_options):
    """Inset (f): ratio vs beta at U=0.5, gamma=0.3.

    Looser deadlines (larger beta) help every approach: each series
    must be non-decreasing in beta (up to one-set noise).
    """
    config = scaled_inset("fig2f", SETS, keep_every=2)  # beta=0,.5,1
    result = _run(benchmark, config, bench_options)
    assert_proposed_dominates(result)
    for protocol in result.config.protocols:
        series = result.series(protocol)
        assert all(
            b >= a - 1 / SETS for (_, a), (_, b) in zip(series, series[1:])
        ), protocol


# ----------------------------------------------------------------------
# parallel engine: before/after wall-clock and the BENCH artifact
# ----------------------------------------------------------------------
import json
import os
import time
from pathlib import Path


@pytest.mark.benchmark(group="parallel")
def test_parallel_sweep_speedup(benchmark, tmp_path):
    """Cold + warm wall-clock at jobs=1/2/4 with the persistent store.

    Writes ``BENCH_parallel.json`` next to the repo root. Each jobs
    level gets a *fresh* store: the cold run pays full analysis cost
    and populates it, the warm repeat on the same store must answer
    (nearly) every verdict from disk — its integer-solve count is
    asserted to be zero. Ratios and ledgers of every run must match
    the store-less sequential reference; full analysis_stats identity
    is only asserted for the store-less reference itself (a shared
    store makes hit/miss attribution timing-dependent across workers,
    which is why the equivalence *tests* pin the no-store path).

    The >=3x speedup acceptance bar is only asserted on machines with
    >= 4 cores — on smaller boxes the artifact still records the
    measured ratios honestly (``cpu_count`` says what it ran on).

    Runs without a per-solve time limit: a wall-clock cutoff makes the
    solver's answer depend on machine load, which would break the
    bit-identity comparison this benchmark certifies (an overloaded
    box could degrade a parallel solve the sequential pass finished).
    """
    from repro.analysis.interface import AnalysisOptions
    from repro.experiments.report import aggregate_analysis_stats
    from repro.experiments.runner import run_experiment

    options = AnalysisOptions()
    config = scaled_inset("fig2a", SETS, start=1, stop=5)  # U=.2,.3,.4,.5

    def reference_run():
        t0 = time.perf_counter()
        result = run_experiment(config, options=options)
        return result, time.perf_counter() - t0

    reference, reference_s = benchmark.pedantic(
        reference_run, rounds=1, iterations=1
    )

    def reduced_match(result):
        return all(
            a.ratios == b.ratios and a.failures == b.failures
            for a, b in zip(reference.points, result.points)
        )

    runs: dict = {}
    identical = True
    for jobs in (1, 2, 4):
        store = tmp_path / f"store-jobs{jobs}.sqlite"
        t0 = time.perf_counter()
        cold = run_experiment(
            config, options=options, jobs=jobs, cache_path=str(store)
        )
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_experiment(
            config, options=options, jobs=jobs, cache_path=str(store)
        )
        warm_s = time.perf_counter() - t0
        identical = identical and reduced_match(cold) and reduced_match(warm)
        cold_stats = aggregate_analysis_stats(cold.points)
        warm_stats = aggregate_analysis_stats(warm.points)
        runs[f"jobs{jobs}"] = {
            "cold_seconds": round(cold_s, 3),
            "warm_seconds": round(warm_s, 3),
            "cold_milp_solves": cold_stats.get("milp_solves", 0),
            "warm_milp_solves": warm_stats.get("milp_solves", 0),
            "warm_persistent_hits": warm_stats.get("persistent.hits", 0),
        }

    stats = dict(aggregate_analysis_stats(reference.points))
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    cold4 = runs["jobs4"]["cold_seconds"]
    speedup = reference_s / cold4 if cold4 else float("inf")
    artifact = {
        "experiment": "fig2a reduced (U=0.2..0.5, %d sets/point)" % SETS,
        "cpu_count": os.cpu_count(),
        "store_enabled": True,
        "sequential_seconds": round(reference_s, 3),
        "runs": runs,
        "speedup_jobs4_cold": round(speedup, 3),
        "bit_identical": identical,
        "cache_stats": stats,
        "cache_hit_rate": (
            round(stats.get("hits", 0) / lookups, 4) if lookups else 0.0
        ),
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
    out.write_text(json.dumps(artifact, indent=2) + "\n")
    print()
    print(json.dumps(artifact, indent=2))

    assert identical, "parallel sweep diverged from the sequential path"
    assert stats.get("hits", 0) > 0, "cache never hit on the reduced sweep"
    for name, entry in runs.items():
        budget = 0.05 * entry["cold_milp_solves"]
        assert entry["warm_milp_solves"] <= budget, (
            f"{name} warm run still solved {entry['warm_milp_solves']} "
            f"MILPs (cold run: {entry['cold_milp_solves']})"
        )
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 3.0, (
            f"expected >=3x on a 4-core run, measured {speedup:.2f}x"
        )


@pytest.mark.benchmark(group="parallel")
def test_trace_overhead(benchmark, tmp_path):
    """Wall-clock cost of ``--trace`` on the reduced fig2a sweep.

    Runs the BENCH_parallel configuration untraced and traced
    (``jobs=4`` both times), writes ``BENCH_trace.json`` with both
    wall-clocks and the measured overhead, and asserts the traced run
    reconciles with its own results. The <5% acceptance bar is only
    asserted when the untraced baseline takes >=5 s — below that the
    ratio is dominated by worker startup noise; the artifact
    still records the measured value.
    """
    from repro.analysis.interface import AnalysisOptions
    from repro.experiments.runner import run_experiment
    from repro.obs import aggregate_events, read_trace, reconcile

    options = AnalysisOptions()
    config = scaled_inset("fig2a", SETS, start=1, stop=5)  # U=.2,.3,.4,.5

    t0 = time.perf_counter()
    run_experiment(config, options=options, jobs=4)
    untraced_s = time.perf_counter() - t0

    trace_path = tmp_path / "fig2a.trace.jsonl"

    def traced_run():
        t0 = time.perf_counter()
        result = run_experiment(
            config, options=options, jobs=4, trace_path=str(trace_path)
        )
        return result, time.perf_counter() - t0

    result, traced_s = benchmark.pedantic(traced_run, rounds=1, iterations=1)

    events = read_trace(trace_path)
    report = aggregate_events(events)
    problems = reconcile(report, result.points)
    overhead = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    artifact = {
        "experiment": "fig2a reduced (U=0.2..0.5, %d sets/point)" % SETS,
        "jobs": 4,
        "untraced_seconds": round(untraced_s, 3),
        "traced_seconds": round(traced_s, 3),
        "overhead_fraction": round(overhead, 4),
        "events_written": len(events),
        "reconciles": not problems,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_trace.json"
    out.write_text(json.dumps(artifact, indent=2) + "\n")
    print()
    print(json.dumps(artifact, indent=2))

    assert not problems, problems
    assert report.counts.get("solve", 0) > 0
    if untraced_s >= 5.0:
        assert overhead < 0.05, (
            f"tracing overhead {overhead:.1%} exceeds the 5% bar"
        )
