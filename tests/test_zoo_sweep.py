"""k-protocol sweeps through every execution path, keyed stores, reports.

The sweep stack used to assume exactly ``("nps_carry", "wasly",
"proposed")``; these tests pin the k-protocol generalisation: a
five-protocol sweep is bit-identical across ``jobs=1``, ``jobs=N`` and
the socket service, persistent-store units are keyed by protocol tuple
*and* the protocol-specific options (no cross-protocol collisions),
reports pick an explicit baseline instead of hard-coding "proposed",
and the CLI/service layers reject or re-normalise zoo options at the
boundary.
"""

import dataclasses
import json
from xml.dom import minidom

import pytest

from repro.analysis.interface import AnalysisOptions
from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    SweepPoint,
    SweepResult,
    ascii_plot,
    figure2_config,
    render_sweep_table,
    run_experiment,
    sweep_to_csv,
)
from repro.experiments.figures import save_sweep_svg, sweep_to_svg
from repro.experiments.report import baseline_protocol
from repro.experiments.units import unit_digest
from repro.generator.taskset_gen import GenerationConfig
from repro.model.platform import RegulationConfig
from repro.service.worker import options_from_dict, options_to_dict

ZOO = ("nps_carry", "wasly", "proposed", "threshold", "regulated")


def _zoo_config(protocols=ZOO, sets=2):
    points = tuple(
        SweepPoint(u, GenerationConfig(n=3, utilization=u, gamma=0.1))
        for u in (0.3, 0.5)
    )
    return ExperimentConfig(
        name="zoo",
        x_label="U",
        points=points,
        sets_per_point=sets,
        seed=17,
        method="closed_form",
        protocols=protocols,
    )


def _identical(a: SweepResult, b: SweepResult) -> None:
    assert [p.x for p in a.points] == [p.x for p in b.points]
    for pa, pb in zip(a.points, b.points):
        assert pa.ratios == pb.ratios
        assert pa.failures == pb.failures
        assert pa.sets_evaluated == pb.sets_evaluated
        assert dict(pa.analysis_stats) == dict(pb.analysis_stats)


class TestKProtocolSweep:
    def test_config_carries_five_protocols(self):
        cfg = figure2_config("fig2a", protocols=ZOO)
        assert cfg.protocols == ZOO

    def test_unknown_protocol_rejected_with_registry_listing(self):
        with pytest.raises(ExperimentError) as err:
            figure2_config("fig2a", protocols=("foo",))
        message = str(err.value)
        assert "unknown protocol(s) 'foo'" in message
        assert "registered protocols:" in message

    def test_empty_protocol_tuple_rejected(self):
        with pytest.raises(ExperimentError, match="empty protocol"):
            figure2_config("fig2a", protocols=())

    def test_five_protocol_ratios_cover_every_protocol(self):
        result = run_experiment(_zoo_config())
        for point in result.points:
            assert set(point.ratios) == set(ZOO)
            for ratio in point.ratios.values():
                assert 0.0 <= ratio <= 1.0

    def test_bit_identity_jobs_1_vs_n(self):
        config = _zoo_config()
        _identical(run_experiment(config), run_experiment(config, jobs=2))

    def test_bit_identity_service_path(self):
        from repro.service import run_service_sweep

        config = _zoo_config()
        sequential = run_experiment(config)
        service = run_service_sweep(config, workers=2)
        _identical(sequential, service)


class TestStoreKeying:
    """No cross-protocol collisions in the persistent unit store."""

    def test_unit_digest_covers_protocol_tuple(self):
        base = _zoo_config(protocols=("nps_carry", "threshold"))
        other = dataclasses.replace(
            base, protocols=("nps_carry", "regulated")
        )
        assert unit_digest(base, 0, 0, None, "count_unschedulable") != \
            unit_digest(other, 0, 0, None, "count_unschedulable")

    def test_unit_digest_covers_zoo_options(self):
        config = _zoo_config()
        plain = AnalysisOptions()
        thetas = AnalysisOptions(preemption_thresholds=(("t0", 0),))
        throttled = AnalysisOptions(
            regulation=RegulationConfig(budget=0.5, period=1.0)
        )
        digests = [
            unit_digest(config, 0, 0, opts, "count_unschedulable")
            for opts in (plain, thetas, throttled)
        ]
        assert len(set(digests)) == 3
        # None means "the defaults" (pinned by the service tests), so
        # it must collide with explicit default options — and only them.
        assert unit_digest(
            config, 0, 0, None, "count_unschedulable"
        ) == digests[0]

    def test_warm_store_serves_same_protocols_only(self, tmp_path):
        from repro.service import run_service_sweep

        cache = tmp_path / "store.sqlite"
        threshold_cfg = _zoo_config(protocols=("nps_carry", "threshold"))
        regulated_cfg = _zoo_config(protocols=("nps_carry", "regulated"))
        cold = run_service_sweep(
            threshold_cfg, workers=2, cache_path=str(cache),
            checkpoint_dir=str(tmp_path / "c1"),
        )
        # Same protocols again: every unit comes from the store.
        warm = run_service_sweep(
            threshold_cfg, workers=2, cache_path=str(cache),
            checkpoint_dir=str(tmp_path / "c2"),
        )
        assert [p.ratios for p in warm.points] == [
            p.ratios for p in cold.points
        ]
        assert [p.failures for p in warm.points] == [
            p.failures for p in cold.points
        ]
        for point in warm.points:
            stats = dict(point.analysis_stats)
            assert stats["unit_store.hits"] == threshold_cfg.sets_per_point
        # A different protocol tuple must NOT be served those entries —
        # and must still produce the sequential truth.
        crossed = run_service_sweep(
            regulated_cfg, workers=2, cache_path=str(cache),
            checkpoint_dir=str(tmp_path / "c3"),
        )
        for point in crossed.points:
            assert dict(point.analysis_stats).get("unit_store.hits", 0) == 0
        sequential = run_experiment(regulated_cfg)
        assert [p.ratios for p in crossed.points] == [
            p.ratios for p in sequential.points
        ]

    def test_changed_regulation_misses_the_store(self, tmp_path):
        from repro.service import run_service_sweep

        cache = tmp_path / "store.sqlite"
        config = _zoo_config(protocols=("nps_carry", "regulated"))
        tight = AnalysisOptions(
            regulation=RegulationConfig(budget=0.5, period=1.0)
        )
        loose = AnalysisOptions(
            regulation=RegulationConfig(budget=0.9, period=1.0)
        )
        run_service_sweep(
            config, workers=2, options=tight, cache_path=str(cache),
            checkpoint_dir=str(tmp_path / "c1"),
        )
        reran = run_service_sweep(
            config, workers=2, options=loose, cache_path=str(cache),
            checkpoint_dir=str(tmp_path / "c2"),
        )
        for point in reran.points:
            assert dict(point.analysis_stats).get("unit_store.hits", 0) == 0


class TestReportsAndFigures:
    def test_baseline_protocol_prefers_proposed(self):
        assert baseline_protocol(ZOO) == "proposed"
        assert baseline_protocol(("threshold", "regulated")) == "regulated"
        with pytest.raises(ValueError):
            baseline_protocol(())

    def test_table_advantage_lines_pair_against_one_baseline(self):
        result = run_experiment(_zoo_config())
        table = render_sweep_table(result)
        for protocol in ZOO:
            if protocol == "proposed":
                continue
            assert f"max advantage of proposed over {protocol}:" in table
        assert "advantage of proposed over proposed" not in table

    def test_table_without_proposed_does_not_crash(self):
        # The pre-zoo report unconditionally indexed "proposed".
        result = run_experiment(
            _zoo_config(protocols=("nps_carry", "threshold", "regulated"))
        )
        table = render_sweep_table(result)
        assert "max advantage of regulated over nps_carry:" in table
        assert "max advantage of regulated over threshold:" in table
        assert "proposed" not in table

    def test_explicit_baseline_override(self):
        result = run_experiment(
            _zoo_config(protocols=("nps_carry", "threshold"))
        )
        table = render_sweep_table(result, baseline="nps_carry")
        assert "max advantage of nps_carry over threshold:" in table

    def test_csv_and_ascii_cover_five_series(self):
        result = run_experiment(_zoo_config())
        header = sweep_to_csv(result).splitlines()[0]
        for protocol in ZOO:
            assert protocol in header
        plot = ascii_plot(result)
        assert "threshold" in plot and "regulated" in plot

    def test_svg_has_one_series_per_protocol(self):
        result = run_experiment(_zoo_config())
        svg = sweep_to_svg(result)
        document = minidom.parseString(svg)
        polylines = document.getElementsByTagName("polyline")
        assert len(polylines) == len(ZOO)
        for protocol in ZOO:
            assert protocol in svg

    def test_save_sweep_svg_writes_parseable_file(self, tmp_path):
        result = run_experiment(_zoo_config(protocols=("nps_carry",)))
        path = tmp_path / "zoo.svg"
        save_sweep_svg(result, str(path))
        document = minidom.parse(str(path))
        assert document.documentElement.tagName == "svg"


class TestCliBoundary:
    def test_unknown_protocols_flag_is_a_one_line_error(self, capsys):
        from repro.cli import main

        code = main([
            "figure", "fig2a", "--sets", "1", "--protocols", "foo",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: unknown protocol(s) 'foo'")
        assert "registered protocols:" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_malformed_regulation_flag(self, capsys):
        from repro.cli import main

        code = main([
            "figure", "fig2a", "--sets", "1", "--regulation", "bogus",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_thresholds_flag(self, capsys):
        from repro.cli import main

        code = main([
            "figure", "fig2a", "--sets", "1", "--thresholds", "a:b",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestServiceCodec:
    """Wire round-trips must preserve the digest-bearing repr."""

    def test_zoo_options_roundtrip_repr_identically(self):
        options = AnalysisOptions(
            preemption_thresholds=(("mid", 0), ("lo", 1)),
            regulation=RegulationConfig(budget=0.5, period=1.0),
        )
        wire = json.loads(json.dumps(options_to_dict(options)))
        rebuilt = options_from_dict(wire)
        assert repr(rebuilt) == repr(options)

    def test_default_options_roundtrip(self):
        options = AnalysisOptions()
        wire = json.loads(json.dumps(options_to_dict(options)))
        assert repr(options_from_dict(wire)) == repr(options)
        assert options_from_dict(None) is None
