"""Integration tests: every experiment runs through the declarative registry
(in reduced form) and reproduces the qualitative shape the paper reports."""

from __future__ import annotations

import json

import pytest

from repro.api import get_experiment
from repro.experiments import fig5_evolution, fig9_service_cdf
from repro.experiments.runner import (
    EXPERIMENTS,
    build_parser,
    format_listing,
    main,
    run_experiment,
)


class TestFig3Convergence:
    def test_converges_within_twenty_iterations(self):
        spec = get_experiment("fig3")
        result = spec.run(
            scale="fast", cache_sizes=(10, 20, 30), num_files=30, tolerance=0.01
        )
        assert len(result.curves) == 3
        assert result.max_iterations() < 20
        for curve in result.curves:
            assert curve.converged
            trace = curve.objective_trace
            assert all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))
        text = spec.format(result)
        assert "Fig. 3" in text

    def test_larger_cache_reaches_lower_latency(self):
        result = get_experiment("fig3").run(
            scale="fast", cache_sizes=(10, 40), num_files=30
        )
        assert result.curves[1].final_latency <= result.curves[0].final_latency + 1e-6


class TestFig4CacheSize:
    def test_latency_decreases_convexly_to_zero(self):
        spec = get_experiment("fig4")
        result = spec.run(scale="fast", cache_sizes=(0, 30, 60, 90, 120), num_files=30)
        assert result.is_nonincreasing(tolerance=1e-3)
        # Full cache (4 chunks per file) drives the latency bound to ~0.
        assert result.points[-1].latency == pytest.approx(0.0, abs=1e-3)
        assert result.points[0].latency > 1.0
        text = spec.format(result)
        assert "Fig. 4" in text


class TestFig5Evolution:
    def test_cache_is_used_and_tracks_bins(self):
        spec = get_experiment("fig5")
        result = spec.run(scale="fast", cache_capacity=10)
        assert len(result.cache_per_bin) == 3
        for bin_content in result.cache_per_bin:
            total = sum(bin_content.values())
            assert 0 < total <= 10
        text = spec.format(result)
        assert "bin" in text
        hottest = fig5_evolution.hottest_files_per_bin(result, top=2)
        assert len(hottest) == 3

    def test_per_bin_simulation_cross_check(self):
        result = get_experiment("fig5").run(
            scale="fast", simulate_bins=True, horizon=2000.0
        )
        assert len(result.simulated_latency_per_bin) == 3
        for simulated in result.simulated_latency_per_bin:
            assert simulated > 0.0
        assert "simulated latency per bin" in get_experiment("fig5").format(result)


class TestFig6Placement:
    def test_allocation_shifts_with_arrival_rate(self):
        spec = get_experiment("fig6")
        result = spec.run(
            scale="fast",
            sweep_rates=(0.0001250, 0.0001786, 0.0002778),
            cache_capacity=10,
        )
        first_two = result.first_two_series()
        last_six = result.last_six_series()
        # At the low end the lightly-loaded first two files get little cache;
        # at the high end they displace the last six files' chunks.
        assert first_two[0] <= first_two[-1]
        assert first_two[-1] > 0
        assert last_six[0] >= last_six[-1]
        text = spec.format(result)
        assert "Fig. 6" in text

    def test_simulated_latency_recorded_when_requested(self):
        result = get_experiment("fig6").run(
            scale="fast",
            sweep_rates=(0.0001250,),
            simulate=True,
            horizon=2000.0,
        )
        assert result.points[0].simulated_latency is not None
        assert result.points[0].simulated_latency > 0.0


class TestFig7Scheduling:
    def test_cache_fraction_near_capacity_ratio(self):
        spec = get_experiment("fig7")
        result = spec.run(
            scale="fast",
            per_object_rates=(0.0225,),
            num_objects=120,
            cache_capacity_chunks=150,
            time_bin_length=100.0,
        )
        series = result.series[0]
        assert len(series.slots) == 20
        assert series.cache_fraction == pytest.approx(
            series.expected_cache_fraction, abs=0.08
        )
        assert spec.format(result).startswith("Fig. 7")


class TestFig9ServiceCdf:
    def test_sampled_moments_match_table_iv(self):
        spec = get_experiment("fig9")
        result = spec.run(scale="fast", samples_per_size=4000)
        for cdf in result.cdfs:
            assert cdf.sample_mean_ms == pytest.approx(cdf.table_mean_ms, rel=0.05)
            assert cdf.cdf_at(cdf.percentile(95)) >= 0.94
        rows = result.table_iv_rows()
        assert {row["chunk_size_mb"] for row in rows} == {1, 4, 16, 64, 256}
        assert "Table IV" in spec.format(result)

    def test_simulator_backed_sampling_matches_table(self):
        # The full emulated read path (either engine) must reproduce the
        # Table-IV service moments at low utilization.
        result = get_experiment("fig9").run(
            scale="fast",
            chunk_sizes_mb=(4, 64),
            samples_per_size=2000,
            via_simulator=True,
        )
        for cdf in result.cdfs:
            assert cdf.sample_mean_ms == pytest.approx(cdf.table_mean_ms, rel=0.08)


class TestTables:
    def test_tables_regeneration(self):
        spec = get_experiment("tables")
        result = spec.run(scale="fast", samples=3000)
        assert len(result.table_iv) == 5
        assert len(result.table_v) == 5
        for row in result.table_iv:
            assert row.emulated_mean_ms == pytest.approx(row.paper_mean_ms, rel=0.06)
        for row in result.table_v:
            assert row.emulated_latency_ms == pytest.approx(row.paper_latency_ms)
        text = spec.format(result)
        assert "Table I" in text and "Table V" in text


class TestFig10ObjectSizes:
    def test_optimal_beats_lru_and_gap_grows_with_size(self):
        spec = get_experiment("fig10")
        result = spec.run(
            scale="fast",
            object_sizes_mb=(16, 64),
            num_objects=300,
            duration_s=300.0,
            rate_scale=3.0,
        )
        assert len(result.comparisons) == 2
        for comparison in result.comparisons:
            assert comparison.optimal_latency_ms <= comparison.baseline_latency_ms * 1.05
        # Latency grows with object size in both configurations.
        assert (
            result.comparisons[1].optimal_latency_ms
            > result.comparisons[0].optimal_latency_ms
        )
        assert "Fig. 10" in spec.format(result)


class TestFig11ArrivalRates:
    def test_latency_grows_with_load_and_optimal_wins(self):
        spec = get_experiment("fig11")
        result = spec.run(
            scale="fast",
            aggregate_rates=(0.5, 4.0),
            num_objects=400,
            duration_s=300.0,
        )
        assert len(result.comparisons) == 2
        low, high = result.comparisons
        assert high.baseline_latency_ms > low.baseline_latency_ms
        assert high.optimal_latency_ms <= high.baseline_latency_ms
        assert result.mean_improvement() > 0.0
        assert "Fig. 11" in spec.format(result)


class TestRunner:
    ALL_NAMES = {
        "fig3", "fig4", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11",
        "fig12", "fig13", "fig14", "tables", "scenario",
    }

    def test_registry_covers_all_figures_and_tables(self):
        from repro.api import list_experiments

        assert set(list_experiments()) == self.ALL_NAMES
        assert set(EXPERIMENTS) == self.ALL_NAMES

    def test_parser(self):
        parser = build_parser()
        args = parser.parse_args(["fig9", "--scale", "fast"])
        assert args.experiment == "fig9"
        assert args.scale == "fast"
        assert args.engine is None and args.seed is None
        args = parser.parse_args(
            ["fig7", "--scale", "fast", "--engine", "event", "--seed", "7", "--json"]
        )
        assert args.engine == "event"
        assert args.seed == 7
        assert args.as_json

    def test_run_experiment_fast(self):
        report = run_experiment("fig9", "fast")
        assert "Table IV" in report

    def test_run_experiment_json(self):
        report = run_experiment("tables", "fast", as_json=True)
        payload = json.loads(report)
        assert payload["experiment"] == "tables"
        assert payload["scale"] == "fast"
        assert len(payload["result"]["table_iv"]) == 5

    def test_seed_override_changes_fig9_samples(self):
        spec = get_experiment("fig9")
        base = spec.run(scale="fast", samples_per_size=500)
        reseeded = spec.run(scale="fast", samples_per_size=500, seed=7)
        repeat = spec.run(scale="fast", samples_per_size=500)
        assert base.cdfs[0].sample_mean_ms != reseeded.cdfs[0].sample_mean_ms
        assert base.cdfs[0].sample_mean_ms == repeat.cdfs[0].sample_mean_ms

    def test_cli_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in sorted(self.ALL_NAMES):
            assert name in out
        for section in ("solvers", "engines", "baselines", "workloads"):
            assert f"Registered {section}:" in out

    def test_cli_json_run(self, capsys):
        assert main(["fig9", "--scale", "fast", "--json", "--seed", "11"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "fig9"
        assert payload["seed"] == 11

    def test_cli_requires_experiment_or_list(self):
        with pytest.raises(SystemExit):
            main([])

    def test_legacy_compat_mapping_runs(self):
        description, runner = EXPERIMENTS["tables"]
        assert "Tables" in description
        assert "Table IV" in runner("fast")

    def test_listing_renders(self):
        text = format_listing()
        assert "Registered experiments:" in text
        assert "fig11" in text


class TestDirectCalls:
    def test_direct_run_call_matches_registry(self):
        spec = get_experiment("fig9")
        via_registry = spec.run(scale="fast", samples_per_size=800)
        legacy = fig9_service_cdf.run(samples_per_size=800)
        # Same seed, same code path.
        assert [cdf.sample_mean_ms for cdf in legacy.cdfs] == [
            cdf.sample_mean_ms for cdf in via_registry.cdfs
        ]
