"""Energy-mode objective: voltage bisection at iso-frequency.

Covers the whole-stack wiring of ``mode="energy"``: config validation,
the lockstep bisection (single cell and batched), the result invariants, the wire
and store serialisation of the new fields, and the CLI diagnostics.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro import observe
from repro.cad.timing import TimingAnalyzer
from repro.core.guardband import (
    EnergyReport,
    GuardbandConfig,
    GuardbandError,
    GuardbandResult,
    thermal_aware_guardband,
    thermal_aware_guardband_batch,
)
from repro.cad.flow import run_flow
from repro.core.margins import worst_case_frequency
from repro.netlists.vtr_suite import vtr_benchmark
from repro.observe.sinks import InMemorySink
from repro.power.voltage import VDD_MIN_V, VDD_TOLERANCE_V, VoltageScaling
from repro.runner.results import JobResult, outcome_from_record
from repro.runner.spec import ExperimentSpec
from repro.service.wire import WireError, from_wire, to_wire
from repro.store.store import store_digest
from repro.technology.ptm22 import VDD_NOMINAL


# --- configuration validation -------------------------------------------


class TestConfigValidation:
    def test_energy_mode_requires_target(self):
        with pytest.raises(ValueError, match="requires target_frequency_hz"):
            GuardbandConfig(mode="energy")

    def test_frequency_mode_rejects_target(self):
        with pytest.raises(ValueError, match="only meaningful"):
            GuardbandConfig(mode="frequency", target_frequency_hz=1e8)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            GuardbandConfig(mode="power")

    @pytest.mark.parametrize("bad", [0.0, -1e8, float("nan"), float("inf")])
    def test_non_positive_target_rejected(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            GuardbandConfig(mode="energy", target_frequency_hz=bad)

    def test_experiment_spec_mirrors_config_rules(self):
        with pytest.raises(ValueError, match="requires target_frequency_hz"):
            ExperimentSpec(benchmarks=("bgm",), mode="energy")
        with pytest.raises(ValueError, match="only meaningful"):
            ExperimentSpec(benchmarks=("bgm",), target_frequency_hz=1e8)
        with pytest.raises(ValueError, match="mode"):
            ExperimentSpec(benchmarks=("bgm",), mode="voltage")

    def test_spec_objective_flows_into_job_config(self):
        spec = ExperimentSpec(
            benchmarks=("bgm",), mode="energy", target_frequency_hz=5e7
        )
        job = spec.expand()[0]
        assert job.config.mode == "energy"
        assert job.config.target_frequency_hz == 5e7


# --- frequency mode: unchanged defaults ---------------------------------


class TestFrequencyModeInvariants:
    def test_default_result_reports_nominal_supply(self, tiny_flow, fabric25):
        result = thermal_aware_guardband(tiny_flow, fabric25, 25.0)
        assert result.mode == "frequency"
        assert result.vdd_v == VDD_NOMINAL
        assert result.energy is None

    def test_positional_construction_deprecated(self):
        # Keyword construction is the supported spelling and stays silent.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = GuardbandResult(
                frequency_hz=1e8,
                critical_path_s=1e-8,
                tile_temperatures=np.full(4, 30.0),
                iterations=3,
                t_ambient=25.0,
                delta_t=2.0,
                total_power_w=0.1,
            )
        assert result.vdd_v == VDD_NOMINAL


# --- energy mode: the bisection loop ------------------------------------


@pytest.fixture(scope="module")
def energy_config(tiny_flow, fabric25):
    """Energy config targeting the design's own worst-case clock.

    The worst-case baseline always closes at nominal supply (Algorithm 1
    only ever improves on it), so the target is feasible by construction
    and the whole thermal margin converts to voltage headroom.
    """
    f_wc = worst_case_frequency(tiny_flow, fabric25)
    return GuardbandConfig(mode="energy", target_frequency_hz=f_wc)


@pytest.fixture(scope="module")
def energy_result(tiny_flow, fabric25, energy_config):
    return thermal_aware_guardband(
        tiny_flow, fabric25, 25.0, config=energy_config
    )


class TestEnergyMode:
    def test_scales_supply_below_nominal(self, energy_result, energy_config):
        assert energy_result.mode == "energy"
        assert VDD_MIN_V <= energy_result.vdd_v < VDD_NOMINAL
        assert (
            energy_result.frequency_hz == energy_config.target_frequency_hz
        )

    def test_timing_closes_at_target(self, energy_result):
        # critical_path_s is re-timed at the converged profile + delta_t
        # with the closing supply's delay scale, so closure is simply
        # cp <= target period.
        period_s = 1.0 / energy_result.frequency_hz
        assert energy_result.critical_path_s <= period_s

    def test_energy_report_is_consistent(self, energy_result):
        report = energy_result.energy
        assert isinstance(report, EnergyReport)
        assert report.vdd_v == energy_result.vdd_v
        assert report.vdd_nominal_v == VDD_NOMINAL
        assert report.total_power_w == pytest.approx(
            energy_result.total_power_w
        )
        assert 0.0 < report.power_saving_fraction < 1.0
        assert report.power_saving_fraction == pytest.approx(
            1.0 - report.total_power_w / report.nominal_power_w
        )
        period_s = 1.0 / report.target_frequency_hz
        assert report.energy_per_cycle_j == pytest.approx(
            report.total_power_w * period_s
        )
        assert report.nominal_energy_per_cycle_j == pytest.approx(
            report.nominal_power_w * period_s
        )

    def test_cooler_ambient_closes_at_lower_supply(
        self, tiny_flow, fabric25, energy_config
    ):
        cold = thermal_aware_guardband(
            tiny_flow, fabric25, 15.0, config=energy_config
        )
        hot = thermal_aware_guardband(
            tiny_flow, fabric25, 75.0, config=energy_config
        )
        # Cooler silicon is faster, so more of the delay budget converts
        # to supply reduction; the bisection window is much wider than
        # the tolerance here, so the ordering is strict.
        assert cold.vdd_v < hot.vdd_v
        assert cold.energy.power_saving_fraction > (
            hot.energy.power_saving_fraction
        )

    def test_infeasible_target_raises_actionable_error(
        self, tiny_flow, fabric25
    ):
        config = GuardbandConfig(mode="energy", target_frequency_hz=1e12)
        with pytest.raises(GuardbandError, match="does not close"):
            thermal_aware_guardband(tiny_flow, fabric25, 25.0, config=config)

    def test_batch_matches_looped_runs(
        self, tiny_flow, fabric25, energy_config
    ):
        ambients = [15.0, 45.0, 75.0]
        looped = [
            thermal_aware_guardband(
                tiny_flow, fabric25, t, config=energy_config
            )
            for t in ambients
        ]
        batched = thermal_aware_guardband_batch(
            tiny_flow, fabric25, ambients, config=energy_config
        )
        for one, many in zip(looped, batched):
            assert isinstance(many, GuardbandResult)
            assert many.mode == "energy"
            # One kernel serves both: a batch-mate is the cell run alone,
            # bit for bit (DESIGN.md §12).
            assert many.vdd_v == one.vdd_v
            assert many.iterations == one.iterations
            assert many.critical_path_s == one.critical_path_s
            assert many.energy == one.energy
            np.testing.assert_array_equal(
                many.tile_temperatures, one.tile_temperatures
            )


class TestExactWork:
    """An energy trial times the design once: its iterations evaluate
    power at the target clock, so only the re-time at ``T + delta_t``
    runs an STA."""

    ROUNDS = math.ceil(math.log2((VDD_NOMINAL - VDD_MIN_V) / VDD_TOLERANCE_V))
    """Bisection rounds that narrow the supply window to the tolerance."""

    @pytest.fixture()
    def sta_calls(self, monkeypatch):
        calls = []
        batch = TimingAnalyzer.critical_path_batch

        def counting(analyzer, fabric, t_batch, delay_scale=None):
            calls.append(len(t_batch))
            return batch(analyzer, fabric, t_batch, delay_scale=delay_scale)

        monkeypatch.setattr(TimingAnalyzer, "critical_path_batch", counting)
        return calls

    def test_one_sta_per_trial(
        self, tiny_flow, fabric25, energy_config, sta_calls
    ):
        assert self.ROUNDS == 6
        thermal_aware_guardband(tiny_flow, fabric25, 25.0, config=energy_config)
        assert sta_calls == [1] * (1 + self.ROUNDS)

    def test_batch_makes_the_same_calls(
        self, tiny_flow, fabric25, energy_config, sta_calls
    ):
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25, [15.0, 35.0, 55.0, 75.0],
            config=energy_config,
        )
        assert all(isinstance(o, GuardbandResult) for o in outcomes)
        assert sta_calls == [4] * (1 + self.ROUNDS)

    def test_iterations_run_power_and_thermal_only(
        self, tiny_flow, fabric25, energy_config
    ):
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            result = thermal_aware_guardband(
                tiny_flow, fabric25, 25.0, config=energy_config
            )
        spans = sink.spans()
        iterations = [s for s in spans if s["name"] == "guardband.iteration"]
        assert len(iterations) == result.iterations
        for iteration in iterations:
            children = sorted(
                (s for s in spans if s["parent_id"] == iteration["span_id"]),
                key=lambda s: s["t_start"],
            )
            assert [s["name"] for s in children] == [
                "guardband.power", "guardband.thermal",
            ]
        finals = [s for s in spans if s["name"] == "guardband.final_sta"]
        assert len(finals) == 1 + self.ROUNDS
        assert not [s for s in spans if s["name"] == "guardband.sta"]
        # Each history row records the clock its power was evaluated at.
        target = energy_config.target_frequency_hz
        assert [row.frequency_hz for row in result.history] == (
            [target] * result.iterations
        )

    def test_one_scale_table_lookup_per_supply(self, arch, fabric25):
        """An energy cell on ``sha`` tries seven distinct supplies.  Its
        seven re-times read delay tables and its eight power evaluations
        leakage tables, once 15 lookups of ``power.scale_tables.memo``;
        the run's :class:`VoltageScaling` keeps each supply's pair, so a
        warm memo now sees one hit per supply."""
        flow = run_flow(vtr_benchmark("sha"), arch)
        config = GuardbandConfig(
            mode="energy",
            target_frequency_hz=worst_case_frequency(flow, fabric25),
        )
        first = thermal_aware_guardband(flow, fabric25, 25.0, config=config)
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            again = thermal_aware_guardband(flow, fabric25, 25.0, config=config)
        lookups: dict = {}
        for record in sink.metrics():
            if record["name"].startswith("power.scale_tables.memo."):
                lookups[record["name"]] = (
                    lookups.get(record["name"], 0) + record["value"]
                )
        assert lookups == {"power.scale_tables.memo.hit": 7}
        assert again.iterations == first.iterations == 8
        assert again.vdd_v == first.vdd_v
        assert again.frequency_hz == first.frequency_hz


# --- persistence: wire envelopes, store digests, JSONL records ----------


class TestSerialisation:
    def test_experiment_spec_round_trips(self):
        spec = ExperimentSpec(
            benchmarks=("bgm",),
            ambients=(15.0, 45.0),
            mode="energy",
            target_frequency_hz=5e7,
        )
        decoded = from_wire(json.loads(json.dumps(to_wire(spec))))
        assert decoded == spec
        assert decoded.mode == "energy"
        assert decoded.target_frequency_hz == 5e7

    def test_config_round_trips(self):
        config = GuardbandConfig(mode="energy", target_frequency_hz=8e7)
        decoded = from_wire(json.loads(json.dumps(to_wire(config))))
        assert decoded == config

    def test_invalid_combination_rejected_on_decode(self):
        envelope = to_wire(ExperimentSpec(benchmarks=("bgm",)))
        envelope["payload"]["mode"] = "energy"  # no target: invalid pair
        with pytest.raises(WireError, match="target_frequency_hz"):
            from_wire(envelope)

    def test_store_digest_distinguishes_objectives(self):
        frequency = GuardbandConfig()
        energy_a = GuardbandConfig(mode="energy", target_frequency_hz=5e7)
        energy_b = GuardbandConfig(mode="energy", target_frequency_hz=6e7)
        digests = {
            store_digest("flow-key", config, 25.0, 25.0)
            for config in (frequency, energy_a, energy_b)
        }
        assert len(digests) == 3

    def test_job_result_record_round_trips(self):
        result = JobResult(
            job_id="tiny@T25@D25",
            benchmark="tiny",
            t_ambient=25.0,
            corner=25.0,
            frequency_hz=5e7,
            worst_case_hz=5e7,
            gain=0.0,
            iterations=8,
            total_power_w=0.05,
            max_tile_celsius=40.0,
            mean_tile_celsius=35.0,
            wall_seconds=1.0,
            mode="energy",
            vdd_v=0.65,
            energy_saving=0.2,
            energy_per_cycle_j=1e-9,
        )
        reloaded = outcome_from_record(
            json.loads(json.dumps(result.to_record()))
        )
        assert reloaded == result

    def test_old_records_load_with_defaults(self):
        # A record streamed by a pre-energy engine has none of the new
        # fields; it must still reload (as a frequency-mode cell).
        record = {
            "type": "result",
            "job_id": "tiny@T25@D25",
            "benchmark": "tiny",
            "t_ambient": 25.0,
            "corner": 25.0,
            "frequency_hz": 1e8,
            "worst_case_hz": 9e7,
            "gain": 0.11,
            "iterations": 5,
            "total_power_w": 0.05,
            "max_tile_celsius": 40.0,
            "mean_tile_celsius": 35.0,
            "wall_seconds": 1.0,
        }
        reloaded = outcome_from_record(record)
        assert reloaded.mode == "frequency"
        assert reloaded.vdd_v is None
        assert reloaded.energy_saving is None


# --- runner integration: energy sweeps end to end ------------------------


class TestRunnerIntegration:
    def test_energy_sweep_records_supply_and_savings(self, tmp_path):
        from repro.netlists.generator import NetlistSpec
        from repro.runner import run_sweep

        spec = ExperimentSpec(
            benchmarks=(
                NetlistSpec(
                    "energy_cell", n_luts=16, depth=4, seed=9,
                    base_activity=0.2,
                ),
            ),
            ambients=(25.0, 60.0),
            mode="energy",
            target_frequency_hz=3e7,
        )
        jsonl = tmp_path / "sweep.jsonl"
        sweep = run_sweep(spec, jsonl_path=str(jsonl))
        assert sweep.ok
        assert len(sweep.results) == 2
        for result in sweep.results:
            assert result.mode == "energy"
            assert result.frequency_hz == 3e7
            assert result.vdd_v is not None and result.vdd_v < VDD_NOMINAL
            assert result.energy_saving is not None
            assert result.energy_saving > 0.0
            assert result.energy_per_cycle_j is not None
        # The JSONL stream round-trips the new fields.
        from repro.runner.results import SweepResult

        reloaded = SweepResult.from_jsonl(jsonl)
        assert {r.job_id: r.vdd_v for r in reloaded.results} == {
            r.job_id: r.vdd_v for r in sweep.results
        }


# --- CLI: shared objective flags and --json diagnostics ------------------


class TestCliDiagnostics:
    def _run(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr()

    def test_energy_without_target_is_json_error(self, capsys):
        code, captured = self._run(
            ["sweep", "--benchmarks", "bgm", "--mode", "energy", "--json"],
            capsys,
        )
        assert code == 1
        payload = json.loads(captured.out)
        assert payload["error"] == "ValueError"
        assert "target_frequency_hz" in payload["message"]

    def test_target_without_energy_mode_is_json_error(self, capsys):
        code, captured = self._run(
            [
                "suite",
                "--target-frequency",
                "1e8",
                "--json",
            ],
            capsys,
        )
        assert code == 1
        payload = json.loads(captured.out)
        assert payload["error"] == "ValueError"
        assert "only meaningful" in payload["message"]

    def test_plain_diagnostic_on_stderr_without_json(self, capsys):
        code, captured = self._run(
            ["sweep", "--benchmarks", "bgm", "--mode", "energy"],
            capsys,
        )
        assert code == 1
        assert "error: ValueError" in captured.err
        assert captured.out == ""


# --- voltage model sanity ------------------------------------------------


class TestVoltageScaling:
    def test_nominal_supply_is_identity(self):
        scaling = VoltageScaling()
        temps = np.array([25.0, 60.0, 95.0])
        np.testing.assert_allclose(
            scaling.delay_scale_tiles(VDD_NOMINAL, temps), 1.0
        )
        np.testing.assert_allclose(
            scaling.leakage_scale_cells(np.array([VDD_NOMINAL]), temps[None]),
            1.0,
        )
        assert scaling.dynamic_scale(VDD_NOMINAL) == 1.0

    def test_lower_supply_slower_and_leaner(self):
        scaling = VoltageScaling()
        assert scaling.delay_scale_table(0.65)[25] > 1.0
        assert scaling.dynamic_scale(0.65) < 1.0
        assert scaling.leakage_scale_table(0.65)[25] < 1.0

    def test_tables_are_process_wide_and_read_only(self):
        first, second = VoltageScaling(), VoltageScaling()
        for table_of in ("delay_scale_table", "leakage_scale_table"):
            table = getattr(first, table_of)(0.65)
            assert getattr(second, table_of)(0.65) is table
            with pytest.raises(ValueError):
                table[0] = 1.0

    def test_scaled_arrival_pass_matches_reference(self, tiny_flow, fabric25):
        from repro.power.voltage import resource_delay_scale

        timing = tiny_flow.timing
        temps = np.full(tiny_flow.n_tiles, 40.0)
        tile_scale = VoltageScaling().delay_scale_tiles(0.7, temps)
        scale = resource_delay_scale(tile_scale)
        arr_f, pred_f, ends_f = timing._arrivals(
            fabric25, temps[None], scale[None]
        )[0]
        arr_r, pred_r, ends_r = timing._arrival_pass_reference(
            fabric25, temps, scale
        )
        np.testing.assert_allclose(arr_f, arr_r, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(pred_f, pred_r)
        assert ends_f.keys() == ends_r.keys()
        for block_id, t_end in ends_r.items():
            assert ends_f[block_id] == pytest.approx(t_end, rel=1e-12)
