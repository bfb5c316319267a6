"""Tests for repro.service.wire — the versioned wire schema.

The contract under test: ``from_wire(to_wire(x)) == x`` exactly (through
real JSON, not just dicts), every field of every kind survives both at
its default and at a non-default value, and every malformed document is
rejected with a :class:`WireError` that names the problem.
"""

import json
from dataclasses import fields, replace

import pytest

from repro.arch.params import ArchParams
from repro.core.guardband import GuardbandConfig
from repro.netlists.generator import NetlistSpec
from repro.runner.spec import ExperimentSpec
from repro.service.wire import (
    WIRE_KINDS,
    WIRE_SCHEMA_VERSION,
    WireError,
    from_wire,
    to_wire,
)
from repro.thermal.package import ThermalPackage


def json_round_trip(obj):
    """Encode, push through real JSON text, decode."""
    return from_wire(json.loads(json.dumps(to_wire(obj))))


# One valid instance per kind, built from defaults (NetlistSpec has
# required fields, so it gets explicit ones).
DEFAULTS = {
    ArchParams: ArchParams(),
    NetlistSpec: NetlistSpec("wire_rt", n_luts=16),
    ThermalPackage: ThermalPackage(),
    GuardbandConfig: GuardbandConfig(),
}


def _perturbation(name, value):
    """Changes making one field non-default while staying valid.

    Usually ``{name: new_value}``; the objective fields are validated as
    a pair (``mode="energy"`` requires a target, a target requires
    energy mode), so perturbing either one flips both.
    """
    if name in ("mode", "target_frequency_hz"):
        return {"mode": "energy", "target_frequency_hz": 1.25e8}
    if isinstance(value, bool):
        return {name: not value}
    if isinstance(value, str):
        return {name: value + "_alt"}
    if isinstance(value, int):
        return {name: value + 1}
    if isinstance(value, float):
        # Ratio-like fields are validated into (0, 1]; halving stays
        # inside, everything else can simply grow.
        return {name: value / 2 if 0.0 < value <= 1.0 else value + 1.0}
    if value is None and name == "package":
        return {
            name: ThermalPackage(
                g_vertical_w_per_k=1e-4, g_lateral_w_per_k=3e-4
            )
        }
    raise AssertionError(f"no perturbation for {name}={value!r}")


SCALAR_CASES = [
    (cls, f.name)
    for cls, instance in DEFAULTS.items()
    for f in fields(instance)
]


class TestRoundTrip:
    @pytest.mark.parametrize("cls", list(DEFAULTS), ids=lambda c: c.__name__)
    def test_defaults_round_trip(self, cls):
        original = DEFAULTS[cls]
        assert json_round_trip(original) == original

    @pytest.mark.parametrize(
        "cls,name", SCALAR_CASES,
        ids=[f"{cls.__name__}.{name}" for cls, name in SCALAR_CASES],
    )
    def test_every_field_round_trips_non_default(self, cls, name):
        base = DEFAULTS[cls]
        changed = replace(base, **_perturbation(name, getattr(base, name)))
        assert changed != base, name
        decoded = json_round_trip(changed)
        assert decoded == changed
        assert getattr(decoded, name) == getattr(changed, name)

    def test_experiment_spec_every_field_non_default(self):
        spec = ExperimentSpec(
            benchmarks=("sha", NetlistSpec("wire_rt", n_luts=16, seed=3)),
            ambients=(0.0, 85.0),
            corners=(-10.0, 100.0),
            arch=replace(ArchParams(), lut_size=5, vdd=0.75),
            config=GuardbandConfig(
                delta_t=1.0,
                max_iterations=40,
                base_activity=0.3,
                package=ThermalPackage(2e-5, 1e-4),
            ),
            seed=11,
            timing_driven=True,
            thermal_weight=0.5,
        )
        decoded = json_round_trip(spec)
        assert decoded == spec
        # Tuples stay tuples and nested kinds come back as dataclasses.
        assert isinstance(decoded.benchmarks, tuple)
        assert isinstance(decoded.benchmarks[1], NetlistSpec)
        assert isinstance(decoded.ambients, tuple)
        assert isinstance(decoded.arch, ArchParams)
        assert decoded.config is not None
        assert isinstance(decoded.config.package, ThermalPackage)

    def test_experiment_spec_defaults_round_trip(self):
        spec = ExperimentSpec(benchmarks=("sha",))
        assert json_round_trip(spec) == spec

    def test_envelope_shape(self):
        doc = to_wire(ArchParams())
        assert doc["kind"] == "ArchParams"
        assert doc["wire_version"] == WIRE_SCHEMA_VERSION
        assert isinstance(doc["payload"], dict)


class TestRejection:
    def test_unknown_version_is_rejected_with_both_versions(self):
        doc = to_wire(ArchParams())
        doc["wire_version"] = WIRE_SCHEMA_VERSION + 1
        with pytest.raises(WireError) as excinfo:
            from_wire(doc)
        message = str(excinfo.value)
        assert str(WIRE_SCHEMA_VERSION + 1) in message
        assert f"version {WIRE_SCHEMA_VERSION}" in message

    def test_v1_envelope_without_thermal_weight_is_rejected(self):
        """Pre-thermal-placement documents must not decode silently.

        A v1 ``ExperimentSpec`` has no ``thermal_weight`` field; decoding
        one as if it were v2 would default the weight and silently change
        what the sweep computes, so the version gate must refuse it."""
        doc = to_wire(ExperimentSpec(benchmarks=("sha",)))
        doc["wire_version"] = 1
        del doc["payload"]["thermal_weight"]
        with pytest.raises(WireError) as excinfo:
            from_wire(doc)
        assert f"version {WIRE_SCHEMA_VERSION}" in str(excinfo.value)

    def test_unknown_field_is_rejected_by_name(self):
        doc = to_wire(GuardbandConfig())
        doc["payload"]["made_up_knob"] = 3
        with pytest.raises(WireError, match="made_up_knob"):
            from_wire(doc)

    def test_unknown_field_error_lists_known_fields(self):
        doc = to_wire(ThermalPackage())
        doc["payload"]["bogus"] = 1
        with pytest.raises(WireError, match="g_vertical_w_per_k"):
            from_wire(doc)

    def test_unknown_kind_lists_supported_kinds(self):
        doc = {"kind": "FluxCapacitor", "wire_version": WIRE_SCHEMA_VERSION,
               "payload": {}}
        with pytest.raises(WireError) as excinfo:
            from_wire(doc)
        message = str(excinfo.value)
        assert "FluxCapacitor" in message
        for kind in WIRE_KINDS:
            assert kind in message

    @pytest.mark.parametrize("missing", ["kind", "wire_version", "payload"])
    def test_missing_envelope_key_is_named(self, missing):
        doc = to_wire(ArchParams())
        del doc[missing]
        with pytest.raises(WireError, match=missing):
            from_wire(doc)

    @pytest.mark.parametrize("doc", [None, 3, "ArchParams", ["kind"]])
    def test_non_object_document_is_rejected(self, doc):
        with pytest.raises(WireError, match="JSON object"):
            from_wire(doc)

    def test_non_object_payload_is_rejected(self):
        doc = to_wire(ArchParams())
        doc["payload"] = [1, 2]
        with pytest.raises(WireError, match="JSON object"):
            from_wire(doc)

    def test_invalid_value_fails_validation_on_decode(self):
        # __post_init__ re-runs on decode: a wire peer cannot smuggle in
        # values a local constructor would reject.
        doc = to_wire(ArchParams())
        doc["payload"]["lut_size"] = 1
        with pytest.raises(WireError, match="lut_size"):
            from_wire(doc)

    def test_incomplete_payload_is_actionable(self):
        doc = to_wire(NetlistSpec("wire_rt", n_luts=16))
        del doc["payload"]["name"]
        with pytest.raises(WireError, match="incomplete"):
            from_wire(doc)

    def test_unsupported_type_rejected_on_encode(self):
        with pytest.raises(WireError, match="not a wire type"):
            to_wire(object())

    def test_nested_benchmark_must_be_netlist_spec(self):
        spec = ExperimentSpec(benchmarks=("sha",))
        doc = to_wire(spec)
        doc["payload"]["benchmarks"] = [to_wire(ArchParams())]
        with pytest.raises(WireError, match="NetlistSpec"):
            from_wire(doc)

    def test_nested_arch_must_be_arch_params(self):
        spec = ExperimentSpec(benchmarks=("sha",))
        doc = to_wire(spec)
        doc["payload"]["arch"] = to_wire(ThermalPackage())
        with pytest.raises(WireError, match="ArchParams"):
            from_wire(doc)

    def test_nested_config_must_be_guardband_config(self):
        spec = ExperimentSpec(benchmarks=("sha",))
        doc = to_wire(spec)
        doc["payload"]["config"] = to_wire(ThermalPackage())
        with pytest.raises(WireError, match="GuardbandConfig"):
            from_wire(doc)

    def test_unknown_benchmark_name_rejected_on_decode(self):
        spec = ExperimentSpec(benchmarks=("sha",))
        doc = to_wire(spec)
        doc["payload"]["benchmarks"] = ["not_a_vtr_name"]
        with pytest.raises(WireError, match="not_a_vtr_name"):
            from_wire(doc)

    def test_non_finite_ambient_rejected_on_decode(self):
        spec = ExperimentSpec(benchmarks=("sha",))
        doc = to_wire(spec)
        doc["payload"]["ambients"] = ["inf"]
        with pytest.raises(WireError, match="finite"):
            from_wire(doc)

    def test_out_of_range_ambient_rejected_on_decode(self):
        doc = to_wire(ExperimentSpec(benchmarks=("sha",)))
        doc["payload"]["ambients"] = [0.0, 100.0]
        assert from_wire(doc).ambients == (0.0, 100.0)
        for ambient in (-0.1, 100.1):
            doc["payload"]["ambients"] = [ambient]
            with pytest.raises(WireError, match=r"\[0, 100\] C junction range"):
                from_wire(doc)


class TestManifestSurface:
    def test_wire_kinds_are_sorted_and_complete(self):
        assert list(WIRE_KINDS) == sorted(WIRE_KINDS)
        assert set(WIRE_KINDS) == {
            "ArchParams", "ExperimentSpec", "GuardbandConfig",
            "NetlistSpec", "ThermalPackage",
        }
