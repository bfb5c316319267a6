"""Tests for repro.analysis — the domain-invariant linter.

Each rule gets a fixture module that must flag and one that must pass;
plus suppression-comment, manifest (cache-key) and CLI behavior, and a full pass over the real ``src/repro`` tree that must
come back clean.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Manifest,
    Severity,
    all_rules,
    run_analysis,
)
from repro.analysis.cli import main as cli_main
from repro.analysis.engine import (
    Project,
    default_manifest_path,
    load_modules,
)
from repro.analysis.rules.cache_key import current_manifest
from repro.analysis.suppress import suppressions_for

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"


def write_module(root: Path, rel: str, body: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


def run_on(tmp_path: Path, **kwargs):
    return run_analysis(
        root=tmp_path,
        rules=all_rules(),
        manifest_path=kwargs.pop("manifest_path", tmp_path / "manifest.json"),
        **kwargs,
    )


def save_manifest(path: Path, name: str, version: int, classes) -> Path:
    """Record one contract, ``classes`` as ``(class, fields)`` pairs."""
    Manifest(
        contracts={name: (version, {c: tuple(f) for c, f in classes})}
    ).save(path)
    return path


def live_manifest() -> Manifest:
    """The live contracts of the real ``src/repro`` tree."""
    modules, errors = load_modules(SRC_REPRO)
    assert errors == []
    return current_manifest(
        Project(root=SRC_REPRO, modules=modules, manifest_path=Path("unused"))
    )


def rule_ids(report):
    return [f.rule_id for f in report.findings]


class TestUnitsRule:
    def test_flags_offset_literal_outside_temperature_module(self, tmp_path):
        write_module(
            tmp_path,
            "thermal/bad.py",
            """
            def to_kelvin(t_c):
                return t_c + 273.15
            """,
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["units"]
        assert report.findings[0].severity is Severity.ERROR
        assert "273.15" in report.findings[0].message

    def test_flags_reference_temperature_literal(self, tmp_path):
        write_module(
            tmp_path,
            "power/bad.py",
            "SCALE = 1.0 / 298.15\n",
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["units"]

    def test_flags_kelvin_offset_in_thermal_place(self, tmp_path):
        """The placement thermal proxy works in relative density units;
        a Celsius/Kelvin offset sneaking in there is exactly the bug
        class the rule exists for."""
        write_module(
            tmp_path,
            "cad/thermal_place.py",
            "AMBIENT_K = 25.0 + 273.15\n",
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["units"]

    def test_passes_unit_free_thermal_place(self, tmp_path):
        write_module(
            tmp_path,
            "cad/thermal_place.py",
            """
            import numpy as np

            def raw_cost(spread):
                return float(np.sum(spread**2))
            """,
        )
        assert run_on(tmp_path).findings == []

    def test_passes_inside_temperature_module_and_clean_code(self, tmp_path):
        write_module(
            tmp_path,
            "technology/temperature.py",
            """
            ZERO_CELSIUS_K = 273.15
            T_REFERENCE_K = 298.15
            """,
        )
        write_module(
            tmp_path,
            "thermal/good.py",
            """
            from repro.technology.temperature import celsius_to_kelvin

            def to_kelvin(t_c):
                return celsius_to_kelvin(t_c)
            """,
        )
        assert run_on(tmp_path).findings == []


class TestDeterminismRule:
    def test_flags_unseeded_default_rng(self, tmp_path):
        write_module(
            tmp_path,
            "cad/bad.py",
            """
            import numpy as np

            def jitter():
                return np.random.default_rng().random()
            """,
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["determinism"]

    def test_flags_none_seed_and_legacy_global_api(self, tmp_path):
        write_module(
            tmp_path,
            "core/bad.py",
            """
            import numpy as np

            def sample(n):
                rng = np.random.default_rng(None)
                return np.random.normal(size=n)
            """,
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["determinism", "determinism"]

    def test_flags_stdlib_random_and_wall_clock(self, tmp_path):
        write_module(
            tmp_path,
            "runner/bad.py",
            """
            import random
            import time

            def pick(items):
                random.shuffle(items)
                return time.time()
            """,
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["determinism", "determinism"]
        assert any("wall-clock" in f.message for f in report.findings)

    def test_flags_unseeded_random_state_in_thermal_place(self, tmp_path):
        write_module(
            tmp_path,
            "cad/thermal_place.py",
            """
            import numpy as np

            def perturb(densities):
                return densities + np.random.RandomState().rand()
            """,
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["determinism"]
        assert "RandomState" in report.findings[0].message

    def test_flags_none_seeded_random_state(self, tmp_path):
        write_module(
            tmp_path,
            "cad/bad.py",
            """
            import numpy as np

            def sample():
                return np.random.RandomState(None).rand()
            """,
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["determinism"]

    def test_passes_seeded_random_state_in_thermal_place(self, tmp_path):
        write_module(
            tmp_path,
            "cad/thermal_place.py",
            """
            import numpy as np

            def perturb(densities, seed):
                return densities + np.random.RandomState(seed).rand()
            """,
        )
        assert run_on(tmp_path).findings == []

    def test_passes_seeded_rng_and_observe_clock(self, tmp_path):
        write_module(
            tmp_path,
            "cad/good.py",
            """
            import numpy as np
            from repro.observe.clock import monotonic

            def place(seed):
                start = monotonic()
                rng = np.random.default_rng(seed)
                return rng.random(), monotonic() - start
            """,
        )
        assert run_on(tmp_path).findings == []

    def test_flags_direct_monotonic_clock_in_core(self, tmp_path):
        write_module(
            tmp_path,
            "cad/bad.py",
            """
            import time

            def timed():
                return time.perf_counter()
            """,
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["determinism"]
        assert "repro.observe.clock" in report.findings[0].message

    def test_flags_clock_reads_outside_deterministic_core(self, tmp_path):
        write_module(
            tmp_path,
            "reporting/stamp.py",
            """
            import time

            def stamp():
                return time.time(), time.monotonic_ns()
            """,
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["determinism", "determinism"]

    def test_rng_checks_stay_scoped_to_the_core(self, tmp_path):
        write_module(
            tmp_path,
            "reporting/ok.py",
            """
            import numpy as np

            def shade():
                return np.random.default_rng().random()
            """,
        )
        assert run_on(tmp_path).findings == []

    def test_only_observe_may_read_clocks(self, tmp_path):
        write_module(
            tmp_path,
            "observe/clock.py",
            """
            import time

            def wall():
                return time.time()

            def monotonic():
                return time.perf_counter()
            """,
        )
        # A top-level module has no exemption (the old profiling shim's
        # name included).
        write_module(
            tmp_path,
            "profiling.py",
            """
            import time

            def legacy_stamp():
                return time.perf_counter()
            """,
        )
        report = run_on(tmp_path)
        assert [(f.rule_id, f.path) for f in report.findings] == [
            ("determinism", "profiling.py")
        ]


CACHE_FIXTURE_PARAMS = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class ArchParams:
        lut_size: int = 6
        cluster_size: int = 10
"""

CACHE_FIXTURE_FLOW_FIELDS = """
    import hashlib
    from dataclasses import fields

    FLOW_CACHE_VERSION = 4

    def arch_digest(arch):
        payload = repr(tuple((f.name, getattr(arch, f.name)) for f in fields(arch)))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]
"""


class TestCacheKeyRule:
    def _project(self, tmp_path, params=CACHE_FIXTURE_PARAMS,
                 flow=CACHE_FIXTURE_FLOW_FIELDS):
        write_module(tmp_path, "arch/params.py", params)
        write_module(tmp_path, "cad/flow.py", flow)

    def _manifest(self, tmp_path, fields=("cluster_size", "lut_size"),
                  version=4):
        return save_manifest(
            tmp_path / "manifest.json", "FLOW_CACHE_VERSION", version,
            [("ArchParams", fields)],
        )

    def test_passes_when_manifest_matches(self, tmp_path):
        self._project(tmp_path)
        path = self._manifest(tmp_path)
        report = run_on(tmp_path, manifest_path=path)
        assert report.findings == []

    def test_missing_manifest_is_a_warning(self, tmp_path):
        self._project(tmp_path)
        report = run_on(tmp_path)
        assert rule_ids(report) == ["cache-key"]
        assert report.findings[0].severity is Severity.WARNING
        assert "FLOW_CACHE_VERSION manifest" in report.findings[0].message
        assert "ArchParams" in report.findings[0].message
        assert report.ok

    def test_version_drift_alone_is_a_warning(self, tmp_path):
        self._project(tmp_path)
        path = self._manifest(tmp_path, version=3)
        report = run_on(tmp_path, manifest_path=path)
        assert rule_ids(report) == ["cache-key"]
        assert report.findings[0].severity is Severity.WARNING
        assert "FLOW_CACHE_VERSION is 4" in report.findings[0].message

    def test_field_change_without_version_bump_is_an_error(self, tmp_path):
        self._project(tmp_path)
        path = self._manifest(tmp_path, fields=("lut_size",), version=4)
        report = run_on(tmp_path, manifest_path=path)
        assert rule_ids(report) == ["cache-key"]
        assert report.findings[0].severity is Severity.ERROR
        assert "without a FLOW_CACHE_VERSION bump" in report.findings[0].message
        assert "ArchParams added: cluster_size" in report.findings[0].message

    def test_field_change_with_version_bump_requests_manifest_refresh(
        self, tmp_path
    ):
        self._project(tmp_path)
        path = self._manifest(tmp_path, fields=("lut_size",), version=3)
        report = run_on(tmp_path, manifest_path=path)
        assert rule_ids(report) == ["cache-key"]
        assert "refresh the manifest" in report.findings[0].message

    def test_digest_missing_a_field_is_an_error(self, tmp_path):
        flow = """
            import hashlib

            FLOW_CACHE_VERSION = 4

            def arch_digest(arch):
                payload = f"{arch.lut_size}"
                return hashlib.sha256(payload.encode()).hexdigest()[:16]
        """
        self._project(tmp_path, flow=flow)
        path = self._manifest(tmp_path)
        report = run_on(tmp_path, manifest_path=path)
        assert rule_ids(report) == ["cache-key"]
        assert "cluster_size" in report.findings[0].message

    def test_explicit_field_reads_cover_all_fields(self, tmp_path):
        flow = """
            import hashlib

            FLOW_CACHE_VERSION = 4

            def arch_digest(arch):
                payload = f"{arch.lut_size}_{arch.cluster_size}"
                return hashlib.sha256(payload.encode()).hexdigest()[:16]
        """
        self._project(tmp_path, flow=flow)
        path = self._manifest(tmp_path)
        assert run_on(tmp_path, manifest_path=path).findings == []

    def test_absent_archparams_project_is_exempt(self, tmp_path):
        write_module(tmp_path, "cad/other.py", "X = 1\n")
        assert run_on(tmp_path).findings == []


STORE_FIXTURE_CONFIG = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class GuardbandConfig:
        delta_t: float = 2.0
        max_iterations: int = 20
"""

STORE_FIXTURE_STORE = """
    import hashlib
    from dataclasses import fields

    STORE_SCHEMA_VERSION = 1

    def store_digest(flow_cache_key, config, t_ambient, corner):
        payload = repr(
            tuple((f.name, getattr(config, f.name)) for f in fields(config))
        )
        return hashlib.sha256(payload.encode()).hexdigest()
"""


class TestStoreKeyRule:
    """The cache-key rule's result-store half: GuardbandConfig /
    store_digest / STORE_SCHEMA_VERSION must move together."""

    def _project(self, tmp_path, config=STORE_FIXTURE_CONFIG,
                 store=STORE_FIXTURE_STORE):
        write_module(tmp_path, "core/guardband.py", config)
        write_module(tmp_path, "store/store.py", store)

    def _manifest(self, tmp_path, fields=("delta_t", "max_iterations"),
                  version=1):
        return save_manifest(
            tmp_path / "manifest.json", "STORE_SCHEMA_VERSION", version,
            [("GuardbandConfig", fields)],
        )

    def test_passes_when_manifest_matches(self, tmp_path):
        self._project(tmp_path)
        path = self._manifest(tmp_path)
        report = run_on(tmp_path, manifest_path=path)
        assert report.findings == []

    def test_missing_manifest_is_a_warning(self, tmp_path):
        self._project(tmp_path)
        report = run_on(tmp_path)
        assert rule_ids(report) == ["cache-key"]
        assert report.findings[0].severity is Severity.WARNING
        assert "STORE_SCHEMA_VERSION manifest" in report.findings[0].message
        assert "GuardbandConfig" in report.findings[0].message
        assert report.ok

    def test_field_change_without_schema_bump_is_an_error(self, tmp_path):
        self._project(tmp_path)
        path = self._manifest(tmp_path, fields=("delta_t",), version=1)
        report = run_on(tmp_path, manifest_path=path)
        assert rule_ids(report) == ["cache-key"]
        assert report.findings[0].severity is Severity.ERROR
        assert "STORE_SCHEMA_VERSION bump" in report.findings[0].message

    def test_field_change_with_bump_requests_manifest_refresh(self, tmp_path):
        self._project(tmp_path)
        path = self._manifest(tmp_path, fields=("delta_t",), version=0)
        report = run_on(tmp_path, manifest_path=path)
        assert rule_ids(report) == ["cache-key"]
        assert "refresh the manifest" in report.findings[0].message

    def test_version_drift_alone_is_a_warning(self, tmp_path):
        self._project(tmp_path)
        path = self._manifest(tmp_path, version=2)
        report = run_on(tmp_path, manifest_path=path)
        assert rule_ids(report) == ["cache-key"]
        assert report.findings[0].severity is Severity.WARNING

    def test_digest_missing_a_field_is_an_error(self, tmp_path):
        store = """
            import hashlib

            STORE_SCHEMA_VERSION = 1

            def store_digest(flow_cache_key, config, t_ambient, corner):
                payload = f"{config.delta_t}"
                return hashlib.sha256(payload.encode()).hexdigest()
        """
        self._project(tmp_path, store=store)
        path = self._manifest(tmp_path)
        report = run_on(tmp_path, manifest_path=path)
        assert rule_ids(report) == ["cache-key"]
        assert "max_iterations" in report.findings[0].message

    def test_store_manifest_round_trip(self, tmp_path):
        path = save_manifest(
            tmp_path / "m.json", "STORE_SCHEMA_VERSION", 3,
            [("GuardbandConfig", ("b", "a"))],
        )
        loaded = Manifest.load(path)
        assert loaded is not None
        assert loaded.contracts == {
            "STORE_SCHEMA_VERSION": (3, {"GuardbandConfig": ("a", "b")})
        }

    def test_current_store_manifest_matches_real_repo(self):
        from dataclasses import fields as dc_fields

        from repro.core.guardband import GuardbandConfig
        from repro.store import STORE_SCHEMA_VERSION

        version, classes = live_manifest().contracts["STORE_SCHEMA_VERSION"]
        assert classes == {
            "GuardbandConfig": tuple(
                sorted(f.name for f in dc_fields(GuardbandConfig))
            )
        }
        assert version == STORE_SCHEMA_VERSION

    def test_committed_store_manifest_is_current(self):
        committed = Manifest.load(default_manifest_path())
        assert committed is not None, (
            "manifest missing; run python -m repro.analysis --update-manifest"
        )
        live = live_manifest()
        assert (committed.contracts["STORE_SCHEMA_VERSION"]
                == live.contracts["STORE_SCHEMA_VERSION"])


WIRE_FIXTURE_CLASSES = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Widget:
        size: int = 1
        color: str = "red"
"""

WIRE_FIXTURE_WIRE = """
    WIRE_SCHEMA_VERSION = 1

    def _decode_widget(payload):
        return payload

    _DECODERS = {
        "Widget": _decode_widget,
    }
"""


class TestWireSchemaRule:
    """The cache-key rule's wire half: every wire kind's field set must
    move together with WIRE_SCHEMA_VERSION."""

    def _project(self, tmp_path, classes=WIRE_FIXTURE_CLASSES,
                 wire=WIRE_FIXTURE_WIRE):
        write_module(tmp_path, "service/types.py", classes)
        write_module(tmp_path, "service/wire.py", wire)

    def _manifest(self, tmp_path, kinds=(("Widget", ("color", "size")),),
                  version=1):
        return save_manifest(
            tmp_path / "manifest.json", "WIRE_SCHEMA_VERSION", version, kinds
        )

    def test_passes_when_manifest_matches(self, tmp_path):
        self._project(tmp_path)
        path = self._manifest(tmp_path)
        assert run_on(tmp_path, manifest_path=path).findings == []

    def test_missing_manifest_is_a_warning(self, tmp_path):
        self._project(tmp_path)
        report = run_on(tmp_path)
        assert rule_ids(report) == ["cache-key"]
        assert report.findings[0].severity is Severity.WARNING
        assert "WIRE_SCHEMA_VERSION manifest" in report.findings[0].message
        assert "Widget" in report.findings[0].message
        assert report.ok

    def test_field_change_without_version_bump_is_an_error(self, tmp_path):
        self._project(tmp_path)
        path = self._manifest(tmp_path, kinds=(("Widget", ("size",)),))
        report = run_on(tmp_path, manifest_path=path)
        assert rule_ids(report) == ["cache-key"]
        assert report.findings[0].severity is Severity.ERROR
        assert "WIRE_SCHEMA_VERSION bump" in report.findings[0].message
        assert "Widget added: color" in report.findings[0].message

    def test_new_kind_without_version_bump_is_an_error(self, tmp_path):
        self._project(tmp_path)
        path = self._manifest(tmp_path, kinds=())
        report = run_on(tmp_path, manifest_path=path)
        assert rule_ids(report) == ["cache-key"]
        assert report.findings[0].severity is Severity.ERROR
        assert "Widget: new kind" in report.findings[0].message

    def test_field_change_with_bump_requests_manifest_refresh(self, tmp_path):
        self._project(tmp_path)
        path = self._manifest(tmp_path, kinds=(("Widget", ("size",)),),
                              version=0)
        report = run_on(tmp_path, manifest_path=path)
        assert rule_ids(report) == ["cache-key"]
        assert "refresh the manifest" in report.findings[0].message

    def test_version_drift_alone_is_a_warning(self, tmp_path):
        self._project(tmp_path)
        path = self._manifest(tmp_path, version=2)
        report = run_on(tmp_path, manifest_path=path)
        assert rule_ids(report) == ["cache-key"]
        assert report.findings[0].severity is Severity.WARNING

    def test_kind_without_class_is_an_error(self, tmp_path):
        write_module(tmp_path, "service/wire.py", WIRE_FIXTURE_WIRE)
        path = self._manifest(tmp_path)
        report = run_on(tmp_path, manifest_path=path)
        assert set(rule_ids(report)) == {"cache-key"}
        messages = [f.message for f in report.findings]
        assert any("names no class" in m for m in messages)

    def test_wire_manifest_round_trip(self, tmp_path):
        path = save_manifest(
            tmp_path / "m.json", "WIRE_SCHEMA_VERSION", 4,
            [("A", ("x", "y")), ("B", ("z",))],
        )
        loaded = Manifest.load(path)
        assert loaded is not None
        assert loaded.contracts == {
            "WIRE_SCHEMA_VERSION": (4, {"A": ("x", "y"), "B": ("z",)})
        }

    def test_current_wire_manifest_matches_wire_field_names(self):
        from dataclasses import fields as dc_fields

        from repro.arch.params import ArchParams
        from repro.core.guardband import GuardbandConfig
        from repro.netlists.generator import NetlistSpec
        from repro.runner.spec import ExperimentSpec
        from repro.service.wire import WIRE_KINDS, WIRE_SCHEMA_VERSION
        from repro.thermal.package import ThermalPackage

        wire_classes = {
            cls.__name__: cls
            for cls in (ArchParams, ExperimentSpec, GuardbandConfig,
                        NetlistSpec, ThermalPackage)
        }
        assert sorted(wire_classes) == sorted(WIRE_KINDS)
        version, classes = live_manifest().contracts["WIRE_SCHEMA_VERSION"]
        assert version == WIRE_SCHEMA_VERSION
        assert classes == {
            kind: tuple(sorted(f.name for f in dc_fields(cls)))
            for kind, cls in wire_classes.items()
        }

    def test_committed_wire_manifest_is_current(self):
        committed = Manifest.load(default_manifest_path())
        assert committed is not None, (
            "manifest missing; run python -m repro.analysis --update-manifest"
        )
        live = live_manifest()
        assert (committed.contracts["WIRE_SCHEMA_VERSION"]
                == live.contracts["WIRE_SCHEMA_VERSION"])


class TestFrozenMutationRule:
    def test_flags_setattr_outside_post_init(self, tmp_path):
        write_module(
            tmp_path,
            "cad/bad.py",
            """
            def tweak(params):
                object.__setattr__(params, "lut_size", 7)
            """,
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["frozen-mutation"]
        assert "tweak()" in report.findings[0].message

    def test_flags_module_level_setattr(self, tmp_path):
        write_module(
            tmp_path,
            "core/bad.py",
            """
            CONFIG = make_config()
            object.__setattr__(CONFIG, "mode", "fast")
            """,
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["frozen-mutation"]
        assert "module level" in report.findings[0].message

    def test_passes_post_init_and_setstate(self, tmp_path):
        write_module(
            tmp_path,
            "cad/good.py",
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Node:
                raw: str
                norm: str = ""

                def __post_init__(self):
                    object.__setattr__(self, "norm", self.raw.lower())

                def __setstate__(self, state):
                    for key, value in state.items():
                        object.__setattr__(self, key, value)
            """,
        )
        assert run_on(tmp_path).findings == []


class TestFloatEqualityRule:
    def test_flags_float_literal_comparison(self, tmp_path):
        write_module(
            tmp_path,
            "thermal/bad.py",
            """
            def converged(delta):
                return delta == 0.0
            """,
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["float-equality"]
        assert report.findings[0].severity is Severity.WARNING

    def test_flags_physical_quantity_comparison(self, tmp_path):
        write_module(
            tmp_path,
            "power/bad.py",
            """
            def same_point(t_ambient, corner_celsius):
                return t_ambient == corner_celsius
            """,
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["float-equality"]

    def test_warnings_do_not_gate(self, tmp_path):
        write_module(tmp_path, "thermal/bad.py", "OK = 1.0 == 1.0\n")
        report = run_on(tmp_path)
        assert report.findings and report.ok

    def test_passes_tolerant_and_identifier_comparisons(self, tmp_path):
        write_module(
            tmp_path,
            "cad/good.py",
            """
            import math

            def close(delay_a, delay_b):
                return math.isclose(delay_a, delay_b, rel_tol=1e-9)

            def same_entry(cache_key, other_key):
                return cache_key == other_key
            """,
        )
        assert run_on(tmp_path).findings == []

    def test_ignores_non_numeric_modules(self, tmp_path):
        write_module(
            tmp_path,
            "reporting/ok.py",
            "def eq(power_w, other_power): return power_w == other_power\n",
        )
        assert run_on(tmp_path).findings == []


def build_graph(root: Path):
    from repro.analysis.callgraph import build_call_graph

    modules, errors = load_modules(root)
    assert errors == []
    project = Project(
        root=root, modules=modules, manifest_path=root / "manifest.json"
    )
    return build_call_graph(project)


def error_ids(report):
    return [f.rule_id for f in report.findings
            if f.severity is Severity.ERROR]


class TestCallGraph:
    def test_recursion_yields_a_self_edge_and_terminates(self, tmp_path):
        write_module(
            tmp_path,
            "engine/rec.py",
            """
            def countdown(n):
                if n:
                    return countdown(n - 1)
                return 0
            """,
        )
        graph = build_graph(tmp_path)
        key = "engine/rec.py::countdown"
        assert (key, key, False) in graph.edges
        assert key not in graph.loop_reachable

    def test_self_method_calls_resolve_within_the_class(self, tmp_path):
        write_module(
            tmp_path,
            "engine/cls.py",
            """
            class Engine:
                def run(self):
                    return self.step()

                def step(self):
                    return 1
            """,
        )
        graph = build_graph(tmp_path)
        assert (
            "engine/cls.py::Engine.run",
            "engine/cls.py::Engine.step",
            False,
        ) in graph.edges

    def test_facade_import_resolves_through_exports_table(self, tmp_path):
        write_module(
            tmp_path,
            "api.py",
            """
            _EXPORTS = {"solve": "repro.thermal.solver"}
            """,
        )
        write_module(
            tmp_path,
            "thermal/solver.py",
            """
            def solve():
                return 0
            """,
        )
        write_module(
            tmp_path,
            "cli/go.py",
            """
            from repro.api import solve

            def go():
                return solve()
            """,
        )
        graph = build_graph(tmp_path)
        assert (
            "cli/go.py::go",
            "thermal/solver.py::solve",
            False,
        ) in graph.edges

    def test_executor_boundary_cuts_loop_reachability(self, tmp_path):
        write_module(
            tmp_path,
            "engine/app.py",
            """
            import asyncio

            def probe():
                return 1

            def helper():
                return 2

            async def main():
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, probe)
                return helper()
            """,
        )
        graph = build_graph(tmp_path)
        main_key = "engine/app.py::main"
        assert main_key in graph.loop_reachable
        assert "engine/app.py::helper" in graph.loop_reachable
        # The executor hand-off is an edge, but not a loop-side one.
        assert (main_key, "engine/app.py::probe", True) in graph.edges
        assert "engine/app.py::probe" not in graph.loop_reachable

    def test_reach_path_names_the_async_origin(self, tmp_path):
        write_module(
            tmp_path,
            "engine/chain.py",
            """
            def leaf():
                return 0

            def mid():
                return leaf()

            async def root():
                return mid()
            """,
        )
        graph = build_graph(tmp_path)
        path = graph.reach_path("engine/chain.py::leaf")
        assert "engine/chain.py:root" in path
        assert "engine/chain.py:leaf" in path


class TestAsyncBlockingRule:
    def test_flags_blocking_store_get_through_the_call_graph(self, tmp_path):
        write_module(
            tmp_path,
            "store/store.py",
            """
            class ResultStore:
                def get(self, digest):
                    return None
            """,
        )
        write_module(
            tmp_path,
            "engine/sched.py",
            """
            from repro.store.store import ResultStore

            def helper(store: ResultStore, digest: str):
                return store.get(digest)

            async def serve(store: ResultStore):
                return helper(store, "d")
            """,
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["async-blocking"]
        finding = report.findings[0]
        assert finding.path == "engine/sched.py"
        assert "store.get" in finding.message
        assert "run_in_executor" in finding.message
        # Call-graph-deep: the chain names the async origin, not just
        # the enclosing function.
        assert "engine/sched.py:serve" in finding.message

    def test_flags_time_sleep_directly_in_async_def(self, tmp_path):
        write_module(
            tmp_path,
            "engine/app.py",
            """
            import time

            async def tick():
                time.sleep(0.1)
            """,
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["async-blocking"]
        assert "asyncio.sleep" in report.findings[0].message

    def test_passes_when_handed_to_an_executor(self, tmp_path):
        write_module(
            tmp_path,
            "engine/app.py",
            """
            import asyncio
            import time

            def probe():
                time.sleep(0.1)
                return open("x").read()

            async def main():
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(None, probe)
            """,
        )
        assert run_on(tmp_path).findings == []

    def test_passes_blocking_call_never_reached_from_async(self, tmp_path):
        write_module(
            tmp_path,
            "cli/tool.py",
            """
            import time

            def wait():
                time.sleep(1.0)
            """,
        )
        assert run_on(tmp_path).findings == []


class TestApiSurfaceRule:
    def _facade(self, exports_line: str) -> str:
        return (
            "from typing import TYPE_CHECKING\n"
            "\n"
            "if TYPE_CHECKING:\n"
            "    from repro.thermal.solver import solve\n"
            "\n"
            f"{exports_line}\n"
        )

    def test_passes_coherent_facade(self, tmp_path):
        write_module(
            tmp_path,
            "api.py",
            self._facade('_EXPORTS = {"solve": "repro.thermal.solver"}'),
        )
        write_module(tmp_path, "thermal/solver.py", "def solve():\n    return 0\n")
        assert run_on(tmp_path).findings == []

    def test_flags_export_to_missing_module(self, tmp_path):
        write_module(
            tmp_path,
            "api.py",
            self._facade('_EXPORTS = {"solve": "repro.thermal.solver"}'),
        )
        write_module(tmp_path, "cad/ok.py", "X = 1\n")
        report = run_on(tmp_path)
        assert error_ids(report) == ["api-surface"]

    def test_flags_export_of_unbound_name(self, tmp_path):
        write_module(
            tmp_path,
            "api.py",
            self._facade('_EXPORTS = {"solve": "repro.thermal.solver"}'),
        )
        write_module(tmp_path, "thermal/solver.py", "def other():\n    return 0\n")
        report = run_on(tmp_path)
        assert error_ids(report) == ["api-surface"]
        assert "solve" in report.findings[0].message

    def test_flags_duplicate_export_keys(self, tmp_path):
        write_module(
            tmp_path,
            "api.py",
            self._facade(
                '_EXPORTS = {"solve": "repro.thermal.solver", '
                '"solve": "repro.thermal.solver"}'
            ),
        )
        write_module(tmp_path, "thermal/solver.py", "def solve():\n    return 0\n")
        report = run_on(tmp_path)
        assert "api-surface" in error_ids(report)


class TestSuppression:
    def test_inline_suppression_drops_the_finding(self, tmp_path):
        write_module(
            tmp_path,
            "thermal/ok.py",
            """
            def to_kelvin(t_c):
                return t_c + 273.15  # repro-lint: ignore[units] fixture
            """,
        )
        report = run_on(tmp_path)
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["units"]

    def test_bare_ignore_suppresses_every_rule(self, tmp_path):
        write_module(
            tmp_path,
            "thermal/ok.py",
            "K = 273.15  # repro-lint: ignore\n",
        )
        report = run_on(tmp_path)
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_suppression_is_rule_specific(self, tmp_path):
        write_module(
            tmp_path,
            "thermal/partial.py",
            "K = 273.15  # repro-lint: ignore[determinism]\n",
        )
        report = run_on(tmp_path)
        assert rule_ids(report) == ["units"]

    def test_unknown_rule_in_suppression_is_an_error(self, tmp_path):
        # A typo, or a rule since retired: either marker would silently
        # suppress nothing, so both are reported.
        for rule_id in ("unitz", "loop-affinity"):
            write_module(
                tmp_path,
                "thermal/typo.py",
                f"X = 1  # repro-lint: ignore[{rule_id}]\n",
            )
            report = run_on(tmp_path)
            assert rule_ids(report) == ["unknown-suppression"]
            assert rule_id in report.findings[0].message
            assert not report.ok

    def test_marker_inside_docstring_is_not_a_suppression(self, tmp_path):
        source = (
            '"""Mentions # repro-lint: ignore[units] as prose."""\n'
            "K = 273.15\n"
        )
        write_module(tmp_path, "thermal/doc.py", source)
        report = run_on(tmp_path)
        assert rule_ids(report) == ["units"]

    def test_suppressions_for_parses_rule_lists(self):
        table = suppressions_for(
            "x = 1  # repro-lint: ignore[units, determinism]\n"
        )
        assert table == {1: frozenset({"units", "determinism"})}


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = save_manifest(
            tmp_path / "m.json", "FLOW_CACHE_VERSION", 4,
            [("ArchParams", ("a", "b"))],
        )
        loaded = Manifest.load(path)
        assert loaded.contracts == {
            "FLOW_CACHE_VERSION": (4, {"ArchParams": ("a", "b")})
        }

    def test_load_missing_file_is_none(self, tmp_path):
        assert Manifest.load(tmp_path / "absent.json") is None

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"version": 99, "contracts": {}}))
        with pytest.raises(ValueError):
            Manifest.load(path)

    def test_current_manifest_matches_real_repo(self):
        from dataclasses import fields as dc_fields

        from repro.arch.params import ArchParams
        from repro.cad.flow import FLOW_CACHE_VERSION

        version, classes = live_manifest().contracts["FLOW_CACHE_VERSION"]
        assert classes == {
            "ArchParams": tuple(sorted(f.name for f in dc_fields(ArchParams)))
        }
        assert version == FLOW_CACHE_VERSION

    def test_committed_manifest_is_current(self):
        """Every contract's committed (version, field sets) is the live one.

        A version bump or field change without ``--update-manifest``
        fails here, not only as a cache-key warning.
        """
        committed = Manifest.load(default_manifest_path())
        assert committed is not None, (
            "manifest missing; run python -m repro.analysis --update-manifest"
        )
        live = live_manifest()
        assert sorted(live.contracts) == [
            "FLOW_CACHE_VERSION", "STORE_SCHEMA_VERSION", "WIRE_SCHEMA_VERSION"
        ]
        assert committed.contracts == live.contracts


class TestEngine:
    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        write_module(tmp_path, "cad/broken.py", "def f(:\n")
        report = run_on(tmp_path)
        assert rule_ids(report) == ["parse-error"]
        assert not report.ok

    def test_findings_are_source_ordered(self, tmp_path):
        write_module(tmp_path, "thermal/b.py", "X = 273.15\nY = 298.15\n")
        write_module(tmp_path, "thermal/a.py", "Z = 273.15\n")
        report = run_on(tmp_path)
        assert [(f.path, f.line) for f in report.findings] == [
            ("thermal/a.py", 1),
            ("thermal/b.py", 1),
            ("thermal/b.py", 2),
        ]


class TestCli:
    def test_clean_fixture_exits_zero(self, tmp_path, capsys):
        write_module(tmp_path, "cad/ok.py", "X = 1\n")
        code = cli_main([str(tmp_path)])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_violation_exits_nonzero_with_location(self, tmp_path, capsys):
        write_module(tmp_path, "thermal/bad.py", "K = 273.15\n")
        code = cli_main([str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "thermal/bad.py:1:5: error[units]" in out

    def test_json_mode(self, tmp_path, capsys):
        write_module(tmp_path, "thermal/bad.py", "K = 273.15\n")
        code = cli_main([str(tmp_path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "units"

    def test_update_manifest_roundtrip(self, tmp_path):
        write_module(tmp_path, "arch/params.py", CACHE_FIXTURE_PARAMS)
        write_module(tmp_path, "cad/flow.py", CACHE_FIXTURE_FLOW_FIELDS)
        manifest = tmp_path / "manifest.json"
        assert cli_main(
            [str(tmp_path), "--manifest", str(manifest), "--update-manifest"]
        ) == 0
        assert cli_main([str(tmp_path), "--manifest", str(manifest)]) == 0

    def _update_then_check(self, tmp_path, capsys):
        """--update-manifest, then a clean cache-key run on the same file."""
        manifest = tmp_path / "manifest.json"
        args = [str(tmp_path), "--manifest", str(manifest)]
        assert cli_main(args + ["--update-manifest"]) == 0
        capsys.readouterr()
        assert cli_main(args + ["--select", "cache-key"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out
        loaded = Manifest.load(manifest)
        assert loaded is not None
        return loaded.contracts

    def test_update_manifest_writes_store_manifest_too(self, tmp_path, capsys):
        write_module(tmp_path, "arch/params.py", CACHE_FIXTURE_PARAMS)
        write_module(tmp_path, "cad/flow.py", CACHE_FIXTURE_FLOW_FIELDS)
        write_module(tmp_path, "core/guardband.py", STORE_FIXTURE_CONFIG)
        write_module(tmp_path, "store/store.py", STORE_FIXTURE_STORE)
        contracts = self._update_then_check(tmp_path, capsys)
        assert contracts["STORE_SCHEMA_VERSION"] == (
            1, {"GuardbandConfig": ("delta_t", "max_iterations")}
        )

    def test_update_manifest_writes_wire_manifest_too(self, tmp_path, capsys):
        write_module(tmp_path, "arch/params.py", CACHE_FIXTURE_PARAMS)
        write_module(tmp_path, "cad/flow.py", CACHE_FIXTURE_FLOW_FIELDS)
        write_module(tmp_path, "core/guardband.py", STORE_FIXTURE_CONFIG)
        write_module(tmp_path, "store/store.py", STORE_FIXTURE_STORE)
        write_module(tmp_path, "service/types.py", WIRE_FIXTURE_CLASSES)
        write_module(tmp_path, "service/wire.py", WIRE_FIXTURE_WIRE)
        contracts = self._update_then_check(tmp_path, capsys)
        assert sorted(contracts) == [
            "FLOW_CACHE_VERSION", "STORE_SCHEMA_VERSION", "WIRE_SCHEMA_VERSION"
        ]
        assert contracts["WIRE_SCHEMA_VERSION"] == (
            1, {"Widget": ("color", "size")}
        )

    def test_update_manifest_records_wire_without_a_store(
        self, tmp_path, capsys
    ):
        # A missing store contract must not stop the wire one being
        # recorded (else the next run's advice to --update-manifest loops).
        write_module(tmp_path, "arch/params.py", CACHE_FIXTURE_PARAMS)
        write_module(tmp_path, "cad/flow.py", CACHE_FIXTURE_FLOW_FIELDS)
        write_module(tmp_path, "service/types.py", WIRE_FIXTURE_CLASSES)
        write_module(tmp_path, "service/wire.py", WIRE_FIXTURE_WIRE)
        contracts = self._update_then_check(tmp_path, capsys)
        assert sorted(contracts) == ["FLOW_CACHE_VERSION", "WIRE_SCHEMA_VERSION"]

    def test_update_manifest_records_store_without_archparams(
        self, tmp_path, capsys
    ):
        write_module(tmp_path, "core/guardband.py", STORE_FIXTURE_CONFIG)
        write_module(tmp_path, "store/store.py", STORE_FIXTURE_STORE)
        contracts = self._update_then_check(tmp_path, capsys)
        assert sorted(contracts) == ["STORE_SCHEMA_VERSION"]

    def test_update_manifest_without_any_contract_fails(self, tmp_path, capsys):
        write_module(tmp_path, "cad/ok.py", "X = 1\n")
        manifest = tmp_path / "manifest.json"
        assert cli_main(
            [str(tmp_path), "--manifest", str(manifest), "--update-manifest"]
        ) == 1
        assert "no keying contract" in capsys.readouterr().err
        assert not manifest.exists()

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "units",
            "determinism",
            "cache-key",
            "frozen-mutation",
            "float-equality",
            "async-blocking",
            "api-surface",
        ):
            assert rule_id in out

    def test_select_runs_only_named_rules(self, tmp_path):
        write_module(tmp_path, "thermal/bad.py", "K = 273.15\n")
        assert cli_main([str(tmp_path)]) == 1
        assert cli_main([str(tmp_path), "--select", "determinism"]) == 0

    def test_ignore_skips_named_rules(self, tmp_path):
        write_module(tmp_path, "thermal/bad.py", "K = 273.15\n")
        assert cli_main([str(tmp_path), "--ignore", "units"]) == 0

    def test_unknown_rule_id_is_a_usage_error(self, tmp_path, capsys):
        write_module(tmp_path, "cad/ok.py", "X = 1\n")
        for option in ("--select", "--ignore"):
            with pytest.raises(SystemExit) as excinfo:
                cli_main([str(tmp_path), option, "unitz"])
            assert excinfo.value.code == 2
            assert "unitz" in capsys.readouterr().err

    def test_select_ignore_must_leave_a_rule(self, tmp_path):
        write_module(tmp_path, "cad/ok.py", "X = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            cli_main([str(tmp_path), "--select", "units",
                      "--ignore", "units"])
        assert excinfo.value.code == 2

    def test_suppression_of_deselected_rule_is_still_known(self, tmp_path):
        # A suppression naming a rule outside --select must not read as
        # a typo: the full registry stays the valid-id universe.
        write_module(
            tmp_path,
            "thermal/ok.py",
            "K = 273.15  # repro-lint: ignore[units] fixture\n",
        )
        assert cli_main([str(tmp_path), "--select", "determinism"]) == 0


class TestRealRepo:
    """The committed tree must stay free of lint errors."""

    def test_full_pass_over_src_repro_is_clean(self):
        report = run_analysis(root=SRC_REPRO)
        formatted = "\n".join(f.format() for f in report.errors)
        assert report.errors == [], f"lint errors:\n{formatted}"
        assert report.n_files >= 60

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--json"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC_REPRO.parent), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True

    def test_call_graph_resolves_intra_package_calls(self):
        """Coherence gate: the symbol table must actually cover the tree.

        A call-graph rule is only as good as its resolution rate — if
        the builder silently failed to resolve intra-package calls, the
        concurrency rules would pass vacuously.  ≥95% of calls with an
        intra-package shape must resolve to a known definition.
        """
        graph = build_graph(SRC_REPRO)
        stats = graph.stats()
        assert stats["n_candidates"] >= 200
        assert stats["resolved_fraction"] >= 0.95
        # The service layer's async roots were found ...
        assert any(
            key.startswith("service/scheduler.py::")
            for key in graph.loop_reachable
        )
        # ... and the scheduler's store probe crosses an executor
        # boundary, never a loop-side edge.
        probe_edges = [
            (caller, callee, via)
            for caller, callee, via in graph.edges
            if callee == "service/scheduler.py::SweepScheduler._probe_store"
        ]
        assert probe_edges and all(via for _, _, via in probe_edges)
        assert (
            "store/store.py::ResultStore.load" not in graph.loop_reachable
        )
