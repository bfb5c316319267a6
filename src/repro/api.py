"""The blessed import surface: ``from repro.api import ...``.

Every supported entry point of the reproduction is re-exported here under
one flat namespace, so user code (examples, notebooks, CI scripts) names
exactly one module instead of memorising which subpackage owns what::

    from repro.api import (
        ArchParams, GuardbandConfig, build_fabric, vtr_benchmark,
        run_flow, thermal_aware_guardband,
        ExperimentSpec, run_sweep, open_store,
    )

Imports are lazy: touching ``repro.api.run_sweep`` loads ``repro.runner``
on first access, so ``import repro.api`` itself stays cheap (no numpy
solver warm-up, no process-pool machinery) for CLI ``--help`` paths and
tooling that only introspects names.

The top-level ``repro`` package re-exports nothing but
:mod:`repro.observe`; import from here (or from the owning submodule).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, List

#: name -> defining module.  The facade resolves each attribute lazily
#: from this table; ``__all__`` is derived from it so the two can never
#: drift apart.
_EXPORTS = {
    # Architecture + fabric characterization.
    "ArchParams": "repro.arch.params",
    "Fabric": "repro.coffe.fabric",
    "build_fabric": "repro.coffe.fabric",
    "characterize_fabric": "repro.coffe.characterize",
    # Benchmarks.
    "NetlistSpec": "repro.netlists.generator",
    "generate_netlist": "repro.netlists.generator",
    "VTR_BENCHMARKS": "repro.netlists.vtr_suite",
    "vtr_benchmark": "repro.netlists.vtr_suite",
    # CAD flow.
    "FlowResult": "repro.cad.flow",
    "flow_cache_key": "repro.cad.flow",
    "flow_cache_key_for": "repro.cad.flow",
    "run_flow": "repro.cad.flow",
    # Thermal-aware placement.
    "ThermalPlaceError": "repro.cad.thermal_place",
    "ThermalPlaceStats": "repro.cad.thermal_place",
    "ThermalProxy": "repro.cad.thermal_place",
    "density_vector": "repro.cad.thermal_place",
    "PlacementIntegrityError": "repro.cad.place",
    # Algorithm 1 and the margin model.
    "EnergyReport": "repro.core.guardband",
    "GuardbandConfig": "repro.core.guardband",
    "GuardbandError": "repro.core.guardband",
    "GuardbandResult": "repro.core.guardband",
    "thermal_aware_guardband": "repro.core.guardband",
    "thermal_aware_guardband_batch": "repro.core.guardband",
    "guardband_gain": "repro.core.margins",
    "worst_case_frequency": "repro.core.margins",
    # Energy objective: supply scaling model and rails.
    "VoltageScaling": "repro.power.voltage",
    "VDD_MIN_V": "repro.power.voltage",
    "VDD_NOMINAL": "repro.technology.ptm22",
    # Thermal-aware design / architecture selection.
    "corner_delay_curves": "repro.core.design",
    "expected_delay": "repro.core.architecture",
    "select_design_corner": "repro.core.architecture",
    # Sweep engine.
    "ExperimentSpec": "repro.runner",
    "SweepJob": "repro.runner",
    "run_sweep": "repro.runner",
    "SweepResult": "repro.runner",
    "JobResult": "repro.runner",
    "JobFailure": "repro.runner",
    "outcome_from_record": "repro.runner",
    # Persistent result store.
    "ResultStore": "repro.store",
    "open_store": "repro.store",
    "store_digest": "repro.store",
    "STORE_SCHEMA_VERSION": "repro.store",
    # Sweep service: client, scheduler, server, versioned wire schema.
    "SweepClient": "repro.service",
    "ServiceError": "repro.service",
    "SweepScheduler": "repro.service",
    "SweepServer": "repro.service",
    "to_wire": "repro.service",
    "from_wire": "repro.service",
    "WireError": "repro.service",
    "WIRE_SCHEMA_VERSION": "repro.service",
    # Observability (exported as the module itself).
    "observe": "repro.observe",
}

__all__: List[str] = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.api' has no attribute {name!r}"
        ) from None
    module = importlib.import_module(module_name)
    value: Any = module if name == "observe" else getattr(module, name)
    # Cache on the module so subsequent accesses skip __getattr__.
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # Static surface for mypy/IDEs; runtime stays lazy.
    from repro import observe
    from repro.arch.params import ArchParams
    from repro.cad.flow import FlowResult, flow_cache_key, run_flow
    from repro.coffe.characterize import characterize_fabric
    from repro.coffe.fabric import Fabric, build_fabric
    from repro.core.architecture import expected_delay, select_design_corner
    from repro.core.design import corner_delay_curves
    from repro.cad.place import PlacementIntegrityError
    from repro.cad.thermal_place import (
        ThermalPlaceError,
        ThermalPlaceStats,
        ThermalProxy,
        density_vector,
    )
    from repro.core.guardband import (
        EnergyReport,
        GuardbandConfig,
        GuardbandError,
        GuardbandResult,
        thermal_aware_guardband,
        thermal_aware_guardband_batch,
    )
    from repro.core.margins import guardband_gain, worst_case_frequency
    from repro.power.voltage import VDD_MIN_V, VoltageScaling
    from repro.technology.ptm22 import VDD_NOMINAL
    from repro.netlists.generator import NetlistSpec, generate_netlist
    from repro.netlists.vtr_suite import VTR_BENCHMARKS, vtr_benchmark
    from repro.runner import (
        ExperimentSpec,
        JobFailure,
        JobResult,
        SweepJob,
        SweepResult,
        outcome_from_record,
        run_sweep,
    )
    from repro.cad.flow import flow_cache_key_for
    from repro.service import (
        WIRE_SCHEMA_VERSION,
        ServiceError,
        SweepClient,
        SweepScheduler,
        WireError,
        from_wire,
        to_wire,
    )
    from repro.service.http import SweepServer
    from repro.store import (
        STORE_SCHEMA_VERSION,
        ResultStore,
        open_store,
        store_digest,
    )
