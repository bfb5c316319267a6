"""Versioned wire schema for the sweep service.

Every payload that crosses the service boundary — an
:class:`~repro.runner.spec.ExperimentSpec` submitted by a client, the
:class:`~repro.arch.params.ArchParams` / :class:`~repro.core.guardband.
GuardbandConfig` / :class:`~repro.netlists.generator.NetlistSpec` values
nested inside it — travels as a self-describing JSON envelope::

    {"kind": "ExperimentSpec", "wire_version": 1, "payload": {...}}

:func:`to_wire` encodes, :func:`from_wire` decodes, and the round trip
is exact: ``from_wire(to_wire(x)) == x`` for every supported type
(tuples come back as tuples, nested specs as frozen dataclasses, and
``__post_init__`` validation re-runs on decode, so a decoded value is
as trustworthy as a locally constructed one).

Versioning policy:

- :data:`WIRE_SCHEMA_VERSION` names the *field-set semantics* of every
  wire class at once.  Adding, removing or renaming a field of any wire
  class requires a bump — enforced by the ``cache-key`` lint rule
  against the committed ``repro/analysis/manifest.json``, which records
  the store digest's contract too.
- Decoders reject an unknown version outright (a v2 client talking to a
  v1 server gets an actionable error, never a silently dropped field),
  and reject unknown payload fields by name — a typo'd or
  future-version field fails loudly instead of reverting to a default.

Unsupported-on-the-wire configuration is also rejected explicitly: a
``GuardbandConfig`` carrying a non-default :class:`ThermalPackage` is
encodable, but exotic objects smuggled into payload slots are not.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Callable, Dict, List, Tuple, Type

from repro.arch.params import ArchParams
from repro.core.guardband import GuardbandConfig
from repro.netlists.generator import NetlistSpec
from repro.runner.spec import ExperimentSpec
from repro.thermal.package import ThermalPackage

WIRE_SCHEMA_VERSION = 4
"""Bump whenever the field set (or meaning) of any wire class changes.

The version travels in every envelope; decoders reject anything else.
Enforced against the committed ``repro/analysis/manifest.json`` by the
``cache-key`` lint rule, mirroring the store-digest discipline.

Version 2: ``thermal_weight`` joined both ``GuardbandConfig`` and
``ExperimentSpec`` (thermal-aware placement).  A v1 receiver would
silently drop the knob and place wirelength-only — exactly the
reinterpretation the version gate exists to refuse.

Version 3: ``mode`` / ``target_frequency_hz`` joined both
``GuardbandConfig`` and ``ExperimentSpec`` (energy objective).  A v2
receiver would drop the objective and run the frequency loop at nominal
supply — a silent change of what the sweep *means*, so the gate must
refuse it.

Version 4: the warm-start seeding policy left ``GuardbandConfig``
(every cell starts from its flat ambient).  A v3 envelope may name that
field, which a v4 receiver cannot honour; the gate refuses it with both
versions named rather than drop a requested setting silently.
"""


class WireError(ValueError):
    """A wire document could not be decoded (or a value encoded).

    The message is the contract: it names the offending kind, version or
    field(s) and what the receiver actually supports, so a failing
    client can be fixed from the error alone.
    """


_Scalar = (bool, int, float, str, type(None))


def _encode_scalar_payload(obj: Any) -> Dict[str, Any]:
    """Field dict of a flat dataclass whose fields are all JSON scalars."""
    payload: Dict[str, Any] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
            payload[f.name] = value
        elif isinstance(value, float):
            payload[f.name] = float(value)
        else:
            raise WireError(
                f"{type(obj).__name__}.{f.name} value {value!r} is not "
                "wire-encodable (expected a JSON scalar)"
            )
    return payload


def _check_fields(
    kind: str, payload: Dict[str, Any], cls: Type[Any]
) -> None:
    """Reject payload keys that are not fields of ``cls`` — by name."""
    if not isinstance(payload, dict):
        raise WireError(
            f"{kind} payload must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise WireError(
            f"{kind} (wire version {WIRE_SCHEMA_VERSION}) does not define "
            f"field(s) {', '.join(repr(n) for n in unknown)}; known fields: "
            f"{', '.join(sorted(known))}.  A newer sender must not assume "
            "this receiver silently ignores fields — bump handling "
            "explicitly or upgrade the receiver."
        )


def _construct(kind: str, cls: Type[Any], payload: Dict[str, Any]) -> Any:
    """Build the dataclass; validation errors become actionable WireErrors."""
    try:
        return cls(**payload)
    except TypeError as error:
        raise WireError(f"{kind} payload is incomplete: {error}") from error
    except ValueError as error:
        raise WireError(f"{kind} payload is invalid: {error}") from error


# --- per-class codecs ----------------------------------------------------


def _encode_arch(arch: ArchParams) -> Dict[str, Any]:
    return _encode_scalar_payload(arch)


def _decode_arch(payload: Dict[str, Any]) -> ArchParams:
    _check_fields("ArchParams", payload, ArchParams)
    return _construct("ArchParams", ArchParams, payload)


def _encode_netlist_spec(spec: NetlistSpec) -> Dict[str, Any]:
    return _encode_scalar_payload(spec)


def _decode_netlist_spec(payload: Dict[str, Any]) -> NetlistSpec:
    _check_fields("NetlistSpec", payload, NetlistSpec)
    return _construct("NetlistSpec", NetlistSpec, payload)


def _encode_package(package: ThermalPackage) -> Dict[str, Any]:
    return _encode_scalar_payload(package)


def _decode_package(payload: Dict[str, Any]) -> ThermalPackage:
    _check_fields("ThermalPackage", payload, ThermalPackage)
    return _construct("ThermalPackage", ThermalPackage, payload)


def _encode_config(config: GuardbandConfig) -> Dict[str, Any]:
    payload: Dict[str, Any] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "package":
            payload[f.name] = None if value is None else to_wire(value)
        elif isinstance(value, _Scalar):
            payload[f.name] = value
        else:
            raise WireError(
                f"GuardbandConfig.{f.name} value {value!r} is not "
                "wire-encodable"
            )
    return payload


def _decode_config(payload: Dict[str, Any]) -> GuardbandConfig:
    _check_fields("GuardbandConfig", payload, GuardbandConfig)
    decoded = dict(payload)
    if decoded.get("package") is not None:
        package = from_wire(decoded["package"])
        if not isinstance(package, ThermalPackage):
            raise WireError(
                "GuardbandConfig.package must be a ThermalPackage "
                f"envelope, got kind {type(package).__name__!r}"
            )
        decoded["package"] = package
    return _construct("GuardbandConfig", GuardbandConfig, decoded)


def _encode_experiment(spec: ExperimentSpec) -> Dict[str, Any]:
    benchmarks: List[Any] = []
    for bench in spec.benchmarks:
        if isinstance(bench, str):
            benchmarks.append(bench)
        elif isinstance(bench, NetlistSpec):
            benchmarks.append(to_wire(bench))
        else:
            raise WireError(
                f"ExperimentSpec benchmark {bench!r} is neither a VTR name "
                "nor a NetlistSpec"
            )
    return {
        "benchmarks": benchmarks,
        "ambients": [float(t) for t in spec.ambients],
        "corners": [float(c) for c in spec.corners],
        "arch": to_wire(spec.arch),
        "config": None if spec.config is None else to_wire(spec.config),
        "seed": spec.seed,
        "timing_driven": spec.timing_driven,
        "thermal_weight": float(spec.thermal_weight),
        "mode": spec.mode,
        "target_frequency_hz": (
            None
            if spec.target_frequency_hz is None
            else float(spec.target_frequency_hz)
        ),
    }


def _decode_experiment(payload: Dict[str, Any]) -> ExperimentSpec:
    _check_fields("ExperimentSpec", payload, ExperimentSpec)
    decoded = dict(payload)
    if "benchmarks" in decoded:
        raw = decoded["benchmarks"]
        if not isinstance(raw, (list, tuple)):
            raise WireError(
                "ExperimentSpec.benchmarks must be a list of VTR names "
                "and/or NetlistSpec envelopes"
            )
        benches: List[Any] = []
        for bench in raw:
            if isinstance(bench, str):
                benches.append(bench)
            elif isinstance(bench, dict):
                nested = from_wire(bench)
                if not isinstance(nested, NetlistSpec):
                    raise WireError(
                        "ExperimentSpec.benchmarks entries must decode to "
                        f"NetlistSpec, got {type(nested).__name__}"
                    )
                benches.append(nested)
            else:
                raise WireError(
                    f"ExperimentSpec.benchmarks entry {bench!r} is neither "
                    "a name nor an envelope"
                )
        decoded["benchmarks"] = tuple(benches)
    for axis in ("ambients", "corners"):
        if axis in decoded:
            values = decoded[axis]
            if not isinstance(values, (list, tuple)):
                raise WireError(
                    f"ExperimentSpec.{axis} must be a list of numbers"
                )
            try:
                decoded[axis] = tuple(float(v) for v in values)
            except (TypeError, ValueError) as error:
                raise WireError(
                    f"ExperimentSpec.{axis} must be numbers: {error}"
                ) from error
    if "arch" in decoded:
        arch = from_wire(decoded["arch"])
        if not isinstance(arch, ArchParams):
            raise WireError(
                "ExperimentSpec.arch must be an ArchParams envelope, got "
                f"{type(arch).__name__}"
            )
        decoded["arch"] = arch
    if decoded.get("config") is not None:
        config = from_wire(decoded["config"])
        if not isinstance(config, GuardbandConfig):
            raise WireError(
                "ExperimentSpec.config must be a GuardbandConfig envelope, "
                f"got {type(config).__name__}"
            )
        decoded["config"] = config
    return _construct("ExperimentSpec", ExperimentSpec, decoded)


_ENCODERS: Dict[type, Tuple[str, Callable[[Any], Dict[str, Any]]]] = {
    ArchParams: ("ArchParams", _encode_arch),
    NetlistSpec: ("NetlistSpec", _encode_netlist_spec),
    ThermalPackage: ("ThermalPackage", _encode_package),
    GuardbandConfig: ("GuardbandConfig", _encode_config),
    ExperimentSpec: ("ExperimentSpec", _encode_experiment),
}

_DECODERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "ArchParams": _decode_arch,
    "NetlistSpec": _decode_netlist_spec,
    "ThermalPackage": _decode_package,
    "GuardbandConfig": _decode_config,
    "ExperimentSpec": _decode_experiment,
}

WIRE_KINDS: Tuple[str, ...] = tuple(sorted(_DECODERS))
"""Every envelope kind this build can decode."""


def to_wire(obj: Any) -> Dict[str, Any]:
    """Encode a supported value as a versioned JSON-serialisable envelope."""
    entry = _ENCODERS.get(type(obj))
    if entry is None:
        supported = ", ".join(sorted(e[0] for e in _ENCODERS.values()))
        raise WireError(
            f"{type(obj).__name__} is not a wire type; supported: "
            f"{supported}"
        )
    kind, encode = entry
    return {
        "kind": kind,
        "wire_version": WIRE_SCHEMA_VERSION,
        "payload": encode(obj),
    }


def from_wire(doc: Any) -> Any:
    """Decode a versioned envelope produced by :func:`to_wire`.

    Raises :class:`WireError` — never a bare ``KeyError``/``TypeError``
    — for malformed documents, unsupported versions, unknown kinds and
    unknown payload fields.
    """
    if not isinstance(doc, dict):
        raise WireError(
            f"wire document must be a JSON object, got {type(doc).__name__}"
        )
    missing = [key for key in ("kind", "wire_version", "payload")
               if key not in doc]
    if missing:
        raise WireError(
            "wire document is missing required key(s) "
            f"{', '.join(repr(k) for k in missing)}; expected an envelope "
            '{"kind": ..., "wire_version": ..., "payload": {...}}'
        )
    version = doc["wire_version"]
    if version != WIRE_SCHEMA_VERSION:
        raise WireError(
            f"unsupported wire schema version {version!r}; this build "
            f"speaks version {WIRE_SCHEMA_VERSION}.  Upgrade the older "
            "side — wire payloads are never silently reinterpreted "
            "across versions."
        )
    kind = doc["kind"]
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise WireError(
            f"unknown wire kind {kind!r}; this build decodes: "
            f"{', '.join(WIRE_KINDS)}"
        )
    return decoder(doc["payload"])

