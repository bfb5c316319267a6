"""Smooth alpha-power-law MOSFET evaluation.

The model (Sakurai-Newton alpha-power law with an EKV-style smooth
subthreshold transition) provides, for a :class:`~repro.technology.ptm22.DeviceParams`:

- ``drain_current(params, vgs, vds, width, t_kelvin)`` and its partial
  derivatives (for the Newton DC solver);
- ``off_current`` — subthreshold leakage at ``Vgs = 0``;
- ``effective_resistance`` — the switching-resistance abstraction used by the
  Elmore-based sizing flow in :mod:`repro.coffe`;
- gate/drain capacitance helpers.

Voltages are referenced the NMOS way; PMOS devices are evaluated through the
same equations with negated terminal voltages (handled by the caller /
netlist element).  ``width`` is in multiples of the minimum width.

The current evaluations take an optional ``vth0`` that replaces the
device's 25 C threshold for that one call (a body-raised pass gate, a
Monte-Carlo sampled cell); it saves building a :class:`DeviceParams` copy
per evaluation, which the sizing flow would otherwise do tens of
thousands of times.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.technology.ptm22 import DeviceParams
from repro.technology.temperature import (
    T_REFERENCE_K,
    arrhenius_scale,
    mobility_factor,
    thermal_voltage,
    threshold_voltage,
)

_SOFTPLUS_CUTOFF = 30.0


def _softplus(x: float) -> float:
    """Numerically stable ``ln(1 + e^x)``."""
    if x > _SOFTPLUS_CUTOFF:
        return x
    if x < -_SOFTPLUS_CUTOFF:
        return math.exp(x)
    return math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    if x > _SOFTPLUS_CUTOFF:
        return 1.0
    if x < -_SOFTPLUS_CUTOFF:
        return math.exp(x)
    return 1.0 / (1.0 + math.exp(-x))


def effective_overdrive(
    params: DeviceParams, vgs: float, t_kelvin: float, vth0: Optional[float] = None
) -> float:
    """Smooth overdrive ``n*vt * ln(1 + exp((Vgs - Vth)/(n*vt)))``.

    Tends to ``Vgs - Vth`` in strong inversion and to the subthreshold
    exponential below threshold, giving a single continuous I-V expression.
    """
    vth = threshold_voltage(
        params.vth0 if vth0 is None else vth0, t_kelvin, params.kvt
    )
    nvt = params.subthreshold_n * thermal_voltage(t_kelvin)
    return nvt * _softplus((vgs - vth) / nvt)


def drain_current(
    params: DeviceParams,
    vgs: float,
    vds: float,
    width: float,
    t_kelvin: float,
    vth0: Optional[float] = None,
) -> float:
    """Channel current for ``vds >= 0`` (NMOS convention), in amperes.

    For ``vds < 0`` callers must exploit channel symmetry (swap source and
    drain); the netlist MOSFET element does this.
    """
    if vds < 0.0:
        raise ValueError("drain_current requires vds >= 0; swap terminals instead")
    i_on = _saturation_current(params, vgs, width, t_kelvin, vth0)
    sat = 1.0 - math.exp(-vds / params.vdsat)
    return i_on * sat * (1.0 + params.lam * vds)


def _saturation_current(
    params: DeviceParams,
    vgs: float,
    width: float,
    t_kelvin: float,
    vth0: Optional[float] = None,
) -> float:
    k_t = params.k_drive * mobility_factor(t_kelvin, params.mu_exp)
    vgt = effective_overdrive(params, vgs, t_kelvin, vth0)
    return k_t * width * vgt**params.alpha


def drain_current_and_derivatives(
    params: DeviceParams,
    vgs: float,
    vds: float,
    width: float,
    t_kelvin: float,
) -> Tuple[float, float, float]:
    """Return ``(Id, dId/dVgs, dId/dVds)`` for ``vds >= 0``.

    Analytic derivatives keep the Newton DC solver quadratic near the
    solution.
    """
    if vds < 0.0:
        raise ValueError("requires vds >= 0; swap terminals instead")
    vth = threshold_voltage(params.vth0, t_kelvin, params.kvt)
    nvt = params.subthreshold_n * thermal_voltage(t_kelvin)
    x = (vgs - vth) / nvt
    vgt = nvt * _softplus(x)
    k_t = params.k_drive * mobility_factor(t_kelvin, params.mu_exp)
    i_on = k_t * width * vgt**params.alpha

    exp_term = math.exp(-vds / params.vdsat)
    sat = 1.0 - exp_term
    clm = 1.0 + params.lam * vds
    i_d = i_on * sat * clm

    # dId/dVgs through the overdrive chain rule.
    dvgt_dvgs = _sigmoid(x)
    if vgt > 0.0:
        di_on_dvgs = i_on * params.alpha / vgt * dvgt_dvgs
    else:
        di_on_dvgs = 0.0
    gm = di_on_dvgs * sat * clm

    gds = i_on * (exp_term / params.vdsat * clm + sat * params.lam)
    return i_d, gm, gds


def off_current(
    params: DeviceParams,
    vdd: float,
    width: float,
    t_kelvin: float,
    vth0: Optional[float] = None,
) -> float:
    """Subthreshold (off-state) channel leakage at ``Vgs = 0, Vds = vdd``."""
    return drain_current(params, 0.0, vdd, width, t_kelvin, vth0)


def leakage_current(
    params: DeviceParams,
    vdd: float,
    width: float,
    t_kelvin: float,
    vth0: Optional[float] = None,
) -> float:
    """Total static leakage: subthreshold plus gate/junction, amperes.

    The gate/junction component is anchored to the subthreshold current at
    the 25 C reference (``gate_leak_fraction`` of the total there) and scales
    with a shallow Arrhenius law — see
    :class:`~repro.technology.ptm22.DeviceParams`.  Power models should use
    this; ``off_current`` is the channel-only component (e.g. for bitline
    droop, where only channel leakage discharges the bitline).
    """
    i_sub = off_current(params, vdd, width, t_kelvin, vth0)
    f = params.gate_leak_fraction
    if f <= 0.0:
        return i_sub
    if not (0.0 < f < 1.0):
        raise ValueError(f"gate_leak_fraction must be in [0, 1), got {f}")
    i_sub_ref = off_current(params, vdd, width, T_REFERENCE_K, vth0)
    i_gate_ref = f / (1.0 - f) * i_sub_ref
    i_gate = i_gate_ref * arrhenius_scale(t_kelvin, params.gate_leak_ea_ev)
    return i_sub + i_gate


def effective_resistance(
    params: DeviceParams, vdd: float, width: float, t_kelvin: float
) -> float:
    """Switching effective resistance of the device, in ohms.

    The classic RC abstraction ``Reff = 0.75 * Vdd / Id_sat(Vgs = Vdd)``:
    the average resistance presented while (dis)charging a load between the
    rails.  The Elmore sizing flow in :mod:`repro.coffe` builds every
    subcircuit delay from this quantity, so the full temperature behaviour of
    the fabric (Figs. 1-3 of the paper) flows from here.
    """
    if width <= 0.0:
        raise ValueError(f"width must be positive, got {width}")
    i_sat = drain_current(params, vdd, vdd, width, t_kelvin)
    return 0.75 * vdd / i_sat


def pass_gate_resistance(
    params: DeviceParams,
    vdd: float,
    width: float,
    t_kelvin: float,
    body_factor: float = 1.25,
) -> float:
    """Effective resistance of an NMOS pass transistor in a mux tree, ohms.

    The gate is held at ``vdd`` by the configuration SRAM while the channel
    conducts; the back-gate (body) effect of the floating source raises the
    effective threshold by ``body_factor`` relative to a grounded-source
    device, lowering the overdrive and slightly changing the temperature
    sensitivity relative to :func:`effective_resistance`.
    """
    if width <= 0.0:
        raise ValueError(f"width must be positive, got {width}")
    raised = params.vth0 * body_factor
    i_sat = drain_current(params, vdd, vdd, width, t_kelvin, raised)
    return 0.75 * vdd / i_sat


def gate_capacitance(params: DeviceParams, width: float) -> float:
    """Gate capacitance of a device of the given width, farads."""
    return params.c_gate * width


def drain_capacitance(params: DeviceParams, width: float) -> float:
    """Drain junction capacitance of a device of the given width, farads."""
    return params.c_drain * width
