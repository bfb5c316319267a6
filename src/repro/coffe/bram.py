"""Block RAM model (paper Sec. IV-A, following Yazdanshenas et al.).

The BRAM core uses the low-power (high-Vth) device flavour at the boosted
``Vdd_low_power`` supply.  Its read path is

``predecoder -> wordline driver -> bitline development -> sense amp -> output``

**Why the BRAM shows the strongest design-corner effect** (paper Fig. 2: a
100 C-optimized BRAM is 1.35x slower at 0 C than a 0 C-optimized one, and a
0 C-optimized one is 1.19x slower at 100 C):

The bitline development time is rated against the *weakest* Monte-Carlo
cell's leakage (paper Sec. IV-A), and that leakage — subthreshold plus
DIBL/GIDL components of the 1000+ unaccessed cells — grows steeply with
temperature while the accessed cell's read current shrinks.  At a hot
design corner the bitline therefore dominates the read path and the sizing
optimizer moves silicon into the access devices and sense amplifier at the
expense of the wordline/output stages; at a cold corner the balance is
reversed.  Operating a fabric away from its corner exposes the mismatch,
producing the strongly asymmetric delay curves of paper Fig. 2.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.coffe.subcircuits import (
    DRIVER_MEDIUM,
    DRIVER_ROUTING,
    SRAM_CELL_AREA_UM2,
    SizableCircuit,
    WireLoad,
    inverter_input_cap,
    inverter_leakage,
    inverter_output_cap,
    transistor_area_um2,
)
from repro.memo import memoized
from repro.spice.devices import (
    drain_capacitance,
    drain_current,
    effective_resistance,
    gate_capacitance,
    off_current,
)
from repro.spice.montecarlo import sram_cell_leakage, sram_weakest_cell_leakage
from repro.technology.ptm22 import LP_NMOS, LP_PMOS

SENSE_OFFSET_V = 0.050
"""Sense-amp input offset for a unit-width amp; shrinks as 1/sqrt(width)."""

SENSE_OFFSET_FLOOR_V = 0.012
"""Systematic (size-independent) component of the required bitline swing."""

CELL_READ_DERATE = 0.08
"""Cell read current relative to a lone access device: the series
pull-down/access stack and wordline underdrive limit the read current to a
small fraction of the device's saturation current."""

CELL_BODY_FACTOR = 1.20
"""Threshold increase of the access device due to the raised cell node."""

BITLINE_LEAK_FACTOR = 9.0
"""Off-state bitline current per cell relative to the bare subthreshold
off-current.  Lumps DIBL, gate-induced drain leakage and junction leakage of
the access device at full bitline bias — the components that erode read
swing in deep-nano SRAMs but are absent from the simple alpha-power channel
model.  Calibrated so the (weakest-cell) bitline leakage of an unbanked
1024-row bitline approaches half the cell read current at 100 C,
reproducing the corner asymmetry of paper Fig. 2."""

BANK_CHOICES = (1, 2, 4)
"""Bitline banking options the corner optimizer chooses between.  Splitting
the array into banks shortens the local bitlines (1/banks of the leakage and
wire), at the cost of per-bank sense amplifiers and a global-bitline mux
stage.  Hot-corner designs bank aggressively; cold-corner designs keep the
flat single-bank array — the second first-order corner mechanism of paper
Fig. 2 (BRAM shows the strongest corner dependence)."""

WEAK_FACTOR_MEMO_SIZE = 64
"""Monte-Carlo factors a process keeps: one float each, two per corner
(:data:`~repro.coffe.characterize.CORNER_MEMO_SIZE` corners)."""


@memoized("coffe.montecarlo.memo", WEAK_FACTOR_MEMO_SIZE)
def _weak_cell_factor(vdd_lp: float, corner_kelvin: float, n_cells: int) -> float:
    """Weakest-vs-mean cell leakage ratio of a Monte-Carlo SRAM sample.

    A pure function of the supply, the corner and the sample size (the
    sample's seed is fixed), so it is computed once per process for each
    triple: a BRAM and its bank variants share one sample.
    """
    sample = sram_weakest_cell_leakage(
        LP_NMOS, LP_PMOS, vdd_lp, corner_kelvin, n_cells=n_cells
    )
    return sample.weakest_amps / sample.mean_amps


class BramModel(SizableCircuit):
    """A ``rows x width`` BRAM (1024 x 32 bit by default, paper Table I)."""

    def __init__(
        self,
        name: str,
        vdd_lp: float,
        design_corner_kelvin: float,
        n_rows: int = 1024,
        n_cols: int = 32,
        mc_cells: int = 1500,
        n_banks: int = 1,
    ):
        if n_rows < 2 or n_cols < 1:
            raise ValueError(f"{name}: bad BRAM geometry {n_rows}x{n_cols}")
        if n_banks not in BANK_CHOICES or n_rows % n_banks:
            raise ValueError(f"{name}: bad bank count {n_banks} for {n_rows} rows")
        self.name = name
        self.vdd = vdd_lp
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.n_banks = n_banks
        self.mc_cells = mc_cells
        self.design_corner_kelvin = design_corner_kelvin
        self.wl_wire = WireLoad(
            resistance_ohms=6.0 * n_cols, capacitance_farads=0.05e-15 * n_cols
        )
        rows_local = n_rows // n_banks
        self.bl_wire = WireLoad(
            resistance_ohms=2.0 * rows_local, capacitance_farads=0.04e-15 * rows_local
        )
        self.global_wire = WireLoad(
            resistance_ohms=1.5 * n_rows, capacitance_farads=0.09e-15 * n_rows
        )
        self.decode_wire = WireLoad(
            resistance_ohms=2.0 * n_rows, capacitance_farads=0.03e-15 * n_rows
        )
        # Weakest-vs-mean cell leakage ratio at the design corner
        # (Monte-Carlo over Vth variation) — paper Sec. IV-A.
        self.weak_factor = _weak_cell_factor(vdd_lp, design_corner_kelvin, mc_cells)

    def variants(self) -> Tuple[SizableCircuit, ...]:
        return tuple(
            BramModel(
                self.name,
                self.vdd,
                self.design_corner_kelvin,
                n_rows=self.n_rows,
                n_cols=self.n_cols,
                mc_cells=self.mc_cells,
                n_banks=banks,
            )
            for banks in BANK_CHOICES
            if self.n_rows % banks == 0
        )

    @property
    def rows_per_bank(self) -> int:
        return self.n_rows // self.n_banks

    @property
    def size_names(self) -> Tuple[str, ...]:
        return ("w_access", "w_wl", "w_sense", "w_out")

    @property
    def default_sizes(self) -> Dict[str, float]:
        return {"w_access": 1.5, "w_wl": 8.0, "w_sense": 4.0, "w_out": 6.0}

    # -- read-path pieces ---------------------------------------------------

    def _bitline_cap(self, w_access: float, w_sense: float) -> float:
        return (
            self.rows_per_bank * 0.5 * drain_capacitance(LP_NMOS, w_access)
            + self.bl_wire.capacitance_farads
            + gate_capacitance(LP_NMOS, 2.0 * w_sense)
        )

    def _cell_current(self, w_access: float, t_kelvin: float) -> float:
        """Read current of the accessed cell through the access device."""
        vth0 = LP_NMOS.vth0 * CELL_BODY_FACTOR
        i_dev = drain_current(LP_NMOS, self.vdd, self.vdd / 2.0, w_access, t_kelvin, vth0)
        return CELL_READ_DERATE * i_dev

    def _bitline_leakage(
        self, w_access: float, t_kelvin: float, weak: bool
    ) -> float:
        """Aggregate off-state current of the unaccessed bitline cells.

        ``weak=True`` applies the Monte-Carlo weakest-cell factor — the
        design-time pessimism the trigger is provisioned against.
        """
        i_off = off_current(LP_NMOS, self.vdd, w_access, t_kelvin)
        total = (self.rows_per_bank - 1) * BITLINE_LEAK_FACTOR * i_off
        return total * self.weak_factor if weak else total

    def _swing_volts(self, w_sense: float) -> float:
        """Bitline swing needed by the sense amp: its input offset."""
        return SENSE_OFFSET_FLOOR_V + SENSE_OFFSET_V / max(w_sense, 1e-6) ** 0.5

    def develop_time_seconds(
        self, sizes: Mapping[str, float], t_kelvin: float, weak: bool = False
    ) -> float:
        """Bitline development time at the operating temperature.

        ``weak=True`` rates the development against the weakest Monte-Carlo
        cell's bitline leakage — the pessimism the *design* flow must absorb
        (paper Sec. IV-A); ``weak=False`` is the nominal behaviour Table II
        characterizes.  The bitline is the temperature-critical BRAM stage:
        the cell read current degrades with T while the leakage eroding it
        grows steeply.
        """
        w_a, w_sa = sizes["w_access"], sizes["w_sense"]
        c_bl = self._bitline_cap(w_a, w_sa)
        net = self._cell_current(w_a, t_kelvin) - self._bitline_leakage(
            w_a, t_kelvin, weak=weak
        )
        i_floor = 0.02 * self._cell_current(w_a, t_kelvin)
        net = max(net, i_floor)
        return c_bl * self._swing_volts(w_sa) / net

    def design_delay_seconds(
        self, sizes: Mapping[str, float], t_kelvin: float
    ) -> float:
        """Read delay under weakest-cell pessimism (drives corner design)."""
        return self._delay(sizes, t_kelvin, weak=True)

    def delay_seconds(self, sizes: Mapping[str, float], t_kelvin: float) -> float:
        """Nominal read delay (what the characterization sweep reports)."""
        return self._delay(sizes, t_kelvin, weak=False)

    def _delay(
        self, sizes: Mapping[str, float], t_kelvin: float, weak: bool
    ) -> float:
        self.validate_sizes(sizes)
        w_a, w_wl = sizes["w_access"], sizes["w_wl"]
        w_sa, w_o = sizes["w_sense"], sizes["w_out"]

        # Predecoder drives the row-decoder wire spanning the array height,
        # then the selected wordline driver fires the row.
        c_dec = self.decode_wire.capacitance_farads + inverter_input_cap(
            DRIVER_MEDIUM, w_wl
        )
        r_dec = effective_resistance(DRIVER_MEDIUM, self.vdd, w_wl, t_kelvin)
        t_dec = (
            r_dec * c_dec
            + self.decode_wire.resistance_at(t_kelvin)
            * self.decode_wire.capacitance_farads
            / 2.0
        )
        c_wl = (
            self.n_cols * gate_capacitance(LP_NMOS, w_a)
            + self.wl_wire.capacitance_farads
        )
        r_wl = effective_resistance(DRIVER_MEDIUM, self.vdd, w_wl, t_kelvin)
        t_wl = t_dec + (
            r_wl * (inverter_output_cap(DRIVER_MEDIUM, w_wl) + c_wl)
            + self.wl_wire.resistance_at(t_kelvin) * c_wl / 2.0
        )

        t_bl = self.develop_time_seconds(sizes, t_kelvin, weak=weak)

        # Sense amplifier regeneration + output buffer.
        r_sa = effective_resistance(LP_NMOS, self.vdd, w_sa, t_kelvin)
        t_sa = 3.0 * r_sa * (
            drain_capacitance(LP_NMOS, w_sa) * 2.0
            + inverter_input_cap(DRIVER_MEDIUM, w_o)
        )
        r_o = effective_resistance(DRIVER_MEDIUM, self.vdd, w_o, t_kelvin)
        t_out = r_o * (inverter_output_cap(DRIVER_MEDIUM, w_o) + 25e-15)

        # Banked arrays pay a global-bitline stage: the bank's sense output
        # drives a device-height wire through the bank mux.
        t_bank = 0.0
        if self.n_banks > 1:
            c_gl = self.global_wire.capacitance_farads + self.n_banks * (
                inverter_output_cap(DRIVER_MEDIUM, w_o)
            )
            # The global stage is wire-dominated and driven by a large,
            # velocity-saturated driver: nearly temperature-flat.
            r_gl_drv = effective_resistance(DRIVER_ROUTING, self.vdd, w_o, t_kelvin)
            t_bank = (
                r_gl_drv * c_gl
                + self.global_wire.resistance_at(t_kelvin)
                * self.global_wire.capacitance_farads
                / 2.0
            )
        return t_wl + t_bl + t_sa + t_out + t_bank

    def area_um2(self, sizes: Mapping[str, float]) -> float:
        self.validate_sizes(sizes)
        cell_area = (
            self.n_rows
            * self.n_cols
            * (SRAM_CELL_AREA_UM2 + 2.0 * transistor_area_um2(sizes["w_access"]))
        )
        periphery = (
            self.n_rows * transistor_area_um2(sizes["w_wl"]) * (1.0 + 1.8)
            + self.n_cols
            * (
                self.n_banks * 4.0 * transistor_area_um2(sizes["w_sense"])
                + (1.0 + 1.8) * transistor_area_um2(sizes["w_out"])
            )
        )
        if self.n_banks > 1:
            periphery += (
                self.n_banks * self.n_cols * 2.0 * transistor_area_um2(sizes["w_out"])
            )
        return cell_area + periphery

    def leakage_watts(self, sizes: Mapping[str, float], t_kelvin: float) -> float:
        self.validate_sizes(sizes)
        cell_leak = sram_cell_leakage(
            LP_NMOS, LP_PMOS, self.vdd, t_kelvin, include_gate=True
        )
        p_cells = self.n_rows * self.n_cols * cell_leak * self.vdd
        p_periph = self.n_cols * (
            inverter_leakage(DRIVER_MEDIUM, sizes["w_out"], self.vdd, t_kelvin)
            + self.n_banks
            * inverter_leakage(LP_NMOS, sizes["w_sense"], self.vdd, t_kelvin)
        ) + self.n_rows * 0.02 * inverter_leakage(
            DRIVER_MEDIUM, sizes["w_wl"], self.vdd, t_kelvin
        )
        return p_cells + p_periph

    def switched_cap_farads(self, sizes: Mapping[str, float]) -> float:
        self.validate_sizes(sizes)
        c_wl = self.n_cols * gate_capacitance(LP_NMOS, sizes["w_access"])
        c_bl = (
            self.n_cols
            * self._bitline_cap(sizes["w_access"], sizes["w_sense"])
            * 0.15
        )
        c_out = self.n_cols * (
            inverter_input_cap(DRIVER_MEDIUM, sizes["w_out"])
            + inverter_output_cap(DRIVER_MEDIUM, sizes["w_out"])
        )
        return c_wl + c_bl + c_out
