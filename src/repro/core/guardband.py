"""Thermal-aware guardbanding — the paper's Algorithm 1.

Given a placed-and-routed design, its fabric characterization, the signal
activities and the ambient temperature, iterate

1. ``f = T(netlist, T_vec)`` — temperature-aware STA over the whole netlist
   (the critical path can move between iterations);
2. ``p = p_dyn(netlist, alpha, f) + p_lkg(T_vec)`` — per-tile power;
3. ``T_vec = HotSpot(p)`` — steady-state thermal solve;

until the per-tile temperature change satisfies ``||dT||_inf <= delta_t``,
then re-time the design once more at ``T_vec + delta_t`` so the small
convergence error is covered by margin rather than optimism.  The resulting
frequency replaces the conventional worst-case (Tworst) clock.

Both entry points — :func:`thermal_aware_guardband` for one cell and
:func:`thermal_aware_guardband_batch` for many cells sharing one placed
netlist — run one kernel, a masked fixed point over ``(n_cells, n_tiles)``
rows (:class:`_FixedPoint`).  The energy objective (``mode="energy"``)
bisects the supply voltage around calls of the same fixed point; its
clock is the target, so its iterations run power and thermal only.

No clock is reported for a die whose re-time profile leaves the fabric's
characterized range (``T_MAX_CELSIUS``): every table lookup clips there,
so the clock would be optimistic.  Such a cell fails instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import observe
from repro.activity.ace import ActivityEstimate, estimate_activity
from repro.cad.flow import FlowResult
from repro.cad.timing import TimingReport
from repro.coffe.fabric import (
    T_MAX_CELSIUS,
    Fabric,
    check_junction_celsius,
    grid_lerp,
)
from repro.power.model import PowerModel
from repro.power.voltage import (
    VDD_MIN_V,
    VDD_TOLERANCE_V,
    VoltageScaling,
    resource_delay_scale,
)
from repro.technology.ptm22 import VDD_NOMINAL
from repro.thermal.hotspot import ThermalSolver
from repro.thermal.package import ThermalPackage

DELTA_T_CELSIUS = 2.0
"""Convergence threshold and compensation margin (Algorithm 1's delta_T)."""

MAX_ITERATIONS = 25
"""The paper observes convergence in fewer than ten iterations."""

BASE_ACTIVITY_DEFAULT = 0.15
"""Default mean primary-input switching activity for the ACE estimate."""


class GuardbandError(RuntimeError):
    """Raised when a cell gets no clock: the temperature-power fixed point
    does not converge, its re-time profile is hotter than the fabric's
    tables, or (energy mode) its target does not close.

    Carries the partial fixed-point state so a diverging sweep cell is
    debuggable without a re-run: the per-iteration ``history`` telemetry,
    the ``last_temperatures`` vector the loop stopped at, and the
    ``iterations`` spent.  All diagnostics default to empty so the
    exception still constructs from a bare message.
    """

    def __init__(
        self,
        message: str,
        *,
        history: Optional[List["GuardbandIteration"]] = None,
        last_temperatures: Optional[np.ndarray] = None,
        iterations: int = 0,
        t_ambient: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.history: List["GuardbandIteration"] = list(history or [])
        self.last_temperatures = last_temperatures
        self.iterations = iterations
        self.t_ambient = t_ambient

    @property
    def last_max_delta_celsius(self) -> Optional[float]:
        """The final iteration's ``||dT||_inf``, when any iteration ran."""
        if not self.history:
            return None
        return self.history[-1].max_delta_celsius


@dataclass(frozen=True)
class GuardbandConfig:
    """Algorithm 1 knobs, grouped so sweeps can carry them as one value.

    Frozen (hashable, picklable): an :class:`~repro.runner.ExperimentSpec`
    embeds one per job and ships it across process boundaries unchanged.
    """

    delta_t: float = DELTA_T_CELSIUS
    """Convergence threshold and compensation margin, Celsius."""
    max_iterations: int = MAX_ITERATIONS
    """Iteration budget before :class:`GuardbandError`."""
    base_activity: float = BASE_ACTIVITY_DEFAULT
    """Mean primary-input activity for the default ACE estimate."""
    package: Optional[ThermalPackage] = None
    """Thermal package override; ``None`` uses the solver default."""
    thermal_weight: float = 0.0
    """Thermal-aware placement blend: weight of the thermal proxy term in
    the placer's objective (:mod:`repro.cad.thermal_place`), relative to
    the initial wirelength cost.  0 keeps the legacy wirelength/timing
    placement (bit-identical); folded into the flow cache key, so cells
    with different weights never share a mapping."""
    mode: str = "frequency"
    """Objective of Algorithm 1.  ``"frequency"`` (the default, the
    paper's flow) maximises the guardbanded clock at nominal supply;
    ``"energy"`` holds ``target_frequency_hz`` fixed and bisects the
    soft-fabric supply down until timing just closes at the converged
    thermal profile (arXiv:1911.07187), reporting the savings in
    :attr:`GuardbandResult.energy`."""
    target_frequency_hz: Optional[float] = None
    """Iso-frequency clock for ``mode="energy"``, hertz.  Required
    (positive, finite) in energy mode; must stay ``None`` in frequency
    mode, where the clock is an output of the flow, not an input."""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta_t) and self.delta_t > 0.0):
            raise ValueError(
                f"delta_t must be positive and finite, got {self.delta_t}"
            )
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be at least 1, got {self.max_iterations}"
            )
        if not (0.0 < self.base_activity <= 1.0):
            raise ValueError(
                f"base_activity must be in (0, 1], got {self.base_activity}"
            )
        if not (
            math.isfinite(self.thermal_weight) and self.thermal_weight >= 0.0
        ):
            raise ValueError(
                "thermal_weight must be finite and >= 0, "
                f"got {self.thermal_weight}"
            )
        if self.mode not in ("frequency", "energy"):
            raise ValueError(
                f'mode must be "frequency" or "energy", got {self.mode!r}'
            )
        if self.mode == "energy":
            if self.target_frequency_hz is None:
                raise ValueError(
                    'mode="energy" requires target_frequency_hz — the '
                    "iso-frequency clock (Hz) to close timing at while "
                    "scaling the supply down"
                )
            if not (
                math.isfinite(self.target_frequency_hz)
                and self.target_frequency_hz > 0.0
            ):
                raise ValueError(
                    "target_frequency_hz must be positive and finite, "
                    f"got {self.target_frequency_hz}"
                )
        elif self.target_frequency_hz is not None:
            raise ValueError(
                'target_frequency_hz is only meaningful with mode="energy" '
                "(the frequency objective derives the clock); got "
                f"target_frequency_hz={self.target_frequency_hz} with "
                f'mode="frequency"'
            )

    def with_changes(self, **changes: object) -> "GuardbandConfig":
        """Return a copy with some knobs replaced."""
        return replace(self, **changes)


@dataclass
class GuardbandIteration:
    """Telemetry of one Algorithm 1 iteration."""

    frequency_hz: float
    """The clock this iteration's dynamic power was evaluated at: the
    iteration's own STA clock in frequency mode, the target clock in
    energy mode (whose iterations run no STA)."""
    total_power_w: float
    max_tile_celsius: float
    mean_tile_celsius: float
    max_delta_celsius: float


@dataclass
class EnergyReport:
    """Per-cell energy accounting of one ``mode="energy"`` run.

    At iso-frequency, energy per cycle is ``power / f``, so the
    fractional power saving *is* the fractional energy saving; both
    totals are reported so tables can show either axis.  The nominal
    baseline is the same design converged at the same target frequency
    and ambient but at nominal supply.
    """

    vdd_v: float
    """Closing supply: the lowest trial VDD at which timing still closes
    (within :data:`~repro.power.voltage.VDD_TOLERANCE_V`)."""
    vdd_nominal_v: float
    target_frequency_hz: float
    total_power_w: float
    """Whole-die power at the closing supply's converged profile."""
    nominal_power_w: float
    """Whole-die power at nominal supply, same frequency and ambient."""
    power_saving_fraction: float
    """``1 - total_power_w / nominal_power_w`` — also the energy-per-cycle
    saving at iso-frequency."""
    energy_per_cycle_j: float
    nominal_energy_per_cycle_j: float


@dataclass
class GuardbandResult:
    """Outcome of thermal-aware guardbanding for one design.

    **Objective invariant:** frequency-mode results maximise
    ``frequency_hz`` at nominal supply (``vdd_v == VDD_NOMINAL``,
    ``energy is None``); energy-mode results hold
    ``frequency_hz == config.target_frequency_hz`` by construction and
    report the closing supply in ``vdd_v`` (with the savings accounting
    in ``energy``).  ``mode`` names which reading applies.
    """

    frequency_hz: float
    """Final guardbanded clock (timed at the converged profile + delta_t);
    in energy mode, the target clock that timing was closed at."""
    critical_path_s: float
    tile_temperatures: np.ndarray
    """Converged per-tile temperatures, Celsius."""
    iterations: int
    t_ambient: float
    delta_t: float
    total_power_w: float
    history: List[GuardbandIteration] = field(default_factory=list)
    mode: str = "frequency"
    """Which objective produced this result (see the class invariant)."""
    vdd_v: float = VDD_NOMINAL
    """Soft-fabric supply of the reported operating point, volts."""
    energy: Optional[EnergyReport] = None
    """Energy/power savings vs nominal supply; ``None`` in frequency mode."""

    @property
    def mean_rise_celsius(self) -> float:
        return float(self.tile_temperatures.mean() - self.t_ambient)

    @property
    def max_gradient_celsius(self) -> float:
        """Largest on-chip temperature difference."""
        return float(self.tile_temperatures.max() - self.tile_temperatures.min())


BatchOutcome = Union[GuardbandResult, GuardbandError]
"""Per-cell outcome of a batched run: the converged result, or — for a
cell that exhausted the iteration budget, converged hotter than the
fabric's tables or, in energy mode, cannot close its target — a
:class:`GuardbandError` carrying its partial diagnostics.
A failing cell never poisons its batch-mates."""


class _FixedPoint:
    """Algorithm 1 over ``(n_cells, n_tiles)`` rows sharing one placed netlist.

    Built once per run: one :class:`~repro.power.model.PowerModel`, one
    :class:`~repro.thermal.hotspot.ThermalSolver` (one ``splu``
    factorization back-substituting every row as a matrix RHS) and, for
    the energy objective, one :class:`~repro.power.voltage.VoltageScaling`.
    Each cell's history — one entry per iteration, so its length is the
    cell's iteration count — accumulates across every :meth:`converge`
    call; the energy objective makes one per bisection round.
    """

    def __init__(
        self,
        flow: FlowResult,
        fabric: Fabric,
        config: GuardbandConfig,
        activity: ActivityEstimate,
        ambients: np.ndarray,
    ) -> None:
        self.flow = flow
        self.fabric = fabric
        self.config = config
        self.ambients = ambients
        self.power_model = PowerModel(flow, fabric, activity)
        self.solver = ThermalSolver(flow.layout, config.package)
        self.scaling = VoltageScaling() if config.mode == "energy" else None
        self.histories: List[List[GuardbandIteration]] = [
            [] for _ in range(ambients.size)
        ]

    def converge(
        self,
        cells: np.ndarray,
        t_start: np.ndarray,
        vdds: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lines 4-8 for the rows ``cells`` until each row's
        ``||dT||_inf <= delta_t``.

        With ``vdds=None`` this is the frequency objective: unscaled STA,
        and dynamic power at each row's own STA clock.  With one supply
        per row it is the energy objective: power at the target clock (the
        design will run there) and each row's supply, and no STA, whose
        clock nothing would read.  A converged row
        leaves the active set.  Returns the rows' last profiles, their
        last total power and the mask of rows that exhausted
        ``max_iterations``, all indexed like ``cells``.

        Each iteration interpolates its profile on the 1 C grid once
        (:func:`~repro.coffe.fabric.grid_lerp`) and hands the weights to
        STA and power, whose delay, leakage and leakage-scale tables all
        lerp at the same temperatures.
        """
        delta_t = self.config.delta_t
        f_target = self.config.target_frequency_hz
        ambients = self.ambients[cells]
        histories = [self.histories[cell] for cell in cells.tolist()]
        n_tiles = t_start.shape[1]
        t_tiles = t_start.copy()
        totals = np.zeros(cells.size)
        active = np.ones(cells.size, dtype=bool)
        for step in range(self.config.max_iterations):
            rows = active.nonzero()[0]
            if rows.size == 0:
                break
            # Views rather than gathered copies until a row converges.
            sel: Union[slice, np.ndarray] = (
                slice(None) if rows.size == cells.size else rows
            )
            t_rows = t_tiles[sel]
            it_span = observe.span(
                "guardband.iteration",
                index=step + 1,
                n_cells=int(cells.size),
                n_active=int(rows.size),
            )
            with it_span:
                lerp = grid_lerp(t_rows)
                if vdds is None or self.scaling is None:
                    # Line 4: full-netlist STA at every row's profile.
                    with observe.span("guardband.sta"):
                        reports = self.flow.timing.critical_path_batch(
                            self.fabric, t_rows, lerp=lerp
                        )
                    row_frequency = [r.frequency_hz for r in reports]
                    # Line 5: per-tile dynamic + leakage power.
                    with observe.span("guardband.power"):
                        power = self.power_model.evaluate_batch(
                            np.array(row_frequency), t_rows, lerp=lerp
                        )
                else:
                    # The energy objective runs at the target clock, so
                    # no STA here: only the re-time decides closure.
                    assert f_target is not None
                    row_frequency = [f_target] * rows.size
                    with observe.span("guardband.power"):
                        power = self.power_model.evaluate_at_voltage_batch(
                            np.array(row_frequency), t_rows, self.scaling,
                            vdds[sel], lerp=lerp,
                        )
                # Line 7: one matrix-RHS thermal solve for every row.
                with observe.span("guardband.thermal"):
                    t_new = self.solver.solve(power.total_w, ambients[sel])
                max_delta = np.abs(t_new - t_rows).max(axis=1)
                done = max_delta <= delta_t
                t_tiles[sel] = t_new
                row_power = power.total_watts_per_cell()
                totals[sel] = row_power
                if it_span is not observe.NULL_SPAN:
                    it_span.set_attrs(
                        max_delta_celsius=float(max_delta.max()),
                        n_converging=int(done.sum()),
                    )
            for row, frequency, total, delta in zip(
                rows.tolist(), row_frequency, row_power.tolist(),
                max_delta.tolist(),
            ):
                t_row = t_tiles[row]
                histories[row].append(
                    GuardbandIteration(
                        frequency_hz=frequency,
                        total_power_w=total,
                        max_tile_celsius=float(t_row.max()),
                        # The same double np.mean gives: one pairwise
                        # sum divided by the count.
                        mean_tile_celsius=float(t_row.sum() / n_tiles),
                        max_delta_celsius=delta,
                    )
                )
            # Line 8, per row: converged rows drop out.
            active[rows[done]] = False
        return t_tiles, totals, active

    def retime(
        self, t_conv: np.ndarray, vdds: Optional[np.ndarray] = None
    ) -> List[TimingReport]:
        """Line 9: time every row at its converged profile + ``delta_t``,
        so the small convergence error is covered by margin.  One set of
        grid weights serves the delay and the voltage-scale lerps."""
        t_margin = t_conv + self.config.delta_t
        with observe.span("guardband.final_sta", n_cells=len(t_conv)):
            lerp = grid_lerp(t_margin)
            delay_scale = None
            if vdds is not None and self.scaling is not None:
                delay_scale = resource_delay_scale(
                    self.scaling.delay_scale_cells(vdds, t_margin, lerp=lerp)
                )
            return self.flow.timing.critical_path_batch(
                self.fabric, t_margin, delay_scale=delay_scale, lerp=lerp
            )

    def above_tables(self, t_conv: np.ndarray) -> np.ndarray:
        """Rows whose re-time profile ``T_conv + delta_t`` has a tile above
        the fabric's tables, where every lookup would read the 100 C edge
        and report an optimistic clock."""
        return t_conv.max(axis=1) + self.config.delta_t > T_MAX_CELSIUS

    def too_hot(
        self, cell: int, t_conv: np.ndarray, context: str = ""
    ) -> GuardbandError:
        """The outcome of a cell that :meth:`above_tables` flags, naming
        its hottest tile; ``context`` prefixes the message."""
        observe.counter("guardband.above_tables").inc()
        t_margin = t_conv + self.config.delta_t
        tile = int(t_margin.argmax())
        y, x = divmod(tile, self.flow.layout.width)
        return self.error(
            cell,
            f"{context}tile ({x}, {y}) reaches {t_margin[tile]:.1f} C at "
            "the converged profile + delta_t, above the fabric's "
            f"{T_MAX_CELSIUS:g} C table limit; no clock is reported "
            "past the characterized range",
            t_conv,
        )

    def error(self, cell: int, message: str, t_last: np.ndarray) -> GuardbandError:
        """A failed cell's outcome, with its partial fixed-point state."""
        return GuardbandError(
            f"{self.flow.netlist.name}: {message}",
            history=self.histories[cell],
            last_temperatures=t_last.copy(),
            iterations=len(self.histories[cell]),
            t_ambient=float(self.ambients[cell]),
        )

    def diverged(
        self, cell: int, t_last: np.ndarray, vdd: Optional[float] = None
    ) -> GuardbandError:
        observe.counter("guardband.diverged").inc()
        history = self.histories[cell]
        where = "" if vdd is None else f" at VDD={vdd:.3f} V"
        last = (
            f" (last |dT| = {history[-1].max_delta_celsius:.2f} C)"
            if history
            else ""
        )
        return self.error(
            cell,
            "temperature did not converge within "
            f"{self.config.max_iterations} iterations{where}{last}",
            t_last,
        )

    def result(
        self,
        cell: int,
        final: TimingReport,
        t_conv: np.ndarray,
        total_power_w: float,
        energy: Optional[EnergyReport] = None,
    ) -> GuardbandResult:
        observe.histogram("guardband.iterations").observe(
            float(len(self.histories[cell]))
        )
        return GuardbandResult(
            frequency_hz=(
                final.frequency_hz if energy is None
                else energy.target_frequency_hz
            ),
            critical_path_s=final.critical_path_s,
            tile_temperatures=t_conv.copy(),
            iterations=len(self.histories[cell]),
            t_ambient=float(self.ambients[cell]),
            delta_t=self.config.delta_t,
            total_power_w=total_power_w,
            history=self.histories[cell],
            mode=self.config.mode,
            vdd_v=VDD_NOMINAL if energy is None else energy.vdd_v,
            energy=energy,
        )

    def frequency(self, t_seed: np.ndarray) -> List[BatchOutcome]:
        """The frequency objective: one fixed point, then one re-time."""
        n_cells = self.ambients.size
        t_conv, totals, diverged = self.converge(np.arange(n_cells), t_seed)
        hot = ~diverged & self.above_tables(t_conv)
        timed = np.flatnonzero(~diverged & ~hot)
        finals = iter(self.retime(t_conv[timed]) if timed.size else [])
        outcomes: List[BatchOutcome] = []
        for i in range(n_cells):
            if diverged[i]:
                outcomes.append(self.diverged(i, t_conv[i]))
            elif hot[i]:
                outcomes.append(self.too_hot(i, t_conv[i]))
            else:
                outcomes.append(
                    self.result(i, next(finals), t_conv[i], float(totals[i]))
                )
        return outcomes

    def energy(self, t_seed: np.ndarray) -> List[BatchOutcome]:
        """The energy objective: bisect each cell's VDD at iso-frequency.

        Every trial supply re-runs the power/temperature fixed point,
        then one voltage-scaled re-time at ``T + delta_t`` decides
        closure, so a trial times the design exactly once: the
        guardbanded clock at the converged profile must still meet the
        target.  Lower supply slows the fabric but also cools it, which
        is why each trial co-iterates with the thermal solver rather
        than scaling a single nominal profile (DESIGN.md, "Energy mode").

        The nominal-supply trial checks feasibility and is each cell's
        savings baseline.  Bisection assumes closure is monotone in VDD,
        keeps ``v_hi`` always closing and narrows the window to
        :data:`~repro.power.voltage.VDD_TOLERANCE_V`.  Every cell shares
        the target and the ``[VDD_MIN_V, nominal]`` window, so the
        bisections run in lockstep, one :meth:`converge` call per round.
        A trial starts from the cell's last closing profile; one that
        diverges or converges above the tables below nominal counts as
        non-closing.  Six rounds narrow the 0.25 V window to 5 mV, so a
        cell runs seven STAs: the nominal trial's and one per round.
        """
        assert self.scaling is not None
        f_target = float(self.config.target_frequency_hz)  # type: ignore[arg-type]
        v_nominal = self.scaling.vdd_nominal
        n_cells = self.ambients.size
        outcomes: Dict[int, BatchOutcome] = {}

        t_conv, nominal_power, diverged = self.converge(
            np.arange(n_cells), t_seed, np.full(n_cells, v_nominal)
        )

        def infeasible(i: int) -> str:
            """Count cell ``i`` as infeasible; returns why, for its error."""
            observe.counter("guardband.energy.infeasible").inc()
            return (
                f"target frequency {f_target / 1e6:.2f} MHz does not close "
                f"at nominal VDD {v_nominal:.3f} V and "
                f"Tamb={self.ambients[i]:g} C"
            )

        hot = ~diverged & self.above_tables(t_conv)
        for i in np.flatnonzero(diverged):
            outcomes[i] = self.diverged(i, t_conv[i], vdd=v_nominal)
        # A die past the tables at nominal supply cannot close its target.
        for i in np.flatnonzero(hot):
            outcomes[i] = self.too_hot(i, t_conv[i], f"{infeasible(i)}: ")
        live = np.flatnonzero(~diverged & ~hot)
        finals = (
            self.retime(t_conv[live], np.full(live.size, v_nominal))
            if live.size else []
        )
        closes = np.array([f.frequency_hz >= f_target for f in finals], dtype=bool)
        for row in np.flatnonzero(~closes):
            i = int(live[row])
            outcomes[i] = self.error(
                i,
                f"{infeasible(i)} (guardbanded maximum is "
                f"{finals[row].frequency_hz / 1e6:.2f} MHz); lower the target",
                t_conv[i],
            )
        best_final = [finals[row] for row in np.flatnonzero(closes)]
        live = live[closes]
        best_t = t_conv[live]
        baseline_power = nominal_power[live].tolist()
        best_power = list(baseline_power)
        v_lo = [VDD_MIN_V] * live.size
        v_hi = [v_nominal] * live.size

        while live.size and (
            max(hi - lo for lo, hi in zip(v_lo, v_hi)) > VDD_TOLERANCE_V
        ):
            v_mid = [0.5 * (lo + hi) for lo, hi in zip(v_lo, v_hi)]
            vdds = np.array(v_mid)
            t_mid, power_mid, diverged = self.converge(live, best_t, vdds)
            rows = np.flatnonzero(~diverged & ~self.above_tables(t_mid))
            finals = self.retime(t_mid[rows], vdds[rows]) if rows.size else []
            closing = {
                row: final
                for row, final in zip(rows.tolist(), finals)
                if final.frequency_hz >= f_target
            }
            for row in range(live.size):
                if row in closing:
                    v_hi[row] = v_mid[row]
                    best_t[row] = t_mid[row]
                    best_power[row] = float(power_mid[row])
                    best_final[row] = closing[row]
                else:
                    # Diverged, above the tables or failed closure: the
                    # answer is above.
                    v_lo[row] = v_mid[row]

        period_s = 1.0 / f_target
        for row, i in enumerate(live.tolist()):
            power, nominal = best_power[row], baseline_power[row]
            outcomes[i] = self.result(
                i, best_final[row], best_t[row], power,
                EnergyReport(
                    vdd_v=v_hi[row],
                    vdd_nominal_v=v_nominal,
                    target_frequency_hz=f_target,
                    total_power_w=power,
                    nominal_power_w=nominal,
                    power_saving_fraction=1.0 - power / nominal,
                    energy_per_cycle_j=power * period_s,
                    nominal_energy_per_cycle_j=nominal * period_s,
                ),
            )
        return [outcomes[i] for i in range(n_cells)]


def _guardband(
    flow: FlowResult,
    fabric: Fabric,
    ambients: Sequence[float],
    config: Optional[GuardbandConfig],
    activity: Optional[ActivityEstimate],
) -> List[BatchOutcome]:
    """The one Algorithm 1 kernel behind both public entry points."""
    config = config if config is not None else GuardbandConfig()
    t_amb = np.array(ambients, dtype=float)
    if not t_amb.size:
        return []
    for t_ambient in t_amb.tolist():
        check_junction_celsius(t_ambient, "ambient")
    # Line 1: every tile of every cell starts at its ambient.
    t_seed = np.repeat(t_amb[:, None], flow.layout.n_tiles, axis=1)
    if activity is None:
        activity = estimate_activity(flow.netlist, config.base_activity)
    kernel = _FixedPoint(flow, fabric, config, activity, t_amb)
    run_span = observe.span(
        "guardband.run",
        benchmark=flow.netlist.name,
        mode=config.mode,
        n_cells=int(t_amb.size),
        delta_t=config.delta_t,
        max_iterations=config.max_iterations,
    )
    with run_span:
        if config.mode == "energy":
            outcomes = kernel.energy(t_seed)
        else:
            outcomes = kernel.frequency(t_seed)
        n_failed = sum(isinstance(o, GuardbandError) for o in outcomes)
        run_span.set_attrs(
            n_converged=len(outcomes) - n_failed,
            n_diverged=n_failed,
            iterations=max(len(history) for history in kernel.histories),
        )
    return outcomes


def thermal_aware_guardband(
    flow: FlowResult,
    fabric: Fabric,
    t_ambient: float,
    activity: Optional[ActivityEstimate] = None,
    config: Optional[GuardbandConfig] = None,
) -> GuardbandResult:
    """Run Algorithm 1 on a placed-and-routed design.

    ``t_ambient`` is the junction base temperature ``Tamb`` every tile
    starts from (Algorithm 1 line 1).  ``activity`` defaults to the ACE
    estimate with ``config.base_activity``.  Raises
    :class:`GuardbandError` when the fixed point diverges, when the
    converged profile plus ``delta_t`` leaves the fabric's tables (or, in
    energy mode, when the target cannot close).

    This is the batched kernel of :func:`thermal_aware_guardband_batch`
    on a single cell, so both entry points agree bit for bit.
    """
    (outcome,) = _guardband(flow, fabric, [t_ambient], config, activity)
    if isinstance(outcome, GuardbandError):
        raise outcome
    return outcome


def thermal_aware_guardband_batch(
    flow: FlowResult,
    fabric: Fabric,
    ambients: Sequence[float],
    config: Optional[GuardbandConfig] = None,
    activity: Optional[ActivityEstimate] = None,
) -> List[BatchOutcome]:
    """Run Algorithm 1 jointly over many cells sharing one placed netlist.

    Every cell of an ambient sweep over the same ``flow`` shares the
    thermal conductance factorization, the power model and the STA delay
    tables; stacking their temperature/power state into
    ``(n_cells, n_tiles)`` arrays amortises all of it — one matrix-RHS
    back-substitution, one batched power evaluation and one batched
    delay interpolation per iteration
    (:meth:`~repro.cad.timing.TimingAnalyzer.critical_path_batch`).

    Cells iterate jointly under an *active mask*: a cell whose
    ``||dT||_inf`` drops under ``config.delta_t`` leaves the batch, and
    each converged cell gets its own final re-time at ``T + delta_t``.
    A cell that exhausts ``config.max_iterations`` (or, in energy mode,
    cannot close its target) yields a :class:`GuardbandError` with its
    partial history and last temperatures in its slot of the returned
    list, without affecting any other cell.

    ``ambients`` holds one ambient per cell, and every cell starts flat
    at its ambient (Algorithm 1 line 1).  Results are returned in input
    order.  Each cell's frequency, critical path, iterations and VDD
    equal the same cell run alone; its ``tile_temperatures`` can differ
    from that run by ulps at some batch widths, because the dynamic-power
    product and the multi-column thermal solve round by batch shape
    (DESIGN.md §12).
    """
    return _guardband(flow, fabric, ambients, config, activity)
