"""Architectural parameters (paper Table I).

The defaults reproduce the COFFE configuration the paper uses: a
commercial-like (Stratix/Arria-class) island-style fabric with K = 6 LUTs,
N = 10 BLEs per cluster, 320 routing tracks of length-4 segments, and the
mux sizes of Table I.

Two channel widths appear in the library: the *architectural* width
(``channel_tracks``, used for characterization, area and power density) and
the *routed* width (``routed_channel_tracks``), a scaled-down value used by
the pure-Python router so benchmark flows complete quickly.  See DESIGN.md
("Scale note").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple


@dataclass(frozen=True)
class ArchParams:
    """Island-style FPGA architecture description."""

    lut_size: int = 6
    """K: number of LUT inputs."""
    cluster_size: int = 10
    """N: BLEs (LUT + FF pairs) per logic cluster."""
    channel_tracks: int = 320
    """Architectural routing tracks per channel (Table I)."""
    wire_segment_length: int = 4
    """Tiles spanned by one routing wire segment."""
    cluster_inputs: int = 40
    """Global inputs per cluster (I)."""
    sb_mux_size: int = 12
    """Inputs of a switch-block mux."""
    cb_mux_size: int = 64
    """Inputs of a connection-block mux."""
    local_mux_size: int = 25
    """Inputs of a cluster-local input mux."""
    feedback_mux_size: int = 20
    """Inputs of the local feedback mux selecting BLE outputs."""
    output_mux_size: int = 2
    """Inputs of the BLE output mux."""
    vdd: float = 0.8
    """Core supply voltage, volts."""
    vdd_low_power: float = 0.95
    """BRAM core supply voltage, volts."""
    bram_rows: int = 1024
    bram_width_bits: int = 32
    """BRAM geometry: 1024 x 32 bit (Table I)."""

    routed_channel_tracks: int = 40
    """Channel width used by the (scaled) Python router; see DESIGN.md."""
    fc_in: float = 0.2
    """Fraction of routed tracks a block input pin connects to."""
    fc_out: float = 0.15
    """Fraction of routed tracks a block output pin connects to."""

    bram_column_period: int = 6
    """A BRAM column every this many columns (0 disables BRAM columns)."""
    dsp_column_period: int = 8
    """A DSP column every this many columns (0 disables DSP columns)."""
    bram_tile_height: int = 2
    """CLB rows spanned by one BRAM block."""
    dsp_tile_height: int = 2
    """CLB rows spanned by one DSP block."""

    # Tile geometry for the thermal model.  The soft-fabric tile area comes
    # from the characterization flow (paper: ~1196 um^2); hard blocks follow
    # Table II areas.
    tile_pitch_um: float = 35.0
    """Linear pitch of one CLB tile, micrometres."""

    def __post_init__(self) -> None:
        if self.lut_size < 2:
            raise ValueError(f"lut_size must be >= 2, got {self.lut_size}")
        if self.cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {self.cluster_size}")
        if self.channel_tracks < 2 or self.routed_channel_tracks < 2:
            raise ValueError("channel widths must be >= 2")
        if self.wire_segment_length < 1:
            raise ValueError("wire_segment_length must be >= 1")
        if not (0.0 < self.fc_in <= 1.0 and 0.0 < self.fc_out <= 1.0):
            raise ValueError("fc_in / fc_out must be in (0, 1]")
        for name in ("sb_mux_size", "cb_mux_size", "local_mux_size",
                     "feedback_mux_size", "output_mux_size"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2")

    def with_changes(self, **changes: object) -> "ArchParams":
        """Return a copy with some parameters replaced."""
        return replace(self, **changes)

    def table1_rows(self) -> Tuple[Tuple[str, str], ...]:
        """Rows of the paper's Table I for reporting."""
        return (
            ("K", str(self.lut_size)),
            ("N", str(self.cluster_size)),
            ("Channel tracks", str(self.channel_tracks)),
            ("Wire segment length", str(self.wire_segment_length)),
            ("Cluster global inputs", str(self.cluster_inputs)),
            ("SBmux", str(self.sb_mux_size)),
            ("CBmux", str(self.cb_mux_size)),
            ("localmux", str(self.local_mux_size)),
            ("Vdd, Vlow power", f"{self.vdd}V, {self.vdd_low_power}V"),
            ("BRAM", f"{self.bram_rows} x {self.bram_width_bits} bit"),
        )
