"""The placer's draw replay (``place.py::_Draws``) against numpy.

``_Draws`` rebuilds ``Generator.integers`` and ``Generator.random`` from
raw PCG64 words.  Every value must equal numpy's, draw for draw, and the
placer driven by it must give the placement numpy's own draws give.  A
numpy release that changes ``Generator``'s algorithms fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.layout import FabricLayout, TileType
from repro.cad import place as place_module
from repro.cad.criticality import criticality_weights
from repro.cad.pack import pack_netlist
from repro.cad.place import _Draws, place
from repro.netlists.generator import NetlistSpec, generate_netlist

SPANS = st.one_of(
    st.sampled_from([
        1, 2, 3, 5, 7, 11, 255, 1000, 3 * 2**30,
        2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32,
    ]),
    st.integers(2**31 - 64, 2**31 + 64),
    st.integers(1, 2**32),
)
"""Draw spans ``high - low``: 1 consumes no word, 3 * 2**30 rejects a
quarter of all half-words, 2**32 takes a half-word unscaled."""

DRAW = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("integers"), st.integers(-2**20, 2**20), SPANS),
)


def _twins(seed: int, shuffle_length: int):
    """Two generators in the same state after the same ``shuffle``, the
    way ``_initial_placement`` leaves the placer's generator."""
    gens = [np.random.default_rng(seed) for _ in range(2)]
    for gen in gens:
        gen.shuffle(list(range(shuffle_length)))
    return gens


class TestDrawReplay:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        shuffle_length=st.integers(0, 40),
        draws=st.lists(DRAW, max_size=60),
    )
    def test_equals_numpy_draw_for_draw(self, seed, shuffle_length, draws):
        gen, twin = _twins(seed, shuffle_length)
        replay = _Draws(twin)
        for draw in draws:
            if draw[0] == "random":
                assert replay.random() == gen.random()
            else:
                _, low, span = draw
                expected = int(gen.integers(low, low + span))
                assert replay.integers(low, low + span) == expected

    @pytest.mark.parametrize("shuffle_length", [0, 2])
    def test_buffered_half_word_is_used_first(self, shuffle_length):
        gen, twin = _twins(5, shuffle_length)
        assert twin.bit_generator.state["has_uint32"] == (shuffle_length == 2)
        replay = _Draws(twin)
        for high in (3, 7, 2**32, 10, 2, 3 * 2**30):
            assert replay.integers(0, high) == int(gen.integers(0, high))
            assert replay.random() == gen.random()

    def test_words_cross_block_boundaries(self):
        gen, twin = _twins(11, 3)
        replay = _Draws(twin)
        for i in range(3000):
            high = 3 * 2**30 if i % 3 else 17
            assert replay.integers(0, high) == int(gen.integers(0, high))
            if i % 5 == 0:
                assert replay.random() == gen.random()


class TestDrawReplayErrors:
    @pytest.mark.parametrize("low, high", [(0, 0), (5, 5), (3, 2), (0, -1)])
    def test_empty_range_raises(self, low, high):
        with pytest.raises(ValueError):
            np.random.default_rng(1).integers(low, high)
        with pytest.raises(ValueError, match="span"):
            _Draws(np.random.default_rng(1)).integers(low, high)

    @pytest.mark.parametrize("high", [2**32 + 1, 2**40])
    def test_span_beyond_32_bits_raises(self, high):
        with pytest.raises(ValueError, match="span"):
            _Draws(np.random.default_rng(1)).integers(0, high)

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_other_bit_generators_rejected(self, bit_generator):
        with pytest.raises(TypeError, match="PCG64"):
            _Draws(np.random.Generator(bit_generator(1)))


class _NumpyDraws:
    """The oracle: every draw forwarded to the real ``Generator``."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def integers(self, low: int, high: int) -> int:
        return int(self._rng.integers(low, high))

    def random(self) -> float:
        return self._rng.random()


DESIGNS = {
    "tiny": NetlistSpec(
        "tiny", n_luts=24, n_brams=1, n_dsps=1, depth=5, seed=42,
        base_activity=0.2,
    ),
    "mid": NetlistSpec("mid", n_luts=64, n_brams=2, n_dsps=1, depth=6, seed=9),
    "soft": NetlistSpec("soft", n_luts=40, depth=4, seed=3),
}


def _packed_and_layout(spec, arch):
    netlist = generate_netlist(spec)
    packed = pack_netlist(netlist, arch)
    counts = {t: 0 for t in TileType}
    for cluster in packed.clusters:
        counts[cluster.type] += 1
    layout = FabricLayout.for_netlist(
        arch, counts[TileType.CLB], counts[TileType.BRAM],
        counts[TileType.DSP], counts[TileType.IO],
    )
    return netlist, packed, layout


class TestPlacerAgainstNumpyOracle:
    """The placer's own call pattern (the ``shuffle`` half-word, swap
    draws of span 1, ``random`` between ``integers``) through both draw
    sources.  The goldens pin the order ``_propose`` draws in; this pins
    that ``_Draws`` answers that order as numpy does, on more designs and
    modes than the goldens record."""

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("mode", ["plain", "timing", "thermal"])
    def test_same_placement(self, arch, monkeypatch, design, seed, mode):
        netlist, packed, layout = _packed_and_layout(DESIGNS[design], arch)
        kwargs = {"seed": seed, "effort": 0.3}
        if mode == "timing":
            kwargs["net_weights"] = criticality_weights(netlist)
        elif mode == "thermal":
            kwargs["thermal_weight"] = 0.7
        fast = place(packed, layout, **kwargs)
        monkeypatch.setattr(place_module, "_Draws", _NumpyDraws)
        oracle = place(packed, layout, **kwargs)
        assert fast.location == oracle.location
        assert fast.occupants == oracle.occupants
