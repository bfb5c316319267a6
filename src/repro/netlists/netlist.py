"""Technology-mapped netlist representation.

A :class:`Netlist` is what the CAD flow consumes: a DAG of K-input LUTs,
flip-flops, BRAMs, DSP blocks and IO pads connected by single-driver nets.
Combinational cycles are disallowed (every feedback loop must pass through a
flip-flop or memory), which both the activity estimator and the STA rely
on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional


class BlockType(Enum):
    INPUT = "input"
    OUTPUT = "output"
    LUT = "lut"
    FF = "ff"
    BRAM = "bram"
    DSP = "dsp"


SEQUENTIAL_TYPES = frozenset({BlockType.FF, BlockType.BRAM, BlockType.INPUT})
"""Block types whose outputs start a new timing path (registered)."""


@dataclass
class Block:
    """One netlist primitive."""

    id: int
    type: BlockType
    name: str
    input_nets: List[int] = field(default_factory=list)
    output_nets: List[int] = field(default_factory=list)


@dataclass
class Net:
    """A single-driver net: ``driver`` block feeding ``sinks`` blocks."""

    id: int
    name: str
    driver: int
    sinks: List[int] = field(default_factory=list)


class Netlist:
    """A named collection of blocks and nets with integrity checking."""

    def __init__(self, name: str):
        self.name = name
        self.blocks: List[Block] = []
        self.nets: List[Net] = []

    # -- construction ----------------------------------------------------------

    def add_block(self, type_: BlockType, name: Optional[str] = None) -> Block:
        block = Block(len(self.blocks), type_, name or f"{type_.value}_{len(self.blocks)}")
        self.blocks.append(block)
        return block

    def add_net(self, driver: Block, name: Optional[str] = None) -> Net:
        net = Net(len(self.nets), name or f"net_{len(self.nets)}", driver.id)
        self.nets.append(net)
        driver.output_nets.append(net.id)
        return net

    def connect(self, net: Net, sink: Block) -> None:
        net.sinks.append(sink.id)
        sink.input_nets.append(net.id)

    # -- queries ----------------------------------------------------------------

    def blocks_of_type(self, type_: BlockType) -> List[Block]:
        return [b for b in self.blocks if b.type == type_]

    def count(self, type_: BlockType) -> int:
        return sum(1 for b in self.blocks if b.type == type_)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_nets(self) -> int:
        return len(self.nets)

    def stats(self) -> Dict[str, int]:
        """Resource counts, for reporting."""
        return {
            "luts": self.count(BlockType.LUT),
            "ffs": self.count(BlockType.FF),
            "brams": self.count(BlockType.BRAM),
            "dsps": self.count(BlockType.DSP),
            "inputs": self.count(BlockType.INPUT),
            "outputs": self.count(BlockType.OUTPUT),
            "nets": self.n_nets,
        }

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        """Raise ``ValueError`` on structural problems.

        Checks single-driver consistency, dangling references, and the
        absence of combinational cycles.
        """
        for net in self.nets:
            if not (0 <= net.driver < len(self.blocks)):
                raise ValueError(f"{self.name}: net {net.name} has bad driver id")
            if net.id not in self.blocks[net.driver].output_nets:
                raise ValueError(
                    f"{self.name}: net {net.name} not in its driver's outputs"
                )
            for sink in net.sinks:
                if not (0 <= sink < len(self.blocks)):
                    raise ValueError(f"{self.name}: net {net.name} has bad sink id")
        for block in self.blocks:
            if block.type == BlockType.FF and len(block.input_nets) != 1:
                raise ValueError(
                    f"{self.name}: FF {block.name} must have exactly 1 input, "
                    f"has {len(block.input_nets)}"
                )
            if block.type == BlockType.INPUT and block.input_nets:
                raise ValueError(f"{self.name}: input pad {block.name} has inputs")
        self.combinational_order()  # raises on combinational cycles

    def combinational_order(self) -> List[int]:
        """Topological order of blocks over *combinational* edges.

        Edges out of sequential blocks (FF/BRAM/input pads) are cut, so any
        remaining cycle is a genuine combinational loop and an error.
        """
        indegree = [0] * len(self.blocks)
        fanout: List[List[int]] = [[] for _ in self.blocks]
        for net in self.nets:
            driver = self.blocks[net.driver]
            if driver.type in SEQUENTIAL_TYPES:
                continue
            for sink in net.sinks:
                fanout[net.driver].append(sink)
                indegree[sink] += 1
        order = [b.id for b in self.blocks if indegree[b.id] == 0]
        head = 0
        while head < len(order):
            current = order[head]
            head += 1
            for sink in fanout[current]:
                indegree[sink] -= 1
                if indegree[sink] == 0:
                    order.append(sink)
        if len(order) != len(self.blocks):
            raise ValueError(f"{self.name}: combinational cycle detected")
        return order
