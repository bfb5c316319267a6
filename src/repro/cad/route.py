"""PathFinder negotiated-congestion routing.

Classic Ebeling/McMurchie PathFinder on the RR graph of
:mod:`repro.arch.rrgraph`: every net is maze-routed (Dijkstra expansion
seeded from the net's growing route tree) with a node cost of

``cost(n) = (base + history(n)) * present(n)``

where ``present`` penalizes current over-subscription and ``history``
accumulates persistent congestion.  Iterate rip-up-and-reroute with an
escalating present factor until no node is over capacity.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro import observe
from repro.arch.rrgraph import RRGraph, RRNodeType
from repro.cad.pack import PackedNetlist
from repro.cad.place import Placement

PRES_FAC_FIRST = 0.6
PRES_FAC_MULT = 1.5
HIST_FAC = 0.4
MAX_ITERATIONS = 40
BBOX_MARGIN = 4
MAX_SPAN = 4.0
"""The longest wire in tiles: the A* heuristic divides the Manhattan tile
distance by it."""
_INF = float("inf")


class RoutingError(RuntimeError):
    """Raised when the router cannot find a legal solution."""


@dataclass
class NetRoute:
    """Routing of one netlist net."""

    net_id: int
    source_node: int
    sink_paths: Dict[int, List[int]]
    """sink tile-key node -> node path from a tree node to that sink."""

    def all_nodes(self) -> Set[int]:
        nodes: Set[int] = {self.source_node}
        for path in self.sink_paths.values():
            nodes.update(path)
        return nodes


@dataclass
class RoutingResult:
    """All net routes plus convergence metadata."""

    graph: RRGraph
    routes: Dict[int, NetRoute]
    iterations: int
    overused_nodes: int

    def total_wire_nodes(self) -> int:
        """Wire (CHANX/CHANY) nodes summed over every net's route."""
        is_wire = np.isin(
            self.graph.node_type, (RRNodeType.CHANX, RRNodeType.CHANY)
        )
        return sum(
            int(np.count_nonzero(is_wire[list(route.all_nodes())]))
            for route in self.routes.values()
        )


def route(
    packed: PackedNetlist,
    placement: Placement,
    graph: RRGraph,
    max_iterations: int = MAX_ITERATIONS,
) -> RoutingResult:
    """Route every multi-tile net of the packed design.

    The node costs live in one table, ``cost[v]`` = :func:`_node_cost`
    of ``v``, kept current the way PathFinder keeps them: a node's entry
    is refreshed when a net is ripped up from it or added to it, and at
    each iteration boundary only the nodes with ``occupancy >=
    capacity`` are refreshed, the only ones whose history or present
    term moved.  SOURCE/SINK pin nodes hold ``inf`` in the table, so the
    search never passes through another tile's pins; each target's real
    cost is computed when its net is routed.  One distance list serves
    every search of the call; ``_route_net`` leaves it all ``inf``.
    Each search reads its A* heuristic and its net's bounding box from
    one list per search, indexed by flat tile (:func:`_route_net`).

    Each PathFinder iteration is one ``route.iteration`` span carrying
    its ``iteration`` number and the ``overused`` node count it ended on.
    The call's exact work is published once, when it returns or gives up
    on congestion, as the counters of :data:`WORK_COUNTERS`.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    nets = _routable_nets(packed, placement, graph)
    n_nodes = graph.n_nodes
    occupancy = [0] * n_nodes
    history = [0.0] * n_nodes
    capacity = graph.capacity.tolist()
    flat = _FlatGraph(graph)
    terminal = flat.terminal
    routes: Dict[int, NetRoute] = {}
    pres_fac = PRES_FAC_FIRST
    overuse_trend: List[int] = []
    cost = [
        _INF if terminal[v]
        else _node_cost(v, occupancy, history, capacity, pres_fac)
        for v in range(n_nodes)
    ]
    dist = [_INF] * n_nodes  # _route_net's scratch, all inf between nets
    heap_pops = heap_pushes = edge_relaxations = 0

    def refresh(nodes) -> None:
        for v in nodes:
            if not terminal[v]:
                cost[v] = _node_cost(v, occupancy, history, capacity, pres_fac)

    for iteration in range(1, max_iterations + 1):
        with observe.span("route.iteration", iteration=iteration) as span:
            for net_id, source, sinks, bbox in nets:
                ripped = routes.get(net_id)
                if ripped is not None:
                    nodes = ripped.all_nodes()
                    for node_id in nodes:
                        occupancy[node_id] -= 1
                    refresh(nodes)
                sink_costs = [
                    _node_cost(v, occupancy, history, capacity, pres_fac)
                    for v in sinks
                ]
                net_route, pops, pushes, relaxations = _route_net(
                    flat, source, sinks, sink_costs, bbox, cost, dist, net_id
                )
                heap_pops += pops
                heap_pushes += pushes
                edge_relaxations += relaxations
                routes[net_id] = net_route
                nodes = net_route.all_nodes()
                for node_id in nodes:
                    occupancy[node_id] += 1
                refresh(nodes)

            at_capacity = [
                i for i in range(n_nodes) if occupancy[i] >= capacity[i]
            ]
            overused = [i for i in at_capacity if occupancy[i] > capacity[i]]
            span.set_attrs(overused=len(overused))
        if not overused:
            _publish_work(
                len(nets), iteration, heap_pops, heap_pushes, edge_relaxations
            )
            return RoutingResult(graph, routes, iteration, 0)
        overuse_trend.append(len(overused))
        # Bail early on hopeless congestion so the flow can retry with a
        # wider channel instead of burning all iterations here.
        if iteration >= 12 and min(overuse_trend[-4:]) >= overuse_trend[-8]:
            reason = "stall bail: overuse stopped falling"
            break
        for i in overused:
            history[i] += HIST_FAC * (occupancy[i] - capacity[i])
        pres_fac *= PRES_FAC_MULT
        # Only a node with occupancy >= capacity pays a present term
        # (and only an overused one gained history): the rest cost the
        # same under the new factor.
        refresh(at_capacity)
    else:
        reason = "iteration cap"

    _publish_work(
        len(nets), iteration, heap_pops, heap_pushes, edge_relaxations
    )
    raise RoutingError(
        f"routing did not converge: stopped at iteration {iteration} of "
        f"{max_iterations} ({reason}) with {len(overused)} overused nodes; "
        f"increase the channel width (arch.routed_channel_tracks)"
    )


WORK_COUNTERS = (
    "route.net_routes", "route.heap_pops", "route.heap_pushes",
    "route.edge_relaxations", "route.iterations",
)
"""Exact work of one :func:`route` call: nets routed (every net once per
iteration), heap entries popped (stale ones too), heap entries made
(each search's seed entries and every push), out-edges of the nodes
those pops expanded (bounding-box rejects too) and PathFinder
iterations."""


def _publish_work(
    n_nets: int, iterations: int, heap_pops: int, heap_pushes: int,
    edge_relaxations: int,
) -> None:
    for name, value in zip(WORK_COUNTERS, (
        n_nets * iterations, heap_pops, heap_pushes, edge_relaxations,
        iterations,
    )):
        observe.counter(name).inc(value)


class _FlatGraph:
    """Per-node plain lists of an :class:`RRGraph` for the maze router:
    ``tile``, the flat index ``y * width + x`` of the node's tile,
    ``terminal`` (a SOURCE or SINK pin node) and the successor ids
    ``succ`` in edge order, plus the die's ``width`` and ``height`` in
    tiles.

    Built once per :func:`route` call from the graph's arrays and never
    stored on the graph: ``RRGraph`` is pickled inside every
    ``FlowResult``, and these lists are cheap to derive again.
    """

    __slots__ = ("tile", "terminal", "succ", "width", "height")

    def __init__(self, graph: RRGraph) -> None:
        self.width = int(graph.x.max()) + 1
        self.height = int(graph.y.max()) + 1
        self.tile = (
            graph.y.astype(np.int64) * self.width + graph.x
        ).tolist()
        self.terminal = np.isin(
            graph.node_type, (RRNodeType.SOURCE, RRNodeType.SINK)
        ).tolist()
        dst = graph.edge_dst.tolist()
        offsets = graph.edge_offsets.tolist()
        self.succ = [dst[lo:hi] for lo, hi in zip(offsets, offsets[1:])]

    def heuristic_row(
        self, bbox: Tuple[int, int, int, int], tx: int, ty: int
    ) -> List[float]:
        """The A* heuristic of a search for the tile ``(tx, ty)``, per
        flat tile: ``(abs(x - tx) + abs(y - ty)) / MAX_SPAN`` on every
        tile of ``bbox`` and ``inf`` on every other tile."""
        x_lo, y_lo, x_hi, y_hi = bbox
        width = self.width
        row = [_INF] * (width * self.height)
        dxs = [abs(x - tx) for x in range(x_lo, x_hi + 1)]
        for y in range(y_lo, y_hi + 1):
            dy = abs(y - ty)
            base = y * width
            row[base + x_lo:base + x_hi + 1] = [
                (dx + dy) / MAX_SPAN for dx in dxs
            ]
        return row


def _routable_nets(
    packed: PackedNetlist, placement: Placement, graph: RRGraph
) -> List[Tuple[int, int, List[int], Tuple[int, int, int, int]]]:
    """(net id, source node, sink nodes, bbox) for every multi-tile net,
    highest fanout first."""
    out = []
    for net in packed.netlist.nets:
        driver_cluster = packed.cluster_of_block[net.driver]
        src_xy = placement.location[driver_cluster]
        sink_tiles: Set[Tuple[int, int]] = set()
        for sink in net.sinks:
            xy = placement.location[packed.cluster_of_block[sink]]
            if xy != src_xy:
                sink_tiles.add(xy)
        if not sink_tiles:
            continue
        source = graph.source_of[src_xy]
        sinks = [graph.sink_of[xy] for xy in sorted(sink_tiles)]
        xs = [src_xy[0]] + [xy[0] for xy in sink_tiles]
        ys = [src_xy[1]] + [xy[1] for xy in sink_tiles]
        bbox = (
            max(0, min(xs) - BBOX_MARGIN),
            max(0, min(ys) - BBOX_MARGIN),
            min(placement.layout.width - 1, max(xs) + BBOX_MARGIN),
            min(placement.layout.height - 1, max(ys) + BBOX_MARGIN),
        )
        out.append((net.id, source, sinks, bbox))
    out.sort(key=lambda item: (-len(item[2]), item[0]))
    return out


def _node_cost(
    node_id: int,
    occupancy: Sequence[int],
    history: Sequence[float],
    capacity: Sequence[int],
    pres_fac: float,
) -> float:
    over = occupancy[node_id] + 1 - capacity[node_id]
    present = 1.0 + max(0, over) * pres_fac
    return (1.0 + history[node_id]) * present


def _route_net(
    flat: _FlatGraph,
    source: int,
    sinks: List[int],
    sink_costs: List[float],
    bbox: Tuple[int, int, int, int],
    cost: List[float],
    dist: List[float],
    net_id: int,
) -> Tuple[NetRoute, int, int, int]:
    """Route one net: A* expansion from the growing route tree to each sink.

    The heuristic is the Manhattan tile distance divided by the maximum
    wire span, :data:`MAX_SPAN` — a lower bound on the number of RR nodes
    still to traverse (each costs at least the base cost of 1), so the
    expansion stays optimal while exploring far fewer nodes than plain
    Dijkstra.

    ``cost`` is :func:`route`'s node-cost table, with ``inf`` on every
    SOURCE/SINK pin node; ``sink_costs[i]`` is the real cost of
    ``sinks[i]``, written into the table for that sink's own search and
    replaced by ``inf`` after it.  ``d + inf`` never beats a tentative
    distance, so the other pins are pruned exactly as a terminal test
    would prune them.  ``dist`` is a per-node distance list, all ``inf``
    on entry and again when the net is routed, so a node no search has
    reached reads ``inf``.

    Each sink's search reads the heuristic and the bounding box from one
    list, :meth:`_FlatGraph.heuristic_row`: ``h[tile[v]]`` is ``v``'s
    heuristic when its tile lies in ``bbox`` and ``inf`` when it does
    not, so a node outside the box gets ``f = inf`` and is never pushed.
    That rejects exactly the nodes a per-edge box test would: a node
    outside the box never holds a finite ``dist`` (nothing sets one, and
    the route tree lies inside the box), so ``nd < dist[v]`` passes for
    it and the row is read only after that test.  Heap entries are
    ``(f, node)``: ``h`` depends only on the node, so ties break on
    ``(f, node)`` as they did when the entry carried ``h`` too, and the
    stale-entry test reads ``h`` from the row.

    Returns the route with the net's heap pops, heap entries and edge
    relaxations (see :data:`WORK_COUNTERS`).  Pops are counted per pop;
    a search's entries are its pops plus what is left on its heap, so
    counting them costs nothing per push.
    """
    tree_nodes: Set[int] = {source}
    sink_paths: Dict[int, List[int]] = {}
    tile, succ = flat.tile, flat.succ
    heappush, heappop = heapq.heappush, heapq.heappop
    pops = pushes = relaxations = 0

    for target, target_cost in zip(sinks, sink_costs):
        ty, tx = divmod(tile[target], flat.width)
        h = flat.heuristic_row(bbox, tx, ty)
        for n in tree_nodes:
            dist[n] = 0.0
        prev: Dict[int, int] = {}
        heap = [(h[tile[n]], n) for n in tree_nodes]
        heapq.heapify(heap)
        cost[target] = target_cost
        found = False
        while heap:
            f, u = heappop(heap)
            pops += 1
            d = dist[u]
            if f > d + h[tile[u]] + 1e-12:
                continue
            if u == target:
                found = True
                break
            successors = succ[u]
            relaxations += len(successors)
            for v in successors:
                nd = d + cost[v]
                if nd < dist[v]:
                    fv = nd + h[tile[v]]
                    if fv < _INF:
                        dist[v] = nd
                        prev[v] = u
                        heappush(heap, (fv, v))
        pushes += len(heap)
        cost[target] = _INF
        for n in prev:
            dist[n] = _INF
        if not found:
            raise RoutingError(
                f"net {net_id}: no path from route tree to sink node {target}"
            )
        path = [target]
        while path[-1] not in tree_nodes:
            path.append(prev[path[-1]])
        path.reverse()
        tree_nodes.update(path)
        sink_paths[target] = path
    for n in tree_nodes:
        dist[n] = _INF
    return NetRoute(net_id, source, sink_paths), pops, pops + pushes, relaxations
