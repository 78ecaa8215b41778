"""The oracles the differential tests compare the library to.

The python greedy oracle: every greedy variant's rule runs as one
exhaustive scan (:class:`~repro.algorithms.greedy.ExhaustivePick`) on
the reference evaluator (:mod:`repro.core.reference`), which walks one
coverage entry at a time.  It shares neither the CELF queue, the
batched scans nor the array kernel with the library's greedy variants,
so agreement with it is evidence, not tautology.

The object coverage build (:func:`object_coverage`): one list of
incidences per node, appended while walking the flows, then
concatenated into CSR columns row by row.  It shares no code with
:class:`~repro.core.coverage.CoverageIndex`, which packs typed column
buffers with one stable sort.

The blind searches (:func:`reference_dijkstra`, :func:`reference_path`,
:class:`ReverseSweep`, :func:`reference_record`): the Dijkstra that
stops at its target, the first-tight-predecessor walk and the resumable
reverse Dijkstra that drew routes and filled the detour records before
those became one goal-directed search
(:mod:`repro.graphs.shortest_paths`).  They read the network through
its public methods only and share no code with the library's searches.
"""

import heapq
from array import array
from types import SimpleNamespace

import numpy as np

from repro.algorithms import algorithm_by_name
from repro.algorithms.greedy import ExhaustivePick, greedy, scalar_factors
from repro.core.reference import IncrementalEvaluator
from repro.errors import NodeNotFoundError, NoPathError
from repro.graphs import INFINITY


def reference_greedy(scenario, name, k):
    """``(sites, counters)`` of variant ``name``'s rule on the reference.

    ``counters`` holds the obs counters a greedy ``select`` reports:
    ``algorithm.iterations`` and ``gain.evaluations``.
    """
    evaluator = IncrementalEvaluator(scenario)
    pick = ExhaustivePick(
        evaluator,
        scenario.candidate_sites,
        scalar_factors(evaluator, algorithm_by_name(name).rule),
    )
    sites = greedy(pick, k)
    return sites, {"algorithm.iterations": len(sites), **pick.tallies()}


def reference_select(scenario, name, k):
    """The sites variant ``name`` must select, from the oracle."""
    return reference_greedy(scenario, name, k)[0]


def object_coverage(scenario):
    """The coverage index of ``scenario``, built one object per incidence.

    Walks each flow's ``detours_along`` in flow order, drops infinite
    detours, and appends ``(flow_index, detour, position)`` to the list
    of the step's node (nodes numbered by first incidence); the CSR
    columns are those lists concatenated row by row.  Returns a
    namespace with ``nodes``, ``by_node`` (node -> incidence tuples),
    ``by_flow`` (per flow, ``(node, detour)`` in path order), ``best``
    (per flow, the smallest detour) and ``columns`` (name -> array,
    named like :class:`~repro.core.kernel.PackedCoverage`'s fields).
    """
    calculator = scenario.detour_calculator
    by_node = {}
    by_flow = []
    for flow_index, flow in enumerate(scenario.flows):
        options = []
        for position, (node, detour) in enumerate(
            calculator.detours_along(flow)
        ):
            if detour == INFINITY:
                continue
            by_node.setdefault(node, []).append((flow_index, detour, position))
            options.append((node, detour))
        by_flow.append(options)
    rows = list(by_node.values())
    counts = np.array([len(row) for row in rows], dtype=np.int64)
    entries = [entry for row in rows for entry in row]
    columns = {
        "indptr": np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        "flow_index": np.array([e[0] for e in entries], dtype=np.int64),
        "detour": np.array([e[1] for e in entries], dtype=np.float64),
        "position": np.array([e[2] for e in entries], dtype=np.int64),
        "entry_row": np.repeat(np.arange(len(rows), dtype=np.int64), counts),
        "volume": np.array([f.volume for f in scenario.flows], dtype=np.float64),
        "attractiveness": np.array(
            [f.attractiveness for f in scenario.flows], dtype=np.float64
        ),
    }
    return SimpleNamespace(
        nodes=list(by_node),
        by_node=by_node,
        by_flow=by_flow,
        best=[
            min((detour for _, detour in options), default=INFINITY)
            for options in by_flow
        ],
        columns=columns,
    )


def _tolerance(dist):
    """Slack of the tight-edge test for a node at distance ``dist``."""
    return 1e-9 * max(1.0, dist)


def reference_dijkstra(network, source, *, target=None):
    """``{node: dist}`` in settle order, from a blind Dijkstra.

    With ``target``, the search stops once the target is settled and so
    is every node within the tight-edge tolerance of its distance.
    """
    if source not in network:
        raise NodeNotFoundError(source)
    distances = {}
    heap = [(0.0, 0, source)]
    counter = 0
    target_dist = None
    slack = 0.0
    while heap:
        dist, _, node = heapq.heappop(heap)
        if node in distances:
            continue
        if target_dist is not None and dist - target_dist > slack:
            break
        distances[node] = dist
        if node == target:
            target_dist, slack = dist, _tolerance(dist)
        for head, length in network.successors(node):
            if head in distances:
                continue
            counter += 1
            heapq.heappush(heap, (dist + length, counter, head))
    return distances


def tight_parent(network, distances, node):
    """The first predecessor of ``node``, in insertion order, settled
    before it over a tight edge; ``None`` when there is none."""
    dist = distances[node]
    slack = _tolerance(dist)
    for tail, length in network.predecessors(node):
        tail_dist = distances.get(tail)
        if tail_dist is None or abs(tail_dist + length - dist) > slack:
            continue
        if tail_dist < dist:
            return tail
        if tail_dist == dist and list(distances).index(tail) < list(
            distances
        ).index(node):
            return tail
    return None


def reference_path(network, source, target):
    """The path a stopped blind Dijkstra's tight parents give."""
    if target not in network:
        raise NodeNotFoundError(target)
    distances = reference_dijkstra(network, source, target=target)
    if target not in distances:
        raise NoPathError(source, target)
    path = [target]
    while path[-1] != source:
        parent = tight_parent(network, distances, path[-1])
        if parent is None:
            raise NoPathError(source, target)
        path.append(parent)
    path.reverse()
    return path


class ReverseSweep:
    """A reverse Dijkstra toward ``target`` that settles nodes on demand.

    ``distances[slot]`` is ``dist(v, target)`` for the node ``v`` at
    ``slot`` (its index in ``network.nodes()``) once ``settled[slot]``
    is set, and ``inf`` before.  Iterating resumes the search and yields
    each newly settled slot, nearest first; :meth:`settle` resumes it
    until one slot is settled.
    """

    def __init__(self, network, target):
        if target not in network:
            raise NodeNotFoundError(target)
        self.nodes = list(network.nodes())
        self.slots = {node: slot for slot, node in enumerate(self.nodes)}
        predecessors = [
            [(self.slots[tail], length) for tail, length in network.predecessors(node)]
            for node in self.nodes
        ]
        self.distances = array("d", [INFINITY]) * len(self.nodes)
        self.settled = bytearray(len(self.nodes))
        self._search = self._run(predecessors, self.slots[target])

    def _run(self, predecessors, target):
        heap = [(0.0, 0, target)]
        counter = 0
        while heap:
            dist, _, slot = heapq.heappop(heap)
            if self.settled[slot]:
                continue
            self.distances[slot] = dist
            self.settled[slot] = 1
            yield slot
            for tail, length in predecessors[slot]:
                if not self.settled[tail]:
                    counter += 1
                    heapq.heappush(heap, (dist + length, counter, tail))

    def __iter__(self):
        return self._search

    def settle(self, slot):
        """``distances[slot]``, resuming the search until it is settled."""
        if not self.settled[slot]:
            for settled in self._search:
                if settled == slot:
                    break
        return self.distances[slot]


def reference_record(network, destination, nodes):
    """``{v: dist(v, destination)}`` for ``nodes``, from one sweep settled
    node by node; ``inf`` for a node off the network or one that cannot
    reach the destination."""
    sweep = ReverseSweep(network, destination)
    return {
        node: sweep.settle(sweep.slots[node]) if node in sweep.slots else INFINITY
        for node in nodes
    }
