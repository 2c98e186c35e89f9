"""Turning a reservation plan into concrete per-scenario routing.

For a given failure scenario the plan's live reservations form a square
matrix over the node pairs of interest: diagonals hold each pair's available
reservation, off-diagonals the sequence loads a pair must carry for others.
The matrix is weakly-chained diagonally dominant, hence invertible, and its
solution gives the fraction of each reservation actually used.  When active
sequences admit a topological order the same fractions emerge from purely
local proportional splitting.  Sequence conditions are read only for `cls`
plans: the other models reserve every sequence as always active.
"""

from __future__ import annotations

import graphlib
import heapq
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from .net import LogicalSequence, NetworkInstance, Scenario, Tunnel, sequence_active, tunnel_alive
from .robust import InternalModelError, LogicalFlowPlan, ReservationPlan

Pair = tuple[str, str]
Node = TypeVar("Node")

RESIDUAL_TOL = 1e-9
#: Entries and row surpluses within this of 0 count as 0 in the WCDD check.
WCDD_TOL = 1e-9
#: Arc flows at or below this are dropped when cycles are cancelled.
CYCLE_TOL = 1e-12
#: Reservations and segment loads at or below this carry no logical flow.
FLOW_TOL = 1e-9


class MatrixNotWcddError(RuntimeError):
    """The reservation matrix is not weakly-chained diagonally dominant,
    which signals an invalid plan for this scenario rather than a solver
    failure."""


class NotTopologicallySortedError(RuntimeError):
    """Active sequences ride on each other; `cycle` is one cycle, not necessarily the shortest."""

    def __init__(self, cycle: list[Pair]):
        super().__init__(f"active sequences contain the pair cycle {cycle}")
        self.cycle = cycle


@dataclass
class ReservationMatrix:
    pairs: list[Pair]
    matrix: np.ndarray
    demand: np.ndarray
    demand_by_dest: dict[str, np.ndarray]
    live_tunnels: dict[Pair, list[Tunnel]]
    active_sequences: dict[Pair, list[LogicalSequence]]


@dataclass
class ScenarioRouting:
    scenario: Scenario
    #: flow[(tunnel_id, destination)] = traffic toward that destination
    flow: dict[tuple[str, str], float]
    delivered: dict[Pair, float]
    utilization: dict[Pair, float]


def _live_structures(plan: ReservationPlan, instance: NetworkInstance, scenario: Scenario):
    topo = instance.topology
    live: dict[Pair, list[Tunnel]] = {}
    for t in instance.tunnels:
        if plan.tunnel_reservation.get(t.id, 0.0) <= 0.0:
            continue
        if tunnel_alive(topo, t, scenario):
            live.setdefault((t.src, t.dst), []).append(t)
    active: dict[Pair, list[LogicalSequence]] = {}
    for q in instance.logical_sequences:
        if plan.ls_reservation.get(q.id, 0.0) <= 0.0:
            continue
        if plan.model != "cls" or sequence_active(instance, q, scenario):
            active.setdefault((q.src, q.dst), []).append(q)
    return live, active


def _pairs_of_interest(plan: ReservationPlan, instance: NetworkInstance,
                       active: dict[Pair, list[LogicalSequence]]) -> list[Pair]:
    """Closure: a pair matters if it has positive scaled demand, or carries a
    positive active sequence for a pair that matters."""
    interest: set[Pair] = set()
    frontier = [pair for pair in plan.pair_scale
                if plan.scaled_demand(instance, pair) > 0]
    interest.update(frontier)
    while frontier:
        nxt = []
        for pair in frontier:
            for q in active.get(pair, []):
                for seg in q.segments:
                    if seg not in interest:
                        interest.add(seg)
                        nxt.append(seg)
        frontier = nxt
    return sorted(interest)


def build_reservation_matrix(plan: ReservationPlan, instance: NetworkInstance,
                             scenario: Scenario) -> ReservationMatrix:
    live, active = _live_structures(plan, instance, scenario)
    pairs = _pairs_of_interest(plan, instance, active)
    n = len(pairs)
    idx = {pair: i for i, pair in enumerate(pairs)}
    M = np.zeros((n, n))
    for i, pair in enumerate(pairs):
        M[i, i] = sum(plan.tunnel_reservation[t.id] for t in live.get(pair, []))
        M[i, i] += sum(plan.ls_reservation[q.id] for q in active.get(pair, []))
    for pair, qs in active.items():
        if pair not in idx:
            continue
        j = idx[pair]
        for q in qs:
            b = plan.ls_reservation[q.id]
            for seg in q.segments:
                if seg in idx:
                    M[idx[seg], j] -= b
    D = np.zeros(n)
    dests: dict[str, np.ndarray] = {}
    for pair in pairs:
        sd = plan.scaled_demand(instance, pair)
        if sd > 0:
            D[idx[pair]] = sd
            vec = dests.setdefault(pair[1], np.zeros(n))
            vec[idx[pair]] = sd
    return ReservationMatrix(pairs, M, D, dests, live, active)


def _check_wcdd(M: np.ndarray) -> None:
    n = M.shape[0]
    if n == 0:
        return
    if np.any(np.diag(M) < -WCDD_TOL):
        raise MatrixNotWcddError("negative diagonal entry")
    off = M - np.diag(np.diag(M))
    if np.any(off > WCDD_TOL):
        raise MatrixNotWcddError("positive off-diagonal entry")
    surplus = M.sum(axis=1)
    if np.any(surplus < -WCDD_TOL):
        raise MatrixNotWcddError("row with deficit reservation")
    # Every weakly dominant row must chain, via nonzero couplings, to a
    # strictly dominant one.
    coupled, reach = np.abs(off) > WCDD_TOL, surplus > WCDD_TOL
    while not reach.all():
        grown = reach | coupled[:, reach].any(axis=1)
        if grown.sum() == reach.sum():
            raise MatrixNotWcddError("weakly dominant rows do not chain to a strict one")
        reach = grown


def _solve_checked(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the checked WCDD system M U = rhs by LU with partial pivoting,
    for one demand vector or one per column; every solution lies in [0, 1]."""
    _check_wcdd(M)
    if M.shape[0] == 0:
        return np.zeros_like(rhs, dtype=float)
    try:
        U = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise MatrixNotWcddError("singular reservation matrix") from exc
    residual = np.abs(M @ U - rhs).max(axis=0)
    if np.any(residual > RESIDUAL_TOL * (1.0 + np.linalg.norm(rhs, axis=0))):
        raise MatrixNotWcddError(f"linear system residual {np.max(residual):.3e}")
    if np.any(U < -1e-7) or np.any(U > 1 + 1e-7):
        raise MatrixNotWcddError("utilization fraction escaped [0, 1]")
    return U


def solve_reservation_system(matrix: ReservationMatrix,
                             rhs: np.ndarray | None = None) -> dict[Pair, float]:
    """Utilization fraction of each pair's reservation; unique and in [0, 1].

    `rhs` defaults to the full demand vector; pass a per-destination or
    per-pair demand vector to apportion utilization.
    """
    U = _solve_checked(matrix.matrix, matrix.demand if rhs is None else rhs)
    return {pair: float(U[i]) for i, pair in enumerate(matrix.pairs)}


def _order_or_cycle(predecessors: dict[Node, set[Node]]) -> tuple[list[Node] | None,
                                                                  list[Node] | None]:
    """(order, None) with every node after its predecessors, or (None, a
    cycle) listing each node before a successor, its first node repeated at
    the end.  Sorted input keeps both deterministic."""
    graph = {v: sorted(us) for v, us in sorted(predecessors.items())}
    try:
        return list(graphlib.TopologicalSorter(graph).static_order()), None
    except graphlib.CycleError as exc:
        return None, exc.args[1]


def _cancel_cycles(arc_flow: dict[Pair, float]) -> dict[Pair, float]:
    """Remove directed cycles by subtracting the cycle's bottleneck flow."""
    flows = {a: f for a, f in arc_flow.items() if f > CYCLE_TOL}
    while True:
        into: dict[str, set[str]] = {}
        for (u, v) in flows:
            into.setdefault(v, set()).add(u)
        _, cycle = _order_or_cycle(into)
        if cycle is None:
            return flows
        arcs = list(zip(cycle, cycle[1:]))
        c = min(flows[a] for a in arcs)
        for a in arcs:
            flows[a] -= c
            if flows[a] <= CYCLE_TOL:
                del flows[a]


def extract_routing(plan: ReservationPlan, instance: NetworkInstance,
                    scenario: Scenario) -> ScenarioRouting:
    """Per-destination tunnel flows realizing the plan under one scenario."""
    matrix = build_reservation_matrix(plan, instance, scenario)
    dests = sorted(matrix.demand_by_dest)
    # Column 0 is the full demand, column 1 + d the demand toward dests[d].
    rhs = np.column_stack([matrix.demand] + [matrix.demand_by_dest[d] for d in dests])
    U = _solve_checked(matrix.matrix, rhs)
    util = {pair: float(U[i, 0]) for i, pair in enumerate(matrix.pairs)}
    flow: dict[tuple[str, str], float] = {}
    for col, dest in enumerate(dests, start=1):
        # Aggregate per-pair flow toward this destination, cancel cycles,
        # then prorate each pair's tunnels by the surviving share.
        pair_flow: dict[Pair, float] = {}
        reserved: dict[Pair, float] = {}
        for i, pair in enumerate(matrix.pairs):
            total_a = sum(plan.tunnel_reservation[t.id] for t in matrix.live_tunnels.get(pair, []))
            value = float(U[i, col]) * total_a
            if value > 1e-12:
                pair_flow[pair] = value
                reserved[pair] = total_a
        cleaned = _cancel_cycles(pair_flow)
        for pair, value in cleaned.items():
            for t in matrix.live_tunnels.get(pair, []):
                share = plan.tunnel_reservation[t.id] / reserved[pair]
                flow[(t.id, dest)] = flow.get((t.id, dest), 0.0) + value * share
    delivered = {pair: plan.scaled_demand(instance, pair) for pair in plan.pair_scale}
    return ScenarioRouting(scenario, flow, delivered, util)


def routing_node_balance(instance: NetworkInstance, routing: ScenarioRouting,
                         dest: str) -> dict[str, float]:
    """Net tunnel outflow minus inflow per node for one destination."""
    tunnels = {t.id: t for t in instance.tunnels}
    balance: dict[str, float] = {}
    for (tid, d), val in routing.flow.items():
        if d != dest:
            continue
        t = tunnels[tid]
        balance[t.src] = balance.get(t.src, 0.0) + val
        balance[t.dst] = balance.get(t.dst, 0.0) - val
    return balance


def check_topological_sort(sequences: list[LogicalSequence]
                           ) -> tuple[list[Pair] | None, list[Pair] | None]:
    """Order the pairs the sequences touch so every segment precedes the
    pairs whose sequences ride on it.

    Returns (order, None) when acyclic, else (None, a cycle): each pair in it
    is a segment of a sequence of the next, and the first pair is repeated
    at the end.  The cycle is one found, not necessarily the shortest.
    """
    segments: dict[Pair, set[Pair]] = {}
    for q in sequences:
        segments.setdefault((q.src, q.dst), set()).update(q.segments)
    return _order_or_cycle(segments)


def proportional_routing(plan: ReservationPlan, instance: NetworkInstance,
                         scenario: Scenario) -> ScenarioRouting:
    """Local proportional splitting, valid when the active sequences sort.

    Each pair splits its offered traffic (demand plus inbound sequence
    loads) across live tunnels and active sequences in proportion to their
    reservations; sequence shares become offered traffic on their segments.
    """
    matrix = build_reservation_matrix(plan, instance, scenario)
    live, active = matrix.live_tunnels, matrix.active_sequences
    order, cycle = check_topological_sort([q for qs in active.values() for q in qs])
    if cycle is not None:
        raise NotTopologicallySortedError(cycle)
    _check_wcdd(matrix.matrix)
    idx = {pair: i for i, pair in enumerate(matrix.pairs)}
    # Riders before their segments; pairs no sequence touches in any order.
    process = [p for p in reversed(order) if p in idx]
    process += sorted(idx.keys() - set(process))

    flow: dict[tuple[str, str], float] = {}
    util: dict[Pair, float] = {}
    # offered[pair][dest] accumulates traffic the pair must move toward dest.
    offered: dict[Pair, dict[str, float]] = {}
    for pair in matrix.pairs:
        sd = plan.scaled_demand(instance, pair)
        if sd > 0:
            offered[pair] = {pair[1]: sd}
    for pair in process:
        reserve = float(matrix.matrix[idx[pair], idx[pair]])
        by_dest = offered.get(pair, {})
        total_offer = sum(by_dest.values())
        if total_offer <= 1e-12:
            util[pair] = 0.0
            continue
        if reserve <= 1e-12:
            raise MatrixNotWcddError(f"pair {pair} offered traffic with no live reservation")
        util[pair] = total_offer / reserve
        for dest in sorted(by_dest):
            amount = by_dest[dest]
            if amount <= 1e-15:
                continue
            for t in live.get(pair, []):
                flow[(t.id, dest)] = flow.get((t.id, dest), 0.0) + \
                    amount * plan.tunnel_reservation[t.id] / reserve
            for q in active.get(pair, []):
                share = amount * plan.ls_reservation[q.id] / reserve
                for seg in q.segments:
                    seg_offer = offered.setdefault(seg, {})
                    seg_offer[dest] = seg_offer.get(dest, 0.0) + share
    delivered = {pair: plan.scaled_demand(instance, pair) for pair in plan.pair_scale}
    return ScenarioRouting(scenario, flow, delivered, util)


def widest_path_decompose(flow_plan: LogicalFlowPlan) -> list[LogicalSequence]:
    """One sequence per reserved logical flow: the hops of the widest
    (maximum bottleneck) path through the flow's segment loads.

    Ties prefer fewer hops, then the lexicographically smallest node
    sequence.  A reserved flow with no path violates flow balance.
    """
    out: list[LogicalSequence] = []
    for w in flow_plan.flows:
        b = flow_plan.reservation.get(w.id, 0.0)
        if b <= FLOW_TOL:
            continue
        arcs: dict[str, list[tuple[str, float]]] = {}
        for (i, j), p in flow_plan.loads_for(w.id).items():
            if p > FLOW_TOL:
                arcs.setdefault(i, []).append((j, p))
        s, t = w.pair
        # Lexicographic Dijkstra on (-bottleneck, hops, node sequence).
        start = (-float("inf"), 0, (s,))
        heap = [start]
        done: set[str] = set()
        best_path = None
        while heap:
            negb, hops, seq = heapq.heappop(heap)
            node = seq[-1]
            if node in done:
                continue
            done.add(node)
            if node == t:
                best_path = seq
                break
            for nxt, width in sorted(arcs.get(node, [])):
                if nxt in done or nxt in seq:
                    continue
                heapq.heappush(heap, (max(negb, -width), hops + 1, seq + (nxt,)))
        if best_path is None:
            raise InternalModelError(
                f"flow {w.id} reserves {b} but has no segment path {s}->{t}")
        out.append(LogicalSequence(f"ls::{w.id}", s, t, best_path, condition=w.condition))
    return out
