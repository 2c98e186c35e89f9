"""Network data model: topology, tunnels, logical sequences, conditions, scenarios.

All types are immutable after construction and safe to share across threads.
Links are undirected; tunnels and logical sequences are directed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

SCENARIO_GUARD = 1_000_000


class UnknownLinkError(KeyError):
    """Raised when an operation references a link id absent from the topology."""


class ScenarioBlowupError(RuntimeError):
    """The enumerated scenario set would exceed the tractability guard."""


@dataclass(frozen=True)
class Link:
    """An undirected link with a capacity and an optional failure probability."""

    id: str
    ends: tuple[str, str]
    capacity: float
    fail_prob: float | None = None


@dataclass(frozen=True)
class Topology:
    nodes: frozenset[str]
    links: tuple[Link, ...]

    def link(self, link_id: str) -> Link:
        try:
            return self._by_id[link_id]
        except KeyError:
            raise UnknownLinkError(link_id) from None

    @cached_property
    def _by_id(self) -> dict[str, Link]:
        return {ln.id: ln for ln in self.links}

    def has_link(self, link_id: str) -> bool:
        return link_id in self._by_id


@dataclass(frozen=True)
class Tunnel:
    """A directed path from src to dst, given as an ordered list of link ids."""

    id: str
    src: str
    dst: str
    path: tuple[str, ...]


@dataclass(frozen=True)
class LogicalSequence:
    """An ordered list of logical hops from src to dst.

    Consecutive hops form segments, which are node pairs and need not be
    physical links.  An attached condition id restricts the scenarios in
    which the sequence is active; None means always active.
    """

    id: str
    src: str
    dst: str
    hops: tuple[str, ...]
    condition: str | None = None

    @property
    def segments(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.hops[:-1], self.hops[1:]))


#: Condition semantics: active iff every link in alive_links survived and
#: every link in dead_links failed.  Empty condition means "always active".
@dataclass(frozen=True)
class Condition:
    id: str
    alive_links: frozenset[str] = frozenset()
    dead_links: frozenset[str] = frozenset()


@dataclass(frozen=True)
class FlowDemand:
    flow_id: str
    pair: tuple[str, str]
    demand: float
    loss_threshold: float | None = None
    beta: float | None = None


@dataclass(frozen=True)
class Scenario:
    """A set of simultaneously failed links, with an optional probability."""

    failed_links: frozenset[str]
    prob: float | None = None

    def key(self) -> tuple[int, tuple[str, ...]]:
        ids = tuple(sorted(self.failed_links))
        return (len(ids), ids)


EMPTY_SCENARIO = Scenario(frozenset())


@dataclass(frozen=True)
class NetworkInstance:
    """A topology plus the routing structures defined on it."""

    topology: Topology
    demands: tuple[FlowDemand, ...] = ()
    tunnels: tuple[Tunnel, ...] = ()
    logical_sequences: tuple[LogicalSequence, ...] = ()
    conditions: tuple[Condition, ...] = ()

    def tunnels_for(self, src: str, dst: str) -> list[Tunnel]:
        return [t for t in self.tunnels if t.src == src and t.dst == dst]

    def condition(self, cond_id: str) -> Condition:
        for c in self.conditions:
            if c.id == cond_id:
                return c
        raise KeyError(cond_id)

    def demand_for(self, src: str, dst: str) -> float:
        return sum(d.demand for d in self.demands if d.pair == (src, dst))

    def demand_pairs(self) -> list[tuple[str, str]]:
        seen: dict[tuple[str, str], None] = {}
        for d in self.demands:
            if d.demand > 0:
                seen.setdefault(d.pair, None)
        return list(seen)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    detail: str
    subject: str = ""


def make_topology(nodes, links) -> Topology:
    """Build a Topology from iterables of node ids and (id, u, v, cap[, p]) tuples."""
    built = []
    for spec in links:
        if isinstance(spec, Link):
            built.append(spec)
        else:
            lid, u, v, cap = spec[:4]
            p = spec[4] if len(spec) > 4 else None
            built.append(Link(id=lid, ends=(u, v), capacity=cap, fail_prob=p))
    return Topology(nodes=frozenset(nodes), links=tuple(built))


def validate_instance(instance: NetworkInstance) -> list[Diagnostic]:
    """Check every structural invariant; returns one diagnostic per violation."""
    out: list[Diagnostic] = []
    topo = instance.topology
    for code, kind, ids in (
            ("DUPLICATE_LINK_ID", "link", [ln.id for ln in topo.links]),
            ("DUPLICATE_TUNNEL_ID", "tunnel", [t.id for t in instance.tunnels]),
            ("DUPLICATE_FLOW_ID", "flow", [d.flow_id for d in instance.demands]),
            ("DUPLICATE_SEQUENCE_ID", "sequence", [q.id for q in instance.logical_sequences]),
            ("DUPLICATE_CONDITION_ID", "condition", [c.id for c in instance.conditions])):
        seen_ids: set[str] = set()
        for i in ids:
            if i in seen_ids:
                out.append(Diagnostic(code, f"{kind} id {i} repeats", i))
            seen_ids.add(i)
    for ln in topo.links:
        u, v = ln.ends
        if u == v:
            out.append(Diagnostic("SELF_LOOP", f"link {ln.id} joins {u} to itself", ln.id))
        for end in ln.ends:
            if end not in topo.nodes:
                out.append(Diagnostic("UNDECLARED_NODE", f"link {ln.id} endpoint {end} not a node", ln.id))
        if not math.isfinite(ln.capacity):
            out.append(Diagnostic("NONFINITE_CAPACITY", f"link {ln.id} capacity {ln.capacity}", ln.id))
        elif ln.capacity <= 0:
            out.append(Diagnostic("NONPOSITIVE_CAPACITY", f"link {ln.id} capacity {ln.capacity}", ln.id))
        if ln.fail_prob is not None and not (0 <= ln.fail_prob < 1):
            out.append(Diagnostic("BAD_FAIL_PROB", f"link {ln.id} fail_prob {ln.fail_prob}", ln.id))

    for t in instance.tunnels:
        missing = [e for e in t.path if not topo.has_link(e)]
        if missing:
            out.append(Diagnostic("UNKNOWN_LINK", f"tunnel {t.id} references {missing}", t.id))
            continue
        if len(set(t.path)) != len(t.path):
            out.append(Diagnostic("TUNNEL_REPEATED_LINK", f"tunnel {t.id} repeats a link", t.id))
        node_seq = _walk_path(topo, t.src, t.path)
        if node_seq is None or node_seq[-1] != t.dst:
            out.append(Diagnostic("TUNNEL_DISCONTIGUOUS", f"tunnel {t.id} path does not run {t.src}->{t.dst}", t.id))

    cond_ids = {c.id for c in instance.conditions}
    for c in instance.conditions:
        if c.alive_links & c.dead_links:
            out.append(Diagnostic("CONDITION_CONTRADICTION", f"condition {c.id} lists a link as both alive and dead", c.id))
        for e in c.alive_links | c.dead_links:
            if not topo.has_link(e):
                out.append(Diagnostic("UNKNOWN_LINK", f"condition {c.id} references {e}", c.id))

    for q in instance.logical_sequences:
        if len(q.hops) < 2 or q.hops[0] != q.src or q.hops[-1] != q.dst:
            out.append(Diagnostic("LS_BAD_HOPS", f"sequence {q.id} hops must run {q.src}->{q.dst}", q.id))
        if any(a == b for a, b in zip(q.hops[:-1], q.hops[1:])):
            out.append(Diagnostic("LS_REPEATED_HOP", f"sequence {q.id} has identical consecutive hops", q.id))
        if any(h not in topo.nodes for h in q.hops):
            out.append(Diagnostic("UNDECLARED_NODE", f"sequence {q.id} visits an unknown node", q.id))
        if q.condition is not None and q.condition not in cond_ids:
            out.append(Diagnostic("UNKNOWN_CONDITION", f"sequence {q.id} references {q.condition}", q.id))

    for d in instance.demands:
        if not math.isfinite(d.demand):
            out.append(Diagnostic("NONFINITE_DEMAND", f"flow {d.flow_id} demand {d.demand}", d.flow_id))
        elif d.demand < 0:
            out.append(Diagnostic("NEGATIVE_DEMAND", f"flow {d.flow_id} demand {d.demand}", d.flow_id))
        if d.loss_threshold is not None and not (0 <= d.loss_threshold <= 1):
            out.append(Diagnostic("BAD_THRESHOLD", f"flow {d.flow_id} threshold {d.loss_threshold}", d.flow_id))
        if d.beta is not None and not (0 <= d.beta <= 1):
            out.append(Diagnostic("BAD_BETA", f"flow {d.flow_id} beta {d.beta}", d.flow_id))
        for end in d.pair:
            if end not in topo.nodes:
                out.append(Diagnostic("UNDECLARED_NODE", f"flow {d.flow_id} endpoint {end} not a node", d.flow_id))
    return out


def _walk_path(topo: Topology, start: str, path: tuple[str, ...]) -> list[str] | None:
    """Orient an undirected link path starting at `start`; None if discontiguous."""
    seq = [start]
    cur = start
    for lid in path:
        u, v = topo.link(lid).ends
        if cur == u:
            cur = v
        elif cur == v:
            cur = u
        else:
            return None
        seq.append(cur)
    return seq


def tunnel_alive(topo: Topology, tunnel: Tunnel, scenario: Scenario) -> bool:
    """A tunnel survives a scenario iff none of its links failed."""
    for e in scenario.failed_links:
        if not topo.has_link(e):
            raise UnknownLinkError(e)
    for e in tunnel.path:
        if not topo.has_link(e):
            raise UnknownLinkError(e)
    return not (set(tunnel.path) & scenario.failed_links)


def condition_active(topo: Topology, cond: Condition, scenario: Scenario) -> bool:
    """Active iff all alive_links survived and all dead_links failed."""
    for e in cond.alive_links | cond.dead_links | scenario.failed_links:
        if not topo.has_link(e):
            raise UnknownLinkError(e)
    if cond.alive_links & scenario.failed_links:
        return False
    return cond.dead_links <= scenario.failed_links


def sequence_active(instance: NetworkInstance, q: LogicalSequence, scenario: Scenario) -> bool:
    if q.condition is None:
        return True
    return condition_active(instance.topology, instance.condition(q.condition), scenario)


def scenario_count(num_links: int, k: int) -> int:
    k = min(k, num_links)
    return sum(math.comb(num_links, i) for i in range(k + 1))


def enumerate_scenarios(topo: Topology, k: int) -> list[Scenario]:
    """All link subsets of size 0..k, ordered by size then link-id tuple.

    k larger than the link count is clamped, not an error.  More than
    SCENARIO_GUARD subsets raise ScenarioBlowupError before any is built.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    ids = sorted(ln.id for ln in topo.links)
    k = min(k, len(ids))
    count = scenario_count(len(ids), k)
    if count > SCENARIO_GUARD:
        raise ScenarioBlowupError(
            f"{count} scenarios for {len(ids)} links, k={k} exceeds guard {SCENARIO_GUARD}")
    out = []
    for size in range(k + 1):
        for combo in itertools.combinations(ids, size):
            out.append(Scenario(frozenset(combo)))
    return out
