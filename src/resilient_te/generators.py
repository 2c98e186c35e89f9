"""Instance generators: gravity-model demands, near-disjoint tunnel
selection, splitting links into independently failing halves, and seeded
random instances with optional (conditional) logical sequences."""

from __future__ import annotations

import heapq

import numpy as np

from .net import (
    EMPTY_SCENARIO,
    Condition,
    FlowDemand,
    Link,
    LogicalSequence,
    NetworkInstance,
    Topology,
    Tunnel,
)
from .oracle import solve_mcf

#: The failure-free utilization band that gravity demands are scaled into.
MLU_RANGE = (0.5, 0.7)


def _adjacency(topo: Topology) -> dict[str, list[tuple[str, str]]]:
    adj: dict[str, list[tuple[str, str]]] = {n: [] for n in topo.nodes}
    for ln in topo.links:
        u, v = ln.ends
        adj[u].append((v, ln.id))
        adj[v].append((u, ln.id))
    for n in adj:
        adj[n].sort()
    return adj


def is_connected(topo: Topology) -> bool:
    nodes = sorted(topo.nodes)
    if not nodes:
        return True
    adj = _adjacency(topo)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for nxt, _ in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(topo.nodes)


def generate_gravity_demands(topo: Topology, seed: int = 0) -> tuple[FlowDemand, ...]:
    """Demands proportional to the product of the two end nodes' degrees,
    scaled so the failure-free network sits at a target utilization.

    The most-congested-link utilization of the scaled matrix is the inverse
    of the optimal demand scale, so scaling demands by target/scale lands
    the baseline at a target drawn from `MLU_RANGE`.
    """
    if not is_connected(topo):
        raise ValueError("gravity demands require a connected topology")
    rng = np.random.default_rng(seed)
    weights = {n: 0.0 for n in topo.nodes}
    for ln in topo.links:
        u, v = ln.ends
        weights[u] += 1.0
        weights[v] += 1.0
    nodes = sorted(topo.nodes)
    raw = []
    for i, s in enumerate(nodes):
        for t in nodes:
            if s != t:
                raw.append(FlowDemand(f"g::{s}>{t}", (s, t), weights[s] * weights[t]))
    if not raw:  # fewer than two nodes: no pair to give a demand
        return ()
    probe = NetworkInstance(topology=topo, demands=tuple(raw))
    base = solve_mcf(probe, EMPTY_SCENARIO, "demand_scale")
    scale = next(iter(base.satisfied.values()))
    if scale <= 0:
        raise ValueError("gravity probe demands cannot be routed")
    target_mlu = float(rng.uniform(*MLU_RANGE))
    factor = scale * target_mlu
    return tuple(
        FlowDemand(d.flow_id, d.pair, d.demand * factor) for d in raw)


def shortest_path(topo: Topology, src: str, dst: str,
                  removed: set[str] = frozenset(),
                  overlap_penalty: dict[str, int] | None = None,
                  ) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """Deterministic shortest path by (penalty, hops, node sequence);
    returns (link ids, node sequence) or None."""
    adj = _adjacency(topo)
    penalty = overlap_penalty or {}
    heap = [(0, 0, (src,), ())]
    best: dict[str, tuple] = {}
    while heap:
        pen, hops, nodes, links = heapq.heappop(heap)
        cur = nodes[-1]
        key = (pen, hops, nodes)
        if cur in best and best[cur] <= key:
            continue
        best[cur] = key
        if cur == dst:
            return links, nodes
        for nxt, lid in adj[cur]:
            if lid in removed or nxt in nodes:
                continue
            heapq.heappush(heap, (pen + penalty.get(lid, 0), hops + 1,
                                  nodes + (nxt,), links + (lid,)))
    return None


def select_tunnels(topo: Topology, pair: tuple[str, str], count: int,
                   id_prefix: str | None = None) -> tuple[Tunnel, ...]:
    """Up to `count` tunnels, as link-disjoint as possible, shorter first.

    Iterative shortest paths on a residual graph with used links removed;
    once disjointness is exhausted, paths minimize overlap with links
    already used, then hops, then lexicographic node order.  Disconnected
    pairs yield an empty tuple; a negative `count` raises ValueError.
    """
    if count < 0:
        raise ValueError(f"tunnel count {count} is negative")
    src, dst = pair
    prefix = id_prefix if id_prefix is not None else f"tn::{src}>{dst}"
    used: set[str] = set()
    chosen: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    while len(chosen) < count:
        found = shortest_path(topo, src, dst, removed=used)
        if found is None:
            penalty = {lid: 1 for lid in used}
            found = shortest_path(topo, src, dst, overlap_penalty=penalty)
        if found is None or found[0] in [c[0] for c in chosen]:
            break
        chosen.append(found)
        used |= set(found[0])
    return tuple(
        Tunnel(f"{prefix}::{i}", src, dst, links) for i, (links, _) in enumerate(chosen))


def split_sublinks(instance: NetworkInstance) -> NetworkInstance:
    """Each link becomes two half-capacity sub-links failing independently.

    Tunnels referencing an original link are rewritten onto sub-link "a" by
    convention; failure probabilities carry over to both halves.
    """
    topo = instance.topology
    links = []
    for ln in topo.links:
        for suffix in ("a", "b"):
            links.append(Link(f"{ln.id}::{suffix}", ln.ends, ln.capacity / 2, ln.fail_prob))
    new_topo = Topology(nodes=topo.nodes, links=tuple(links))
    tunnels = tuple(
        Tunnel(t.id, t.src, t.dst, tuple(f"{lid}::a" for lid in t.path))
        for t in instance.tunnels)
    return NetworkInstance(
        topology=new_topo, demands=instance.demands, tunnels=tunnels,
        logical_sequences=instance.logical_sequences, conditions=instance.conditions)


def random_topology(rng: np.random.Generator, n_nodes: int, extra_links: int) -> Topology:
    """Connected topology: a random spanning tree plus extra edges, capacities U(0.5, 2)."""
    nodes = [f"v{i}" for i in range(n_nodes)]
    links = []
    existing = set()

    def add(u, v):
        key = (min(u, v), max(u, v))
        lid = f"{key[0]}-{key[1]}#{sum(1 for e in existing if e[:2] == key)}"
        existing.add(key + (lid,))
        cap = float(np.round(rng.uniform(0.5, 2.0), 3))
        links.append(Link(lid, (u, v), cap))

    order = list(rng.permutation(nodes))
    for i in range(1, len(order)):
        j = int(rng.integers(0, i))
        add(order[i], order[j])
    for _ in range(extra_links):
        u, v = rng.choice(nodes, size=2, replace=False)
        add(str(u), str(v))
    return Topology(nodes=frozenset(nodes), links=tuple(links))


def random_instance(seed: int, n_nodes: int = 6, extra_links: int = 4,
                    n_pairs: int = 2, tunnels_per_pair: int = 3,
                    with_sequences: bool = False) -> NetworkInstance:
    rng = np.random.default_rng(seed)
    topo = random_topology(rng, n_nodes, extra_links)
    nodes = sorted(topo.nodes)
    pairs = []
    while len(pairs) < n_pairs:
        s, t = rng.choice(nodes, size=2, replace=False)
        if (str(s), str(t)) not in pairs:
            pairs.append((str(s), str(t)))
    demands = tuple(
        FlowDemand(f"f{i}", pair, float(np.round(rng.uniform(0.3, 1.2), 3)))
        for i, pair in enumerate(pairs))
    tunnels = []
    for pair in pairs:
        tunnels.extend(select_tunnels(topo, pair, tunnels_per_pair))
    sequences = []
    conditions = []
    if with_sequences:
        for i, (s, t) in enumerate(pairs):
            mids = [n for n in nodes if n not in (s, t)]
            if not mids:
                continue
            v = str(rng.choice(mids))
            for seg in ((s, v), (v, t)):
                tunnels.extend(select_tunnels(topo, seg, 2, id_prefix=f"seg{i}::{seg[0]}>{seg[1]}"))
            sequences.append(LogicalSequence(f"q{i}", s, t, (s, v, t)))
    return NetworkInstance(
        topology=topo, demands=demands, tunnels=tuple(tunnels),
        logical_sequences=tuple(sequences), conditions=tuple(conditions))


def with_conditional_sequences(instance: NetworkInstance, seed: int) -> NetworkInstance:
    """Add one conditional sequence per demand pair (single random link dead),
    keeping the unconditional set intact."""
    rng = np.random.default_rng(seed)
    nodes = sorted(instance.topology.nodes)
    link_ids = sorted(ln.id for ln in instance.topology.links)
    sequences = list(instance.logical_sequences)
    conditions = list(instance.conditions)
    tunnels = list(instance.tunnels)
    for i, (s, t) in enumerate(instance.demand_pairs()):
        mids = [n for n in nodes if n not in (s, t)]
        if not mids:
            continue
        v = str(rng.choice(mids))
        dead = str(rng.choice(link_ids))
        cond = Condition(f"c{i}", dead_links=frozenset({dead}))
        conditions.append(cond)
        sequences.append(LogicalSequence(f"cq{i}", s, t, (s, v, t), condition=cond.id))
        for seg in ((s, v), (v, t)):
            tunnels.extend(select_tunnels(instance.topology, seg, 2,
                                          id_prefix=f"cseg{i}::{seg[0]}>{seg[1]}"))
    seen = {}
    unique = []
    for t in tunnels:
        key = (t.src, t.dst, t.path)
        if key not in seen:
            seen[key] = t
            unique.append(t)
    return NetworkInstance(
        topology=instance.topology, demands=instance.demands, tunnels=tuple(unique),
        logical_sequences=tuple(sequences), conditions=tuple(conditions))
