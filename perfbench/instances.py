"""Seeded instance generators for the benchmark workloads.

These are ports of the test suite's random builders (`random_instance`,
`with_conditional_sequences` and criterion 8's probabilistic generator),
built only on public `resilient_te` functions, so the benchmark does not
import from `tests/`.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from resilient_te.generators import select_tunnels
from resilient_te.io import instance_to_dict
from resilient_te.net import (
    Condition,
    FlowDemand,
    Link,
    LogicalSequence,
    NetworkInstance,
    Topology,
)
from resilient_te.prob import (
    ProbabilisticInstance,
    design_beta,
    enumerate_prob_scenarios,
    sample_link_probs,
)


def random_topology(rng: np.random.Generator, n_nodes: int, extra_links: int,
                    cap_range=(0.5, 2.0)) -> Topology:
    """Connected topology: a random spanning tree plus extra edges."""
    nodes = [f"v{i}" for i in range(n_nodes)]
    links = []
    existing = set()

    def add(u, v):
        key = (min(u, v), max(u, v))
        lid = f"{key[0]}-{key[1]}#{sum(1 for e in existing if e[:2] == key)}"
        existing.add(key + (lid,))
        cap = float(np.round(rng.uniform(*cap_range), 3))
        links.append(Link(lid, (u, v), cap))

    order = list(rng.permutation(nodes))
    for i in range(1, len(order)):
        add(order[i], order[int(rng.integers(0, i))])
    for _ in range(extra_links):
        u, v = rng.choice(nodes, size=2, replace=False)
        add(str(u), str(v))
    return Topology(nodes=frozenset(nodes), links=tuple(links))


def random_instance(seed: int, n_nodes: int, extra_links: int, n_pairs: int,
                    tunnels_per_pair: int, with_sequences: bool = False) -> NetworkInstance:
    """Random demands and near-disjoint tunnels; with `with_sequences`, one
    unconditional two-segment sequence per pair through a random midpoint."""
    rng = np.random.default_rng(seed)
    topo = random_topology(rng, n_nodes, extra_links)
    nodes = sorted(topo.nodes)
    pairs: list[tuple[str, str]] = []
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
    if with_sequences:
        for i, (s, t) in enumerate(pairs):
            mids = [n for n in nodes if n not in (s, t)]
            if not mids:
                continue
            v = str(rng.choice(mids))
            for seg in ((s, v), (v, t)):
                tunnels.extend(select_tunnels(topo, seg, 2, id_prefix=f"seg{i}::{seg[0]}>{seg[1]}"))
            sequences.append(LogicalSequence(f"q{i}", s, t, (s, v, t)))
    return NetworkInstance(topology=topo, demands=demands, tunnels=tuple(tunnels),
                           logical_sequences=tuple(sequences))


def with_conditional_sequences(instance: NetworkInstance, seed: int) -> NetworkInstance:
    """Add one conditional sequence per demand pair (one random link dead),
    keeping the unconditional set; duplicate tunnel paths are dropped."""
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
        cond = Condition(f"c{i}", dead_links=frozenset({str(rng.choice(link_ids))}))
        conditions.append(cond)
        sequences.append(LogicalSequence(f"cq{i}", s, t, (s, v, t), condition=cond.id))
        for seg in ((s, v), (v, t)):
            tunnels.extend(select_tunnels(instance.topology, seg, 2,
                                          id_prefix=f"cseg{i}::{seg[0]}>{seg[1]}"))
    unique = {}
    for t in tunnels:
        unique.setdefault((t.src, t.dst, t.path), t)
    return NetworkInstance(
        topology=instance.topology, demands=instance.demands, tunnels=tuple(unique.values()),
        logical_sequences=tuple(sequences), conditions=tuple(conditions))


def unconditional(instance: NetworkInstance) -> NetworkInstance:
    """The instance restricted to its unconditional sequences (the `ls` input)."""
    return NetworkInstance(
        topology=instance.topology, demands=instance.demands, tunnels=instance.tunnels,
        logical_sequences=tuple(q for q in instance.logical_sequences if q.condition is None))


def prob_instance(seed: int, top_scenarios: int = 12) -> ProbabilisticInstance | None:
    """Criterion 8's generator: Weibull link failure probabilities, the most
    probable scenarios, and beta from `design_beta`; None when no ladder
    target is reachable."""
    rng = np.random.default_rng(seed)
    inst = random_instance(seed + 900, n_nodes=4 + seed % 3, extra_links=2,
                           n_pairs=2 + seed % 2, tunnels_per_pair=2)
    topo = sample_link_probs(inst.topology, shape=1.0,
                             scale=float(rng.uniform(0.02, 0.08)), seed=seed)
    inst = NetworkInstance(topology=topo, demands=inst.demands, tunnels=inst.tunnels)
    scens = enumerate_prob_scenarios(topo, cutoff=1e-4)
    scens = sorted(scens, key=lambda sc: -(sc.prob or 0.0))[:top_scenarios]
    scens = sorted(scens, key=lambda sc: sc.key())
    beta = design_beta(ProbabilisticInstance(inst, scens, beta=0.0),
                       ladder=(0.5, 0.8, 0.9, 0.95))
    if beta <= 0:
        return None
    return ProbabilisticInstance(inst, scens, beta=beta)


def prob_instances(first_seed: int, count: int) -> list[ProbabilisticInstance]:
    """The first `count` usable instances from generator seeds
    first_seed, first_seed + 1, ... (criterion 8 starts at seed 1)."""
    out = []
    seed = first_seed
    while len(out) < count:
        if seed >= first_seed + 40 * count:
            raise RuntimeError(f"fewer than {count} usable probabilistic instances")
        pinst = prob_instance(seed)
        if pinst is not None:
            out.append(pinst)
        seed += 1
    return out


def fingerprint(instance: NetworkInstance, scenarios=None) -> str:
    """sha256 of the instance's canonical `io.instance_to_dict` JSON."""
    text = json.dumps(instance_to_dict(instance, scenarios), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
