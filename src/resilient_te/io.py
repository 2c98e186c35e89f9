"""Single-document JSON format for instances.

The schema is versioned; every cross-reference (link ids in tunnel paths,
condition ids on sequences) must resolve, which `net.validate_instance`
checks after parsing.
"""

from __future__ import annotations

import json
from typing import Any

from .net import (
    Condition,
    FlowDemand,
    Link,
    LogicalSequence,
    NetworkInstance,
    Scenario,
    Topology,
    Tunnel,
)

SCHEMA_VERSION = 1


def instance_to_dict(instance: NetworkInstance,
                     scenarios: list[Scenario] | None = None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "version": SCHEMA_VERSION,
        "topology": {
            "nodes": sorted(instance.topology.nodes),
            "links": [
                {
                    "id": ln.id,
                    "ends": list(ln.ends),
                    "capacity": ln.capacity,
                    **({"fail_prob": ln.fail_prob} if ln.fail_prob is not None else {}),
                }
                for ln in instance.topology.links
            ],
        },
        "demands": [
            {
                "flow_id": d.flow_id,
                "src": d.pair[0],
                "dst": d.pair[1],
                "demand": d.demand,
                **({"loss_threshold": d.loss_threshold} if d.loss_threshold is not None else {}),
                **({"beta": d.beta} if d.beta is not None else {}),
            }
            for d in instance.demands
        ],
        "tunnels": [
            {"id": t.id, "src": t.src, "dst": t.dst, "path": list(t.path)}
            for t in instance.tunnels
        ],
        "logical_sequences": [
            {
                "id": q.id,
                "src": q.src,
                "dst": q.dst,
                "hops": list(q.hops),
                **({"condition": q.condition} if q.condition is not None else {}),
            }
            for q in instance.logical_sequences
        ],
        "conditions": [
            {
                "id": c.id,
                "alive_links": sorted(c.alive_links),
                "dead_links": sorted(c.dead_links),
            }
            for c in instance.conditions
        ],
    }
    if scenarios is not None:
        doc["scenarios"] = [
            {
                "failed_links": sorted(sc.failed_links),
                **({"prob": sc.prob} if sc.prob is not None else {}),
            }
            for sc in scenarios
        ]
    return doc


def instance_from_dict(doc: dict[str, Any]) -> tuple[NetworkInstance, list[Scenario]]:
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version!r}")
    topo_doc = doc["topology"]
    links = tuple(
        Link(
            id=ld["id"],
            ends=(ld["ends"][0], ld["ends"][1]),
            capacity=float(ld["capacity"]),
            fail_prob=float(ld["fail_prob"]) if "fail_prob" in ld else None,
        )
        for ld in topo_doc["links"]
    )
    topo = Topology(nodes=frozenset(topo_doc["nodes"]), links=links)
    demands = tuple(
        FlowDemand(
            flow_id=dd["flow_id"],
            pair=(dd["src"], dd["dst"]),
            demand=float(dd["demand"]),
            loss_threshold=float(dd["loss_threshold"]) if "loss_threshold" in dd else None,
            beta=float(dd["beta"]) if "beta" in dd else None,
        )
        for dd in doc.get("demands", [])
    )
    tunnels = tuple(
        Tunnel(td["id"], td["src"], td["dst"], tuple(td["path"]))
        for td in doc.get("tunnels", [])
    )
    sequences = tuple(
        LogicalSequence(qd["id"], qd["src"], qd["dst"], tuple(qd["hops"]),
                        condition=qd.get("condition"))
        for qd in doc.get("logical_sequences", [])
    )
    conditions = tuple(
        Condition(cd["id"], frozenset(cd.get("alive_links", [])),
                  frozenset(cd.get("dead_links", [])))
        for cd in doc.get("conditions", [])
    )
    scenarios = [
        Scenario(frozenset(sd["failed_links"]),
                 prob=float(sd["prob"]) if "prob" in sd else None)
        for sd in doc.get("scenarios", [])
    ]
    instance = NetworkInstance(topology=topo, demands=demands, tunnels=tunnels,
                               logical_sequences=sequences, conditions=conditions)
    return instance, scenarios


def dump_instance(instance: NetworkInstance, path: str,
                  scenarios: list[Scenario] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance, scenarios), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path: str) -> tuple[NetworkInstance, list[Scenario]]:
    with open(path, encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))
