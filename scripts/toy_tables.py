#!/usr/bin/env python3
"""Print the desk-scale comparison tables: each bundled fixture solved under
every applicable model, in both quantifier modes, normalized to the
enumerated per-scenario optimum."""

import argparse
import sys
from pathlib import Path

# Run from a checkout without an install: the checkout's own package first.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from resilient_te.fixtures import (
    four_tunnel_example,
    hint_example,
    parallel_example,
)
from resilient_te.net import LogicalSequence, NetworkInstance, Tunnel
from resilient_te.oracle import generalized_family, worst_case_optimal
from resilient_te.robust import solve_robust


def generalized_ls_variant(gf):
    links_by_seg = {}
    for ln in gf.topology.links:
        links_by_seg.setdefault(int(ln.id.split("_")[0][1:]), []).append(ln.id)
    tunnels = tuple(
        Tunnel(f"u{lid}", f"s{seg}", f"s{seg + 1}", (lid,))
        for seg, lids in sorted(links_by_seg.items()) for lid in sorted(lids))
    hops = tuple(f"s{i}" for i in range(len(links_by_seg) + 1))
    return NetworkInstance(
        topology=gf.topology, demands=gf.demands, tunnels=tunnels,
        logical_sequences=(LogicalSequence("Q", hops[0], hops[-1], hops),))


ROWS = [
    ("four-tunnel", four_tunnel_example(), "throughput", 1,
     [("ffc", None), ("ffc_plus", None)]),
    ("four-tunnel", four_tunnel_example(), "throughput", 2,
     [("ffc", None), ("ffc_plus", None)]),
    ("parallel", parallel_example("tunnels"), "demand_scale", 1,
     [("ffc", None), ("ffc_plus", None), ("ls", parallel_example("ls"))]),
    ("hint", hint_example("tunnels"), "throughput", 2,
     [("ffc", None), ("ffc_plus", None), ("ls", hint_example("ls")),
      ("cls", hint_example("cls"))]),
    ("generalized(9,3,3)", generalized_family(9, 3, 3), "demand_scale", 2,
     [("ffc_plus", None), ("ls", generalized_ls_variant(generalized_family(9, 3, 3)))]),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=["dual", "enumerate"], default="dual")
    args = parser.parse_args()

    print(f"{'fixture':<20} {'k':>2} {'objective':<12} {'model':<9} "
          f"{'value':>9} {'normalized':>11}")
    for name, base, objective, k, models in ROWS:
        optimum, _ = worst_case_optimal(base, k, objective)
        print(f"{name:<20} {k:>2} {objective:<12} {'optimal':<9} {optimum:>9.4f} "
              f"{1.0:>11.4f}")
        for model, variant in models:
            inst = variant if variant is not None else base
            plan = solve_robust(inst, model, k, objective, args.mode)
            norm = plan.objective / optimum if optimum > 0 else 0.0
            print(f"{name:<20} {k:>2} {objective:<12} {model:<9} "
                  f"{plan.objective:>9.4f} {norm:>11.4f}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
