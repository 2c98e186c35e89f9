#!/usr/bin/env python3
"""Compare per-flow percentile-loss schemes on a random instance.

Samples Weibull link failure probabilities over a random topology, keeps the
probable scenarios, then reports the worst per-flow percentile loss achieved
by the scenario-centric baselines, the CVaR variants, the decomposition, and
the exact selection MIP.  Writes one CSV row per scheme.
"""

import argparse
import csv
import sys
from pathlib import Path
import time

# Run from a checkout without an install: the checkout's own package first.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from resilient_te.generators import generate_gravity_demands, random_instance, select_tunnels
from resilient_te.net import FlowDemand, NetworkInstance
from resilient_te.prob import (
    ProbabilisticInstance,
    benders_run,
    design_beta,
    enumerate_prob_scenarios,
    percentile_analysis,
    sample_link_probs,
    solve_cvar,
    solve_direct_mip,
    solve_scenario_minmax,
)


def build(seed: int, scale: float, max_scenarios: int) -> ProbabilisticInstance:
    base = random_instance(seed, n_nodes=5, extra_links=3, n_pairs=3,
                           tunnels_per_pair=2)
    topo = sample_link_probs(base.topology, shape=1.0, scale=scale, seed=seed)
    inst = NetworkInstance(topology=topo, demands=base.demands, tunnels=base.tunnels)
    scens = enumerate_prob_scenarios(topo, cutoff=1e-5)
    scens = sorted(scens, key=lambda sc: -(sc.prob or 0))[:max_scenarios]
    scens = sorted(scens, key=lambda sc: sc.key())
    probe = ProbabilisticInstance(inst, scens, beta=0.5)
    beta = design_beta(probe, ladder=(0.5, 0.8, 0.9, 0.95, 0.99))
    return ProbabilisticInstance(inst, scens, beta=beta)


def fmt(x: float) -> str:
    """`x` to six decimals, with no -0.000000 for a value that rounds to 0."""
    return f"{round(x, 6) + 0.0:.6f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=0.05,
                        help="Weibull scale for sampled failure probabilities")
    parser.add_argument("--max-scenarios", type=int, default=12)
    parser.add_argument("--iterations", type=int, default=8)
    parser.add_argument("--out", default="-")
    args = parser.parse_args()

    pinst = build(args.seed, args.scale, args.max_scenarios)
    print(f"# beta={pinst.beta}, scenarios={len(pinst.scenarios)}, "
          f"flows={len(pinst.units)}", file=sys.stderr)

    rows = []

    def record(name, report, extra=""):
        rows.append([name, fmt(report.max_flow_pct_loss), fmt(report.scen_pct_loss), extra])

    t0 = time.monotonic()
    record("scenario-minmax", percentile_analysis(solve_scenario_minmax(pinst), pinst))
    for variant in ("scen_static", "flow_static", "flow_adaptive"):
        _, report, value = solve_cvar(pinst, variant)
        record(f"cvar-{variant}", report, f"cvar={fmt(value)}")
    _, report, state = benders_run(pinst, args.iterations)
    record("decomposition", report,
           f"bound={fmt(state.lower_bound)} iters={state.iterations}")
    _, _, report = solve_direct_mip(pinst)
    record("selection-mip", report)
    elapsed = time.monotonic() - t0

    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(["scheme", "max_flow_pct_loss", "scen_pct_loss", "notes"])
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"# total {elapsed:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
