"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 solver or guard error, or an
instance that fails validation (every command but `gen` validates first).
Errors print one machine-readable line to stderr: "error: CODE detail".
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from . import fixtures
from .io import dump_instance, instance_to_dict, load_instance
from .lp import BudgetExceededError, SolverStallError
from .net import Scenario, ScenarioBlowupError, enumerate_scenarios, validate_instance
from .generators import generate_gravity_demands, select_tunnels, split_sublinks
from .oracle import worst_case_optimal
from .prob import (
    InfeasibleTargetError,
    ProbabilisticInstance,
    benders_run,
    enumerate_prob_scenarios,
    percentile_analysis,
    sample_link_probs,
    solve_cvar,
    solve_direct_mip,
    solve_scenario_minmax,
)
from .realize import MatrixNotWcddError, NotTopologicallySortedError, extract_routing
from .robust import InternalModelError, solve_robust

FIXTURES = {
    "four-tunnel": lambda: fixtures.four_tunnel_example("all"),
    "four-tunnel-three": lambda: fixtures.four_tunnel_example("three"),
    "parallel": lambda: fixtures.parallel_example("tunnels"),
    "parallel-ls": lambda: fixtures.parallel_example("ls"),
    "hint": lambda: fixtures.hint_example("tunnels"),
    "hint-cls": lambda: fixtures.hint_example("cls"),
    "hint-ls": lambda: fixtures.hint_example("ls"),
    "flow-example": fixtures.flow_example,
    "cvar-topo": fixtures.cvar_topo,
    "realization": lambda: fixtures.realization_example(False),
    "realization-3ls": lambda: fixtures.realization_example(True),
}

_MODEL_FLAG = {"ffc": "ffc", "ffc-plus": "ffc_plus", "ls": "ls", "cls": "cls"}
_OBJ_FLAG = {"demand-scale": "demand_scale", "throughput": "throughput"}


def _load(args) -> tuple:
    if args.fixture:
        return FIXTURES[args.fixture](), []
    if not args.instance:
        raise ValueError("supply --instance FILE or --fixture NAME")
    return load_instance(args.instance)


def _default_seed() -> int:
    value = os.environ.get("RESILIENT_TE_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"RESILIENT_TE_SEED={value!r} is not an integer") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="resilient-te")
    parser.add_argument("--instance", help="instance JSON document")
    parser.add_argument("--fixture", choices=sorted(FIXTURES),
                        help="built-in example instead of --instance")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate")

    p_gen = sub.add_parser("gen")
    p_gen.add_argument("what", choices=["demands", "tunnels", "scenarios", "sublinks"])
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--count", type=int, default=3, help="tunnels per pair")
    p_gen.add_argument("--k", type=int, default=1)
    p_gen.add_argument("--out", help="write updated instance JSON here")

    p_solve = sub.add_parser("solve")
    p_solve.add_argument("--model", choices=sorted(_MODEL_FLAG) + ["flow"], required=True)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--objective", choices=sorted(_OBJ_FLAG), default="throughput")
    p_solve.add_argument("--mode", choices=["dual", "enumerate"], default="dual")

    p_oracle = sub.add_parser("oracle")
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--objective", choices=sorted(_OBJ_FLAG), default="throughput")

    p_real = sub.add_parser("realize")
    p_real.add_argument("--model", choices=sorted(_MODEL_FLAG), default="ls")
    p_real.add_argument("--k", type=int, required=True)
    p_real.add_argument("--objective", choices=sorted(_OBJ_FLAG), default="throughput")
    p_real.add_argument("--scenario", default="", help="comma-separated failed link ids")

    p_flo = sub.add_parser("flomore")
    p_flo.add_argument("action", choices=["solve", "benders", "cvar"])
    p_flo.add_argument("--beta", type=float, default=0.99)
    p_flo.add_argument("--cutoff", type=float, default=1e-6)
    p_flo.add_argument("--iterations", type=int, default=5)
    p_flo.add_argument("--variant", choices=["flow_adaptive", "flow_static", "scen_static"],
                       default="flow_adaptive")

    p_an = sub.add_parser("analyze")
    p_an.add_argument("--beta", type=float, default=0.99)
    p_an.add_argument("--cutoff", type=float, default=1e-6)

    p_rep = sub.add_parser("report")
    p_rep.add_argument("--k", type=int, required=True)
    p_rep.add_argument("--objective", choices=sorted(_OBJ_FLAG), default="throughput")
    p_rep.add_argument("--mode", choices=["dual", "enumerate"], default="dual")
    p_rep.add_argument("--out", default="-", help="CSV path, or - for stdout")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except (ScenarioBlowupError, SolverStallError, BudgetExceededError,
            InternalModelError, MatrixNotWcddError, NotTopologicallySortedError,
            InfeasibleTargetError) as exc:
        print(f"error: {type(exc).__name__} {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: USAGE {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    instance, scenarios = _load(args)

    diags = validate_instance(instance)
    if args.command == "validate":
        for d in diags:
            print(f"{d.code}: {d.detail}")
        if not diags:
            print("ok")
        return 0 if not diags else 2
    if diags and args.command != "gen":
        # A solving command answers only an instance that validates.
        print(f"error: {diags[0].code} {diags[0].detail}", file=sys.stderr)
        return 2

    if args.command == "gen":
        seed = args.seed if args.seed is not None else _default_seed()
        if args.what == "demands":
            demands = generate_gravity_demands(instance.topology, seed=seed)
            instance = dataclasses.replace(instance, demands=demands)
        elif args.what == "tunnels":
            tunnels = []
            for pair in instance.demand_pairs():
                tunnels.extend(select_tunnels(instance.topology, pair, args.count))
            instance = dataclasses.replace(instance, tunnels=tuple(tunnels))
        elif args.what == "scenarios":
            scenarios = enumerate_scenarios(instance.topology, args.k)
        elif args.what == "sublinks":
            instance = split_sublinks(instance)
        if args.out:
            dump_instance(instance, args.out, scenarios or None)
        else:
            print(json.dumps(instance_to_dict(instance, scenarios or None), sort_keys=True))
        return 0

    if args.command == "solve":
        objective = _OBJ_FLAG[args.objective]
        if args.model == "flow":
            from .robust import solve_logical_flow

            conds = [None] + list(instance.conditions)
            plan, _ = solve_logical_flow(instance, conds, args.k, objective, args.mode)
        else:
            plan = solve_robust(instance, _MODEL_FLAG[args.model], args.k, objective, args.mode)
        print(f"{plan.objective:.6f}")
        return 0

    if args.command == "oracle":
        value, witness = worst_case_optimal(instance, args.k, _OBJ_FLAG[args.objective])
        print(f"{value:.6f}")
        print("worst-scenario:", ",".join(sorted(witness.failed_links)) or "<none>")
        return 0

    if args.command == "realize":
        objective = _OBJ_FLAG[args.objective]
        failed = frozenset(x for x in args.scenario.split(",") if x)
        unknown = sorted(e for e in failed if not instance.topology.has_link(e))
        if unknown:
            raise ValueError(f"--scenario names links not in the topology: {', '.join(unknown)}")
        plan = solve_robust(instance, _MODEL_FLAG[args.model], args.k, objective, "dual")
        routing = extract_routing(plan, instance, Scenario(failed))
        for (tid, dest), val in sorted(routing.flow.items()):
            print(f"{tid},{dest},{val:.6f}")
        return 0

    if args.command in ("flomore", "analyze"):
        topo = instance.topology
        if any(ln.fail_prob is None for ln in topo.links):
            topo = sample_link_probs(topo, seed=_default_seed())
            instance = dataclasses.replace(instance, topology=topo)
        prob_scens = [sc for sc in scenarios if sc.prob is not None] or \
            enumerate_prob_scenarios(topo, args.cutoff)
        pinst = ProbabilisticInstance(instance, prob_scens, beta=args.beta)
        if args.command == "analyze":
            allocs = solve_scenario_minmax(pinst)
            report = percentile_analysis(allocs, pinst)
        elif args.action == "solve":
            _, _, report = solve_direct_mip(pinst)
        elif args.action == "benders":
            _, report, state = benders_run(pinst, args.iterations)
            print(f"lower-bound,{state.lower_bound:.6f}")
        else:
            _, report, value = solve_cvar(pinst, args.variant)
            print(f"cvar,{value:.6f}")
        print(f"max-flow-pct-loss,{report.max_flow_pct_loss:.6f}")
        print(f"scen-pct-loss,{report.scen_pct_loss:.6f}")
        for fid in sorted(report.flow_loss):
            print(f"flow-loss,{fid},{report.flow_loss[fid]:.6f}")
        return 0

    # report: argparse admits no other command.
    objective = _OBJ_FLAG[args.objective]
    optimum, _ = worst_case_optimal(instance, args.k, objective)
    rows = []
    for model in ("ffc", "ffc_plus", "ls", "cls"):
        if model in ("ls", "cls") and not instance.logical_sequences:
            continue
        plan = solve_robust(instance, model, args.k, objective, args.mode)
        normalized = plan.objective / optimum if optimum > 0 else 0.0
        rows.append([model, args.k, objective, f"{plan.objective:.6f}",
                     f"{normalized:.6f}"])
    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(["model", "k", "objective", "value", "normalized_to_optimal"])
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
