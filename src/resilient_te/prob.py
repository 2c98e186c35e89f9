"""Per-flow percentile loss optimization under probabilistic failures.

Each flow (or flow set) picks its own critical scenarios covering its target
probability; the routing only needs to keep the flow's loss under the
objective in those scenarios.  The joint selection-and-routing problem is a
MIP; it also decomposes into a master over selections plus one small LP per
scenario whose duals yield valid tangent cuts, since the inner optimum is
convex in the selection.

All of an instance's subproblems are bound edits of one LP, solved cold
once per instance and re-solved warm per scenario (see `benders_subproblem`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import lp as lp_layer
from .lp import LinearProgram, Solution, solve_lp, solve_mip
from .net import (SCENARIO_GUARD, Link, NetworkInstance, Scenario, ScenarioBlowupError, Topology,
                  Tunnel, tunnel_alive)

Pair = tuple[str, str]


class InfeasibleTargetError(RuntimeError):
    def __init__(self, unit_id: str, available: float, beta: float):
        super().__init__(
            f"flow {unit_id} is connected in scenarios totaling {available:.6f} < beta {beta}")
        self.unit_id = unit_id


@dataclass(frozen=True)
class ProbUnit:
    """Unit of loss accounting: one flow, or a set of flows whose loss is the
    worst across members."""

    id: str
    members: tuple[tuple[Pair, float], ...]  # (pair, demand)
    beta: float
    threshold: float = 0.0


@dataclass(frozen=True)
class ProbabilisticInstance:
    """A network with probabilistic scenarios; frozen, so the scenario view
    below is computed once and cannot go stale."""

    instance: NetworkInstance
    scenarios: list[Scenario]
    beta: float
    flow_sets: dict[str, list[str]] | None = None

    def __post_init__(self) -> None:
        # The rule `net.validate_instance` applies to a flow's own beta.
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta {self.beta} is not within [0, 1]")
        total = sum(sc.prob or 0.0 for sc in self.scenarios)
        if total > 1 + 1e-9:
            raise ValueError(f"scenario probabilities sum to {total} > 1")

    @cached_property
    def probs(self) -> list[float]:
        return [sc.prob or 0.0 for sc in self.scenarios]

    @cached_property
    def units(self) -> list[ProbUnit]:
        demands = {d.flow_id: d for d in self.instance.demands}
        if self.flow_sets:
            return [ProbUnit(set_id, tuple((demands[f].pair, demands[f].demand) for f in members),
                             self.beta)
                    for set_id, members in sorted(self.flow_sets.items())]
        return [ProbUnit(d.flow_id, ((d.pair, d.demand),),
                         d.beta if d.beta is not None else self.beta,
                         d.loss_threshold if d.loss_threshold is not None else 0.0)
                for d in self.instance.demands]

    def pairs(self) -> list[Pair]:
        return list(dict.fromkeys(pair for u in self.units for pair, _ in u.members))

    @cached_property
    def pair_demand(self) -> dict[Pair, tuple[float, dict[str, float]]]:
        """Each pair with positive demand: its total demand and each unit's
        share of it, in order of first appearance."""
        out: dict[Pair, tuple[float, dict[str, float]]] = {}
        for u in self.units:
            for pair, d in u.members:
                if d > 0:
                    total, shares = out.get(pair, (0.0, {}))
                    shares[u.id] = shares.get(u.id, 0.0) + d
                    out[pair] = (total + d, shares)
        return out

    @cached_property
    def live(self) -> list[dict[Pair, list[Tunnel]]]:
        """Per scenario index, each member pair's live tunnels."""
        topo, pairs = self.instance.topology, self.pairs()
        return [{pair: [t for t in self.instance.tunnels_for(*pair) if tunnel_alive(topo, t, sc)]
                 for pair in pairs} for sc in self.scenarios]

    @cached_property
    def routed(self) -> list[list[Tunnel]]:
        """Per scenario index, the live tunnels of the pairs with demand."""
        return [list({t.id: t for pair in self.pair_demand for t in live[pair]}.values())
                for live in self.live]

    @cached_property
    def connected(self) -> dict[tuple[str, int], bool]:
        """(unit, scenario index) -> every member pair with demand keeps a
        live tunnel."""
        return {(u.id, q): all(live[pair] for pair, d in u.members if d > 0)
                for u in self.units for q, live in enumerate(self.live)}

    @cached_property
    def subproblem(self) -> _SubproblemLP:
        """Every scenario's Benders subproblem as one LP, solved cold once;
        see `benders_subproblem`."""
        return _subproblem_lp(self)


@dataclass
class ScenarioAlloc:
    tunnel_alloc: dict[str, float]
    unit_loss: dict[str, float]


@dataclass(frozen=True)
class CriticalSelection:
    """Binary choice of which scenarios count toward each unit's target."""

    values: dict[tuple[str, int], float]

    def __getitem__(self, key: tuple[str, int]) -> float:
        return self.values[key]

    def covered_mass(self, pinst: "ProbabilisticInstance", unit_id: str) -> float:
        return sum(pinst.probs[q] for (uid, q), v in self.values.items()
                   if uid == unit_id and v >= 0.5)

    def covers(self, pinst: "ProbabilisticInstance") -> bool:
        return all(self.covered_mass(pinst, u.id) >= u.beta - 1e-9
                   for u in pinst.units)


@dataclass
class LossReport:
    flow_loss: dict[str, float]
    max_flow_pct_loss: float
    scen_loss: list[float]
    scen_pct_loss: float


@dataclass(frozen=True)
class Cut:
    """Affine lower bound on the inner optimum: const + sum coeff * z[f, q]."""

    scenario_index: int
    const: float
    coeff: dict[str, float]

    def value(self, z_col: dict[str, float]) -> float:
        return self.const + sum(c * z_col.get(f, 0.0) for f, c in self.coeff.items())


@dataclass
class BendersState:
    cuts: list[Cut] = field(default_factory=list)
    incumbent: float = math.inf
    lower_bound: float = 0.0
    iterations: int = 0
    incumbent_history: list[float] = field(default_factory=list)
    bound_history: list[float] = field(default_factory=list)


# --------------------------------------------------------------------------
# Failure probability machinery.


def sample_link_probs(topology: Topology, shape: float = 0.8,
                      scale: float | None = None, seed: int = 0) -> Topology:
    """Attach i.i.d. Weibull failure probabilities, clamped into (0, 0.5).

    The default scale calibrates the median to about 1e-3.
    """
    if shape <= 0 or (scale is not None and scale <= 0):
        raise ValueError("Weibull parameters must be positive")
    if scale is None:
        scale = 0.001 / math.log(2) ** (1 / shape)
    rng = np.random.default_rng(seed)
    links = []
    for ln in topology.links:
        p = float(np.clip(scale * rng.weibull(shape), 1e-12, 0.5 - 1e-12))
        links.append(Link(ln.id, ln.ends, ln.capacity, fail_prob=p))
    return Topology(nodes=topology.nodes, links=tuple(links))


def enumerate_prob_scenarios(topology: Topology, cutoff: float = 1e-6) -> list[Scenario]:
    """Every failure subset whose product probability clears the cutoff,
    assuming independent link failures.  Includes the empty scenario.  A NaN
    cutoff raises ValueError: no subset would clear it or be pruned by it."""
    if math.isnan(cutoff):
        raise ValueError("cutoff is NaN")
    links = sorted(topology.links, key=lambda ln: ln.id)
    for ln in links:
        if ln.fail_prob is None:
            raise ValueError(f"link {ln.id} carries no failure probability")
    base = 1.0
    for ln in links:
        base *= 1 - ln.fail_prob
    ratios = [ln.fail_prob / (1 - ln.fail_prob) for ln in links]
    # Found subsets extend one link at a time; prune with the best possible
    # completion so links with p > 0.5 stay handled correctly.
    suffix_best = [1.0] * (len(links) + 1)
    for i in range(len(links) - 1, -1, -1):
        suffix_best[i] = suffix_best[i + 1] * max(1.0, ratios[i])

    out: list[Scenario] = []

    def grow(start: int, chosen: tuple[str, ...], prob: float) -> None:
        if len(out) > SCENARIO_GUARD:
            raise ScenarioBlowupError("probabilistic scenario set exceeds guard")
        if prob >= cutoff and chosen:
            out.append(Scenario(frozenset(chosen), prob=prob))
        for i in range(start, len(links)):
            nxt = prob * ratios[i]
            if nxt * suffix_best[i + 1] < cutoff:
                continue
            grow(i + 1, chosen + (links[i].id,), nxt)

    out.append(Scenario(frozenset(), prob=base))
    grow(0, (), base)
    out.sort(key=lambda sc: sc.key())
    return out


def design_beta(pinst: ProbabilisticInstance,
                ladder: tuple[float, ...] = (0.9, 0.99, 0.999, 0.9999)) -> float:
    """Largest target on the ladder for which every unit stays connected in
    scenarios of at least that total probability."""
    def reachable(mass: float) -> float:
        return max((b for b in ladder if b <= mass + 1e-12), default=0.0)

    return min((reachable(_connected_mass(pinst, u)) for u in pinst.units), default=0.0)


# --------------------------------------------------------------------------
# Percentile analysis.


def percentile_of(losses: list[float], probs: list[float], beta: float) -> float:
    """Smallest value v with total probability of {loss <= v} at least beta."""
    total = sum(probs)
    if total < beta - 1e-9:
        raise InfeasibleTargetError("<distribution>", total, beta)
    order = sorted(zip(losses, probs))
    cum = 0.0
    for loss, p in order:
        cum += p
        if cum >= beta - 1e-9:
            return loss
    return order[-1][0]


def cvar_of(losses: list[float], probs: list[float], beta: float) -> float:
    """Average loss in the worst 1-beta probability mass (at the VaR anchor);
    beta must be below 1."""
    if not beta < 1:
        raise ValueError(f"CVaR needs beta < 1, got {beta}")
    var = percentile_of(losses, probs, beta)
    excess = sum(p * max(0.0, l - var) for l, p in zip(losses, probs))
    return var + excess / (1 - beta)


def percentile_analysis(allocs: list[ScenarioAlloc], pinst: ProbabilisticInstance) -> LossReport:
    """Loss report for a routing, given per-unit losses in every scenario."""
    if len(allocs) != len(pinst.scenarios):
        raise ValueError("routing does not cover the scenario set")
    probs = pinst.probs
    flow_loss = {}
    for unit in pinst.units:
        losses = [a.unit_loss[unit.id] for a in allocs]
        try:
            flow_loss[unit.id] = percentile_of(losses, probs, unit.beta)
        except InfeasibleTargetError:
            raise InfeasibleTargetError(unit.id, sum(probs), unit.beta) from None
    scen_loss = [max(a.unit_loss.values()) if a.unit_loss else 0.0 for a in allocs]
    return LossReport(
        flow_loss=flow_loss,
        max_flow_pct_loss=max(flow_loss.values(), default=0.0),
        scen_loss=scen_loss,
        scen_pct_loss=percentile_of(scen_loss, probs, pinst.beta),
    )


# --------------------------------------------------------------------------
# Shared LP pieces.  Loss variables are named l::{unit}{sfx} and allocation
# variables x::{tunnel}{x_sfx}, the suffixes telling scenarios apart.


def _demand_rows(lp: LinearProgram, pinst: ProbabilisticInstance,
                 live: dict[Pair, list[Tunnel]], label: str, sfx: str, x_sfx: str) -> None:
    """One row per pair with demand: the pair's `live` tunnels plus its
    demand-weighted unit losses cover the pair's demand."""
    for pair, (total, shares) in sorted(pinst.pair_demand.items()):
        coeffs = {f"l::{uid}{sfx}": d for uid, d in shares.items()}
        for t in live[pair]:
            coeffs[f"x::{t.id}{x_sfx}"] = coeffs.get(f"x::{t.id}{x_sfx}", 0.0) + 1.0
        lp.add_row(coeffs, ">=", total, name=f"demand:{label}:{pair[0]}>{pair[1]}")


def _capacity_rows(lp: LinearProgram, pinst: ProbabilisticInstance, tunnels: Sequence[Tunnel],
                   x_sfx: str, label: str) -> None:
    for ln in pinst.instance.topology.links:
        coeffs = {f"x::{t.id}{x_sfx}": 1.0 for t in tunnels if ln.id in t.path}
        if coeffs:
            lp.add_row(coeffs, "<=", ln.capacity, name=f"cap:{label}:{ln.id}")


def _scenario_rows(lp: LinearProgram, pinst: ProbabilisticInstance, q: int, sfx: str) -> None:
    """Demand and capacity rows for one scenario; allocation variables exist
    only for tunnels alive in that scenario."""
    for t in pinst.routed[q]:
        lp.add_var(f"x::{t.id}{sfx}")
    _demand_rows(lp, pinst, pinst.live[q], str(q), sfx, sfx)
    _capacity_rows(lp, pinst, pinst.routed[q], sfx, str(q))


def _read_alloc(sol: Solution, pinst: ProbabilisticInstance, q: int, sfx: str,
                static: bool = False, pair_losses: bool = False) -> ScenarioAlloc:
    """Scenario q's positive allocations, from the shared x::{tunnel} when
    `static`, and each unit's loss clipped into [0, 1]: l::{unit}{sfx}, or
    with `pair_losses` the worst pl::{q}::{pair} of its members with demand."""
    tunnels, x_sfx = (pinst.instance.tunnels, "") if static else (pinst.routed[q], sfx)
    alloc = {}
    for t in tunnels:
        v = sol.value(f"x::{t.id}{x_sfx}")
        if v > 1e-12:
            alloc[t.id] = v
    losses = {}
    for u in pinst.units:
        names = ([f"pl::{q}::{a}>{b}" for (a, b), d in u.members if d > 0] if pair_losses
                 else [f"l::{u.id}{sfx}"])
        losses[u.id] = min(1.0, max(0.0, max((sol.value(n, 1.0) for n in names), default=0.0)))
    return ScenarioAlloc(alloc, losses)


def _connected_mass(pinst: ProbabilisticInstance, unit: ProbUnit) -> float:
    return sum(p for q, p in enumerate(pinst.probs) if pinst.connected[(unit.id, q)])


# --------------------------------------------------------------------------
# Direct MIP: joint critical-scenario selection and routing.


def selection_from_losses(pinst: ProbabilisticInstance,
                          allocs: list[ScenarioAlloc]) -> dict[tuple[str, int], float]:
    """Greedy per-unit critical sets for a fixed routing: lowest losses
    first, until the unit's probability target is covered."""
    selection = {}
    for u in pinst.units:
        order = sorted(range(len(pinst.scenarios)),
                       key=lambda q: (allocs[q].unit_loss[u.id], q))
        mass = 0.0
        chosen = set()
        for q in order:
            if mass >= u.beta - 1e-9:
                break
            chosen.add(q)
            mass += pinst.probs[q]
        for q in range(len(pinst.scenarios)):
            selection[(u.id, q)] = 1.0 if q in chosen else 0.0
    return selection


def _objective_value(pinst: ProbabilisticInstance, report: LossReport) -> float:
    """The worst threshold-adjusted percentile loss, which is what the
    MIP and the Benders bound certify."""
    return max((max(0.0, report.flow_loss[u.id] - u.threshold) for u in pinst.units),
               default=0.0)


def solve_direct_mip(pinst: ProbabilisticInstance,
                     ) -> tuple[list[ScenarioAlloc], CriticalSelection, LossReport]:
    """Minimize the worst per-unit percentile loss by choosing critical
    scenarios and a per-scenario routing jointly.

    A connectivity-based warm start (route every scenario for its connected
    units, then pick each unit's best scenarios) supplies an incumbent bound
    so the search only explores strictly better selections.  Raises
    InfeasibleTargetError, as the Benders loop does, when a unit is connected
    in less probability mass than its target.
    """
    check_availability(pinst)
    units = pinst.units
    Q = range(len(pinst.scenarios))
    z0 = connectivity_selection(pinst)
    warm_allocs = [
        benders_subproblem(pinst, q, {u.id: z0[(u.id, q)] for u in units}).alloc
        for q in Q
    ]
    warm_report = percentile_analysis(warm_allocs, pinst)
    warm = (warm_allocs, CriticalSelection(selection_from_losses(pinst, warm_allocs)),
            warm_report, _objective_value(pinst, warm_report))

    lp = LinearProgram(name="pct-loss-mip")
    lp.add_var("alpha")
    for u in units:
        for q in Q:
            lp.add_var(f"z::{u.id}::{q}", binary=True)
            lp.add_var(f"l::{u.id}::{q}", 0.0, 1.0)
    for q in Q:
        _scenario_rows(lp, pinst, q, f"::{q}")
    for u in units:
        lp.add_row({f"z::{u.id}::{q}": pinst.probs[q] for q in Q}, ">=", u.beta,
                   name=f"avail:{u.id}")
        for q in Q:
            lp.add_row({"alpha": 1.0, f"l::{u.id}::{q}": -1.0, f"z::{u.id}::{q}": -1.0},
                       ">=", -1.0 - u.threshold, name=f"lossbound:{u.id}:{q}")
    lp.set_objective({"alpha": 1.0}, "min")
    sol = solve_mip(lp, cutoff=warm[3])
    if sol.status != "optimal":
        if sol.status == "infeasible":
            # nothing beats the warm start, so it is optimal
            return warm[0], warm[1], warm[2]
        raise RuntimeError(f"direct MIP reported {sol.status}")
    allocs = [_read_alloc(sol, pinst, q, f"::{q}") for q in Q]
    selection = CriticalSelection(
        {(u.id, q): round(sol.value(f"z::{u.id}::{q}")) * 1.0 for u in units for q in Q})
    report = percentile_analysis(allocs, pinst)
    if warm[3] < _objective_value(pinst, report) - 1e-12:
        return warm[0], warm[1], warm[2]
    return allocs, selection, report


# --------------------------------------------------------------------------
# Benders decomposition.


@dataclass
class SubproblemResult:
    alpha: float
    alloc: ScenarioAlloc
    cut: Cut


@dataclass(frozen=True)
class _SubproblemLP:
    """The subproblem LP of every scenario and its cold optimal solution."""

    lp: LinearProgram
    solution: Solution
    tunnels: tuple[str, ...]  # x::{tunnel} of every tunnel of a pair with demand
    loss_rows: dict[int, str]  # lossbound row index -> unit


def _subproblem_lp(pinst: ProbabilisticInstance) -> _SubproblemLP:
    """The subproblem with every tunnel alive and every zc at 1, solved cold
    through the `lp` module: a wrapper of this module's `solve_lp` that
    counts solves then sees one per subproblem, whichever call built it."""
    lp = LinearProgram(name="sub")
    lp.add_var("alpha")
    for u in pinst.units:
        lp.add_var(f"l::{u.id}")
        lp.add_var(f"zc::{u.id}", 1.0, 1.0)
    loss_rows = {}
    for u in pinst.units:
        row = lp.add_row({"alpha": 1.0, f"l::{u.id}": -1.0, f"zc::{u.id}": -1.0}, ">=",
                         -1.0 - u.threshold, name=f"lossbound:{u.id}")
        loss_rows[row] = u.id
        lp.add_row({f"l::{u.id}": 1.0}, "<=", 1.0, name=f"losscap:{u.id}")
    tunnels = {pair: pinst.instance.tunnels_for(*pair) for pair in pinst.pair_demand}
    every = list({t.id: t for ts in tunnels.values() for t in ts}.values())
    for t in every:
        lp.add_var(f"x::{t.id}")
    _demand_rows(lp, pinst, tunnels, "all", "", "")
    _capacity_rows(lp, pinst, every, "", "all")
    lp.set_objective({"alpha": 1.0}, "min")
    sol = lp_layer.solve_lp(lp)
    if sol.status != "optimal":
        raise RuntimeError(f"subproblem reported {sol.status}")
    return _SubproblemLP(lp, sol, tuple(f"x::{t.id}" for t in every), loss_rows)


def benders_subproblem(pinst: ProbabilisticInstance, q: int,
                       z_col: dict[str, float]) -> SubproblemResult:
    """Route one scenario given which units it is critical for, and return
    the tangent cut assembled from the row duals.

    The LP is `pinst.subproblem` with scenario q's dead tunnels fixed at 0
    and the column entered as fixed variables zc::{unit} in the rows
    alpha - l - zc >= -1 - threshold, re-solved warm from its cold solution,
    never from another call's, so no result depends on call order.  The cut
    takes the lossbound duals as coefficients and sum(dual * rhs) over the
    rows as its constant.  The subproblem is always feasible (drop
    everything, take loss one), so the cut exists and is tight at the
    proposed selection.
    """
    sub = pinst.subproblem
    alive = {f"x::{t.id}" for t in pinst.routed[q]}
    bounds = {x: (0.0, 0.0) for x in sub.tunnels if x not in alive}
    for u in pinst.units:
        z = z_col.get(u.id, 0.0)
        bounds[f"zc::{u.id}"] = (z, z)
    lp = sub.lp.with_bounds(bounds)
    sol = solve_lp(lp, start=sub.solution)
    if sol.status != "optimal":
        raise RuntimeError(f"subproblem {q} reported {sol.status}")

    const = 0.0
    coeff = {}
    for idx, dual in enumerate(sol.duals):
        if not dual:
            continue
        const += dual * lp._rows[idx].rhs
        uid = sub.loss_rows.get(idx)
        if uid is not None:
            coeff[uid] = coeff.get(uid, 0.0) + dual
    return SubproblemResult(sol.objective, _read_alloc(sol, pinst, q, ""), Cut(q, const, coeff))


def connectivity_selection(pinst: ProbabilisticInstance) -> dict[tuple[str, int], float]:
    """Starting point: every scenario is critical for every unit still
    connected in it."""
    return {key: 1.0 if ok else 0.0 for key, ok in pinst.connected.items()}


def check_availability(pinst: ProbabilisticInstance) -> None:
    for u in pinst.units:
        mass = _connected_mass(pinst, u)
        if mass < u.beta - 1e-9:
            raise InfeasibleTargetError(u.id, mass, u.beta)


def benders_master(pinst: ProbabilisticInstance, cuts: list[Cut], *,
                   fixed: dict[tuple[str, int], float] | None = None,
                   previous: dict[tuple[str, int], float] | None = None,
                   hamming_limit: float | None = None) -> tuple[CriticalSelection, float]:
    """Selection minimizing the cut envelope, subject to availability.

    `fixed` maps (unit, scenario) to a forced value; disconnected pairs are
    always forced to 0.  With `previous` and `hamming_limit`, the selection
    moves at most that many entries away from `previous`.
    """
    check_availability(pinst)
    units = pinst.units
    Q = range(len(pinst.scenarios))
    fixed = dict(fixed or {})
    for key, ok in pinst.connected.items():
        if not ok:
            fixed[key] = 0.0

    lp = LinearProgram(name="master")
    lp.add_var("alpha")
    for u in units:
        for q in Q:
            lb, ub = (fixed[u.id, q],) * 2 if (u.id, q) in fixed else (0.0, 1.0)
            lp.add_var(f"z::{u.id}::{q}", lb, ub, binary=True)
    for u in units:
        lp.add_row({f"z::{u.id}::{q}": pinst.probs[q] for q in Q}, ">=", u.beta,
                   name=f"avail:{u.id}")
    for c_idx, cut in enumerate(cuts):
        coeffs = {"alpha": 1.0}
        for uid, w in cut.coeff.items():
            coeffs[f"z::{uid}::{cut.scenario_index}"] = -w
        lp.add_row(coeffs, ">=", cut.const, name=f"cut:{c_idx}")
    if previous is not None and hamming_limit is not None:
        coeffs = {}
        base = 0.0
        for u in units:
            for q in Q:
                key = (u.id, q)
                if key in fixed:
                    continue
                if previous.get(key, 0.0) >= 0.5:
                    coeffs[f"z::{u.id}::{q}"] = -1.0
                    base += 1.0
                else:
                    coeffs[f"z::{u.id}::{q}"] = 1.0
        lp.add_row(coeffs, "<=", hamming_limit - base, name="hamming")
    lp.set_objective({"alpha": 1.0}, "min")
    sol = solve_mip(lp)
    if sol.status != "optimal":
        raise RuntimeError(f"master reported {sol.status}")
    selection = CriticalSelection({(u.id, q): round(sol.value(f"z::{u.id}::{q}")) * 1.0
                                   for u in units for q in Q})
    return selection, max(0.0, sol.objective)


def benders_run(pinst: ProbabilisticInstance, max_iterations: int = 5, *,
                prune_perfect: bool = True,
                ) -> tuple[list[ScenarioAlloc], LossReport, BendersState]:
    """Iterate master and per-scenario subproblems until the bound certifies
    the incumbent or the iteration budget runs out.

    Starts from the connectivity selection; perfect-scenario pruning (off
    with `prune_perfect=False`) pins the scenarios that are lossless there,
    and a Hamming-distance trust region around the previous selection
    (doubled whenever an iteration fails to improve) shapes each step.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    check_availability(pinst)
    units = pinst.units
    Q = range(len(pinst.scenarios))
    state = BendersState()

    # Each (scenario, selection column) is solved once; a repeat reuses the
    # result and appends its cut again, as a re-solve would.
    solved: dict[tuple[int, tuple[float, ...]], SubproblemResult] = {}

    def subproblem(q: int, iteration_z) -> SubproblemResult:
        column = tuple(iteration_z[(u.id, q)] for u in units)
        if (q, column) not in solved:
            z_col = dict(zip((u.id for u in units), column))
            solved[q, column] = benders_subproblem(pinst, q, z_col)
        return solved[q, column]

    z = connectivity_selection(pinst)
    # Perfect scenarios: lossless at the connectivity selection; their cuts
    # are never binding, so they are solved once and pinned.
    perfect: dict[int, ScenarioAlloc] = {}
    fixed: dict[tuple[str, int], float] = {}
    for q in Q:
        res = subproblem(q, z)
        if prune_perfect and res.alpha <= 1e-9:
            perfect[q] = res.alloc
            for u in units:
                if pinst.connected[(u.id, q)]:
                    fixed[(u.id, q)] = 1.0

    nontrivial = [q for q in Q if q not in perfect]
    hamming = max(1.0, 0.1 * len(units) * max(1, len(nontrivial)))

    best_allocs: list[ScenarioAlloc] | None = None
    best_report: LossReport | None = None

    def consume(iteration_z) -> None:
        nonlocal best_allocs, best_report
        current = {q: subproblem(q, iteration_z) for q in nontrivial}
        state.cuts.extend(res.cut for res in current.values())
        allocs = [perfect[q] if q in perfect else current[q].alloc for q in Q]
        report = percentile_analysis(allocs, pinst)
        value = _objective_value(pinst, report)
        state.incumbent_history.append(value)
        if value < state.incumbent - 1e-12:
            state.incumbent = value
            best_allocs, best_report = allocs, report

    consume(z)
    prev = z
    while state.iterations < max_iterations:
        state.iterations += 1
        # The certifying bound comes from the unrestricted master; the trust
        # region only shapes the next iterate.
        _, bound = benders_master(pinst, state.cuts, fixed=fixed)
        state.lower_bound = max(state.lower_bound, bound)
        state.bound_history.append(state.lower_bound)
        if state.lower_bound >= state.incumbent - 1e-6:
            break
        z = benders_master(pinst, state.cuts, fixed=fixed, previous=prev,
                           hamming_limit=hamming)[0].values
        before = state.incumbent
        consume(z)
        if state.incumbent >= before - 1e-12:
            hamming *= 2
        prev = z
    if best_allocs is None:  # pragma: no cover - consume always runs once
        raise RuntimeError("no incumbent produced")
    return best_allocs, best_report, state


# --------------------------------------------------------------------------
# Baselines: per-scenario min-max loss, and CVaR formulations.


def solve_scenario_minmax(pinst: ProbabilisticInstance) -> list[ScenarioAlloc]:
    """Independently minimize the worst unit loss in every scenario (the
    scenario-centric baseline); every unit is treated as critical."""
    return [benders_subproblem(pinst, q, {u.id: 1.0 for u in pinst.units}).alloc
            for q in range(len(pinst.scenarios))]


def solve_cvar(pinst: ProbabilisticInstance, variant: str = "flow_adaptive",
               ) -> tuple[list[ScenarioAlloc], LossReport, float]:
    """Minimize the worst per-unit conditional value at risk.

    flow_adaptive re-routes per scenario; flow_static shares one allocation
    across scenarios; scen_static applies CVaR to the per-scenario worst
    loss with a static allocation (the scenario-centric baseline).  The
    instance's beta must be below 1.
    """
    if variant not in ("flow_adaptive", "flow_static", "scen_static"):
        raise ValueError(f"unknown CVaR variant {variant!r}")
    if not pinst.beta < 1:
        raise ValueError(f"CVaR needs beta < 1, got {pinst.beta}")
    units = pinst.units
    Q = range(len(pinst.scenarios))
    probs = pinst.probs
    beta = pinst.beta
    lp = LinearProgram(name=f"cvar:{variant}")
    lp.add_var("theta", -1.0)

    static = variant != "flow_adaptive"
    if static:
        for t in pinst.instance.tunnels:
            lp.add_var(f"x::{t.id}")
        _capacity_rows(lp, pinst, pinst.instance.tunnels, "", "static")

    if variant == "scen_static":
        # CVaR of the per-scenario worst loss across pairs.
        pairs = pinst.pairs()
        lp.add_var("var_anchor", -1.0)
        for q in Q:
            lp.add_var(f"sl::{q}", 0.0, 1.0)
            lp.add_var(f"s::{q}")
            lp.add_row({f"s::{q}": 1.0, f"sl::{q}": -1.0, "var_anchor": 1.0},
                       ">=", 0.0, name=f"tail:{q}")
            for pair in pairs:
                pl = f"pl::{q}::{pair[0]}>{pair[1]}"
                lp.add_var(pl, 0.0, 1.0)
                lp.add_row({f"sl::{q}": 1.0, pl: -1.0}, ">=", 0.0, name=f"worst:{q}:{pair}")
                D = sum(d for u in units for (p2, d) in u.members if p2 == pair)
                coeffs = {pl: D}
                for t in pinst.live[q][pair]:
                    coeffs[f"x::{t.id}"] = coeffs.get(f"x::{t.id}", 0.0) + 1.0
                lp.add_row(coeffs, ">=", D, name=f"demand:{q}:{pair}")
        lp.add_row({"theta": 1.0, "var_anchor": -1.0,
                    **{f"s::{q}": -probs[q] / (1 - beta) for q in Q}}, ">=", 0.0,
                   name="cvar")
    else:
        # Per-unit CVaR.
        for u in units:
            lp.add_var(f"anchor::{u.id}", -1.0)
            tail = {"theta": 1.0, f"anchor::{u.id}": -1.0}
            for q in Q:
                lp.add_var(f"l::{u.id}::{q}", 0.0, 1.0)
                lp.add_var(f"s::{u.id}::{q}")
                lp.add_row({f"s::{u.id}::{q}": 1.0, f"anchor::{u.id}": 1.0,
                            f"l::{u.id}::{q}": -1.0}, ">=", 0.0, name=f"tail:{u.id}:{q}")
                tail[f"s::{u.id}::{q}"] = -probs[q] / (1 - beta)
            lp.add_row(tail, ">=", 0.0, name=f"cvar:{u.id}")
        for q in Q:
            if static:
                _demand_rows(lp, pinst, pinst.live[q], str(q), f"::{q}", "")
            else:
                _scenario_rows(lp, pinst, q, f"::{q}")
    lp.set_objective({"theta": 1.0}, "min")
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise RuntimeError(f"{variant} CVaR reported {sol.status}")
    allocs = [_read_alloc(sol, pinst, q, f"::{q}", static, variant == "scen_static")
              for q in Q]
    return allocs, percentile_analysis(allocs, pinst), float(sol.objective)
