"""Robust reservation models over failure polytopes.

Five model families share one protected-constraint shape per node pair:
live tunnel reservations plus active sequence reservations must cover the
pair's scaled demand plus any sequence load routed through it, for every
admissible failure.  The quantifier is discharged either by enumerating
integral failure patterns or by dualizing the polytope relaxation; the dual
counterpart is conservative relative to enumeration, never optimistic.
Either way each pair's failure set is built on its own sub-instance: its
tunnels, the conditions its carriers name and only the links those use.
That set is the exact projection of the instance-wide one onto the pair's
indicators, and enumerate mode's scenario guard counts the pair's links.
A logical flow of pair (s, t) loads only the segments whose tail s reaches
and whose head reaches t, neither through the other end.  Any other load
is a circulation, which adds load and offers nothing, so the optimum is
unchanged in both modes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .failsets import (
    FailurePolytope,
    Indicator,
    build_exact_polytope,
    build_ffc_polytope,
    build_hint_polytope,
    enumerate_patterns,
    reject_contradictions,
    shared_link_bound,
)
from .lp import LinearProgram, Solution, solve_lp
from .net import (SCENARIO_GUARD, Condition, NetworkInstance, ScenarioBlowupError, Topology,
                  scenario_count)

MODELS = ("ffc", "ffc_plus", "ls", "cls", "logical_flow")
OBJECTIVES = ("demand_scale", "throughput")
MODES = ("enumerate", "dual")

#: Optimal values at or below this are simplex noise, read as exactly 0.
_NOISE_TOL = 1e-12


class InternalModelError(RuntimeError):
    """A model that should always admit the zero plan came back infeasible."""


@dataclass(frozen=True)
class ReservationPlan:
    model: str
    mode: str
    objective_kind: str
    objective: float
    tunnel_reservation: dict[str, float]
    ls_reservation: dict[str, float]
    pair_scale: dict[tuple[str, str], float]
    designed_k: int

    def scaled_demand(self, instance: NetworkInstance, pair: tuple[str, str]) -> float:
        return self.pair_scale.get(pair, 0.0) * instance.demand_for(*pair)


@dataclass(frozen=True)
class LogicalFlow:
    id: str
    pair: tuple[str, str]
    condition: str | None


@dataclass(frozen=True)
class LogicalFlowPlan:
    flows: tuple[LogicalFlow, ...]
    reservation: dict[str, float]
    segment_load: dict[tuple[str, str, str], float]  # (flow id, i, j) -> p_w(ij)

    def loads_for(self, flow_id: str) -> dict[tuple[str, str], float]:
        return {(i, j): v for (w, i, j), v in self.segment_load.items() if w == flow_id}


# --------------------------------------------------------------------------
# Robust counterpart machinery.


@dataclass
class ProtectedConstraint:
    """base + sum_v coeff_v(x_dec) * v  for the worst v in the polytope.

    `base` maps decision variables to coefficients for the failure-free part
    (the inequality reads base >= worst-case), and `indicator_terms` maps
    each failure indicator to the decision-variable expression multiplying
    it inside the worst-case maximization.
    """

    base: dict[str, float] = field(default_factory=dict)
    indicator_terms: dict[Indicator, dict[str, float]] = field(default_factory=dict)
    label: str = ""

    def add_base(self, var: str, coef: float) -> None:
        self.base[var] = self.base.get(var, 0.0) + coef

    def add_indicator(self, ind: Indicator, var: str, coef: float) -> None:
        term = self.indicator_terms.setdefault(ind, {})
        term[var] = term.get(var, 0.0) + coef


def dualize_constraint(lp: LinearProgram, protected: ProtectedConstraint,
                       polytope: FailurePolytope) -> list[str]:
    """Emit the robust counterpart of one protected constraint into `lp`.

    Adds one nonnegative multiplier per polytope row (every row is `<=`)
    and per indicator upper bound, a dual-feasibility row per indicator, and
    the single row bounding the worst case by the protected base.  Returns
    the new variable names, tagged by the row count of `lp` so names do not
    depend on call history.
    An indicator term outside the polytope raises ValueError: dropping it
    would read that indicator as never failing, an optimistic counterpart.
    """
    missing = set(protected.indicator_terms) - set(polytope.variables)
    if missing:
        names = ", ".join(f"{kind}:{ref}" for kind, ref in sorted(missing))
        raise ValueError(f"{protected.label!r}: indicator(s) {names} not in the failure polytope")
    tag = f"rc{lp.num_rows}"
    lam = [lp.add_var(f"{tag}:lam{r_idx}") for r_idx in range(len(polytope.rows))]
    mu = {ind: lp.add_var(f"{tag}:mu:{ind[0]}:{ind[1]}") for ind in polytope.variables}

    columns: dict[Indicator, list[tuple[int, float]]] = {v: [] for v in polytope.variables}
    for r_idx, row in enumerate(polytope.rows):
        for ind, coef in row.coeffs:
            columns[ind].append((r_idx, coef))

    for ind in polytope.variables:
        coeffs: dict[str, float] = {}
        for r_idx, coef in columns[ind]:
            coeffs[lam[r_idx]] = coeffs.get(lam[r_idx], 0.0) + coef
        coeffs[mu[ind]] = coeffs.get(mu[ind], 0.0) + 1.0
        for var, coef in protected.indicator_terms.get(ind, {}).items():
            coeffs[var] = coeffs.get(var, 0.0) - coef
        lp.add_row(coeffs, ">=", 0.0, name=f"{tag}:feas:{ind[0]}:{ind[1]}")

    bound: dict[str, float] = dict(protected.base)
    for r_idx, row in enumerate(polytope.rows):
        bound[lam[r_idx]] = bound.get(lam[r_idx], 0.0) - row.rhs
    for ind in polytope.variables:
        bound[mu[ind]] = bound.get(mu[ind], 0.0) - 1.0
    lp.add_row(bound, ">=", 0.0, name=f"{tag}:bound:{protected.label}")
    return lam + list(mu.values())


def _enumerate_rows(lp: LinearProgram, protected: ProtectedConstraint,
                    points: list[dict[Indicator, float]]) -> None:
    """One row per distinct projection of `points` onto the pair's indicators.

    A row reads only the indicators of the pair's own terms, so points that
    agree on those give the same row; the first of them is kept, in order.
    """
    seen: set[tuple[float, ...]] = set()
    for point in points:
        values = tuple(point.get(ind, 0.0) for ind in protected.indicator_terms)
        if values in seen:
            continue
        coeffs = dict(protected.base)
        for term, v in zip(protected.indicator_terms.values(), values):
            if v:
                for var, coef in term.items():
                    coeffs[var] = coeffs.get(var, 0.0) - coef * v
        lp.add_row(coeffs, ">=", 0.0, name=f"en:{protected.label}:{len(seen)}")
        seen.add(values)


def _ffc_worst_points(instance: NetworkInstance, pair: tuple[str, str],
                      k: int) -> list[dict[Indicator, float]]:
    """Maximal integral points of the per-pair tunnel-failure budget.

    Smaller failure sets are dominated row-wise, so only subsets of size
    exactly min(k * p_st, |T|) need rows.
    """
    tunnels = instance.tunnels_for(*pair)
    p_st = shared_link_bound(instance, *pair)
    fail = min(k * p_st, len(tunnels))
    if scenario_count(len(tunnels), fail) > SCENARIO_GUARD:
        raise ScenarioBlowupError("tunnel-failure combinations exceed guard")
    ids = sorted(t.id for t in tunnels)
    return [
        {("y", tid): 1.0 for tid in combo}
        for combo in itertools.combinations(ids, fail)
    ]


def _pair_scope(instance: NetworkInstance, pair: tuple[str, str],
                conditions: list[Condition]) -> NetworkInstance:
    """The pair's tunnels, the `conditions` its carriers name, and only the
    links those name, in instance link order.  A failure set built on it is
    the exact projection of the instance-wide one: outside tunnels' `y` and
    conditions' `h` always complete, and outside links can stay up.
    """
    tunnels = instance.tunnels_for(*pair)
    named = {e for t in tunnels for e in t.path}
    for cond in conditions:
        named |= cond.alive_links | cond.dead_links
    links = tuple(ln for ln in instance.topology.links if ln.id in named)
    return NetworkInstance(Topology(instance.topology.nodes, links),
                           tunnels=tuple(tunnels), conditions=tuple(conditions))


# --------------------------------------------------------------------------
# Model assembly.

#: One carrier term of a protected pair: (variable, coefficient, condition).
#: A positive coefficient offers reservation to the pair, a negative one
#: loads it; a condition id makes the term count only while it is active.
Carrier = tuple[str, float, str | None]


def _add_capacity_rows(lp: LinearProgram, instance: NetworkInstance) -> None:
    for ln in instance.topology.links:
        coeffs = {}
        for t in instance.tunnels:
            if ln.id in t.path:
                coeffs[f"a::{t.id}"] = coeffs.get(f"a::{t.id}", 0.0) + 1.0
        if coeffs:
            lp.add_row(coeffs, "<=", ln.capacity, name=f"cap:{ln.id}")


def _add_objective(lp: LinearProgram, instance: NetworkInstance, objective: str) -> None:
    demand_pairs = instance.demand_pairs()
    if objective == "demand_scale":
        lp.add_var("scale")
        for s, t in demand_pairs:
            lp.add_row({"scale": 1.0, f"z::{s}>{t}": -1.0}, "<=", 0.0, name=f"scale:{s}>{t}")
        lp.set_objective({"scale": 1.0}, "max")
    else:
        obj = {}
        for s, t in demand_pairs:
            cap = f"tcap::{s}>{t}"
            lp.add_var(cap, 0.0, 1.0)
            lp.add_row({cap: 1.0, f"z::{s}>{t}": -1.0}, "<=", 0.0, name=f"tcap:{s}>{t}")
            obj[cap] = instance.demand_for(s, t)
        lp.set_objective(obj, "max")


def _assemble(instance: NetworkInstance, model: str, k: int, objective: str, mode: str,
              conditions: list[Condition], variables: list[str],
              rows: list[tuple[dict[str, float], str, float, str]],
              carriers: dict[tuple[str, str], list[Carrier]]) -> LinearProgram:
    """The one protected-constraint assembler behind every model.

    Declares tunnel, carrier (`variables`) and scale variables, adds the
    capacity, objective and carrier `rows`, then protects each pair of
    `carriers`, in order: live tunnel reservations plus the pair's carrier
    terms must cover its scaled demand under every admissible failure.  Each
    pair's failure set is built on its `_pair_scope`, then dualized, or
    enumerated with one row per distinct failure pattern.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if k < 0:
        raise ValueError("k must be >= 0")
    reject_contradictions(conditions)
    lp = LinearProgram(name=f"{model}:{objective}:{mode}:k={k}")
    for t in instance.tunnels:
        lp.add_var(f"a::{t.id}")
    for var in variables:
        lp.add_var(var)
    for s, t in instance.demand_pairs():
        lp.add_var(f"z::{s}>{t}")
    _add_capacity_rows(lp, instance)
    _add_objective(lp, instance, objective)
    for coeffs, sense, rhs, name in rows:
        lp.add_row(coeffs, sense, rhs, name=name)

    for pair, terms in carriers.items():
        s, t = pair
        protected = ProtectedConstraint(label=f"{s}>{t}")
        for tun in instance.tunnels_for(s, t):
            protected.add_base(f"a::{tun.id}", 1.0)
            protected.add_indicator(("y", tun.id), f"a::{tun.id}", 1.0)
        for var, coef, cond in terms:
            if cond is None:
                protected.add_base(var, coef)
            else:
                protected.add_indicator(("h", cond), var, -coef)
        if instance.demand_for(s, t) > 0:
            protected.add_base(f"z::{s}>{t}", -instance.demand_for(s, t))

        own = [c for c in conditions if ("h", c.id) in protected.indicator_terms]
        scope = _pair_scope(instance, pair, own)
        if mode == "dual":
            if model == "ffc":
                polytope = build_ffc_polytope(scope, k)
            else:
                polytope = build_hint_polytope(scope, k, own) if own else build_exact_polytope(scope, k)
            dualize_constraint(lp, protected, polytope)
        elif model == "ffc":
            _enumerate_rows(lp, protected, _ffc_worst_points(instance, pair, k))
        else:
            _enumerate_rows(lp, protected, [p.as_point() for p in enumerate_patterns(scope, k, own)])
    return lp


def build_robust_lp(instance: NetworkInstance, model: str, k: int,
                    objective: str = "throughput", mode: str = "dual") -> LinearProgram:
    """Compile one robust reservation model to a linear program.

    Demand pairs are protected first, then every segment of a sequence; a
    sequence offers its own pair and loads each of its segments.
    """
    if model not in ("ffc", "ffc_plus", "ls", "cls"):
        raise ValueError(f"unknown model {model!r}")
    sequences = instance.logical_sequences if model in ("ls", "cls") else ()
    conditional = model == "cls"
    referenced = {q.condition for q in sequences if q.condition is not None} if conditional else ()
    conditions = [instance.condition(c) for c in sorted(referenced)]

    carriers: dict[tuple[str, str], list[Carrier]] = {pair: [] for pair in instance.demand_pairs()}
    for q in sequences:
        for seg in q.segments:
            carriers.setdefault(seg, [])
    for q in sequences:
        cond = q.condition if conditional else None
        if (q.src, q.dst) in carriers:
            carriers[(q.src, q.dst)].append((f"b::{q.id}", 1.0, cond))
        for seg in q.segments:
            carriers[seg].append((f"b::{q.id}", -1.0, cond))
    return _assemble(instance, model, k, objective, mode, conditions,
                     [f"b::{q.id}" for q in sequences], [], carriers)


def solve_robust(instance: NetworkInstance, model: str, k: int,
                 objective: str = "throughput", mode: str = "dual") -> ReservationPlan:
    """Solve one robust reservation model to an optimal plan."""
    lp = build_robust_lp(instance, model, k, objective, mode)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise InternalModelError(
            f"{model} model reported {sol.status}; the zero plan is always feasible")
    return _extract_plan(instance, model, k, objective, mode, sol)


def _reserved(sol: Solution, var: str) -> float:
    """A reservation read from the optimum, with simplex noise snapped to 0.

    A 1e-16 reservation would still make a sequence active, and pull its
    segments into realization although they reserve nothing.
    """
    val = sol.value(var)
    return val if val > _NOISE_TOL else 0.0


def _extract_plan(instance: NetworkInstance, model: str, k: int, objective: str,
                  mode: str, sol: Solution) -> ReservationPlan:
    a = {t.id: _reserved(sol, f"a::{t.id}") for t in instance.tunnels}
    b = {q.id: _reserved(sol, f"b::{q.id}")
         for q in instance.logical_sequences if sol.primal.get(f"b::{q.id}") is not None}
    z = {(s, t): _reserved(sol, f"z::{s}>{t}") for s, t in instance.demand_pairs()}
    return ReservationPlan(
        model=model, mode=mode, objective_kind=objective,
        objective=float(sol.objective), tunnel_reservation=a,
        ls_reservation=b, pair_scale=z, designed_k=k)


# --------------------------------------------------------------------------
# Logical flows: reservations carried by arbitrary flows over segments.


def _on_path_segments(support: list[tuple[str, str]], s: str, t: str) -> list[tuple[str, str]]:
    """The segments of `support`, in order, whose tail s reaches without
    passing t and whose head reaches t without passing s: one forward and
    one backward search.  Every arc of a simple s->t path is among them."""
    def reach(start: str, avoid: str, arcs: list[tuple[str, str]]) -> set[str]:
        seen, stack = {start}, [start]
        while stack:
            u = stack.pop()
            new = {v for a, v in arcs if a == u and v != avoid} - seen
            seen |= new
            stack += new
        return seen

    fwd, bwd = reach(s, t, support), reach(t, s, [(j, i) for i, j in support])
    return [(i, j) for i, j in support if i in fwd and j in bwd]


def solve_logical_flow(instance: NetworkInstance, conditions: list[Condition | None],
                       k: int, objective: str = "throughput",
                       mode: str = "dual") -> tuple[ReservationPlan, LogicalFlowPlan]:
    """Reservation model where each demand pair gets one logical flow per
    condition; flow reservations ride segment loads that obey flow balance.

    `conditions` may contain None for the unconditional base flow.  With no
    flows at all this reduces exactly to the tunnel-only model.  A flow of
    pair (s, t) gets a load only on the segments of `_on_path_segments`.
    That is exact: a flow's loads decompose into s->t paths, whose arcs are
    all among those segments, and circulations (flow decomposition, Ahuja,
    Magnanti & Orlin 1993, ch. 3).  A load enters the capacity, protected
    and dualized rows only as a load, so removing the circulations keeps a
    plan feasible with the same reservations and objective.
    """
    named = [c for c in conditions if c is not None]
    demand_pairs = instance.demand_pairs()
    flows: list[LogicalFlow] = []
    for s, t in demand_pairs:
        for c in conditions:
            cid = c.id if c is not None else None
            wid = f"w::{s}>{t}::{cid or 'always'}"
            flows.append(LogicalFlow(wid, (s, t), cid))
    support = list(dict.fromkeys(sorted({(t.src, t.dst) for t in instance.tunnels}) + demand_pairs))
    paths = {pair: _on_path_segments(support, *pair) for pair in demand_pairs}

    variables: list[str] = []
    carriers: dict[tuple[str, str], list[Carrier]] = {pair: [] for pair in support}
    for w in flows:
        variables.append(f"bw::{w.id}")
        carriers[w.pair].append((f"bw::{w.id}", 1.0, w.condition))
        for (i, j) in paths[w.pair]:
            variables.append(f"pw::{w.id}::{i}>{j}")
            carriers[(i, j)].append((f"pw::{w.id}::{i}>{j}", -1.0, w.condition))

    # Flow balance of each logical flow over its segments.
    rows = []
    nodes = sorted(instance.topology.nodes)
    for w in flows:
        s, t = w.pair
        for i in nodes:
            coeffs: dict[str, float] = {}
            for (u, v) in paths[w.pair]:
                var = f"pw::{w.id}::{u}>{v}"
                if u == i:
                    coeffs[var] = coeffs.get(var, 0.0) + 1.0
                if v == i:
                    coeffs[var] = coeffs.get(var, 0.0) - 1.0
            if i == s:
                coeffs[f"bw::{w.id}"] = coeffs.get(f"bw::{w.id}", 0.0) - 1.0
            elif i == t:
                coeffs[f"bw::{w.id}"] = coeffs.get(f"bw::{w.id}", 0.0) + 1.0
            if coeffs:
                rows.append((coeffs, "=", 0.0, f"flowbal:{w.id}:{i}"))

    lp = _assemble(instance, "logical_flow", k, objective, mode, named, variables, rows, carriers)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise InternalModelError(f"logical flow model reported {sol.status}")
    plan = _extract_plan(instance, "logical_flow", k, objective, mode, sol)
    reservation = {w.id: _reserved(sol, f"bw::{w.id}") for w in flows}
    segment_load = {}
    for w in flows:
        for (i, j) in paths[w.pair]:
            val = sol.value(f"pw::{w.id}::{i}>{j}")
            if val > _NOISE_TOL:
                segment_load[(w.id, i, j)] = val
    flow_plan = LogicalFlowPlan(tuple(flows), reservation, segment_load)
    return plan, flow_plan
