"""The three benchmark workloads: instance set-up, one pass of public calls,
and the correctness gates each pass must clear.

Why each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from resilient_te.io import instance_from_dict, instance_to_dict
from resilient_te.net import NetworkInstance, Scenario, enumerate_scenarios, validate_instance
from resilient_te.oracle import solve_mcf, worst_case_optimal
from resilient_te.prob import (
    ProbabilisticInstance,
    benders_run,
    percentile_analysis,
    solve_cvar,
    solve_direct_mip,
    solve_scenario_minmax,
)
from resilient_te.realize import extract_routing, routing_node_balance, widest_path_decompose
from resilient_te.robust import solve_logical_flow, solve_robust

from . import instances
from .spans import Tracer
from .speed import Speedometer

ROBUST_K = 1
ORACLE_K = 2
BENDERS_ITERATIONS = 25
MODELS = ("ffc", "ffc_plus", "ls", "cls", "logical_flow")
MODES = ("dual", "enumerate")
REALIZED_MODELS = ("ffc", "ffc_plus", "ls", "cls")
CVAR_VARIANTS = ("flow_adaptive", "flow_static", "scen_static")
CHAIN_EPS = 1e-7
TOL = 1e-6
RECORDED_TOL = 1e-6
INVARIANT_TOL = 1e-7

#: Instance sizes per workload; "smoke" sizes keep the test suite quick.
SIZES = {
    "robust-plan": {"full": dict(n_nodes=8, extra_links=6, n_pairs=3, tunnels_per_pair=3),
                    "smoke": dict(n_nodes=5, extra_links=3, n_pairs=2, tunnels_per_pair=2)},
    "oracle-sweep": {"full": dict(n_nodes=14, extra_links=11, n_pairs=10, tunnels_per_pair=3),
                     "smoke": dict(n_nodes=6, extra_links=3, n_pairs=3, tunnels_per_pair=2)},
    "flomore": {"full": dict(count=10), "smoke": dict(count=2)},
}


class GateFailure(Exception):
    """An op returned an answer that breaks a correctness gate."""


@dataclass
class OpRecord:
    id: int
    name: str
    seconds: float = 0.0
    value: float | None = None
    error: str | None = None
    wrong: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)


@dataclass
class GateTally:
    checked: int = 0
    failed: int = 0
    first_failure: str = ""


def record_gate(gates: dict[str, GateTally], name: str, ok: bool, detail: str) -> None:
    tally = gates.setdefault(name, GateTally())
    tally.checked += 1
    if not ok:
        tally.failed += 1
        tally.first_failure = tally.first_failure or detail


@dataclass(frozen=True)
class Timing:
    group: str
    seconds: float
    #: the step's time at the reference speed; None when no speedometer ran
    ref_seconds: float | None


class Recorder:
    """Runs one pass's ops: times each call, records a raise as a failed op,
    and runs the op's gate on its answer outside the timed region."""

    def __init__(self, gates: dict[str, GateTally], tracer: Tracer | None = None,
                 speed: Speedometer | None = None) -> None:
        self.ops: list[OpRecord] = []
        #: every timed step of the pass, by name
        self.timings: dict[str, Timing] = {}
        self.gates = gates
        self.tracer = tracer
        self.speed = speed
        #: values the benchmark derives from several ops, compared like objectives
        self.derived: dict[str, float] = {}

    def _call(self, name: str, group: str, fn: Callable, *args):
        mark = self.speed.mark() if self.speed is not None else None
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            seconds = time.perf_counter() - start
            ref = self.speed.reference_seconds(seconds, mark) if mark is not None else None
            self.timings[name] = Timing(group, seconds, ref)

    def op(self, name: str, layer: str, group: str, fn: Callable, *args,
           check: tuple[str, Callable[[Any], None]] | None = None,
           value_of: Callable[[Any], float] | None = None,
           attrs: dict[str, Any] | None = None,
           attrs_of: Callable[[Any], dict] | None = None):
        rec = OpRecord(len(self.ops), name, attrs=dict(attrs or {}))
        self.ops.append(rec)
        call = fn
        if self.tracer is not None:
            call = functools.partial(self.tracer.call, f"{layer}.{fn.__name__}", layer, fn,
                                     op=rec.id, attrs={"op_name": name, **rec.attrs})
        result = None
        try:
            result = self._call(name, group, call, *args)
        except Exception as exc:  # an op boundary: count the failure, keep the pass going
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.seconds = self.timings[name].seconds
        if rec.error is not None:
            return None
        if attrs_of is not None:
            rec.attrs.update(attrs_of(result))
        if value_of is not None:
            rec.value = float(value_of(result))
        if check is not None:
            gate, fn_check = check
            try:
                fn_check(result)
            except GateFailure as exc:
                rec.wrong = f"{gate}: {exc}"
            self.gate(gate, rec.wrong is None, f"{name}: {rec.wrong}")
        return result

    def timed(self, name: str, group: str, fn: Callable, *args):
        """Time benchmark-side work that belongs to a metric but is no op."""
        return self._call(name, group, fn, *args)

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        record_gate(self.gates, name, ok, detail)

    def compare_recorded(self, recorded: dict[str, float] | None) -> None:
        """Every objective against the value recorded at the default seed."""
        if recorded is None:
            return
        values = self.values()
        for name, want in sorted(recorded.items()):
            got = values.get(name)
            ok = got is not None and abs(got - want) <= RECORDED_TOL
            self.gate("recorded objectives", ok, f"{name}: got {got}, recorded {want}")

    def values(self) -> dict[str, float]:
        out = {op.name: op.value for op in self.ops if op.value is not None}
        out.update(self.derived)
        return out

    @property
    def wall(self) -> float:
        return sum(t.seconds for t in self.timings.values())


def scenario_label(sc: Scenario) -> str:
    return "+".join(sorted(sc.failed_links)) or "none"


# --------------------------------------------------------------------------
# Set-up: generate, validate, round-trip through io.


@dataclass
class Named:
    label: str
    instance: NetworkInstance
    scenarios: list[Scenario] | None = None
    beta: float | None = None


def generate(workload: str, instance_seed: int, smoke: bool) -> list[Named]:
    size = SIZES[workload]["smoke" if smoke else "full"]
    if workload == "robust-plan":
        base = instances.random_instance(instance_seed, with_sequences=True, **size)
        inst = instances.with_conditional_sequences(base, instance_seed + 500)
        return [Named("robust-plan", inst)]
    if workload == "oracle-sweep":
        return [Named("oracle-sweep", instances.random_instance(instance_seed, **size))]
    # Instance seed 1 yields criterion 8's instances (generator seeds 1, 2, ...).
    first = 1 + 100 * (instance_seed - 1)
    return [Named(f"flomore/{i}", p.instance, p.scenarios, p.beta)
            for i, p in enumerate(instances.prob_instances(first, size["count"]))]


def validate(named: Named) -> None:
    diagnostics = validate_instance(named.instance)
    if diagnostics:
        raise ValueError(f"{named.label} fails validation: {diagnostics[0]}")


def roundtrip(named: Named) -> tuple[Named, int]:
    """Instance -> dict -> JSON -> dict -> instance; returns the copy and
    the JSON size in bytes."""
    doc = instance_to_dict(named.instance, named.scenarios)
    text = json.dumps(doc)
    instance, scenarios = instance_from_dict(json.loads(text))
    scenarios = scenarios if named.scenarios is not None else None
    if instance_to_dict(instance, scenarios) != doc:
        raise ValueError(f"{named.label} does not survive the io round trip")
    return Named(named.label, instance, scenarios, named.beta), len(text.encode())


def set_up(workload: str, instance_seed: int, smoke: bool,
           tracer: Tracer | None = None) -> list[Named]:
    """One set-up: generate, validate and round-trip every instance."""
    def untraced(_name, _layer, fn, *args, attrs_of=None):
        return fn(*args)

    call = tracer.call if tracer is not None else untraced
    out = []
    for named in call("generators.build", "generators", generate, workload, instance_seed, smoke):
        call("net.validate_instance", "net", validate, named)
        copy, _ = call("io.roundtrip", "io", roundtrip, named,
                       attrs_of=lambda res, *_: {"bytes": res[1]})
        out.append(copy)
    return out


# --------------------------------------------------------------------------
# robust-plan


@dataclass
class RobustContext:
    instance: NetworkInstance
    uncond: NetworkInstance
    conditions: list
    scenarios: list[Scenario]
    tunnels: dict


def robust_context(named: list[Named]) -> RobustContext:
    inst = named[0].instance
    conds = [None] + [inst.condition(c) for c in sorted(
        {q.condition for q in inst.logical_sequences if q.condition})]
    return RobustContext(inst, instances.unconditional(inst), conds,
                         enumerate_scenarios(inst.topology, ROBUST_K),
                         {t.id: t for t in inst.tunnels})


def check_routing(ctx: RobustContext, inst: NetworkInstance, plan, routing) -> None:
    """Criterion 6 invariants for one realized scenario."""
    tol = INVARIANT_TOL
    bad = [p for p, u in routing.utilization.items() if u < -tol or u > 1 + tol]
    if bad:
        raise GateFailure(f"utilization outside [0, 1] for {bad[0]}")
    per_tunnel: dict[str, float] = {}
    link_load: dict[str, float] = {}
    for (tid, _), val in routing.flow.items():
        per_tunnel[tid] = per_tunnel.get(tid, 0.0) + val
        for e in ctx.tunnels[tid].path:
            link_load[e] = link_load.get(e, 0.0) + val
    for tid, val in per_tunnel.items():
        if val > plan.tunnel_reservation[tid] + tol:
            raise GateFailure(f"tunnel {tid} carries {val} > reservation")
    for ln in inst.topology.links:
        if link_load.get(ln.id, 0.0) > ln.capacity + tol:
            raise GateFailure(f"link {ln.id} load exceeds capacity")
    for dest in {p[1] for p in plan.pair_scale}:
        balance = routing_node_balance(inst, routing, dest)
        for node in inst.topology.nodes:
            if node == dest:
                expect = -sum(plan.scaled_demand(inst, p) for p in plan.pair_scale if p[1] == dest)
            else:
                expect = sum(plan.scaled_demand(inst, p) for p in plan.pair_scale
                             if p == (node, dest))
            if abs(balance.get(node, 0.0) - expect) > tol:
                raise GateFailure(f"node {node} balance toward {dest} is off by "
                                  f"{balance.get(node, 0.0) - expect:.3e}")


def check_sequences(flow_plan, sequences) -> None:
    reserved = sum(1 for w in flow_plan.flows if flow_plan.reservation.get(w.id, 0.0) > 1e-9)
    if len(sequences) != reserved:
        raise GateFailure(f"{len(sequences)} sequences for {reserved} reserved flows")
    for q in sequences:
        if len(q.hops) < 2 or q.hops[0] != q.src or q.hops[-1] != q.dst:
            raise GateFailure(f"sequence {q.id} hops do not run {q.src}->{q.dst}")


def robust_plan_pass(ctx: RobustContext, rec: Recorder, rng: random.Random,
                     recorded: dict[str, float] | None) -> None:
    jobs = [(model, mode) for mode in MODES for model in MODELS] + [("oracle", None)]
    rng.shuffle(jobs)
    plans = {}
    flow_plan = None
    for model, mode in jobs:
        if model == "oracle":
            rec.op(f"worst_case_optimal:k={ROBUST_K}", "oracle", "oracle",
                   worst_case_optimal, ctx.instance, ROBUST_K, value_of=lambda r: r[0])
        elif model == "logical_flow":
            res = rec.op(f"solve_logical_flow:{mode}", "robust", f"plan.{mode}",
                         solve_logical_flow, ctx.instance, ctx.conditions, ROBUST_K,
                         "throughput", mode, value_of=lambda r: r[0].objective,
                         attrs={"model": model, "mode": mode})
            if res is not None:
                plans[(model, mode)] = res[0]
                if mode == "dual":
                    flow_plan = res[1]
        else:
            inst = ctx.uncond if model == "ls" else ctx.instance
            res = rec.op(f"solve_robust:{model}:{mode}", "robust", f"plan.{mode}",
                         solve_robust, inst, model, ROBUST_K, "throughput", mode,
                         value_of=lambda r: r.objective, attrs={"model": model, "mode": mode})
            if res is not None:
                plans[(model, mode)] = res

    realize_jobs = [(model, sc) for model in REALIZED_MODELS for sc in ctx.scenarios
                    if (model, "dual") in plans]
    rng.shuffle(realize_jobs)
    for model, sc in realize_jobs:
        plan = plans[(model, "dual")]
        inst = ctx.uncond if model == "ls" else ctx.instance
        rec.op(f"extract_routing:{model}:{scenario_label(sc)}", "realize", "realize",
               extract_routing, plan, inst, sc,
               check=("routing invariants (criterion 6)",
                      lambda r, plan=plan, inst=inst: check_routing(ctx, inst, plan, r)))
    if flow_plan is not None:
        rec.op("widest_path_decompose:logical_flow", "realize", "realize",
               widest_path_decompose, flow_plan,
               check=("widest-path sequences", lambda r: check_sequences(flow_plan, r)))

    values = rec.values()
    chain = [f"solve_robust:{m}:dual" for m in ("ffc", "ffc_plus", "ls", "cls")] + [
        "solve_logical_flow:dual", f"worst_case_optimal:k={ROBUST_K}"]
    for lo, hi in zip(chain, chain[1:]):
        ok = lo in values and hi in values and values[lo] <= values[hi] + CHAIN_EPS
        rec.gate("model chain (criterion 5)", ok,
                 f"{lo}={values.get(lo)} > {hi}={values.get(hi)}")
    for model in MODELS:
        prefix = "solve_logical_flow" if model == "logical_flow" else f"solve_robust:{model}"
        dual, enum = values.get(f"{prefix}:dual"), values.get(f"{prefix}:enumerate")
        ok = dual is not None and enum is not None and dual <= enum + TOL
        rec.gate("dual never optimistic (criterion 4)", ok,
                 f"{model}: dual {dual} > enumerate {enum}")
    rec.compare_recorded(recorded)


# --------------------------------------------------------------------------
# oracle-sweep


@dataclass
class OracleContext:
    instance: NetworkInstance
    scenarios: list[Scenario]


def oracle_context(named: list[Named]) -> OracleContext:
    inst = named[0].instance
    return OracleContext(inst, enumerate_scenarios(inst.topology, ORACLE_K))


def check_mcf(inst: NetworkInstance, sc: Scenario, res) -> None:
    """Capacity, flow conservation and objective of one McfResult."""
    ends = {ln.id: ln.ends for ln in inst.topology.links}
    load: dict[str, float] = {}
    net: dict[tuple[str, str], float] = {}
    for (dst, lid, head), val in res.flow.items():
        if lid in sc.failed_links:
            raise GateFailure(f"flow on failed link {lid}")
        if val < -INVARIANT_TOL:
            raise GateFailure(f"negative flow on {lid}")
        u, v = ends[lid]
        tail = u if head == v else v
        load[lid] = load.get(lid, 0.0) + val
        net[(tail, dst)] = net.get((tail, dst), 0.0) + val
        net[(head, dst)] = net.get((head, dst), 0.0) - val
    for ln in inst.topology.links:
        if load.get(ln.id, 0.0) > ln.capacity + INVARIANT_TOL:
            raise GateFailure(f"link {ln.id} over capacity")
    total = 0.0
    for (s, t), frac in res.satisfied.items():
        if frac < -INVARIANT_TOL or frac > 1 + INVARIANT_TOL:
            raise GateFailure(f"pair {s}>{t} satisfied fraction {frac}")
        total += frac * inst.demand_for(s, t)
    for dst in {t for _, t in res.satisfied}:
        for node in inst.topology.nodes - {dst}:
            want = res.satisfied.get((node, dst), 0.0) * inst.demand_for(node, dst)
            if abs(net.get((node, dst), 0.0) - want) > TOL:
                raise GateFailure(f"conservation at {node} toward {dst}")
    if abs(total - res.objective) > TOL:
        raise GateFailure(f"objective {res.objective} != satisfied traffic {total}")


def worst_case(results: list[tuple[Scenario, float]]) -> tuple[float, Scenario]:
    """The reduction `worst_case_optimal` applies: minimum objective, ties
    to the smallest scenario key."""
    best_val, best_sc = None, None
    for sc, val in results:
        if best_val is None or val < best_val - 1e-12 or \
           (abs(val - best_val) <= 1e-12 and sc.key() < best_sc.key()):
            best_val, best_sc = val, sc
    return best_val, best_sc


def oracle_sweep_pass(ctx: OracleContext, rec: Recorder, rng: random.Random,
                      recorded: dict[str, float] | None) -> None:
    order = list(range(len(ctx.scenarios)))
    rng.shuffle(order)
    results = []
    for i in order:
        sc = ctx.scenarios[i]
        res = rec.op(f"solve_mcf:{scenario_label(sc)}", "oracle", "mcf", solve_mcf,
                     ctx.instance, sc, value_of=lambda r: r.objective,
                     check=("MCF capacity and conservation",
                            lambda r, sc=sc: check_mcf(ctx.instance, sc, r)))
        if res is not None:
            results.append((sc, res.objective))
    value, _ = rec.timed(f"worst_case:k={ORACLE_K}", "oracle", worst_case, results)
    rec.gate("worst case covers every scenario", len(results) == len(ctx.scenarios),
             f"{len(results)} of {len(ctx.scenarios)} scenarios solved")
    if value is not None:
        rec.derived[f"worst_case:k={ORACLE_K}"] = value
    rec.compare_recorded(recorded)


# --------------------------------------------------------------------------
# flomore


def direct_value(pinst: ProbabilisticInstance, report) -> float:
    """The worst threshold-adjusted percentile loss, as criterion 8 reads it."""
    return max((max(0.0, report.flow_loss[u.id] - u.threshold) for u in pinst.units),
               default=0.0)


def check_percentiles(report) -> None:
    if report.max_flow_pct_loss > report.scen_pct_loss + 1e-12:
        raise GateFailure(f"flow percentile {report.max_flow_pct_loss} exceeds "
                          f"scenario percentile {report.scen_pct_loss}")


def flomore_context(named: list[Named]) -> list[tuple[str, ProbabilisticInstance]]:
    return [(n.label, ProbabilisticInstance(n.instance, n.scenarios, beta=n.beta))
            for n in named]


def flomore_pass(ctx: list[tuple[str, ProbabilisticInstance]], rec: Recorder,
                 rng: random.Random, recorded: dict[str, float] | None) -> None:
    order = list(range(len(ctx)))
    rng.shuffle(order)
    for i in order:
        label, p = ctx[i]
        direct = rec.op(f"solve_direct_mip:{label}", "prob", "mip", solve_direct_mip, p,
                        value_of=lambda r, p=p: direct_value(p, r[2]))
        state = rec.op(f"benders_run:{label}", "prob", "benders", benders_run, p,
                       BENDERS_ITERATIONS, value_of=lambda r: r[2].incumbent,
                       attrs_of=lambda r: {"iterations": r[2].iterations,
                                           "cuts": len(r[2].cuts)})
        for variant in CVAR_VARIANTS:
            rec.op(f"solve_cvar:{variant}:{label}", "prob", "cvar", solve_cvar, p, variant,
                   value_of=lambda r: r[2])
        allocs = rec.op(f"solve_scenario_minmax:{label}", "prob", "minmax",
                        solve_scenario_minmax, p)
        if allocs is not None:
            rec.op(f"percentile_analysis:{label}", "prob", "minmax", percentile_analysis,
                   allocs, p, value_of=lambda r: r.max_flow_pct_loss,
                   check=("percentile ordering", check_percentiles))
        ok = direct is not None and state is not None
        detail = f"{label}: an op failed"
        if ok:
            incumbent, bound = state[2].incumbent, state[2].lower_bound
            mip = direct_value(p, direct[2])
            ok = abs(incumbent - mip) <= TOL and bound <= incumbent + TOL
            detail = f"{label}: benders {incumbent} (bound {bound}), MIP {mip}"
        rec.gate("benders equals MIP (criterion 8)", ok, detail)
    rec.compare_recorded(recorded)


# --------------------------------------------------------------------------
# Registry.


@dataclass(frozen=True)
class Workload:
    name: str
    context: Callable[[list[Named]], Any]
    run_pass: Callable[[Any, Recorder, random.Random, dict | None], None]


WORKLOADS = {
    w.name: w for w in (
        Workload("robust-plan", robust_context, robust_plan_pass),
        Workload("oracle-sweep", oracle_context, oracle_sweep_pass),
        Workload("flomore", flomore_context, flomore_pass),
    )
}
