import dataclasses
import itertools

import numpy as np
import pytest

from resilient_te.cli import FIXTURES, main
from resilient_te.failsets import (
    FailurePolytope,
    build_exact_polytope,
    build_ffc_polytope,
    build_hint_polytope,
    enumerate_patterns,
)
from resilient_te.fixtures import four_tunnel_example, hint_example, parallel_example
from resilient_te.generators import random_instance, with_conditional_sequences
from resilient_te.lp import LinearProgram, solve_lp
from resilient_te.net import Condition, NetworkInstance
from resilient_te.oracle import worst_case_optimal
from resilient_te import robust
from resilient_te.robust import (
    MODES,
    OBJECTIVES,
    ProtectedConstraint,
    build_robust_lp,
    dualize_constraint,
    solve_logical_flow,
    solve_robust,
)


def test_dualized_budget_matches_sort_and_sum():
    # Worst case of a pure cardinality budget is the sum of the m largest
    # reservations; the robust counterpart must reproduce exactly that.
    reservations = [1.0, 1.0, 0.5, 0.5]
    m = 2
    expected = sum(sorted(reservations, reverse=True)[:m])  # sort-and-sum oracle
    poly = FailurePolytope(variables=[("y", f"t{i}") for i in range(4)])
    poly.add_row({("y", f"t{i}"): 1.0 for i in range(4)}, float(m))
    lp = LinearProgram()
    for i, a in enumerate(reservations):
        lp.add_var(f"a::t{i}", a, a)
    lp.add_var("guarantee")
    protected = ProtectedConstraint()
    for i in range(4):
        protected.add_base(f"a::t{i}", 1.0)
        protected.add_indicator(("y", f"t{i}"), f"a::t{i}", 1.0)
    protected.add_base("guarantee", -1.0)
    dualize_constraint(lp, protected, poly)
    lp.set_objective({"guarantee": 1.0}, "max")
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(sum(reservations) - expected)


def test_dualized_empty_budget_reduces_to_sum():
    poly = FailurePolytope(variables=[("y", "t0")])
    poly.add_row({("y", "t0"): 1.0}, 0.0)
    lp = LinearProgram()
    lp.add_var("a::t0", 2.0, 2.0)
    lp.add_var("guarantee")
    protected = ProtectedConstraint()
    protected.add_base("a::t0", 1.0)
    protected.add_indicator(("y", "t0"), "a::t0", 1.0)
    protected.add_base("guarantee", -1.0)
    dualize_constraint(lp, protected, poly)
    lp.set_objective({"guarantee": 1.0}, "max")
    assert solve_lp(lp).objective == pytest.approx(2.0)


def test_modes_agree_on_four_tunnel_exact():
    inst = four_tunnel_example()
    for k in (1, 2):
        dual = solve_robust(inst, "ffc_plus", k, "throughput", "dual")
        enum = solve_robust(inst, "ffc_plus", k, "throughput", "enumerate")
        assert dual.objective == pytest.approx(enum.objective, abs=1e-6)


def test_plan_capacity_rows_hold():
    inst = hint_example("cls")
    plan = solve_robust(inst, "cls", 2, "throughput", "dual")
    load = {}
    for t in inst.tunnels:
        for e in t.path:
            load[e] = load.get(e, 0.0) + plan.tunnel_reservation[t.id]
    for ln in inst.topology.links:
        assert load.get(ln.id, 0.0) <= ln.capacity + 1e-7


def test_ffc_monotonicity_counterexample_and_fix():
    # The conservative budget degrades when the overlapping fourth tunnel is
    # added; the exact model can only improve.
    three, four = four_tunnel_example("three"), four_tunnel_example()
    assert solve_robust(three, "ffc", 1).objective == pytest.approx(1.5)
    assert solve_robust(four, "ffc", 1).objective == pytest.approx(1.0)
    a = solve_robust(three, "ffc_plus", 1).objective
    b = solve_robust(four, "ffc_plus", 1).objective
    assert b >= a - 1e-9


def test_empty_sequence_set_equals_exact_model():
    inst = random_instance(5, with_sequences=False)
    bare = NetworkInstance(topology=inst.topology, demands=inst.demands,
                           tunnels=inst.tunnels)
    ls = solve_robust(bare, "ls", 1, "throughput", "dual")
    plus = solve_robust(bare, "ffc_plus", 1, "throughput", "dual")
    assert ls.objective == pytest.approx(plus.objective, abs=1e-9)


def test_all_always_conditions_equal_unconditional():
    inst = random_instance(8, with_sequences=True)
    always = Condition("always")
    tagged = NetworkInstance(
        topology=inst.topology, demands=inst.demands, tunnels=inst.tunnels,
        logical_sequences=tuple(
            type(q)(q.id, q.src, q.dst, q.hops, condition="always")
            for q in inst.logical_sequences),
        conditions=(always,))
    for mode in ("dual", "enumerate"):
        a = solve_robust(inst, "ls", 1, "throughput", mode).objective
        b = solve_robust(tagged, "cls", 1, "throughput", mode).objective
        assert a == pytest.approx(b, abs=1e-6)


def test_enumerate_dominates_dual_on_random_instances():
    for seed in range(8):
        inst = random_instance(seed, n_nodes=5, extra_links=3, n_pairs=2,
                               with_sequences=seed % 2 == 0)
        model = "ls" if inst.logical_sequences else "ffc_plus"
        enum = solve_robust(inst, model, 1, "throughput", "enumerate").objective
        dual = solve_robust(inst, model, 1, "throughput", "dual").objective
        assert enum >= dual - 1e-7


def test_plan_never_beats_oracle():
    for seed in (0, 3, 9):
        inst = random_instance(seed, n_nodes=5, extra_links=3)
        plan = solve_robust(inst, "ffc_plus", 1, "throughput", "dual")
        best, _ = worst_case_optimal(inst, 1, "throughput")
        assert plan.objective <= best + 1e-7


def test_logical_flow_reduction_and_dominance():
    inst = parallel_example("ls")
    plan, flow_plan = solve_logical_flow(inst, [None], 1, "demand_scale", "dual")
    assert plan.objective >= 2 / 3 - 1e-7  # the hop sequence embeds as a flow
    # no flows at all: identical to the exact tunnel model
    none_plan, fp = solve_logical_flow(inst, [], 1, "demand_scale", "dual")
    bare = solve_robust(
        NetworkInstance(topology=inst.topology, demands=inst.demands, tunnels=inst.tunnels),
        "ffc_plus", 1, "demand_scale", "dual")
    assert none_plan.objective == pytest.approx(bare.objective, abs=1e-9)
    assert fp.reservation == {}


def test_logical_flow_hint_instance_reaches_optimum():
    inst = hint_example("cls")
    cond = inst.conditions[0]
    plan, flow_plan = solve_logical_flow(inst, [None, cond], 2, "throughput", "dual")
    cls = solve_robust(inst, "cls", 2, "throughput", "dual").objective
    oracle, _ = worst_case_optimal(inst, 2, "throughput")
    assert plan.objective >= cls - 1e-7
    assert plan.objective <= oracle + 1e-7
    # flow balance holds for every reserved flow
    for w in flow_plan.flows:
        b = flow_plan.reservation[w.id]
        loads = flow_plan.loads_for(w.id)
        for node in inst.topology.nodes:
            net = sum(v for (i, j), v in loads.items() if i == node) - \
                sum(v for (i, j), v in loads.items() if j == node)
            if node == w.pair[0]:
                assert net == pytest.approx(b, abs=1e-7)
            elif node == w.pair[1]:
                assert net == pytest.approx(-b, abs=1e-7)
            else:
                assert net == pytest.approx(0.0, abs=1e-7)


def test_dominance_chain_small_sample():
    for seed in (2, 4):
        base = random_instance(seed, n_nodes=5, extra_links=3, n_pairs=2,
                               with_sequences=True)
        inst = with_conditional_sequences(base, seed + 100)
        uncond = NetworkInstance(
            topology=inst.topology, demands=inst.demands, tunnels=inst.tunnels,
            logical_sequences=tuple(q for q in inst.logical_sequences if q.condition is None))
        ffc = solve_robust(inst, "ffc", 1).objective
        plus = solve_robust(inst, "ffc_plus", 1).objective
        ls = solve_robust(uncond, "ls", 1).objective
        cls = solve_robust(inst, "cls", 1).objective
        conds = [None] + [inst.condition(c) for c in
                          sorted({q.condition for q in inst.logical_sequences if q.condition})]
        flow = solve_logical_flow(inst, conds, 1)[0].objective
        oracle, _ = worst_case_optimal(inst, 1)
        eps = 1e-7
        assert ffc <= plus + eps
        assert plus <= ls + eps
        assert ls <= cls + eps
        assert cls <= flow + eps
        assert flow <= oracle + eps


def test_dual_mode_is_never_optimistic_on_conditional_instances():
    # Every condition is carried by the hint rows: the random ones have one
    # dead link each, and the added one an alive link and two dead ones.
    for seed in range(3):
        inst = with_conditional_sequences(random_instance(seed, with_sequences=True), seed + 500)
        links = sorted(ln.id for ln in inst.topology.links)
        mix = Condition("mix", alive_links=frozenset(links[:1]), dead_links=frozenset(links[1:3]))
        q = next(q for q in inst.logical_sequences if q.condition is not None)
        mixed = dataclasses.replace(
            inst, conditions=inst.conditions + (mix,),
            logical_sequences=inst.logical_sequences + (dataclasses.replace(q, id="mixq",
                                                                            condition="mix"),))
        for case, k in itertools.product((inst, mixed), (1, 2)):
            modes = {mode: solve_robust(case, "cls", k, "throughput", mode).objective
                     for mode in MODES}
            assert modes["dual"] <= modes["enumerate"] + 1e-6
            conds = [None, *case.conditions]
            flows = {mode: solve_logical_flow(case, conds, k, "throughput", mode)[0].objective
                     for mode in MODES}
            assert flows["dual"] <= flows["enumerate"] + 1e-6


#: Logical-flow objectives of `random_instance(seed, 8, 6, 3, 3,
#: with_sequences=True)` with `with_conditional_sequences(., 500 + seed)`, as
#: solved with a load on every segment for every flow, per seed:
#: (demand_scale k=1, k=2, throughput k=1, k=2), the same in both modes.
LOGICAL_FLOW_OBJECTIVES = {
    1: (0.0, 0.0, 1.112, 0.336),
    2: (0.590653396798, 0.0, 1.365, 0.0),
    3: (0.403269754768, 0.0, 1.308, 0.0),
    4: (0.0, 0.0, 1.137, 0.767),
    5: (0.601060304838, 0.0, 1.488, 0.0),
    6: (0.679759377212, 0.0, 1.921, 0.66),
    7: (0.999481477214, 0.0, 2.0361, 0.633),
    8: (1.25015518312, 0.0, 1.611, 0.862),
}


def conditional_instance(seed):
    inst = with_conditional_sequences(
        random_instance(seed, 8, 6, 3, 3, with_sequences=True), 500 + seed)
    return inst, [None] + [inst.condition(c) for c in
                           sorted({q.condition for q in inst.logical_sequences if q.condition})]


def test_logical_flow_objectives_equal_their_recorded_values():
    for seed, want in LOGICAL_FLOW_OBJECTIVES.items():
        inst, conds = conditional_instance(seed)
        cases = itertools.product(("demand_scale", "throughput"), (1, 2))
        for mode, ((objective, k), value) in itertools.product(MODES, zip(cases, want)):
            got = solve_logical_flow(inst, conds, k, objective, mode)[0].objective
            assert got == pytest.approx(value, abs=1e-9), (seed, mode, objective, k)


def test_logical_flows_load_only_segments_on_a_path_of_their_pair(monkeypatch):
    # A flow of (s, t) gets a segment (i, j) only when i is reachable from s
    # and j reaches t, neither through the other end; any other load would
    # be a circulation.
    seen = []

    def capture(lp):
        seen.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(robust, "solve_lp", capture)
    for seed in (1, 2, 3):
        inst, conds = conditional_instance(seed)
        support = {(t.src, t.dst) for t in inst.tunnels} | set(inst.demand_pairs())

        def reach(start, avoid, arcs):
            out, frontier = {start}, [start]
            while frontier:
                u = frontier.pop()
                for a, b in arcs:
                    if a == u and b != avoid and b not in out:
                        out.add(b)
                        frontier.append(b)
            return out

        for mode in MODES:
            seen.clear()
            _, flow_plan = solve_logical_flow(inst, conds, 1, "throughput", mode)
            pairs = {w.id: w.pair for w in flow_plan.flows}
            loaded = [name[len("pw::"):].rsplit("::", 1)
                      for name in (v.name for v in seen[0]._vars) if name.startswith("pw::")]
            assert loaded
            for wid, seg in loaded:
                s, t = pairs[wid]
                i, j = seg.split(">")
                assert (i, j) in support
                assert i in reach(s, t, support), (seed, wid, seg)
                assert j in reach(t, s, {(b, a) for a, b in support}), (seed, wid, seg)
            for w in flow_plan.flows:
                b, loads = flow_plan.reservation[w.id], flow_plan.loads_for(w.id)
                for node in inst.topology.nodes:
                    net = sum(v for (i, _), v in loads.items() if i == node) - \
                        sum(v for (_, j), v in loads.items() if j == node)
                    want = b if node == w.pair[0] else -b if node == w.pair[1] else 0.0
                    assert net == pytest.approx(want, abs=1e-7), (seed, mode, w.id, node)


def test_zero_demand_instance_trivial():
    inst = random_instance(1)
    empty = NetworkInstance(topology=inst.topology, tunnels=inst.tunnels)
    plan = solve_robust(empty, "ffc_plus", 1, "throughput", "dual")
    assert plan.objective == pytest.approx(0.0)


def test_exact_polytope_reused_for_ls_without_conditions():
    inst = random_instance(6, with_sequences=True)
    plan = solve_robust(inst, "ls", 1, "throughput", "dual")
    assert plan.objective >= 0


def test_built_lp_does_not_depend_on_call_history(monkeypatch):
    # Dual multiplier names must come from the LP being built, not from a
    # process-wide counter, so building a model twice gives the same LP:
    # the same variables, bounds, rows, objective and name.
    inst = hint_example("cls")
    first = build_robust_lp(inst, "cls", 2, "throughput", "dual")
    assert build_robust_lp(inst, "cls", 2, "throughput", "dual") == first

    seen = []

    def capture(lp):
        seen.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(robust, "solve_lp", capture)
    for _ in range(2):
        solve_logical_flow(inst, [None, inst.conditions[0]], 2, "throughput", "dual")
    assert seen[0] == seen[1]


def test_negative_budget_rejected_in_every_model_and_mode():
    # A negative budget leaves the failure polytope empty, so a dual
    # counterpart would read the worst case as -inf and accept any plan.
    inst = hint_example("cls")
    for mode in MODES:
        for model in ("ffc", "ffc_plus", "ls", "cls"):
            for objective in OBJECTIVES:
                with pytest.raises(ValueError, match="k must be >= 0"):
                    solve_robust(inst, model, -1, objective, mode)
        with pytest.raises(ValueError, match="k must be >= 0"):
            solve_logical_flow(inst, [None, inst.conditions[0]], -1, "throughput", mode)
        assert main(["--fixture", "hint", "solve", "--model", "ffc-plus", "--k", "-1",
                     "--mode", mode]) == 1


def test_contradictory_condition_rejected_in_every_mode():
    # Enumerate mode builds no polytope, so the check must not live only in
    # build_hint_polytope.
    inst = hint_example("cls")
    bad = Condition("bad", alive_links=frozenset({"s-1"}), dead_links=frozenset({"s-1"}))
    for mode in MODES:
        with pytest.raises(ValueError, match="both alive and dead"):
            solve_logical_flow(inst, [None, bad], 1, "throughput", mode)


def test_enumerate_mode_builds_no_polytope(monkeypatch):
    def refuse(*_args):
        raise AssertionError("enumerate mode built a failure polytope")

    for name in ("build_ffc_polytope", "build_exact_polytope", "build_hint_polytope"):
        monkeypatch.setattr(robust, name, refuse)
    inst = hint_example("cls")
    for model in ("ffc", "ffc_plus", "ls", "cls"):
        assert solve_robust(inst, model, 1, "throughput", "enumerate").objective >= 0.0
    solve_logical_flow(inst, [None, inst.conditions[0]], 1, "throughput", "enumerate")


def test_dualize_rejects_indicator_outside_polytope():
    # Dropping the h:nope term would read it as never failing, so z = 1
    # would pass for a guarantee that a failure of h:nope breaks.
    poly = build_exact_polytope(four_tunnel_example(), 1)
    lp = LinearProgram()
    lp.add_var("a", 0.0, 1.0)
    lp.add_var("z", 0.0, 1.0)
    protected = ProtectedConstraint(label="nope")
    protected.add_base("a", 1.0)
    protected.add_base("z", -1.0)
    protected.add_indicator(("h", "nope"), "a", 1.0)
    with pytest.raises(ValueError, match="h:nope"):
        dualize_constraint(lp, protected, poly)


def _max_weight(poly, weights):
    """max w.v over the polytope's relaxation, by the LP solver."""
    lp = LinearProgram()
    for kind, ref in poly.variables:
        lp.add_var(f"{kind}:{ref}", 0.0, 1.0)
    for row in poly.rows:
        lp.add_row({f"{kind}:{ref}": c for (kind, ref), c in row.coeffs}, "<=", row.rhs)
    lp.set_objective({f"{kind}:{ref}": w for (kind, ref), w in weights.items()}, "max")
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    return sol.objective


def _protected_indicators(inst):
    """Each pair the cls model protects, with its tunnels' y and the h of
    the conditions its carriers use."""
    pairs = list(dict.fromkeys(inst.demand_pairs() + [
        seg for q in inst.logical_sequences for seg in q.segments]))
    out = {}
    for pair in pairs:
        conds = sorted({q.condition for q in inst.logical_sequences if q.condition
                        and (pair == (q.src, q.dst) or pair in q.segments)})
        out[pair] = ([("y", t.id) for t in inst.tunnels_for(*pair)], [("h", c) for c in conds])
    return out


def test_pair_local_polytopes_are_exact_projections():
    rng = np.random.default_rng(7)
    for seed in (2, 5):
        base = random_instance(seed, n_nodes=5, extra_links=3, n_pairs=2, with_sequences=True)
        inst = with_conditional_sequences(base, seed + 100)
        conds = list(inst.conditions)
        for k in (1, 2):
            full = {"ffc": build_ffc_polytope(inst, k), "exact": build_exact_polytope(inst, k),
                    "hint": build_hint_polytope(inst, k, conds)}
            for pair, (ys, hs) in _protected_indicators(inst).items():
                own = [inst.condition(ref) for _, ref in hs]
                bare = robust._pair_scope(inst, pair, [])
                local = {"ffc": build_ffc_polytope(bare, k), "exact": build_exact_polytope(bare, k),
                         "hint": build_hint_polytope(robust._pair_scope(inst, pair, own), k, own)}
                for kind, poly in full.items():
                    scope = ys + hs if kind == "hint" else ys
                    if not scope:
                        continue
                    weights = dict(zip(scope, rng.uniform(0.0, 1.0, len(scope))))
                    assert set(scope) <= set(local[kind].variables)
                    assert len(local[kind].rows) < len(poly.rows)
                    assert _max_weight(local[kind], weights) == pytest.approx(
                        _max_weight(poly, weights), abs=1e-9), (seed, k, pair, kind)


def test_enumerate_block_per_pair_is_small_at_k1():
    # At k=1 a pair sees the empty scenario plus one failure per link in
    # its scope; every other link failure projects onto the empty one.
    for seed in (2, 5):
        base = random_instance(seed, n_nodes=5, extra_links=3, n_pairs=2, with_sequences=True)
        inst = with_conditional_sequences(base, seed + 100)
        lp = build_robust_lp(inst, "cls", 1, "throughput", "enumerate")
        for (s, t), (ys, hs) in _protected_indicators(inst).items():
            own = [inst.condition(ref) for _, ref in hs]
            links = robust._pair_scope(inst, (s, t), own).topology.links
            assert len(links) < len(inst.topology.links)
            block = [r for r in lp._rows if r.name.startswith(f"en:{s}>{t}:")]
            assert 1 <= len(block) <= len(links) + 1


def _enumerate_rows_of(lp):
    return [(r.name, list(r.coeffs.items()), r.sense, r.rhs)
            for r in lp._rows if r.name.startswith("en:")]


def test_pair_local_enumeration_matches_instance_wide_projection(monkeypatch):
    # Reference: each pair projects the instance-wide patterns onto its own
    # indicators and keeps the first occurrence of each, in order.
    for name, builder in sorted(FIXTURES.items()):
        inst = builder()
        for model in ("ffc_plus", "ls", "cls"):
            for k in (0, 1, 2):
                local = build_robust_lp(inst, model, k, "throughput", "enumerate")
                with monkeypatch.context() as m:
                    m.setattr(robust, "enumerate_patterns", lambda *_args: enumerate_patterns(
                        inst, k, list(inst.conditions)))
                    wide = build_robust_lp(inst, model, k, "throughput", "enumerate")
                assert _enumerate_rows_of(local), (name, model, k)
                assert _enumerate_rows_of(local) == _enumerate_rows_of(wide), (name, model, k)
