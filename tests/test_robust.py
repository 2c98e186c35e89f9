import pytest

from resilient_te.failsets import FailurePolytope, build_exact_polytope
from resilient_te.fixtures import four_tunnel_example, hint_example, parallel_example
from resilient_te.lp import LinearProgram, solve_lp
from resilient_te.net import Condition, NetworkInstance
from resilient_te.oracle import worst_case_optimal
from resilient_te import robust
from resilient_te.robust import (
    ProtectedConstraint,
    build_robust_lp,
    dualize_constraint,
    solve_logical_flow,
    solve_robust,
)
from tests.conftest import random_instance, with_conditional_sequences


def test_dualized_budget_matches_sort_and_sum():
    # Worst case of a pure cardinality budget is the sum of the m largest
    # reservations; the robust counterpart must reproduce exactly that.
    reservations = [1.0, 1.0, 0.5, 0.5]
    m = 2
    expected = sum(sorted(reservations, reverse=True)[:m])  # sort-and-sum oracle
    poly = FailurePolytope(variables=[("y", f"t{i}") for i in range(4)])
    poly.add_row({("y", f"t{i}"): 1.0 for i in range(4)}, "<=", float(m))
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
    poly.add_row({("y", "t0"): 1.0}, "<=", 0.0)
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


def test_zero_demand_instance_trivial():
    inst = random_instance(1)
    empty = NetworkInstance(topology=inst.topology, tunnels=inst.tunnels)
    plan = solve_robust(empty, "ffc_plus", 1, "throughput", "dual")
    assert plan.objective == pytest.approx(0.0)


def test_exact_polytope_reused_for_ls_without_conditions():
    inst = random_instance(6, with_sequences=True)
    poly = build_exact_polytope(inst, 1)
    assert all(r.sense in ("<=", "=") for r in poly.rows)
    plan = solve_robust(inst, "ls", 1, "throughput", "dual")
    assert plan.objective >= 0


def test_lp_text_does_not_depend_on_call_history(monkeypatch):
    # Dual multiplier names must come from the LP being built, not from a
    # process-wide counter, so building a model twice gives the same text.
    inst = hint_example("cls")
    first = build_robust_lp(inst, "cls", 2, "throughput", "dual").to_lp_text()
    assert build_robust_lp(inst, "cls", 2, "throughput", "dual").to_lp_text() == first

    seen = []

    def capture(lp):
        seen.append(lp.to_lp_text())
        return solve_lp(lp)

    monkeypatch.setattr(robust, "solve_lp", capture)
    for _ in range(2):
        solve_logical_flow(inst, [None, inst.conditions[0]], 2, "throughput", "dual")
    assert seen[0] == seen[1]
