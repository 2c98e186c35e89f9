import numpy as np
import pytest

from resilient_te.fixtures import (
    four_tunnel_example,
    hint_example,
    parallel_example,
    realization_example,
)
from resilient_te.cli import main
from resilient_te.generators import random_instance, with_conditional_sequences
from resilient_te.io import dump_instance
from resilient_te.net import (
    EMPTY_SCENARIO,
    LogicalSequence,
    NetworkInstance,
    Scenario,
    enumerate_scenarios,
)
from resilient_te.realize import (
    MatrixNotWcddError,
    NotTopologicallySortedError,
    _cancel_cycles,
    build_reservation_matrix,
    check_topological_sort,
    extract_routing,
    proportional_routing,
    routing_node_balance,
    solve_reservation_system,
    widest_path_decompose,
)
from resilient_te import robust
from resilient_te.robust import ReservationPlan, solve_logical_flow, solve_robust


def jacobi_solve(M: np.ndarray, rhs: np.ndarray, max_iter: int = 100_000,
                 tol: float = 1e-12) -> np.ndarray:
    """Jacobi iteration; converges because the matrix is WCDD."""
    d = np.diag(M)
    if np.any(np.abs(d) < 1e-14):
        raise MatrixNotWcddError("zero diagonal entry")
    R = M - np.diag(d)
    if rhs.ndim == 2:
        d = d[:, None]
    x = np.zeros_like(rhs, dtype=float)
    for _ in range(max_iter):
        nxt = (rhs - R @ x) / d
        if np.max(np.abs(nxt - x)) < tol:
            return nxt
        x = nxt
    return x


def nested_plan(with_third: bool) -> tuple[NetworkInstance, ReservationPlan]:
    inst = realization_example(with_third)
    ls = {"L1": 1.0, "L2": 1.0}
    scale = {("A", "B"): 1.0}
    if with_third:
        ls["L3"] = 1.0
        scale[("D", "B")] = 1.0
    plan = ReservationPlan("ls", "dual", "throughput", 1.0,
                           {t.id: 1.0 for t in inst.tunnels}, ls, scale)
    return inst, plan


def test_nested_sequences_utilization_vector():
    inst, plan = nested_plan(False)
    mat = build_reservation_matrix(plan, inst, EMPTY_SCENARIO)
    U = solve_reservation_system(mat)
    want = {("A", "C"): 0.25, ("C", "D"): 0.25, ("A", "D"): 0.25,
            ("D", "A"): 0.0, ("D", "B"): 0.5, ("A", "B"): 0.5}
    for pair, val in want.items():
        assert U.get(pair, 0.0) == pytest.approx(val)
    # the unused reverse pair is not of interest at all
    assert ("D", "A") not in mat.pairs


def test_matrix_shape_and_signs():
    inst, plan = nested_plan(True)
    mat = build_reservation_matrix(plan, inst, EMPTY_SCENARIO)
    assert len(mat.pairs) == 6
    M = mat.matrix
    for i in range(6):
        for j in range(6):
            if i == j:
                assert M[i, j] >= 0
            else:
                assert M[i, j] <= 0
        assert M[i].sum() >= -1e-12


def test_coupled_pair_utilizations():
    inst, plan = nested_plan(True)
    mat = build_reservation_matrix(plan, inst, EMPTY_SCENARIO)
    n = len(mat.pairs)
    for pair, want in [
        (("A", "B"), {("A", "C"): 1 / 3, ("C", "D"): 1 / 3, ("A", "D"): 1 / 3,
                      ("D", "A"): 1 / 3, ("D", "B"): 1 / 3, ("A", "B"): 2 / 3}),
        (("D", "B"), {("A", "C"): 1 / 6, ("C", "D"): 1 / 6, ("A", "D"): 1 / 6,
                      ("D", "A"): 2 / 3, ("D", "B"): 2 / 3, ("A", "B"): 1 / 3}),
    ]:
        rhs = np.zeros(n)
        rhs[mat.pairs.index(pair)] = 1.0
        U = solve_reservation_system(mat, rhs=rhs)
        for p, v in want.items():
            assert U[p] == pytest.approx(v)


def test_zero_demand_gives_zero_utilization():
    inst, plan = nested_plan(False)
    plan2 = ReservationPlan(plan.model, plan.mode, plan.objective_kind, 0.0,
                            plan.tunnel_reservation, plan.ls_reservation, {})
    mat = build_reservation_matrix(plan2, inst, EMPTY_SCENARIO)
    assert mat.pairs == []
    assert solve_reservation_system(mat) == {}


def test_jacobi_agrees_with_elimination():
    inst, plan = nested_plan(True)
    mat = build_reservation_matrix(plan, inst, EMPTY_SCENARIO)
    a = solve_reservation_system(mat)
    b = jacobi_solve(mat.matrix, mat.demand)
    assert len(a) == len(b) == len(mat.pairs)
    for i, pair in enumerate(mat.pairs):
        assert a[pair] == pytest.approx(b[i], abs=1e-8)


def test_per_destination_sums_to_aggregate():
    inst, plan = nested_plan(True)
    mat = build_reservation_matrix(plan, inst, EMPTY_SCENARIO)
    agg = solve_reservation_system(mat)
    total = {p: 0.0 for p in mat.pairs}
    for dest, dvec in mat.demand_by_dest.items():
        part = solve_reservation_system(mat, rhs=dvec)
        for p in mat.pairs:
            total[p] += part[p]
    for p in mat.pairs:
        assert total[p] == pytest.approx(agg[p], abs=1e-9)


def test_extract_routing_balances_and_respects_reservations():
    inst, plan = nested_plan(True)
    routing = extract_routing(plan, inst, EMPTY_SCENARIO)
    per_tunnel = {}
    for (tid, dest), val in routing.flow.items():
        per_tunnel[tid] = per_tunnel.get(tid, 0.0) + val
        assert val >= -1e-12
    for tid, total in per_tunnel.items():
        assert total <= plan.tunnel_reservation[tid] + 1e-9
    balance = routing_node_balance(inst, routing, "B")
    assert balance.get("A", 0.0) == pytest.approx(1.0)
    assert balance.get("D", 0.0) == pytest.approx(1.0)
    assert balance.get("B", 0.0) == pytest.approx(-2.0)
    for node in ("C",):
        assert balance.get(node, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_opposing_pairs_cancel():
    inst, plan = nested_plan(True)
    routing = extract_routing(plan, inst, EMPTY_SCENARIO)
    # after cycle removal no destination uses both directions of A-D
    fw = sum(v for (tid, d), v in routing.flow.items() if tid == "T3")
    bw = sum(v for (tid, d), v in routing.flow.items() if tid == "T4")
    assert min(fw, bw) == pytest.approx(0.0, abs=1e-9)


def test_single_tunnel_plan_routes_demand():
    inst = four_tunnel_example("three")
    plan = ReservationPlan("ffc", "dual", "throughput", 1.0,
                           {"T1": 1.0, "T2": 0.0, "T3": 0.0},
                           {}, {("s", "t"): 0.5})
    routing = extract_routing(plan, inst, EMPTY_SCENARIO)
    assert routing.flow[("T1", "t")] == pytest.approx(1.0)


def test_proportional_matches_linear_system():
    inst, plan = nested_plan(False)
    a = extract_routing(plan, inst, EMPTY_SCENARIO)
    b = proportional_routing(plan, inst, EMPTY_SCENARIO)
    keys = set(a.flow) | set(b.flow)
    for key in keys:
        assert a.flow.get(key, 0.0) == pytest.approx(b.flow.get(key, 0.0), abs=1e-8)


def test_proportional_split_ratios():
    # Reservations (2, 3, 5) with the first tunnel dead split 3/8 and 5/8.
    inst = four_tunnel_example("three")
    plan = ReservationPlan("ffc", "dual", "throughput", 1.0,
                           {"T1": 2.0, "T2": 3.0, "T3": 5.0}, {},
                           {("s", "t"): 1.0})
    # demand 2 scaled by 0.5 -> one unit offered; T1 dies with s-1
    routing = proportional_routing(plan, inst, Scenario(frozenset({"s-1"})))
    offered = plan.scaled_demand(inst, ("s", "t"))
    assert routing.flow.get(("T1", "t"), 0.0) == pytest.approx(0.0)
    assert routing.flow[("T2", "t")] == pytest.approx(offered * 3 / 8)
    assert routing.flow[("T3", "t")] == pytest.approx(offered * 5 / 8)


def test_topological_sort_order_and_cycle():
    inst = realization_example(False)
    order, cycle = check_topological_sort(list(inst.logical_sequences))
    assert cycle is None
    assert order.index(("A", "D")) < order.index(("A", "B"))
    inst3 = realization_example(True)
    order3, cycle3 = check_topological_sort(list(inst3.logical_sequences))
    assert order3 is None
    assert set(cycle3) == {("A", "B"), ("D", "B")}
    assert check_topological_sort([])[0] == []


def test_topological_sort_cycle_runs_from_segment_to_rider():
    # (a,c) rides on (a,b), (a,b) on (a,d), (a,d) on (a,c): one 3-cycle.
    seqs = [LogicalSequence("X", "a", "c", ("a", "b", "c")),
            LogicalSequence("Y", "a", "b", ("a", "d", "b")),
            LogicalSequence("Z", "a", "d", ("a", "c", "d"))]
    order, cycle = check_topological_sort(seqs)
    assert order is None
    assert len(cycle) == 4 and cycle[0] == cycle[-1]
    riders = {(q.src, q.dst): q for q in seqs}
    for seg, rider in zip(cycle, cycle[1:]):
        assert seg in riders[rider].segments


def test_cancel_cycles_sharing_an_arc():
    # a->b->a and a->b->c->a share the arc a->b; both cancel, whichever
    # comes first, leaving each node's net outflow unchanged.
    flows = {("a", "b"): 3.0, ("b", "a"): 1.0, ("b", "c"): 1.0, ("c", "a"): 1.0}
    assert _cancel_cycles(flows) == {("a", "b"): 1.0}
    assert _cancel_cycles({("a", "b"): 1.0, ("b", "c"): 2.0}) == {("a", "b"): 1.0, ("b", "c"): 2.0}


def test_proportional_refuses_cycles():
    inst, plan = nested_plan(True)
    with pytest.raises(NotTopologicallySortedError):
        proportional_routing(plan, inst, EMPTY_SCENARIO)


def test_proportional_ignores_an_unreserved_cycle():
    # L3 closes a cycle with L2, but reserves nothing, so only L1 and L2
    # are active and sort.
    inst = realization_example(True)
    _, plan = nested_plan(False)
    plan.ls_reservation["L3"] = 0.0
    a = extract_routing(plan, inst, EMPTY_SCENARIO)
    b = proportional_routing(plan, inst, EMPTY_SCENARIO)
    for key in set(a.flow) | set(b.flow):
        assert a.flow.get(key, 0.0) == pytest.approx(b.flow.get(key, 0.0), abs=1e-8)
    for tid in ("T1", "T2", "T3"):
        assert b.flow[(tid, "B")] == pytest.approx(0.25)
    for tid in ("T5", "T6"):
        assert b.flow[(tid, "B")] == pytest.approx(0.5)


def assert_realizes(inst: NetworkInstance, plan: ReservationPlan, sc: Scenario) -> None:
    """Criterion 6: flow balance, reservation caps, utilization box and link
    capacity, with proportional splitting equal to the matrix solve."""
    routing = extract_routing(plan, inst, sc)
    for val in routing.utilization.values():
        assert -1e-7 <= val <= 1 + 1e-7
    tunnels = {t.id: t for t in inst.tunnels}
    link_load = {}
    per_tunnel = {}
    for (tid, dest), val in routing.flow.items():
        per_tunnel[tid] = per_tunnel.get(tid, 0.0) + val
        for e in tunnels[tid].path:
            link_load[e] = link_load.get(e, 0.0) + val
    for tid, tot in per_tunnel.items():
        assert tot <= plan.tunnel_reservation[tid] + 1e-7
    for ln in inst.topology.links:
        assert link_load.get(ln.id, 0.0) <= ln.capacity + 1e-7
    for dest in {p[1] for p in plan.pair_scale}:
        balance = routing_node_balance(inst, routing, dest)
        for node in inst.topology.nodes:
            if node == dest:
                want = -sum(plan.scaled_demand(inst, p) for p in plan.pair_scale if p[1] == dest)
            else:
                want = plan.scaled_demand(inst, (node, dest))
            assert balance.get(node, 0.0) == pytest.approx(want, abs=1e-7)
    prop = proportional_routing(plan, inst, sc)
    for key in set(routing.flow) | set(prop.flow):
        assert routing.flow.get(key, 0.0) == pytest.approx(prop.flow.get(key, 0.0), abs=1e-8)


def test_plan_realization_over_designed_scenarios():
    # Every solved plan must realize every scenario it was designed for.
    cases = [
        (four_tunnel_example(), "ffc_plus", 1, "throughput"),
        (parallel_example("ls"), "ls", 1, "demand_scale"),
        (hint_example("cls"), "cls", 2, "throughput"),
    ]
    for inst, model, k, objective in cases:
        plan = solve_robust(inst, model, k, objective, "dual")
        for sc in enumerate_scenarios(inst.topology, k):
            assert_realizes(inst, plan, sc)


def conditional_instance(seed: int) -> NetworkInstance:
    return with_conditional_sequences(
        random_instance(seed, 8, 6, 3, 3, with_sequences=True), 500 + seed)


@pytest.mark.parametrize("seed", range(1, 11))
def test_plans_realize_on_instances_with_conditional_sequences(seed):
    # An ls plan reserves every sequence as always active, so its sequences
    # stay in the matrix whatever their conditions say; a cls plan's follow
    # them.
    inst = conditional_instance(seed)
    for model in ("ls", "cls"):
        plan = solve_robust(inst, model, 1, "throughput", "dual")
        for sc in enumerate_scenarios(inst.topology, 1):
            assert_realizes(inst, plan, sc)


def test_cli_realizes_an_ls_plan_on_conditional_sequences(tmp_path, capsys):
    # At seed 8 the ls plan reserves the conditional sequence cq1, whose
    # condition is false with no link failed.
    path = tmp_path / "seed8.json"
    dump_instance(conditional_instance(8), str(path))
    assert main(["--instance", str(path), "realize", "--model", "ls", "--k", "1"]) == 0
    assert capsys.readouterr().out


def test_widest_path_single_route():
    inst = hint_example("cls")
    plan, flow_plan = solve_logical_flow(inst, [None, inst.conditions[0]], 2,
                                         "throughput", "dual")
    seqs = widest_path_decompose(flow_plan)
    for q in seqs:
        assert q.hops[0] == q.src and q.hops[-1] == q.dst
    # the conditional flow holds the relay route
    relay = [q for q in seqs if q.condition == inst.conditions[0].id]
    assert any(q.hops == ("s", "n4", "t") for q in relay)


def test_widest_path_prefers_wider_route():
    from resilient_te.robust import LogicalFlow, LogicalFlowPlan

    flows = (LogicalFlow("w", ("a", "d"), None),)
    loads = {("w", "a", "b"): 0.7, ("w", "b", "d"): 0.7,
             ("w", "a", "c"): 0.3, ("w", "c", "d"): 0.3}
    fp = LogicalFlowPlan(flows, {"w": 1.0}, loads)
    (seq,) = widest_path_decompose(fp)
    assert seq.hops == ("a", "b", "d")


def test_wcdd_violation_detected():
    bad = np.array([[1.0, -2.0], [0.0, 1.0]])
    from resilient_te.realize import _check_wcdd

    with pytest.raises(MatrixNotWcddError):
        _check_wcdd(bad)
    ok = np.array([[2.0, -1.0], [-1.0, 2.0]])
    _check_wcdd(ok)  # strictly dominant everywhere


def test_wcdd_weak_rows_must_chain_to_a_strict_one():
    from resilient_te.realize import _check_wcdd

    # Row 0 is weak and couples only to row 1, also weak, which couples to
    # the strict row 2.
    _check_wcdd(np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]]))
    # Two weak rows coupled only to each other reach no strict row.
    with pytest.raises(MatrixNotWcddError, match="do not chain"):
        _check_wcdd(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(MatrixNotWcddError, match="do not chain"):
        _check_wcdd(np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def test_gaussian_and_jacobi_on_random_wcdd_systems():
    # A demand at most each row's surplus keeps every fraction in [0, 1]:
    # M is an M-matrix, so 0 <= M^-1 rhs <= M^-1 (M 1) = 1.
    from resilient_te.realize import _solve_checked

    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        off = -np.abs(rng.normal(size=(n, n))) * 0.2
        np.fill_diagonal(off, 0.0)
        diag = np.abs(off).sum(axis=1) + rng.uniform(0.1, 1.0, size=n)
        M = off + np.diag(diag)
        surplus = M.sum(axis=1)
        rhs = rng.uniform(0, 1, size=n) * surplus
        x = _solve_checked(M, rhs)
        assert np.allclose(M @ x, rhs, atol=1e-9)
        assert np.allclose(x, jacobi_solve(M, rhs), atol=1e-8)
        # one demand vector per column, as extract_routing stacks them
        cols = rng.uniform(0, 1, size=(n, 3)) * surplus[:, None]
        assert np.allclose(jacobi_solve(M, cols), _solve_checked(M, cols), atol=1e-8)


def test_widest_path_requires_a_route():
    from resilient_te.robust import InternalModelError, LogicalFlow, LogicalFlowPlan

    fp = LogicalFlowPlan((LogicalFlow("w", ("a", "d"), None),), {"w": 1.0}, {})
    with pytest.raises(InternalModelError):
        widest_path_decompose(fp)


def test_simplex_noise_on_zero_reservations_still_realizes(monkeypatch):
    # A simplex optimum may hold 1e-16 where the exact answer is 0.  Such a
    # reservation must not activate a sequence whose segments reserve
    # nothing, whatever the BLAS build rounds to.
    real_solve = robust.solve_lp

    def noisy_solve(lp):
        sol = real_solve(lp)
        for var, val in sol.primal.items():
            if val == 0.0 and var.split("::")[0] in ("a", "b", "z"):
                sol.primal[var] = 2e-16
        return sol

    monkeypatch.setattr(robust, "solve_lp", noisy_solve)
    cases = [
        (hint_example("ls"), "ls", "throughput"),
        (hint_example("cls"), "cls", "throughput"),
        (random_instance(1, n_nodes=8, extra_links=6, n_pairs=3, with_sequences=True),
         "ls", "throughput"),
    ]
    for inst, model, objective in cases:
        plan = solve_robust(inst, model, 1, objective, "dual")
        for sc in enumerate_scenarios(inst.topology, 1):
            extract_routing(plan, inst, sc)
