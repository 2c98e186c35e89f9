import dataclasses

import pytest

from resilient_te import oracle
from resilient_te.fixtures import flow_example, four_tunnel_example, hint_example, parallel_example
from resilient_te.lp import solve_lp
from resilient_te.net import Scenario, UnknownLinkError
from resilient_te.oracle import generalized_family, solve_mcf, worst_case_optimal


def test_mcf_hand_flow_after_one_failure():
    # With the 1-t link down, one unit rides the second two-hop path and one
    # unit funnels through the relay node; the LP must confirm the hand flow.
    inst = four_tunnel_example()
    res = solve_mcf(inst, Scenario(frozenset({"1-t"})), "throughput")
    assert res.objective == pytest.approx(2.0)
    assert res.satisfied[("s", "t")] == pytest.approx(1.0)


def test_mcf_phase_one_stops_when_no_artificial_is_positive(monkeypatch):
    # The balance rows have rhs 0, so their artificials start at 0 and phase
    # 1 only has to price out the capacity rows.  Running phase 1 until no
    # column prices out took 10 pivots on this LP.
    sols = []

    def capture(lp):
        sols.append(solve_lp(lp))
        return sols[-1]

    monkeypatch.setattr(oracle, "solve_lp", capture)
    res = solve_mcf(flow_example(), Scenario(frozenset()), "throughput")
    (sol,) = sols
    assert res.objective == pytest.approx(2.0)
    assert sol.pivots[0] <= 10


def test_mcf_without_demand_builds_no_lp(monkeypatch):
    # No positive demand: the empty result comes back before any LP is
    # built, but an unknown failed link is still rejected first.
    def no_lp(*args, **kwargs):
        raise AssertionError("LP built for an instance without demand")

    monkeypatch.setattr(oracle, "LinearProgram", no_lp)
    inst = dataclasses.replace(flow_example(), demands=())
    res = solve_mcf(inst, Scenario(frozenset()), "throughput")
    assert (res.objective, res.flow, res.satisfied) == (0.0, {}, {})
    with pytest.raises(UnknownLinkError):
        solve_mcf(inst, Scenario(frozenset({"nope"})), "throughput")


def test_mcf_parallel_scale():
    inst = parallel_example("tunnels")
    res = solve_mcf(inst, Scenario(frozenset({"e1"})), "demand_scale")
    assert res.objective == pytest.approx(2 / 3)


def test_mcf_baseline_dominates_failures():
    inst = four_tunnel_example()
    base = solve_mcf(inst, Scenario(frozenset()), "demand_scale")
    for lid in ("s-1", "4-t", "3-4"):
        failed = solve_mcf(inst, Scenario(frozenset({lid})), "demand_scale")
        assert failed.objective <= base.objective + 1e-9


def test_mcf_capacity_respected():
    inst = four_tunnel_example()
    res = solve_mcf(inst, Scenario(frozenset({"2-t"})), "throughput")
    loads = {}
    for (dest, lid, head), val in res.flow.items():
        loads[lid] = loads.get(lid, 0.0) + val
    for ln in inst.topology.links:
        assert loads.get(ln.id, 0.0) <= ln.capacity + 1e-7


def test_worst_case_examples():
    inst = four_tunnel_example()
    val1, _ = worst_case_optimal(inst, 1, "throughput")
    val2, wit2 = worst_case_optimal(inst, 2, "throughput")
    assert val1 == pytest.approx(2.0)
    assert val2 == pytest.approx(1.0)
    assert wit2.failed_links == frozenset({"1-t", "2-t"})
    hx = hint_example("tunnels")
    hval, _ = worst_case_optimal(hx, 2, "throughput")
    assert hval == pytest.approx(1.0)


def test_worst_case_non_increasing_in_k():
    inst = four_tunnel_example()
    vals = [worst_case_optimal(inst, k, "throughput")[0] for k in range(3)]
    assert vals == sorted(vals, reverse=True)


def test_generalized_family_closed_forms():
    small = generalized_family(3, 2, 2)
    v, _ = worst_case_optimal(small, 1, "demand_scale")
    assert v == pytest.approx(1 - 1 / 3)
    from resilient_te.robust import solve_robust

    plan = solve_robust(small, "ffc_plus", 1, "demand_scale")
    assert plan.objective == pytest.approx(1 / 2)  # 1/n with every path tunneled
    bigger = generalized_family(9, 3, 3)
    assert len(bigger.tunnels) == 9 * 3 ** (3 - 2) * 3 ** 0 or len(bigger.tunnels) == 81
    v2, _ = worst_case_optimal(bigger, 2, "demand_scale")
    assert v2 == pytest.approx(7 / 9)


def test_generalized_family_rejects_bad_params():
    with pytest.raises(ValueError):
        generalized_family(2, 3, 2)  # p < n
    with pytest.raises(ValueError):
        generalized_family(3, 2, 1)  # m too small
    with pytest.raises(ValueError):
        generalized_family(3, 1, 2)  # n too small


def test_disconnected_pair_yields_zero():
    inst = parallel_example("tunnels")
    # all s-u links down: s cannot reach t at all
    res = solve_mcf(inst, Scenario(frozenset({"e1", "e2", "e3"})), "throughput")
    assert res.objective == pytest.approx(0.0)
    res2 = solve_mcf(inst, Scenario(frozenset({"e1", "e2", "e3"})), "demand_scale")
    assert res2.objective == pytest.approx(0.0)

