import dataclasses
import math
import random

import pytest

from resilient_te import lp as lp_module
from resilient_te import oracle
from resilient_te.cli import FIXTURES, main
from resilient_te.fixtures import flow_example, four_tunnel_example, hint_example, parallel_example
from resilient_te.generators import random_instance
from resilient_te.lp import Solution, SolverStallError, solve_lp
from resilient_te.net import Scenario, UnknownLinkError, enumerate_scenarios
from resilient_te.oracle import generalized_family, solve_mcf, worst_case_optimal


def test_mcf_hand_flow_after_one_failure():
    # With the 1-t link down, one unit rides the second two-hop path and one
    # unit funnels through the relay node; the LP must confirm the hand flow.
    inst = four_tunnel_example()
    res = solve_mcf(inst, Scenario(frozenset({"1-t"})), "throughput")
    assert res.objective == pytest.approx(2.0)
    assert res.satisfied[("s", "t")] == pytest.approx(1.0)


def test_mcf_phase_one_stops_when_no_artificial_is_positive(monkeypatch):
    # The intact MCF is solved cold once, through the lp module, under its
    # flow-charged objective.  Its balance rows have rhs 0, so their
    # artificials start at 0 and phase 1 only has to price out the capacity
    # rows; running phase 1 until no column prices out took 10 pivots on
    # this LP.  The plain LP then re-solves warm from that vertex, without a
    # pivot.  The no-failure scenario reads that solution; a scenario that
    # has to re-solve does so warm, through `oracle.solve_lp`, and runs no
    # phase 1 at all.
    stages, sols = [], []

    def staged(lp, start=None):
        sol = solve_lp(lp, start=start)
        stages.append((start is None, sol.pivots))
        return sol

    def capture(lp, start=None):
        sols.append(solve_lp(lp, start=start))
        return sols[-1]

    monkeypatch.setattr(lp_module, "solve_lp", staged)
    monkeypatch.setattr(oracle, "solve_lp", capture)
    inst = flow_example()
    res = solve_mcf(inst, Scenario(frozenset()), "throughput")
    assert res.objective == pytest.approx(2.0)
    (cold, charged), (warm, plain) = stages
    assert cold and charged[0] <= 10
    assert not warm and plain == (0, 0)
    assert sols == []
    for sc in enumerate_scenarios(inst.topology, 2):
        failed = solve_mcf(inst, sc, "throughput")
        assert failed.objective <= res.objective + 1e-9
    assert sols and all(sol.pivots[0] == 0 for sol in sols)


def _least_total_flow(intact) -> float:
    """The least total flow of an optimum of the intact MCF, from a second
    LP: the intact rows and bounds, the objective held at its optimum less
    1e-9, and the total flow minimized."""
    lp = intact.lp.with_bounds({})
    lp.add_row({lp._vars[j].name: c for j, c in lp._obj.items()}, ">=",
               intact.optimum.objective - 1e-9)
    lp.set_objective({var: 1.0 for _, var in intact.flows}, "min")
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    return sol.objective


@pytest.mark.parametrize("objective", ["throughput", "demand_scale"])
def test_the_intact_mcf_routes_its_optimum_with_the_least_total_flow(objective):
    # The memo keeps the plain LP's optimum, with the objective of a cold
    # plain solve, at a vertex that carries no more flow than that optimum
    # needs: on every fixture and on the oracle-sweep benchmark's instance.
    sweep = dict(n_nodes=14, extra_links=11, n_pairs=10, tunnels_per_pair=3)
    instances = [(name, make()) for name, make in sorted(FIXTURES.items())]
    instances += [(f"oracle-sweep instance seed {seed}", random_instance(seed, **sweep))
                  for seed in (1, 2, 3)]
    for name, inst in instances:
        intact = oracle._intact_mcf(inst, objective)
        if intact is None:
            continue
        assert intact.optimum.objective == pytest.approx(solve_lp(intact.lp).objective,
                                                         abs=1e-9), name
        total = sum(intact.optimum.flow.values())
        assert total == pytest.approx(_least_total_flow(intact), abs=1e-6), name


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


def _fixture_scenarios():
    for name, make in sorted(FIXTURES.items()):
        inst = make()
        if inst.demands:
            yield name, inst, enumerate_scenarios(inst.topology, 2)


@pytest.mark.parametrize("objective", ["throughput", "demand_scale"])
def test_warm_scenarios_match_a_cold_solve(objective):
    # Every scenario reads a memoized optimum or re-solves warm from one; a
    # cold solve of the same bounds-edited LP must give the same objective,
    # and no flow may be reported on a failed link.
    for name, inst, scenarios in _fixture_scenarios():
        for sc in scenarios:
            w = solve_mcf(inst, sc, objective)
            cold = solve_lp(oracle._intact_mcf(inst, objective).cut(sc.failed_links))
            assert w.objective == pytest.approx(cold.objective, abs=1e-9), (name, sc)
            assert not {lid for (_, lid, _) in w.flow} & sc.failed_links, (name, sc)


def test_flow_on_a_failed_link_is_never_reported(monkeypatch):
    # A failed link's arcs can stay basic at a value within the feasibility
    # tolerance (on one oracle-sweep instance, 42 of them at up to 1e-15);
    # they carry no flow, whether the scenario re-solves or reads a link's
    # memoized optimum.
    def noisy(lp, start=None):
        sol = solve_lp(lp, start=start)
        for v in lp._vars:
            if v.ub == 0.0:
                sol.primal[v.name] = 1e-8
        return sol

    monkeypatch.setattr(oracle, "solve_lp", noisy)
    monkeypatch.setattr(lp_module, "solve_lp", noisy)
    oracle._memo.clear()
    inst = four_tunnel_example()
    for sc in enumerate_scenarios(inst.topology, 2):
        res = solve_mcf(inst, sc, "throughput")
        assert not {lid for (_, lid, _) in res.flow} & sc.failed_links
    oracle._memo.clear()


def test_mcf_results_do_not_depend_on_call_order():
    # A scenario starts from the memoized scenario of its busiest failed
    # link alone, which is itself solved from the intact basis: never from
    # whichever scenario came before.  So neither the order of calls nor a
    # rebuilt memo changes a bit, at k = 2 and at k = 3.
    rng = random.Random(7)
    for name, inst, _ in _fixture_scenarios():
        for k in (2, 3):
            scenarios = enumerate_scenarios(inst.topology, k)
            shuffled = rng.sample(range(len(scenarios)), len(scenarios))
            for objective in ("throughput", "demand_scale"):
                oracle._memo.clear()
                forward = [repr(solve_mcf(inst, sc, objective)) for sc in scenarios]
                backward = [repr(solve_mcf(inst, sc, objective)) for sc in reversed(scenarios)]
                oracle._memo.clear()  # rebuilt, in a shuffled order
                mixed = {i: repr(solve_mcf(inst, scenarios[i], objective)) for i in shuffled}
                assert forward == backward[::-1] == [mixed[i] for i in range(len(scenarios))], \
                    (name, k, objective)


def _load(intact, lid):
    """The flow variables of link `lid` positive in the intact optimum:
    counted here from its flows, not read from the memo's ranks."""
    return sum(val > 1e-9 for (_, link, _), val in intact.optimum.flow.items() if link == lid)


def _busiest(intact, failed):
    """The failed link of the largest `_load`, ties to the smallest id."""
    return min(sorted(failed), key=lambda lid: -_load(intact, lid))


def _needs_repair(intact, failed) -> bool:
    """Whether a failed link other than the busiest carries flow in the
    busiest link's memoized optimum."""
    busiest = _busiest(intact, failed)
    return any(lid in failed - {busiest} for _, lid, _ in intact.link_optima[busiest].flow)


def test_each_scenario_makes_one_solve_and_the_link_memo_keeps_one_entry_per_link(monkeypatch):
    # A scenario makes at most one `oracle.solve_lp` call: one when a failed
    # link other than its busiest carries flow in the busiest link's
    # optimum, none otherwise (so a single-link scenario makes none),
    # whether the link memo is built yet or not, since entries are solved
    # through the lp module, as the intact MCF is.  An entry is kept only
    # for a link that is the busiest failed link of some scenario, at most
    # one per link: the intact optimum itself for a link that carries no
    # intact flow, else that link's scenario solved warm from the intact
    # optimum, kept with a bare warm start.  The entries go when the intact
    # memo does.
    solves, seen = [], {"repaired": 0, "read": 0, "intact entries": 0, "solved entries": 0}

    def counted(lp, start=None):
        solves.append(start)
        return solve_lp(lp, start=start)

    monkeypatch.setattr(oracle, "solve_lp", counted)
    for name, inst, _ in _fixture_scenarios():
        scenarios = enumerate_scenarios(inst.topology, 3)
        for sweep in range(2):  # the link memo cold, then warm
            for sc in random.Random(sweep).sample(scenarios, len(scenarios)):
                solves.clear()
                solve_mcf(inst, sc, "throughput")
                intact = oracle._intact_mcf(inst, "throughput")
                repaired = bool(sc.failed_links) and _needs_repair(intact, sc.failed_links)
                assert len(solves) == repaired, (name, sc)
                if len(sc.failed_links) > 1:
                    seen["repaired" if repaired else "read"] += 1
        chained = {_busiest(intact, sc.failed_links) for sc in scenarios if sc.failed_links}
        assert set(intact.link_optima) == chained, name
        loaded = {lid for _, lid, _ in intact.optimum.flow}
        for lid, opt in intact.link_optima.items():
            assert (opt.start.primal, opt.start.duals) == ({}, None)
            if lid not in loaded:
                assert opt is intact.optimum, (name, lid)
                seen["intact entries"] += 1
                continue
            alone = solve_lp(intact.cut((lid,)), start=intact.optimum.start)
            assert opt.objective == alone.objective, (name, lid)
            seen["solved entries"] += 1
        oracle._memo.clear()
        assert oracle._intact_mcf(inst, "throughput").link_optima == {}
    assert min(seen.values()) > 0, seen


def test_a_scenario_starts_from_its_busiest_failed_link_ties_to_the_smallest_id(monkeypatch):
    # A scenario of two or three failed links that re-solves starts from
    # the memoized optimum of the failed link with the most flow variables
    # positive in the intact solution, the smallest id among equals: on the
    # fixtures, some of those links are not the smallest failed id, and
    # some win a tie.
    starts = []

    def recorded(lp, start=None):
        starts.append(start)
        return solve_lp(lp, start=start)

    monkeypatch.setattr(oracle, "solve_lp", recorded)
    seen = {"not smallest": 0, "tie": 0}
    for name, inst, _ in _fixture_scenarios():
        for objective in ("throughput", "demand_scale"):
            intact = oracle._intact_mcf(inst, objective)
            for sc in enumerate_scenarios(inst.topology, 3):
                if len(sc.failed_links) < 2:
                    continue
                starts.clear()
                solve_mcf(inst, sc, objective)
                if not starts:
                    continue
                busiest = _busiest(intact, sc.failed_links)
                assert starts == [intact.link_optima[busiest].start], (name, objective, sc)
                loads = sorted(_load(intact, lid) for lid in sc.failed_links)
                seen["not smallest"] += busiest != min(sc.failed_links)
                seen["tie"] += loads[-1] == loads[-2] and loads[-1] > 0
    assert min(seen.values()) > 0, seen


def test_a_single_link_scenario_on_a_warm_memo_takes_no_pivot(monkeypatch):
    # A scenario of one failed link reads its own memo entry, with the link
    # memo cold or warm: it makes no `oracle.solve_lp` call, so it takes no
    # pivot.  A warm re-solve of it from that entry would take none either.
    calls = []
    monkeypatch.setattr(oracle, "solve_lp", lambda lp, start=None: calls.append(lp))
    for name, inst, _ in _fixture_scenarios():
        singles = [sc for sc in enumerate_scenarios(inst.topology, 1) if sc.failed_links]
        for objective in ("throughput", "demand_scale"):
            oracle._memo.clear()
            for sweep in range(2):  # the link memo cold, then warm
                for sc in singles:
                    solve_mcf(inst, sc, objective)
            assert calls == [], (name, objective)
            intact = oracle._intact_mcf(inst, objective)
            for sc in singles:
                (lid,) = sc.failed_links
                again = solve_lp(intact.cut((lid,)), start=intact.link_optima[lid].start)
                assert again.pivots == (0, 0), (name, objective, lid)


@pytest.mark.parametrize("objective", ["throughput", "demand_scale"])
def test_a_scenario_read_from_the_memo_matches_a_warm_re_solve(monkeypatch, objective):
    # A scenario that makes no `oracle.solve_lp` call reads its busiest
    # link's memoized optimum.  A warm re-solve of its LP from that optimum
    # gives the same objective, flows and satisfied fractions, within 1e-9:
    # on every fixture at k <= 3 and on the oracle-sweep benchmark's
    # instance (k = 2) at instance seeds 1-3.
    calls = []

    def recorded(lp, start=None):
        calls.append(lp)
        return solve_lp(lp, start=start)

    monkeypatch.setattr(oracle, "solve_lp", recorded)
    sweep = dict(n_nodes=14, extra_links=11, n_pairs=10, tunnels_per_pair=3)
    cases = [(name, inst, enumerate_scenarios(inst.topology, 3))
             for name, inst, _ in _fixture_scenarios()]
    for seed in (1, 2, 3):
        inst = random_instance(seed, **sweep)
        cases.append((f"oracle-sweep instance seed {seed}", inst, enumerate_scenarios(inst.topology, 2)))
    read = 0
    for name, inst, scenarios in cases:
        for sc in scenarios:
            calls.clear()
            res = solve_mcf(inst, sc, objective)
            if calls or not sc.failed_links:
                continue
            read += 1
            intact = oracle._intact_mcf(inst, objective)
            start = intact.link_optima[_busiest(intact, sc.failed_links)].start
            sol = solve_lp(intact.cut(sc.failed_links), start=start)
            assert res.objective == pytest.approx(sol.objective, abs=1e-9), (name, sc)
            flow = {key: sol.primal[var] for key, var in intact.flows
                    if key[1] not in sc.failed_links}
            for key in flow.keys() | res.flow.keys():
                assert res.flow.get(key, 0.0) == pytest.approx(flow.get(key, 0.0), abs=1e-9), \
                    (name, sc, key)
            for pair, var in intact.satisfied:
                assert res.satisfied[pair] == pytest.approx(sol.primal[var], abs=1e-9), (name, sc)
    assert read > 0


def test_the_memo_is_found_by_identity_before_value(monkeypatch):
    # A repeated call finds its memo entry without hashing or comparing the
    # instance.  An equal but distinct instance finds it by value and gets
    # byte-identical results, from the same entry.
    inst = four_tunnel_example()
    scenarios = enumerate_scenarios(inst.topology, 2)
    first = [repr(solve_mcf(inst, sc)) for sc in scenarios]
    intact = oracle._intact_mcf(inst, "throughput")

    def refused(*args):
        raise AssertionError("the memo hashed or compared the instance")

    with monkeypatch.context() as m:
        m.setattr(type(inst), "__hash__", refused)
        m.setattr(type(inst), "__eq__", refused)
        assert [repr(solve_mcf(inst, sc)) for sc in scenarios] == first
    equal = dataclasses.replace(inst)
    assert equal is not inst and equal == inst
    assert [repr(solve_mcf(equal, sc)) for sc in scenarios] == first
    assert oracle._intact_mcf(equal, "throughput") is intact
    oracle._memo.clear()
    assert [repr(solve_mcf(equal, sc)) for sc in scenarios] == first


def test_mcf_solve_that_is_not_optimal_is_a_solver_error(monkeypatch, capsys):
    # A scenario LP that comes back non-optimal is numerical trouble, which
    # the CLI reports with exit code 2.  Only a scenario that needs repair
    # solves through `oracle.solve_lp`: none of one failed link, but some
    # of two, on flow-example and in `oracle --k 2` on four-tunnel.
    monkeypatch.setattr(oracle, "solve_lp", lambda lp, start=None: Solution("infeasible", math.nan, {}))
    inst = flow_example()
    scenarios = enumerate_scenarios(inst.topology, 2)
    for sc in scenarios:
        if len(sc.failed_links) < 2:
            solve_mcf(inst, sc, "throughput")
    with pytest.raises(SolverStallError):
        for sc in scenarios:
            solve_mcf(inst, sc, "throughput")
    assert main(["--fixture", "four-tunnel", "oracle", "--k", "2"]) == 2
    assert capsys.readouterr().out == ""
