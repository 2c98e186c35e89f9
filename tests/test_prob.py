import dataclasses
import itertools

import numpy as np
import pytest

from resilient_te import prob
from resilient_te.cli import FIXTURES
from resilient_te.fixtures import cvar_topo, flow_example
from resilient_te.generators import random_instance
from resilient_te.lp import LinearProgram, solve_lp
from resilient_te.net import FlowDemand, NetworkInstance, Scenario, make_topology
from resilient_te.prob import (
    InfeasibleTargetError,
    ProbabilisticInstance,
    ScenarioAlloc,
    benders_master,
    benders_run,
    benders_subproblem,
    check_availability,
    connectivity_selection,
    cvar_of,
    design_beta,
    enumerate_prob_scenarios,
    percentile_analysis,
    percentile_of,
    sample_link_probs,
    solve_cvar,
    solve_direct_mip,
    solve_scenario_minmax,
)


def make_pinst(cutoff=0.0, beta=0.99):
    fx = flow_example()
    scens = enumerate_prob_scenarios(fx.topology, cutoff=cutoff)
    return ProbabilisticInstance(fx, scens, beta=beta)


# -- sampling and enumeration ------------------------------------------------


def test_weibull_sampling_deterministic_and_bounded():
    fx = flow_example()
    a = sample_link_probs(fx.topology, seed=11)
    b = sample_link_probs(fx.topology, seed=11)
    assert [ln.fail_prob for ln in a.links] == [ln.fail_prob for ln in b.links]
    c = sample_link_probs(fx.topology, seed=12)
    assert [ln.fail_prob for ln in a.links] != [ln.fail_prob for ln in c.links]
    assert all(0 < ln.fail_prob < 0.5 for ln in a.links)


def test_weibull_tiny_scale_gives_tiny_probs():
    fx = flow_example()
    t = sample_link_probs(fx.topology, scale=1e-12, seed=0)
    assert all(ln.fail_prob < 1e-9 for ln in t.links)


def test_weibull_median_calibration():
    nodes = [f"n{i}" for i in range(1001)]
    links = [(f"e{i}", nodes[i], nodes[i + 1], 1.0) for i in range(1000)]
    topo = make_topology(nodes, links)
    sampled = sample_link_probs(topo, seed=3)
    med = float(np.median([ln.fail_prob for ln in sampled.links]))
    assert 5e-4 <= med <= 2e-3


def test_prob_scenarios_independence_arithmetic():
    topo = make_topology(["a", "b", "c"], [("e1", "a", "b", 1.0, 0.01),
                                           ("e2", "b", "c", 1.0, 0.01)])
    scens = enumerate_prob_scenarios(topo, cutoff=1e-6)
    got = {tuple(sorted(sc.failed_links)): sc.prob for sc in scens}
    assert got[()] == pytest.approx(0.9801)
    assert got[("e1",)] == pytest.approx(0.0099)
    assert got[("e2",)] == pytest.approx(0.0099)
    assert got[("e1", "e2")] == pytest.approx(0.0001)
    assert sum(got.values()) == pytest.approx(1.0)


def test_prob_scenarios_cutoff_discards_tiny_doubles():
    topo = make_topology(["a", "b", "c"], [("e1", "a", "b", 1.0, 1e-4),
                                           ("e2", "b", "c", 1.0, 1e-4)])
    scens = enumerate_prob_scenarios(topo, cutoff=1e-6)
    keys = {tuple(sorted(sc.failed_links)) for sc in scens}
    assert ("e1", "e2") not in keys  # ~1e-8 < cutoff
    total = sum(sc.prob for sc in scens)
    assert total <= 1 + 1e-12
    assert total >= 1 - 1e-6  # discarded mass is below the cutoff scale


def test_prob_scenarios_require_probabilities():
    topo = make_topology(["a", "b"], [("e", "a", "b", 1.0)])
    with pytest.raises(ValueError):
        enumerate_prob_scenarios(topo)


def test_a_nan_cutoff_is_refused_before_any_subset_is_walked():
    # Against a NaN cutoff both `prob >= cutoff` and the pruning test are
    # false, so every subset was walked and only the empty scenario kept.
    topo = make_topology(["a", "b", "c"], [("e1", "a", "b", 1.0, 0.01),
                                           ("e2", "b", "c", 1.0, 0.01)])
    with pytest.raises(ValueError, match="cutoff"):
        enumerate_prob_scenarios(topo, cutoff=float("nan"))


@pytest.mark.parametrize("beta", [-0.5, -1e-12, 1.0 + 1e-9, float("nan"), float("inf")])
def test_a_beta_outside_zero_to_one_is_refused(beta):
    fx = flow_example()
    scens = enumerate_prob_scenarios(fx.topology, cutoff=0.0)
    with pytest.raises(ValueError, match="beta"):
        ProbabilisticInstance(fx, scens, beta=beta)


def test_design_beta_ladder():
    pinst = make_pinst()
    assert design_beta(pinst) == pytest.approx(0.99)


def test_design_beta_is_the_worst_unit_in_any_demand_order():
    from resilient_te.net import Tunnel

    topo = make_topology(["A", "B", "C"], [("e1", "A", "B", 1.0, 0.4),
                                           ("e2", "A", "C", 1.0, 0.001)])
    f1, f2 = FlowDemand("f1", ("A", "B"), 1.0), FlowDemand("f2", ("A", "C"), 1.0)
    tunnels = (Tunnel("t1", "A", "B", ("e1",)), Tunnel("t2", "A", "C", ("e2",)))
    scens = enumerate_prob_scenarios(topo, cutoff=0.0)
    for demands in ((f1, f2), (f2, f1)):
        inst = NetworkInstance(topology=topo, demands=demands, tunnels=tunnels)
        # f1 is connected with probability 0.6, below every ladder target
        assert design_beta(ProbabilisticInstance(inst, scens, beta=0.5)) == 0.0


# -- percentiles and CVaR ----------------------------------------------------


def test_percentile_examples():
    losses = [0.0, 0.05, 0.10]
    probs = [0.9, 0.09, 0.01]
    assert percentile_of(losses, probs, 0.9) == pytest.approx(0.0)
    assert percentile_of(losses, probs, 0.95) == pytest.approx(0.05)
    assert percentile_of([0.3], [1.0], 0.99) == pytest.approx(0.3)
    with pytest.raises(InfeasibleTargetError):
        percentile_of([0.0], [0.5], 0.9)


def test_cvar_tail_average():
    # worst 10% of mass holds 9% at 5% loss and 1% at 10% loss
    assert cvar_of([0.0, 0.05, 0.10], [0.9, 0.09, 0.01], 0.9) == pytest.approx(0.055)
    assert cvar_of([0.0], [1.0], 0.9) == pytest.approx(0.0)


def test_cvar_rejects_beta_one():
    with pytest.raises(ValueError, match="beta"):
        cvar_of([0.0, 1.0], [0.5, 0.5], 1.0)
    for variant in ("flow_adaptive", "flow_static", "scen_static"):
        with pytest.raises(ValueError, match="beta"):
            solve_cvar(make_pinst(beta=1.0), variant)
    # beta = 0 averages over every scenario
    assert cvar_of([0.0, 1.0], [0.5, 0.5], 0.0) == pytest.approx(0.5)


def test_var_never_exceeds_cvar():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        losses = rng.uniform(0, 1, size=n).tolist()
        probs = rng.dirichlet(np.ones(n)).tolist()
        beta = float(rng.uniform(0.5, 0.95))
        assert percentile_of(losses, probs, beta) <= cvar_of(losses, probs, beta) + 1e-12


def test_max_flow_pct_loss_below_scen_pct_loss():
    pinst = make_pinst()
    rng = np.random.default_rng(31)
    for _ in range(100):
        allocs = []
        for _sc in pinst.scenarios:
            losses = {u.id: float(rng.uniform(0, 1)) for u in pinst.units}
            allocs.append(ScenarioAlloc({}, losses))
        report = percentile_analysis(allocs, pinst)
        assert report.max_flow_pct_loss <= report.scen_pct_loss + 1e-12


# -- direct MIP ---------------------------------------------------------------


def test_direct_mip_flow_example():
    pinst = make_pinst()
    allocs, selection, report = solve_direct_mip(pinst)
    assert report.max_flow_pct_loss == pytest.approx(0.0, abs=1e-9)
    assert selection.covers(pinst)
    for u in pinst.units:
        assert selection.covered_mass(pinst, u.id) >= u.beta - 1e-9


def test_direct_mip_repeats_exactly_in_one_process():
    # Its branch and bound warm-starts children; no basis may leak between
    # solves.
    pinst = make_pinst()
    assert repr(solve_direct_mip(pinst)) == repr(solve_direct_mip(pinst))


def test_scenario_minmax_shares_loss():
    pinst = make_pinst()
    report = percentile_analysis(solve_scenario_minmax(pinst), pinst)
    assert report.flow_loss["f1"] == pytest.approx(0.5)


def test_direct_mip_generalized_stub():
    # Fatter risky link and demand: fair sharing loses n/(n+1), selection
    # still reaches zero.
    n = 3
    topo = make_topology(
        ["A", "B", "C", "D"],
        [("A-B", "A", "B", 1.0, 0.001), ("B-C", "B", "C", 1.0, 0.001),
         ("C-D", "C", "D", 1.0, 0.001), ("A-D", "A", "D", float(n), 0.01)])
    from resilient_te.net import Tunnel

    inst = NetworkInstance(
        topology=topo,
        demands=(FlowDemand("f1", ("A", "C"), 1.0), FlowDemand("f2", ("A", "D"), float(n))),
        tunnels=(Tunnel("t1", "A", "C", ("A-B", "B-C")),
                 Tunnel("t2", "A", "D", ("A-D",)),
                 Tunnel("t3", "A", "D", ("A-B", "B-C", "C-D"))))
    scens = enumerate_prob_scenarios(topo, cutoff=0.0)
    pinst = ProbabilisticInstance(inst, scens, beta=0.99)
    sub = benders_subproblem(
        pinst, next(i for i, sc in enumerate(scens) if sc.failed_links == {"A-D"}),
        {"f1": 1.0, "f2": 1.0})
    assert sub.alpha == pytest.approx(1 - 1 / (n + 1))
    _, _, report = solve_direct_mip(pinst)
    assert report.max_flow_pct_loss == pytest.approx(0.0, abs=1e-9)


def test_direct_mip_with_thresholds_and_per_flow_beta():
    fx = flow_example()
    demands = (FlowDemand("f1", ("A", "C"), 1.0, loss_threshold=0.5, beta=0.99),
               FlowDemand("f2", ("A", "D"), 1.0, beta=0.9))
    inst = NetworkInstance(topology=fx.topology, demands=demands, tunnels=fx.tunnels)
    scens = enumerate_prob_scenarios(fx.topology, cutoff=0.0)
    pinst = ProbabilisticInstance(inst, scens, beta=0.99)
    allocs, selection, report = solve_direct_mip(pinst)
    assert report.flow_loss["f1"] <= 0.5 + 1e-9
    mass2 = sum(pinst.probs[q] for q in range(len(scens)) if selection[("f2", q)] >= 0.5)
    assert mass2 >= 0.9 - 1e-9


def test_flow_sets_use_worst_member():
    fx = flow_example()
    scens = enumerate_prob_scenarios(fx.topology, cutoff=0.0)
    pinst = ProbabilisticInstance(fx, scens, beta=0.99,
                                  flow_sets={"svc": ["f1", "f2"]})
    (unit,) = pinst.units
    assert unit.members == ((("A", "C"), 1.0), (("A", "D"), 1.0))
    # the set is only connected when every member is
    down = next(q for q, sc in enumerate(pinst.scenarios) if sc.failed_links == {"A-D"})
    assert pinst.connected[(unit.id, down)]  # f2 still reachable via the long path
    cut_off = next(q for q, sc in enumerate(pinst.scenarios)
                   if sc.failed_links == {"A-B", "A-D"})
    assert not pinst.connected[(unit.id, cut_off)]
    _, _, report = solve_direct_mip(pinst)
    # both flows must be served through one shared scenario set: the A-D
    # failure group forces sharing, so zero loss is no longer attainable
    assert report.max_flow_pct_loss > 1e-6


# -- Benders machinery ---------------------------------------------------------


def test_subproblem_trivial_cases():
    pinst = make_pinst()
    lossless = benders_subproblem(pinst, 0, {u.id: 1.0 for u in pinst.units})
    assert lossless.alpha == pytest.approx(0.0)
    vacuous = benders_subproblem(pinst, 2, {u.id: 0.0 for u in pinst.units})
    assert vacuous.alpha == pytest.approx(0.0)
    q_ad = next(i for i, sc in enumerate(pinst.scenarios)
                if sc.failed_links == {"A-D"})
    prioritized = benders_subproblem(pinst, q_ad, {"f1": 1.0, "f2": 0.0})
    assert prioritized.alpha == pytest.approx(0.0)
    shared = benders_subproblem(pinst, q_ad, {"f1": 1.0, "f2": 1.0})
    assert shared.alpha == pytest.approx(0.5)


def subproblem_pinsts():
    cv = cvar_topo()
    fx = flow_example()
    demands = (FlowDemand("f1", ("A", "C"), 1.0, loss_threshold=0.5, beta=0.99),
               FlowDemand("f2", ("A", "D"), 1.0, beta=0.9))
    thresholds = NetworkInstance(topology=fx.topology, demands=demands, tunnels=fx.tunnels)
    scens = enumerate_prob_scenarios(fx.topology, cutoff=0.0)
    return {
        "cvar-topo": ProbabilisticInstance(
            cv, enumerate_prob_scenarios(cv.topology, cutoff=0.0), beta=0.99),
        "flow-example": ProbabilisticInstance(thresholds, scens, beta=0.99),
        "flow-example sets": ProbabilisticInstance(fx, scens, beta=0.99,
                                                   flow_sets={"svc": ["f1", "f2"]}),
        "make_pinst": make_pinst(),
    }


def subproblem_columns(pinst, q, rng):
    """All-0, all-1, connectivity and three random selection columns."""
    units = [u.id for u in pinst.units]
    z0 = connectivity_selection(pinst)
    columns = [{u: 0.0 for u in units}, {u: 1.0 for u in units},
               {u: z0[(u, q)] for u in units}]
    columns += [{u: float(rng.integers(0, 2)) for u in units} for _ in range(3)]
    return columns


def cold_subproblem_alpha(pinst, q, z_col):
    """The per-scenario subproblem built on its own and solved cold: only
    scenario q's live tunnels, the column in the lossbound rhs."""
    lp = LinearProgram(name=f"sub:{q}")
    lp.add_var("alpha")
    for u in pinst.units:
        lp.add_var(f"l::{u.id}")
    for u in pinst.units:
        lp.add_row({"alpha": 1.0, f"l::{u.id}": -1.0}, ">=",
                   z_col.get(u.id, 0.0) - 1.0 - u.threshold)
        lp.add_row({f"l::{u.id}": 1.0}, "<=", 1.0)
    prob._scenario_rows(lp, pinst, q, "")
    lp.set_objective({"alpha": 1.0}, "min")
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    return sol.objective


def test_warm_subproblem_equals_the_cold_per_scenario_lp():
    rng = np.random.default_rng(5)
    for name, pinst in subproblem_pinsts().items():
        for q in range(len(pinst.scenarios)):
            for z_col in subproblem_columns(pinst, q, rng):
                got = benders_subproblem(pinst, q, z_col).alpha
                assert got == pytest.approx(cold_subproblem_alpha(pinst, q, z_col), abs=1e-9), \
                    (name, q, z_col)


def test_cut_tight_at_origin_and_valid_elsewhere():
    for name, pinst in subproblem_pinsts().items():
        units = [u.id for u in pinst.units]
        columns = [dict(zip(units, map(float, bits)))
                   for bits in itertools.product((0, 1), repeat=len(units))]
        for q in range(len(pinst.scenarios)):
            results = [benders_subproblem(pinst, q, z_col) for z_col in columns]
            for res, z_col in zip(results, columns):
                assert res.cut.value(z_col) == pytest.approx(res.alpha, abs=1e-9), (name, q)
                for other, z_other in zip(results, columns):
                    assert res.cut.value(z_other) <= other.alpha + 1e-9, (name, q)


def test_subproblem_results_do_not_depend_on_call_order():
    rng = np.random.default_rng(9)
    for pinst in subproblem_pinsts().values():
        calls = [(q, z_col) for q in range(len(pinst.scenarios))
                 for z_col in subproblem_columns(pinst, q, rng)]
        forward = [benders_subproblem(pinst, q, z_col) for q, z_col in calls]
        backward = [benders_subproblem(pinst, q, z_col) for q, z_col in reversed(calls)]
        fresh_pinst = ProbabilisticInstance(pinst.instance, pinst.scenarios, pinst.beta,
                                            pinst.flow_sets)
        fresh = [benders_subproblem(fresh_pinst, q, z_col) for q, z_col in calls]
        assert repr(forward) == repr(backward[::-1]) == repr(fresh)


def test_subproblems_re_solve_warm(monkeypatch):
    # Every subproblem is one solve through this module's `solve_lp` (the
    # shared cold solve is not), and none of them runs phase 1.
    pivots, solve = [], prob.solve_lp

    def spy(lp, start=None):
        sol = solve(lp, start=start)
        pivots.append(sol.pivots)
        return sol

    monkeypatch.setattr(prob, "solve_lp", spy)
    rng = np.random.default_rng(13)
    for pinst in subproblem_pinsts().values():
        pivots.clear()
        calls = 0
        for q in range(len(pinst.scenarios)):
            for z_col in subproblem_columns(pinst, q, rng):
                benders_subproblem(pinst, q, z_col)
                calls += 1
        assert len(pivots) == calls
        assert all(p1 == 0 for p1, _ in pivots)


def test_subproblem_without_demand_is_lossless():
    fx = flow_example()
    inst = NetworkInstance(topology=fx.topology, demands=(), tunnels=fx.tunnels)
    pinst = ProbabilisticInstance(inst, enumerate_prob_scenarios(fx.topology, cutoff=0.0),
                                  beta=0.9)
    res = benders_subproblem(pinst, 1, {})
    assert (res.alpha, res.alloc, res.cut) == (0.0, ScenarioAlloc({}, {}), prob.Cut(1, 0.0, {}))
    report = percentile_analysis(solve_scenario_minmax(pinst), pinst)
    assert report.max_flow_pct_loss == 0.0


def test_master_heuristic_start_and_bounds():
    pinst = make_pinst()
    sel, bound = benders_master(pinst, [])
    assert bound == 0.0
    assert sel.covers(pinst)
    from resilient_te.prob import Cut

    const_cut = Cut(0, 0.25, {})
    _, bound2 = benders_master(pinst, [const_cut])
    assert bound2 == pytest.approx(0.25)
    neg_cut = Cut(0, -3.0, {})
    _, bound3 = benders_master(pinst, [neg_cut])
    assert bound3 == pytest.approx(0.0)


def test_master_infeasible_target():
    fx = flow_example()
    scens = enumerate_prob_scenarios(fx.topology, cutoff=0.0)
    pinst = ProbabilisticInstance(fx, scens, beta=0.999999)
    with pytest.raises(InfeasibleTargetError):
        check_availability(pinst)
    with pytest.raises(InfeasibleTargetError):
        benders_run(pinst, 3)
    with pytest.raises(InfeasibleTargetError):
        solve_direct_mip(pinst)


def test_an_instance_without_demands_has_no_loss():
    # No units: both masters are LPs without binaries, which solve_mip
    # returns as their own root.
    fx = dataclasses.replace(flow_example(), demands=())
    pinst = ProbabilisticInstance(fx, enumerate_prob_scenarios(fx.topology, cutoff=0.0), beta=0.99)
    assert not pinst.units
    _, selection, report = solve_direct_mip(pinst)
    assert selection.values == {} and report.flow_loss == {}
    assert report.max_flow_pct_loss == report.scen_pct_loss == 0.0
    _, report, state = benders_run(pinst, 5)
    assert report.max_flow_pct_loss == 0.0
    assert state.incumbent == state.lower_bound == 0.0


def test_benders_reaches_direct_optimum_on_flow_example():
    pinst = make_pinst()
    _, report, state = benders_run(pinst, 5)
    assert state.incumbent == pytest.approx(0.0, abs=1e-9)
    assert state.lower_bound <= state.incumbent + 1e-6
    assert state.incumbent_history == sorted(state.incumbent_history, reverse=True) or \
        min(state.incumbent_history) == state.incumbent


def test_benders_cvar_topo_and_initial_dominance():
    cv = cvar_topo()
    scens = enumerate_prob_scenarios(cv.topology, cutoff=0.0)
    pinst = ProbabilisticInstance(cv, scens, beta=0.99)
    best, report, state = benders_run(pinst, 5)
    assert state.incumbent == pytest.approx(0.0, abs=1e-9)
    # iteration-zero guarantee is already at least as good as the
    # scenario-centric baselines
    minmax_report = percentile_analysis(solve_scenario_minmax(pinst), pinst)
    _, teavar_report, _ = solve_cvar(pinst, "scen_static")
    first = state.incumbent_history[0]
    assert first <= minmax_report.max_flow_pct_loss + 1e-9
    assert first <= teavar_report.max_flow_pct_loss + 1e-9


def test_perfect_scenario_pruning_is_neutral():
    # Benders pins the scenarios lossless at the connectivity selection and
    # still certifies the direct MIP's optimum.
    for seed in (0, 1):
        inst = random_instance(seed, n_nodes=4, extra_links=2, n_pairs=2,
                               tunnels_per_pair=2)
        topo = sample_link_probs(inst.topology, shape=1.0, scale=0.05, seed=seed)
        inst = NetworkInstance(topology=topo, demands=inst.demands,
                               tunnels=inst.tunnels)
        scens = enumerate_prob_scenarios(topo, cutoff=1e-4)
        pinst = ProbabilisticInstance(inst, scens, beta=design_beta(pinst=ProbabilisticInstance(inst, scens, beta=0.5)))
        state = benders_run(pinst, 4)[2]
        _, _, direct = solve_direct_mip(pinst)
        assert state.lower_bound >= state.incumbent - 1e-6
        assert state.incumbent == pytest.approx(direct.max_flow_pct_loss, abs=1e-6)


def test_benders_solves_each_class_column_once(monkeypatch):
    # Members of a class route the same LP, so a (class, selection column)
    # seen before reuses its subproblem.  Each consumed selection still
    # appends one cut per scenario that is not perfect, carrying its own
    # scenario and equal to a direct call on it, so the masters see what
    # re-solves gave.  Perfect scenarios are solved at the connectivity
    # selection and give no cut.
    calls, solve, master = [], prob.benders_subproblem, prob.benders_master
    picked = []

    def spy(pinst, q, z_col):
        calls.append((pinst.classes.of[q], tuple(sorted(z_col.items()))))
        return solve(pinst, q, z_col)

    def master_spy(pinst, cuts, **kwargs):
        out = master(pinst, cuts, **kwargs)
        picked.append(out[0].values)
        return out

    monkeypatch.setattr(prob, "benders_subproblem", spy)
    monkeypatch.setattr(prob, "benders_master", master_spy)
    for pinst in (make_pinst(), make_pinst(cutoff=1e-4, beta=0.9), thirty_scenario_pinst(1)):
        calls.clear()
        picked.clear()
        state = benders_run(pinst, 5)[2]
        assert len(calls) == len(set(calls))
        assert len(pinst.classes.reps) < len(pinst.scenarios)
        units = [u.id for u in pinst.units]
        z0 = connectivity_selection(pinst)
        nontrivial = [q for q in range(len(pinst.scenarios))
                      if solve(pinst, q, {u: z0[u, q] for u in units}).alpha > 1e-9]
        assert len(state.cuts) == len(nontrivial) * len(state.incumbent_history)
        consumed = ([z0] + picked)[:len(state.incumbent_history)]
        want = [solve(pinst, q, {u: z[u, q] for u in units}).cut
                for z in consumed for q in nontrivial]
        assert state.cuts == want


def thirty_scenario_pinst(seed):
    """Criterion 8's recipe at a larger size: up to 8 nodes, 3-4 pairs with 3
    tunnels each, and the 30 most probable scenarios."""
    rng = np.random.default_rng(seed)
    inst = random_instance(900 + seed, n_nodes=6 + seed % 3, extra_links=4,
                           n_pairs=3 + seed % 2, tunnels_per_pair=3)
    topo = sample_link_probs(inst.topology, shape=1.0,
                             scale=float(rng.uniform(0.02, 0.08)), seed=seed)
    inst = NetworkInstance(topology=topo, demands=inst.demands, tunnels=inst.tunnels)
    scens = sorted(enumerate_prob_scenarios(topo, cutoff=1e-4), key=lambda sc: -(sc.prob or 0.0))
    scens = sorted(scens[:30], key=lambda sc: sc.key())
    beta = design_beta(ProbabilisticInstance(inst, scens, beta=0.0), ladder=(0.5, 0.8, 0.9, 0.95))
    return ProbabilisticInstance(inst, scens, beta=beta)


def test_benders_certifies_a_thirty_scenario_instance_within_five_iterations():
    # A Hamming trust region on the master once ran this instance out of
    # branch-and-bound nodes; the direct MIP's optimum is 0.396997.
    _, _, state = benders_run(thirty_scenario_pinst(2))
    assert state.lower_bound >= state.incumbent - 1e-6
    assert state.incumbent == pytest.approx(0.396997, abs=1e-6)


def test_direct_mip_solves_no_benders_subproblem(monkeypatch):
    # The MIP is its own search: no Benders round runs in front of it.
    calls, solve = [], prob.benders_subproblem

    def spy(pinst, q, z_col):
        calls.append(q)
        return solve(pinst, q, z_col)

    monkeypatch.setattr(prob, "benders_subproblem", spy)
    for pinst in (make_pinst(), make_pinst(cutoff=1e-4, beta=0.9)):
        _, selection, _ = solve_direct_mip(pinst)
        assert selection.covers(pinst)
    assert calls == []


def test_direct_mip_solves_a_thirty_scenario_instance():
    # Benders certifies the same optimum on this instance.
    pinst = thirty_scenario_pinst(2)
    _, selection, report = solve_direct_mip(pinst)
    assert selection.covers(pinst)
    assert report.max_flow_pct_loss == pytest.approx(0.396997, abs=1e-6)


def test_direct_mip_and_master_share_the_selection_model(monkeypatch):
    # Both MIPs fix exactly the disconnected (unit, scenario) binaries at 0
    # and carry the same availability rows.
    lps, solve = [], prob.solve_mip

    def spy(lp):
        lps.append(lp)
        return solve(lp)

    monkeypatch.setattr(prob, "solve_mip", spy)
    pinst = make_pinst()
    disconnected = {f"z::{u}::{q}" for (u, q), ok in pinst.connected.items() if not ok}
    assert disconnected
    solve_direct_mip(pinst)
    benders_master(pinst, [])
    avail = []
    for lp in lps:
        fixed = {v.name for v in lp._vars if v.binary and v.ub == 0.0}
        assert fixed == disconnected
        assert all(v.lb == 0.0 and v.ub == 1.0 for v in lp._vars
                   if v.binary and v.name not in fixed)
        avail.append([(row.name, {lp._vars[j].name: c for j, c in row.coeffs.items()},
                       row.sense, row.rhs) for row in lp._rows if row.name.startswith("avail:")])
    assert len(lps) == 2 and len(avail[0]) == len(pinst.units)
    assert avail[0] == avail[1]


def test_benders_never_consumes_a_selection_twice(monkeypatch):
    # A selection consumed before has its tight cuts in the master, so the
    # master that picks it again has reached the incumbent and ends the loop.
    picked, master = [], prob.benders_master

    def spy(pinst, cuts, **kwargs):
        out = master(pinst, cuts, **kwargs)
        picked.append(out[0].values)
        return out

    monkeypatch.setattr(prob, "benders_master", spy)
    for pinst in (make_pinst(cutoff=1e-4, beta=0.9), thirty_scenario_pinst(1),
                  thirty_scenario_pinst(9)):
        picked.clear()
        state = benders_run(pinst, 25)[2]
        assert state.lower_bound >= state.incumbent - 1e-6
        assert len(picked) == state.iterations
        # The first selection is the connectivity one; the last master
        # certified the incumbent, so its selection was not consumed.
        consumed = [connectivity_selection(pinst)] + picked[:-1]
        assert len(consumed) == len(state.incumbent_history)
        assert all(a != b for a, b in itertools.combinations(consumed, 2))
    assert len(consumed) > 2


def test_the_master_holds_one_row_per_distinct_cut(monkeypatch):
    # With one unit every member's cut lands on its class's binary, so most
    # of a run's cuts repeat a row already in the master.
    lps, solve = [], prob.solve_mip

    def spy(lp):
        lps.append(lp)
        return solve(lp)

    pinst = fixture_pinst("four-tunnel")
    cuts = benders_run(pinst)[2].cuts
    monkeypatch.setattr(prob, "solve_mip", spy)
    benders_master(pinst, cuts)
    cls = pinst.selection_classes
    want = {(frozenset({"alpha": 1.0, **{f"z::{uid}::{cls.reps[cls.of[c.scenario_index]]}": -w
                                         for uid, w in c.coeff.items()}}.items()), c.const)
            for c in cuts}
    rows = [(frozenset((lps[0]._vars[j].name, coef) for j, coef in row.coeffs.items()), row.rhs)
            for row in lps[0]._rows if row.name.startswith("cut:")]
    assert len(rows) == len(set(rows)) == len(want) < len(cuts)
    assert set(rows) == want


# -- scenario classes ------------------------------------------------------------


def unmerged(pinst):
    """A copy of `pinst` whose class views hold one scenario each, so every
    model builds one block per scenario, as before classes."""
    copy = ProbabilisticInstance(pinst.instance, pinst.scenarios, pinst.beta, pinst.flow_sets)
    Q = tuple(range(len(pinst.scenarios)))
    copy.__dict__["classes"] = prob.ScenarioClasses(Q, tuple(copy.probs), Q)
    copy.__dict__["selection_classes"] = copy.classes
    return copy


def fixture_pinst(name, beta=0.99):
    """A CLI fixture at cutoff 0, with the CLI's default link probabilities."""
    inst = FIXTURES[name]()
    inst = dataclasses.replace(inst, topology=sample_link_probs(inst.topology, seed=0))
    return ProbabilisticInstance(inst, enumerate_prob_scenarios(inst.topology, 0.0), beta=beta)


def class_pinsts():
    pinsts = subproblem_pinsts()
    pinsts.update({name: fixture_pinst(name)
                   for name in ("four-tunnel-three", "parallel", "realization-3ls")})
    pinsts.update({f"thirty {s}": thirty_scenario_pinst(s) for s in (1, 2, 3)})
    return pinsts


def test_classes_group_the_scenarios_with_the_same_live_tunnels():
    for name, pinst in class_pinsts().items():
        cls = pinst.classes
        assert len(cls.reps) < len(pinst.scenarios), name
        for c, q in enumerate(cls.reps):
            members = [m for m, of in enumerate(cls.of) if of == c]
            assert members[0] == q
            assert cls.mass[c] == pytest.approx(sum(pinst.probs[m] for m in members))
            assert all(pinst.routed[m] == pinst.routed[q] for m in members)
        keys = {tuple(t.id for t in pinst.routed[q]) for q in cls.reps}
        assert len(keys) == len(cls.reps), name
    assert len(make_pinst().classes.reps) == 6  # of 16 scenarios


def test_cvar_and_minmax_over_classes_equal_their_unmerged_values():
    # Exact for the convex models: members of a class have the same routings,
    # and averaging them by probability loses no CVaR.
    for name, pinst in class_pinsts().items():
        plain = unmerged(pinst)
        for variant in ("flow_adaptive", "flow_static", "scen_static"):
            got, want = solve_cvar(pinst, variant)[2], solve_cvar(plain, variant)[2]
            assert got == pytest.approx(want, abs=1e-9), (name, variant)
        # Min-max solves one subproblem per class; members' subproblems are
        # one LP, so every allocation is the member's own, to the bit.
        assert solve_scenario_minmax(pinst) == solve_scenario_minmax(plain), name


def test_one_unit_selection_over_classes_keeps_its_unmerged_optimum():
    # With one unit, a class's members have the same best loss, so taking a
    # whole class is never worse than taking some of it.
    for s, flow in ((1, 1), (2, 2), (3, 1)):
        full = thirty_scenario_pinst(s)
        inst = dataclasses.replace(full.instance, demands=(full.instance.demands[flow],))
        pinst = ProbabilisticInstance(inst, full.scenarios, beta=full.beta)
        assert pinst.selection_classes is pinst.classes
        assert len(pinst.classes.reps) < len(pinst.scenarios)
        want = solve_direct_mip(unmerged(pinst))[2].max_flow_pct_loss
        assert want > 0.1
        allocs, selection, report = solve_direct_mip(pinst)
        assert selection.covers(pinst)
        assert report.max_flow_pct_loss == pytest.approx(want, abs=1e-9), s
        _, _, state = benders_run(pinst)
        assert state.incumbent == pytest.approx(want, abs=1e-9), s
        assert state.lower_bound >= state.incumbent - 1e-6


def test_two_unit_selection_keeps_one_binary_per_scenario():
    # Built as the benchmark's flomore/9 at instance seed 4 (generator seed
    # 310).  One member of a class favours one unit, another member the
    # other, so a merged selection must serve both units in every member:
    # merged, the direct MIP reads 0.356259.
    seed = 310
    rng = np.random.default_rng(seed)
    inst = random_instance(seed + 900, n_nodes=4 + seed % 3, extra_links=2,
                           n_pairs=2 + seed % 2, tunnels_per_pair=2)
    topo = sample_link_probs(inst.topology, shape=1.0,
                             scale=float(rng.uniform(0.02, 0.08)), seed=seed)
    inst = NetworkInstance(topology=topo, demands=inst.demands, tunnels=inst.tunnels)
    scens = sorted(enumerate_prob_scenarios(topo, cutoff=1e-4), key=lambda sc: -(sc.prob or 0.0))
    pinst = ProbabilisticInstance(inst, sorted(scens[:12], key=lambda sc: sc.key()), beta=0.95)
    assert len(pinst.units) == 2
    assert len(pinst.classes.reps) == 6
    assert pinst.selection_classes.reps == tuple(range(12))
    value = prob._objective_value(pinst, solve_direct_mip(pinst)[2])
    assert value == pytest.approx(0.048994, abs=1e-6)
    assert benders_run(pinst)[2].incumbent == pytest.approx(value, abs=1e-9)
    merged = ProbabilisticInstance(inst, pinst.scenarios, beta=pinst.beta)
    merged.__dict__["selection_classes"] = merged.classes
    assert prob._objective_value(merged, solve_direct_mip(merged)[2]) == \
        pytest.approx(0.356259, abs=1e-6)


# -- CVaR formulations ---------------------------------------------------------


def test_cvar_topo_values():
    cv = cvar_topo()
    scens = enumerate_prob_scenarios(cv.topology, cutoff=0.0)
    pinst = ProbabilisticInstance(cv, scens, beta=0.99)
    for variant in ("flow_adaptive", "flow_static"):
        _, report, value = solve_cvar(pinst, variant)
        assert value == pytest.approx(1.0, abs=1e-6)
    _, _, report_direct = solve_direct_mip(pinst)
    assert report_direct.max_flow_pct_loss == pytest.approx(0.0, abs=1e-9)


def test_cvar_single_lossless_scenario():
    topo = make_topology(["a", "b"], [("e", "a", "b", 1.0, 0.2)])
    from resilient_te.net import Tunnel

    inst = NetworkInstance(topology=topo,
                           demands=(FlowDemand("f", ("a", "b"), 1.0),),
                           tunnels=(Tunnel("t", "a", "b", ("e",)),))
    pinst = ProbabilisticInstance(inst, [Scenario(frozenset(), prob=1.0)], beta=0.5)
    _, report, value = solve_cvar(pinst, "flow_adaptive")
    assert value == pytest.approx(0.0, abs=1e-9)
    assert report.max_flow_pct_loss == pytest.approx(0.0, abs=1e-9)


def test_cvar_adaptive_no_worse_than_static():
    pinst = make_pinst()
    _, _, ad = solve_cvar(pinst, "flow_adaptive")
    _, _, st = solve_cvar(pinst, "flow_static")
    assert ad <= st + 1e-7


def test_reported_var_below_cvar_for_solved_routings():
    pinst = make_pinst()
    for variant in ("flow_adaptive", "flow_static", "scen_static"):
        allocs, report, value = solve_cvar(pinst, variant)
        for u in pinst.units:
            losses = [a.unit_loss[u.id] for a in allocs]
            var = percentile_of(losses, pinst.probs, u.beta)
            cv = cvar_of(losses, pinst.probs, u.beta)
            assert var <= cv + 1e-9


def test_cvar_objectives_equal_their_recorded_values():
    # flow_adaptive, flow_static and scen_static, recorded when scen_static
    # had its own per-pair losses and each variant its own tail; "flow-example
    # sets" has a unit of two flows.
    recorded = {
        "cvar-topo": (1.0000000000000004, 1.0, 1.0),
        "flow-example": (0.5561177628974878, 0.556117762897381, 0.60044900050001),
        "flow-example sets": (0.6004490004999996, 0.6004490004999996, 0.60044900050001),
        "make_pinst": (0.5561177628974878, 0.556117762897381, 0.60044900050001),
        "thirty 1": (0.7351819166096909, 0.7881231931771138, 0.8407565820226599),
        "thirty 2": (0.6849606431586561, 0.7837384913120611, 0.7983060639227046),
        "thirty 3": (0.6077016672980631, 0.8038508336490402, 0.8038508336490351),
    }
    pinsts = subproblem_pinsts()
    pinsts.update({f"thirty {s}": thirty_scenario_pinst(s) for s in (1, 2, 3)})
    assert set(pinsts) == set(recorded)
    for name, pinst in pinsts.items():
        for variant, want in zip(("flow_adaptive", "flow_static", "scen_static"), recorded[name]):
            assert solve_cvar(pinst, variant)[2] == pytest.approx(want, abs=1e-9), (name, variant)


def test_cvar_reports_the_losses_its_routing_causes():
    # A loss no objective term presses on could sit anywhere up to 1: it
    # must be read as the shortfall that the scenario's allocation leaves.
    for s in (1, 2, 3):
        pinst = thirty_scenario_pinst(s)
        for variant in ("flow_adaptive", "flow_static", "scen_static"):
            allocs, _, _ = solve_cvar(pinst, variant)
            for q, alloc in enumerate(allocs):
                def shortfall(pair):
                    total = pinst.pair_demand[pair][0]
                    got = sum(alloc.tunnel_alloc.get(t.id, 0.0) for t in pinst.live[q][pair])
                    return max(0.0, total - got) / total

                for u in pinst.units:
                    want = max((shortfall(pair) for pair, d in u.members if d > 0), default=0.0)
                    assert alloc.unit_loss[u.id] == pytest.approx(want, abs=1e-9), \
                        (s, variant, q, u.id)


# -- property tests -------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def discrete_losses(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    losses = draw(st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.01, 1, allow_nan=False), min_size=n, max_size=n))
    total = sum(weights)
    probs = [w / total for w in weights]
    beta = draw(st.floats(0.05, 0.95))
    return losses, probs, beta


@settings(max_examples=200, deadline=None)
@given(discrete_losses())
def test_property_var_le_cvar(case):
    losses, probs, beta = case
    assert percentile_of(losses, probs, beta) <= cvar_of(losses, probs, beta) + 1e-9


@settings(max_examples=200, deadline=None)
@given(discrete_losses(), st.floats(0.01, 0.04))
def test_property_percentile_monotone_in_beta(case, bump):
    losses, probs, beta = case
    lo = percentile_of(losses, probs, beta)
    hi = percentile_of(losses, probs, min(beta + bump, 0.99))
    assert lo <= hi + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(1e-4, 0.45), min_size=1, max_size=6),
       st.sampled_from([1e-6, 1e-4, 1e-2]))
def test_property_scenario_probs_cover_cutoff(ps, cutoff):
    nodes = [f"n{i}" for i in range(len(ps) + 1)]
    links = [(f"e{i}", nodes[i], nodes[i + 1], 1.0, p) for i, p in enumerate(ps)]
    topo = make_topology(nodes, links)
    scens = enumerate_prob_scenarios(topo, cutoff=cutoff)
    assert scens[0].failed_links == frozenset() or any(
        sc.failed_links == frozenset() for sc in scens)
    total = 0.0
    for sc in scens:
        assert sc.prob >= cutoff - 1e-15
        total += sc.prob
    assert total <= 1 + 1e-9
    # everything not retained individually falls below the cutoff
    full = enumerate_prob_scenarios(topo, cutoff=0.0)
    dropped = {tuple(sorted(sc.failed_links)) for sc in full} - \
        {tuple(sorted(sc.failed_links)) for sc in scens}
    for key in dropped:
        prob = next(sc.prob for sc in full if tuple(sorted(sc.failed_links)) == key)
        assert prob < cutoff
