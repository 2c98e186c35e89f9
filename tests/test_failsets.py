import itertools

import pytest

from resilient_te.failsets import (
    build_exact_polytope,
    build_ffc_polytope,
    build_hint_polytope,
    enumerate_patterns,
    shared_link_bound,
)
from resilient_te.fixtures import four_tunnel_example, hint_example
from resilient_te.generators import random_instance
from resilient_te.net import (
    Condition,
    NetworkInstance,
    ScenarioBlowupError,
    Tunnel,
    UnknownLinkError,
    condition_active,
    enumerate_scenarios,
    make_topology,
    scenario_count,
    tunnel_alive,
)


def integral_points(poly, free_vars=None):
    """Brute-force 0/1 points satisfying every row (oracle for small sets)."""
    variables = poly.variables if free_vars is None else free_vars
    for values in itertools.product((0.0, 1.0), repeat=len(variables)):
        point = dict(zip(variables, values))
        if poly.holds(point):
            yield point


def test_shared_link_bound_examples():
    inst = four_tunnel_example()
    assert shared_link_bound(inst, "s", "t") == 2  # T3 and T4 share 4-t
    assert shared_link_bound(four_tunnel_example("three"), "s", "t") == 1


def test_ffc_polytope_rows():
    inst = four_tunnel_example()
    poly = build_ffc_polytope(inst, 1)
    (row,) = poly.rows
    assert row.rhs == 2  # k * p_st
    assert set(dict(row.coeffs)) == {("y", t.id) for t in inst.tunnels}
    poly3 = build_ffc_polytope(four_tunnel_example("three"), 1)
    assert poly3.rows[0].rhs == 1
    single = build_ffc_polytope(four_tunnel_example("three"), 0)
    assert single.rows[0].rhs == 0


def test_exact_polytope_excludes_impossible_double_failure():
    # No single link failure kills T1 and T2 together, so that pattern must
    # violate the exact polytope even though the shared-link budget allows it.
    inst = four_tunnel_example()
    poly = build_exact_polytope(inst, 1)
    bad = {("y", "T1"): 1.0, ("y", "T2"): 1.0}
    hits = [p for p in integral_points(poly)
            if all(p.get(k, 0.0) == v for k, v in bad.items())]
    assert hits == []
    ffc = build_ffc_polytope(inst, 1)
    assert ffc.holds({("y", "T1"): 1.0, ("y", "T2"): 1.0})


def test_exact_polytope_k0_single_point():
    inst = four_tunnel_example()
    poly = build_exact_polytope(inst, 0)
    points = list(integral_points(poly))
    assert len(points) == 1
    assert all(v == 0.0 for v in points[0].values())


def test_single_link_tunnel_ties_exactly():
    inst = hint_example("cls")
    poly = build_exact_polytope(inst, 2)
    for point in enumerate_patterns(inst, 2):
        assert poly.holds(point)
        assert point[("y", "S4")] == point.get(("x", "s-4"), 0.0)


def test_hint_polytope_general_condition():
    inst = hint_example("cls")
    cond = Condition("mix", alive_links=frozenset({"s-1"}), dead_links=frozenset({"s-2"}))
    poly = build_hint_polytope(inst, 2, [cond])
    for sc, point in zip(enumerate_scenarios(inst.topology, 2),
                         enumerate_patterns(inst, 2, [cond]), strict=True):
        assert poly.holds(point), sc
        expect = "s-1" not in sc.failed_links and "s-2" in sc.failed_links
        assert point[("h", "mix")] == (1.0 if expect else 0.0)


def test_hint_polytope_rejects_contradiction():
    inst = hint_example("cls")
    bad = Condition("bad", alive_links=frozenset({"s-1"}), dead_links=frozenset({"s-1"}))
    with pytest.raises(ValueError):
        build_hint_polytope(inst, 1, [bad])


def test_hint_single_dead_is_equality():
    # The general rows pin h = x_e for one dead link e: over the four
    # integral (x_e, h), with the tunnels through e failed exactly when e is
    # and every other indicator at 0, a point holds exactly when h = x_e.
    inst = hint_example("cls")
    cond = Condition("d", dead_links=frozenset({"s-4"}))
    poly = build_hint_polytope(inst, 2, [cond])
    through = [t.id for t in inst.tunnels if "s-4" in t.path]
    for x, h in itertools.product((0.0, 1.0), repeat=2):
        point = {("x", "s-4"): x, ("h", "d"): h, **{("y", tid): x for tid in through}}
        assert poly.holds(point) == (h == x), (x, h)


def test_enumerate_patterns_counts_and_consistency():
    inst = four_tunnel_example()
    pats = enumerate_patterns(inst, 1)
    assert len(pats) == 1 + len(inst.topology.links)  # empty plus one per link
    assert len(enumerate_patterns(inst, 0)) == 1
    base = enumerate_patterns(inst, 0)[0]
    assert base == {("y", t.id): 0.0 for t in inst.tunnels}
    poly = build_exact_polytope(inst, 1)
    for p in pats:
        assert poly.holds(p)


def test_enumerate_patterns_matches_the_per_scenario_checks():
    # Links are checked once per call, then liveness is a set test; every
    # point must still read as `tunnel_alive` and `condition_active` do, one
    # per scenario in `enumerate_scenarios` order.
    inst = hint_example("cls")
    topo = inst.topology
    conditions = list(inst.conditions) + [Condition("both", frozenset({"s-1"}), frozenset({"s-4"}))]
    for k in range(3):
        scenarios = enumerate_scenarios(topo, k)
        points = enumerate_patterns(inst, k, conditions)
        assert len(points) == len(scenarios)
        for sc, point in zip(scenarios, points):
            want = {("x", e): 1.0 for e in sc.failed_links}
            want.update({("y", t.id): 0.0 if tunnel_alive(topo, t, sc) else 1.0 for t in inst.tunnels})
            want.update({("h", c.id): 1.0 if condition_active(topo, c, sc) else 0.0 for c in conditions})
            assert point == want, sc
    assert any(p[("h", "both")] == 1.0 for p in enumerate_patterns(inst, 2, conditions))


def test_enumerate_patterns_rejects_unknown_links():
    inst = four_tunnel_example()
    stray = Tunnel("stray", "s", "t", ("no-such-link",))
    with pytest.raises(UnknownLinkError):
        enumerate_patterns(NetworkInstance(inst.topology, tunnels=inst.tunnels + (stray,)), 1)
    with pytest.raises(UnknownLinkError):
        enumerate_patterns(inst, 1, [Condition("c", dead_links=frozenset({"no-such-link"}))])


def test_exact_polytope_without_links_has_no_budget_row():
    # A pair with no tunnels and no conditions sees no links: an empty
    # budget row would only add a multiplier to its robust counterpart.
    assert build_exact_polytope(NetworkInstance(make_topology(["a", "b"], [])), 2).rows == []
    assert build_exact_polytope(four_tunnel_example(), 2).rows[0].tag == "budget"


def test_pattern_guard():
    inst = random_instance(3, n_nodes=16, extra_links=15, n_pairs=1)
    links = len(inst.topology.links)
    assert scenario_count(links, links) > 10 ** 6
    with pytest.raises(ScenarioBlowupError):
        enumerate_patterns(inst, links)


def test_exact_points_satisfy_ffc_rows():
    # Scenario-induced failure patterns always satisfy the conservative
    # shared-link budget rows, on random small instances.
    for seed in range(6):
        inst = random_instance(seed, n_nodes=5, extra_links=3, n_pairs=2)
        ffc = build_ffc_polytope(inst, 1)
        for point in enumerate_patterns(inst, 1):
            assert ffc.holds(point)


def test_duplicate_patterns_keep_scenario_identity():
    inst = four_tunnel_example("three")
    points = enumerate_patterns(inst, 1)
    # Links off every tunnel give the same tunnel states as the empty
    # scenario, yet each scenario keeps its own point.
    assert len(points) == len(enumerate_scenarios(inst.topology, 1))
    states = [tuple(point[("y", t.id)] for t in inst.tunnels) for point in points]
    assert len(set(states)) < len(states)
