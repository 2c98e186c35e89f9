import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_te.fixtures import four_tunnel_example, hint_example
from resilient_te.net import (
    Condition,
    Link,
    Scenario,
    Topology,
    Tunnel,
    UnknownLinkError,
    condition_active,
    enumerate_scenarios,
    make_topology,
    tunnel_alive,
    validate_instance,
)


def codes(diags):
    return [d.code for d in diags]


def test_wellformed_instance_validates_clean():
    assert validate_instance(four_tunnel_example()) == []
    assert validate_instance(hint_example("cls")) == []


def test_discontiguous_tunnel_flagged():
    inst = four_tunnel_example()
    bad = inst.tunnels[0]
    broken = Tunnel(bad.id, bad.src, bad.dst, ("s-1", "2-t"))  # skips n1->n2
    inst2 = type(inst)(topology=inst.topology, demands=inst.demands,
                       tunnels=(broken,) + inst.tunnels[1:])
    assert "TUNNEL_DISCONTIGUOUS" in codes(validate_instance(inst2))


def test_nonpositive_capacity_flagged():
    topo = make_topology(["a", "b"], [("e", "a", "b", 0.0)])
    inst = four_tunnel_example()
    inst2 = type(inst)(topology=topo)
    assert "NONPOSITIVE_CAPACITY" in codes(validate_instance(inst2))
    # A NaN or infinite capacity is not finite rather than nonpositive.
    for value, code in ((math.nan, "NONFINITE_CAPACITY"), (math.inf, "NONFINITE_CAPACITY"),
                        (-math.inf, "NONFINITE_CAPACITY"), (-1.0, "NONPOSITIVE_CAPACITY")):
        link = dataclasses.replace(inst.topology.links[0], capacity=value)
        topo = dataclasses.replace(inst.topology, links=(link,) + inst.topology.links[1:])
        assert codes(validate_instance(dataclasses.replace(inst, topology=topo))) == [code]


def test_nonfinite_and_negative_demands_flagged():
    # NaN compares False with 0, so a NaN demand needs its own check.
    inst = four_tunnel_example()
    for value, code in ((math.nan, "NONFINITE_DEMAND"), (math.inf, "NONFINITE_DEMAND"),
                        (-2.0, "NEGATIVE_DEMAND")):
        demand = dataclasses.replace(inst.demands[0], demand=value)
        bad = dataclasses.replace(inst, demands=(demand,) + inst.demands[1:])
        assert codes(validate_instance(bad)) == [code]


def test_misc_violations_each_get_a_code():
    topo = Topology(
        nodes=frozenset({"a", "b"}),
        links=(
            Link("e", ("a", "b"), 1.0),
            Link("e", ("a", "a"), 1.0),          # duplicate id + self loop
            Link("x", ("a", "ghost"), -1.0, 1.5),  # bad node, capacity, prob
        ),
    )
    inst = four_tunnel_example()
    got = codes(validate_instance(type(inst)(topology=topo)))
    for code in ("DUPLICATE_LINK_ID", "SELF_LOOP", "UNDECLARED_NODE",
                 "NONPOSITIVE_CAPACITY", "BAD_FAIL_PROB"):
        assert code in got


def test_repeated_ids_each_get_a_code():
    inst = hint_example("cls")
    twice = dataclasses.replace(
        inst, tunnels=inst.tunnels + inst.tunnels[:1], demands=inst.demands + inst.demands[:1],
        logical_sequences=inst.logical_sequences * 2, conditions=inst.conditions * 2)
    assert codes(validate_instance(twice)) == [
        "DUPLICATE_TUNNEL_ID", "DUPLICATE_FLOW_ID", "DUPLICATE_SEQUENCE_ID",
        "DUPLICATE_CONDITION_ID"]


def test_condition_contradiction_flagged():
    inst = hint_example("cls")
    bad = Condition("broken", alive_links=frozenset({"s-4"}), dead_links=frozenset({"s-4"}))
    inst2 = type(inst)(topology=inst.topology, demands=inst.demands, tunnels=inst.tunnels,
                       logical_sequences=inst.logical_sequences,
                       conditions=inst.conditions + (bad,))
    assert "CONDITION_CONTRADICTION" in codes(validate_instance(inst2))


def test_tunnel_alive_matches_path_membership():
    inst = four_tunnel_example()
    topo = inst.topology
    t3 = next(t for t in inst.tunnels if t.id == "T3")
    t1 = next(t for t in inst.tunnels if t.id == "T1")
    assert not tunnel_alive(topo, t3, Scenario(frozenset({"3-4"})))
    assert tunnel_alive(topo, t1, Scenario(frozenset({"3-4"})))
    assert tunnel_alive(topo, t3, Scenario(frozenset()))
    with pytest.raises(UnknownLinkError):
        tunnel_alive(topo, t1, Scenario(frozenset({"nope"})))


def test_condition_active_semantics():
    topo = hint_example("cls").topology
    dead = Condition("d", dead_links=frozenset({"s-4"}))
    assert condition_active(topo, dead, Scenario(frozenset({"s-4", "1-t"})))
    alive = Condition("a", alive_links=frozenset({"s-4"}))
    assert not condition_active(topo, alive, Scenario(frozenset({"s-4"})))
    always = Condition("t")
    assert condition_active(topo, always, Scenario(frozenset({"s-4", "1-t"})))
    with pytest.raises(UnknownLinkError):
        condition_active(topo, Condition("x", dead_links=frozenset({"zz"})), Scenario(frozenset()))


def test_enumerate_scenarios_counts_and_order():
    topo = make_topology(list("abcdef"),
                         [(f"l{i}", "abcdef"[i], "abcdef"[(i + 1) % 6], 1.0) for i in range(5)])
    one = enumerate_scenarios(topo, 1)
    assert len(one) == 6
    two = enumerate_scenarios(topo, 2)
    assert len(two) == 1 + 5 + 10
    assert enumerate_scenarios(topo, 0) == [Scenario(frozenset())]
    # clamped, not an error
    assert len(enumerate_scenarios(topo, 99)) == 2 ** 5
    keys = [sc.key() for sc in two]
    assert keys == sorted(keys)
    # strict superset of the k-1 set
    assert set(sc.failed_links for sc in one) < set(sc.failed_links for sc in two)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from(["s-1", "1-t", "s-2", "2-t", "s-3", "3-4", "4-t", "s-4"])),
       st.sampled_from(["s-1", "1-t", "s-2", "2-t", "s-3", "3-4", "4-t", "s-4"]))
def test_tunnel_alive_is_monotone(failed, extra):
    inst = four_tunnel_example()
    topo = inst.topology
    for t in inst.tunnels:
        before = tunnel_alive(topo, t, Scenario(frozenset(failed)))
        after = tunnel_alive(topo, t, Scenario(frozenset(failed | {extra})))
        if not before:
            assert not after


def test_walk_handles_parallel_links():
    topo = make_topology(["a", "b"], [("p1", "a", "b", 1.0), ("p2", "a", "b", 1.0)])
    inst = four_tunnel_example()
    t = Tunnel("loop", "a", "a", ("p1", "p2"))
    inst2 = type(inst)(topology=topo, tunnels=(t,))
    assert validate_instance(inst2) == []
    assert math.isfinite(topo.link("p1").capacity)
