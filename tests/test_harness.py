import csv
import dataclasses
import json

import pytest

from resilient_te.cli import FIXTURES, main
from resilient_te.fixtures import (
    cvar_topo,
    flow_example,
    four_tunnel_example,
    hint_example,
    parallel_example,
    realization_example,
)
from resilient_te.generators import (
    generate_gravity_demands,
    random_instance,
    select_tunnels,
    split_sublinks,
)
from resilient_te.io import instance_from_dict, instance_to_dict, load_instance, dump_instance
from resilient_te.net import (
    EMPTY_SCENARIO,
    FlowDemand,
    NetworkInstance,
    Scenario,
    Tunnel,
    make_topology,
    validate_instance,
)
from resilient_te.oracle import solve_mcf


ALL_FIXTURES = [
    four_tunnel_example(), four_tunnel_example("three"),
    parallel_example("tunnels"), parallel_example("ls"),
    hint_example("tunnels"), hint_example("cls"), hint_example("ls"),
    flow_example(), cvar_topo(),
    realization_example(False), realization_example(True),
]


def test_fixtures_validate_clean():
    for inst in ALL_FIXTURES:
        assert validate_instance(inst) == []


@pytest.mark.parametrize("idx", range(len(ALL_FIXTURES)))
def test_roundtrip_through_json(idx):
    inst = ALL_FIXTURES[idx]
    scens = [Scenario(frozenset({inst.topology.links[0].id}), prob=0.25)]
    doc = instance_to_dict(inst, scens)
    doc2 = json.loads(json.dumps(doc))
    back, scens2 = instance_from_dict(doc2)
    assert back == inst
    assert scens2 == scens


def test_roundtrip_file(tmp_path):
    inst = hint_example("cls")
    path = tmp_path / "inst.json"
    dump_instance(inst, str(path))
    back, _ = load_instance(str(path))
    assert back == inst


def test_unsupported_version_rejected():
    doc = instance_to_dict(four_tunnel_example())
    doc["version"] = 99
    with pytest.raises(ValueError):
        instance_from_dict(doc)


# -- generators -----------------------------------------------------------------


def test_gravity_symmetric_cycle_uniform():
    topo = make_topology(list("abcd"),
                         [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.0),
                          ("e3", "c", "d", 1.0), ("e4", "d", "a", 1.0)])
    demands = generate_gravity_demands(topo, seed=5)
    values = {d.demand for d in demands}
    assert len(values) == 1  # uniform degrees give equal demands


def test_gravity_hits_target_utilization():
    for seed in (0, 1, 2):
        inst = random_instance(seed, n_nodes=5, extra_links=3)
        demands = generate_gravity_demands(inst.topology, seed=seed)
        probe = NetworkInstance(topology=inst.topology, demands=demands)
        base = solve_mcf(probe, EMPTY_SCENARIO, "demand_scale")
        scale = next(iter(base.satisfied.values()))
        mlu = 1.0 / scale
        assert 0.5 - 1e-6 <= mlu <= 0.7 + 1e-6


def test_gravity_deterministic_per_seed():
    topo = random_instance(4).topology
    a = generate_gravity_demands(topo, seed=9)
    b = generate_gravity_demands(topo, seed=9)
    assert a == b


def test_gravity_rejects_disconnected():
    topo = make_topology(["a", "b", "c", "d"], [("e1", "a", "b", 1.0), ("e2", "c", "d", 1.0)])
    with pytest.raises(ValueError):
        generate_gravity_demands(topo)


def test_gravity_without_a_node_pair_has_no_demand():
    assert generate_gravity_demands(make_topology(["a"], [])) == ()
    assert generate_gravity_demands(make_topology([], [])) == ()


def test_select_tunnels_disjoint_first():
    topo = make_topology(
        ["s", "x", "y", "z", "t"],
        [("a1", "s", "x", 1.0), ("a2", "x", "t", 1.0),
         ("b1", "s", "y", 1.0), ("b2", "y", "t", 1.0),
         ("c1", "s", "z", 1.0), ("c2", "z", "t", 1.0)])
    tunnels = select_tunnels(topo, ("s", "t"), 3)
    assert len(tunnels) == 3
    used = [set(t.path) for t in tunnels]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not (used[i] & used[j])


def test_select_tunnels_four_tunnel_fixture():
    inst = four_tunnel_example()
    tunnels = select_tunnels(inst.topology, ("s", "t"), 4)
    paths = {t.path for t in tunnels}
    assert ("s-3", "3-4", "4-t") in paths
    assert ("s-4", "4-t") in paths  # both relay-sharing routes selected


def test_select_tunnels_shortest_single():
    inst = four_tunnel_example()
    (t,) = select_tunnels(inst.topology, ("s", "t"), 1)
    assert len(t.path) == 2


def test_select_tunnels_disconnected_pair_empty():
    topo = make_topology(["a", "b", "c"], [("e", "a", "b", 1.0)])
    assert select_tunnels(topo, ("a", "c"), 2) == ()


def test_split_sublinks():
    inst = flow_example()
    split = split_sublinks(inst)
    assert len(split.topology.links) == 2 * len(inst.topology.links)
    for ln in split.topology.links:
        base = ln.id.rsplit("::", 1)[0]
        orig = inst.topology.link(base)
        assert ln.capacity == pytest.approx(orig.capacity / 2)
        assert ln.fail_prob == orig.fail_prob
    for t in split.tunnels:
        assert all(lid.endswith("::a") for lid in t.path)
    assert validate_instance(split) == []


# -- CLI -------------------------------------------------------------------------


def test_cli_fixture_solve_values(capsys):
    assert main(["--fixture", "four-tunnel", "solve", "--model", "ffc", "--k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1.000000"
    assert main(["--fixture", "four-tunnel", "oracle", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1.000000"


def test_cli_unknown_flag_is_usage_error(capsys):
    assert main(["--fixture", "four-tunnel", "solve", "--model", "ffc", "--wat", "1"]) == 1


def test_cli_without_an_instance_is_a_usage_error(capsys):
    assert main(["solve", "--model", "ffc", "--k", "1"]) == 1
    assert capsys.readouterr() == ("", "error: USAGE supply --instance FILE or --fixture NAME\n")


def test_cli_validate(tmp_path, capsys):
    inst = four_tunnel_example()
    path = tmp_path / "ok.json"
    dump_instance(inst, str(path))
    assert main(["--instance", str(path), "validate"]) == 0
    doc = instance_to_dict(inst)
    doc["topology"]["links"][0]["capacity"] = 0.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["--instance", str(bad), "validate"]) == 2
    assert "NONPOSITIVE_CAPACITY" in capsys.readouterr().out


def test_cli_solving_commands_refuse_an_instance_that_fails_validation(tmp_path, capsys):
    # Each command validates first: a dropped or NaN demand would otherwise
    # solve to 0.000000, and an infinite capacity stall the simplex.
    doc = instance_to_dict(four_tunnel_example())
    commands = (["solve", "--model", "ffc", "--k", "1"], ["oracle", "--k", "2"],
                ["realize", "--k", "1"], ["flomore", "solve"], ["analyze"],
                ["report", "--k", "1"])
    for section, key, value, error in (
            ("demands", "demand", float("nan"), "NONFINITE_DEMAND flow d0 demand nan"),
            ("demands", "demand", -2.0, "NEGATIVE_DEMAND flow d0 demand -2.0"),
            ("topology", "capacity", float("inf"), "NONFINITE_CAPACITY link s-1 capacity inf")):
        bad = json.loads(json.dumps(doc))
        (bad["topology"]["links"] if section == "topology" else bad["demands"])[0][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["--instance", str(path), "validate"]) == 2
        capsys.readouterr()
        for command in commands:
            assert main(["--instance", str(path), *command]) == 2
            assert capsys.readouterr() == ("", f"error: {error}\n")


def test_cli_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert main(["--fixture", "four-tunnel", "gen", "scenarios", "--k", "1",
                 "--out", str(out)]) == 0
    inst, scens = load_instance(str(out))
    assert len(scens) == 1 + len(inst.topology.links)
    assert main(["--fixture", "four-tunnel", "gen", "sublinks", "--out", str(out)]) == 0
    inst2, _ = load_instance(str(out))
    assert len(inst2.topology.links) == 2 * len(inst.topology.links)


def test_cli_gen_demands_and_tunnels(tmp_path):
    inst = random_instance(2, n_pairs=2)
    src = tmp_path / "src.json"
    dump_instance(NetworkInstance(topology=inst.topology, demands=inst.demands), str(src))
    out = tmp_path / "out.json"
    assert main(["--instance", str(src), "gen", "tunnels", "--count", "2",
                 "--out", str(out)]) == 0
    filled, _ = load_instance(str(out))
    assert filled.tunnels
    assert main(["--instance", str(src), "gen", "demands", "--seed", "4",
                 "--out", str(out)]) == 0
    gd, _ = load_instance(str(out))
    assert gd.demands


def test_cli_rejects_a_malformed_seed_variable(monkeypatch, capsys):
    assert main(["--fixture", "four-tunnel", "gen", "demands", "--seed", "3"]) == 0
    explicit = capsys.readouterr().out
    monkeypatch.setenv("RESILIENT_TE_SEED", "3")
    assert main(["--fixture", "four-tunnel", "gen", "demands"]) == 0
    assert capsys.readouterr().out == explicit
    monkeypatch.setenv("RESILIENT_TE_SEED", "abc")
    assert main(["--fixture", "four-tunnel", "gen", "demands"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: USAGE") and "RESILIENT_TE_SEED" in captured.err


def test_cli_realize_lists_flows(capsys):
    assert main(["--fixture", "parallel-ls", "realize", "--model", "ls", "--k", "1",
                 "--objective", "demand-scale", "--scenario", "e1"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows and all(len(r.split(",")) == 3 for r in rows)


def test_cli_flomore_and_analyze(capsys):
    assert main(["--fixture", "flow-example", "flomore", "solve", "--beta", "0.99",
                 "--cutoff", "0"]) == 0
    out = capsys.readouterr().out
    assert "max-flow-pct-loss,0.000000" in out
    assert main(["--fixture", "flow-example", "analyze", "--beta", "0.99",
                 "--cutoff", "0"]) == 0
    out = capsys.readouterr().out
    assert "flow-loss,f1,0.500000" in out
    assert main(["--fixture", "cvar-topo", "flomore", "cvar", "--beta", "0.99",
                 "--cutoff", "0"]) == 0
    out = capsys.readouterr().out
    assert "cvar,1.000000" in out


def test_cli_flomore_without_demands_reports_no_loss(tmp_path, capsys):
    path = tmp_path / "no-demands.json"
    dump_instance(dataclasses.replace(flow_example(), demands=()), str(path))
    for method in ("solve", "benders"):
        assert main(["--instance", str(path), "flomore", method, "--cutoff", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "max-flow-pct-loss,0.000000" in captured.out
        assert "scen-pct-loss,0.000000" in captured.out


def test_cli_flomore_solve_rejects_an_unreachable_target(capsys):
    # flow-example connects f1 in less probability mass than 0.999999, so
    # both percentile-loss solvers refuse the target
    for method in ("solve", "benders"):
        assert main(["--fixture", "flow-example", "flomore", method, "--beta", "0.999999",
                     "--cutoff", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "InfeasibleTargetError" in captured.err


def test_cli_flomore_cvar_rejects_beta_one(capsys):
    # CVaR averages over the worst 1 - beta of the mass, so beta = 1 is a
    # usage error, not a division by zero
    assert main(["--fixture", "cvar-topo", "flomore", "cvar", "--beta", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: USAGE") and "beta" in captured.err


@pytest.mark.parametrize("args", [
    ["flomore", "solve", "--beta", "-0.5"],
    ["flomore", "solve", "--beta", "nan"],
    ["analyze", "--beta", "-1"],
    ["flomore", "solve", "--cutoff", "nan"],
    ["analyze", "--cutoff", "nan"],
])
def test_cli_flomore_and_analyze_refuse_a_bad_beta_or_cutoff(capsys, args):
    # These printed max-flow-pct-loss,0.000000 and exited 0.
    assert main(["--fixture", "flow-example", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: USAGE") and args[-2].strip("-") in captured.err


def test_cli_report_csv_normalized(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["--fixture", "four-tunnel", "report", "--k", "1",
                 "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["model"] for r in rows} == {"ffc", "ffc_plus"}
    for r in rows:
        norm = float(r["normalized_to_optimal"])
        assert 0.0 < norm <= 1.0 + 1e-9
        assert norm == pytest.approx(float(r["value"]) / 2.0, abs=1e-6)


def test_cli_guard_errors_exit_2(tmp_path, capsys):
    # One tunnel along a 21-link path: its pair alone sees 2^21 > 1e6
    # scenarios at k=21.
    nodes = [f"n{i}" for i in range(22)]
    topo = make_topology(nodes, [(f"l{i:02d}", nodes[i], nodes[i + 1], 1.0) for i in range(21)])
    inst = NetworkInstance(topo, demands=(FlowDemand("f", ("n0", "n21"), 1.0),),
                           tunnels=(Tunnel("T", "n0", "n21", tuple(ln.id for ln in topo.links)),))
    path = tmp_path / "path.json"
    dump_instance(inst, str(path))
    assert main(["--instance", str(path), "solve", "--model", "ffc-plus",
                 "--k", "21", "--mode", "enumerate"]) == 2
    assert "error: ScenarioBlowupError" in capsys.readouterr().err


def test_cli_guard_counts_the_pairs_own_links(tmp_path, capsys):
    # 30 links at k=30 is 2^30 instance-wide scenarios, but the one pair's
    # tunnels use few of them, so enumerate mode solves, and dual mode is
    # never optimistic against it.
    inst = random_instance(3, n_nodes=16, extra_links=15, n_pairs=1)
    path = tmp_path / "big.json"
    dump_instance(inst, str(path))
    links = len(inst.topology.links)
    values = {}
    for mode in ("enumerate", "dual"):
        assert main(["--instance", str(path), "solve", "--model", "ffc-plus",
                     "--k", str(links), "--mode", mode]) == 0
        values[mode] = float(capsys.readouterr().out)
    assert values["enumerate"] >= values["dual"] - 1e-9


def test_cli_gen_scenarios_guard_exits_2(tmp_path, capsys):
    inst = random_instance(3, n_nodes=16, extra_links=15, n_pairs=1)
    path = tmp_path / "big.json"
    dump_instance(inst, str(path))
    links = len(inst.topology.links)
    assert main(["--instance", str(path), "gen", "scenarios", "--k", str(links)]) == 2
    assert "error: ScenarioBlowupError" in capsys.readouterr().err


def test_all_cli_fixtures_build():
    for name, builder in FIXTURES.items():
        inst = builder()
        assert validate_instance(inst) == []


def test_cli_logical_flow_model(capsys):
    assert main(["--fixture", "hint-cls", "solve", "--model", "flow", "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1.000000"
