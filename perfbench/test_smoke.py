"""Smoke test of the benchmark: tiny instances, one pass per mode.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("robust-plan", "oracle-sweep", "flomore")
E2E = {"setup_s": "s", "wall_ref_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
       "ops_failed_ratio": "ratio", "plan_s.dual": "s", "plan_s.enumerate": "s",
       "oracle_s": "s", "mcf_s.p50": "s", "mcf_s.p90": "s", "mip_s": "s", "benders_s": "s"}
GATES = {
    "model chain (criterion 5)", "dual never optimistic (criterion 4)",
    "routing invariants (criterion 6)", "widest-path sequences",
    "MCF capacity and conservation", "worst case covers every scenario",
    "benders equals MIP (criterion 8)", "percentile ordering", "recorded objectives",
}
METRIC_LINE = re.compile(r"^metric (\S+) = (-?[0-9.e+-]+) (\S+) \((.+)\)$")
GATE_LINE = re.compile(r"^gate (.+): checked (\d+), failed (\d+)")


def run_smoke(trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--smoke", "--seed", "2",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def metrics_of(lines):
    found = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            found.setdefault(m.group(1), []).append((float(m.group(2)), m.group(3), m.group(4)))
    return found


def gates_of(lines):
    tallies = {}
    for line in lines:
        m = GATE_LINE.match(line)
        if m:
            checked, failed = tallies.get(m.group(1), (0, 0))
            tallies[m.group(1)] = (checked + int(m.group(2)), failed + int(m.group(3)))
    return tallies


@pytest.fixture(scope="module")
def untraced():
    return run_smoke(0)


@pytest.fixture(scope="module")
def traced():
    return run_smoke(1)


def test_every_end_to_end_metric_is_printed_with_unit_and_samples(untraced):
    lines, result = untraced
    found = metrics_of(lines)
    for name, unit in E2E.items():
        assert name in found, name
        for _, got_unit, note in found[name]:
            assert got_unit == unit
            assert re.search(r"\d", note), f"{name} has no sample count"
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    want = {f"{w}/{m['name']}" for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == want


def test_every_gate_runs_and_passes(untraced):
    lines, _ = untraced
    tallies = gates_of(lines)
    assert GATES <= set(tallies), GATES - set(tallies)
    for name, (checked, failed) in tallies.items():
        assert checked > 0 and failed == 0, name
    assert sum(1 for line in lines if line.startswith("fingerprint ")
               and line.endswith("(checked)")) >= len(WORKLOADS)


def test_traced_run_reports_every_layer_metric(traced):
    lines, result = traced
    found = metrics_of(lines)
    for spec in SPEC["per_layer"]:
        assert spec["name"] in found, spec["name"]
        assert {unit for _, unit, _ in found[spec["name"]]} == {spec["unit"]}
    assert gates_of(lines)["count metrics repeat"] == (3, 0)
    assert result["correct"] is True
    assert set(result["metrics"]) == {f"{w}/{m['name']}" for w in WORKLOADS
                                      for m in SPEC["per_layer"]}


def test_benchmark_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flomore", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
