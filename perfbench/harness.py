"""Runs one workload: repeated set-up, timed passes, an optional traced
pass, correctness gates, and the metric report.

End-to-end metrics come from passes with tracing off.  A traced run adds a
traced pass on each side of one untraced pass; the per-layer metrics come
from the second traced pass, its counts must equal the first's, and the
difference between traced and untraced wall time is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import resilient_te
from resilient_te import oracle, prob, robust

from . import instances
from .spans import Tracer
from .speed import Speedometer
from .workloads import MODELS, MODES, WORKLOADS, GateTally, Recorder, record_gate, set_up

#: set-ups timed before the first pass and again after each pass, so the
#: median of `setup_s` samples the machine at several moments of the run
SETUP_REPEATS = 8
LAYERS = ("generators", "io", "net", "failsets", "robust", "lp", "oracle", "realize", "prob")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "RESILIENT_TE_THREADS")
EXPECTED_FILE = Path(__file__).with_name("expected.json")
DEFAULT_INSTANCE_SEED = 1

#: (name, unit, workload that measures it or None for all) of every
#: end-to-end metric the report prints.
E2E_METRICS = (
    ("setup_s", "s", None),
    ("wall_ref_s", "s", None),
    ("wall_s", "s", None),
    ("peak_rss_mb", "MB", None),
    ("ops_failed_ratio", "ratio", None),
    ("plan_s.dual", "s", "robust-plan"),
    ("plan_s.enumerate", "s", "robust-plan"),
    ("oracle_s", "s", "oracle-sweep"),
    ("mcf_s.p50", "s", "oracle-sweep"),
    ("mcf_s.p90", "s", "oracle-sweep"),
    ("mip_s", "s", "flomore"),
    ("benders_s", "s", "flomore"),
)
#: metric -> (workload, pass groups whose seconds it sums per pass)
GROUP_METRICS = {
    "plan_s.dual": ("robust-plan", ("plan.dual",)),
    "plan_s.enumerate": ("robust-plan", ("plan.enumerate",)),
    "oracle_s": ("oracle-sweep", ("mcf", "oracle")),
    "mip_s": ("flomore", ("mip",)),
    "benders_s": ("flomore", ("benders",)),
}
#: count metrics that must repeat exactly between two traced passes
REPEATED_COUNTS = ("lp.solves", "lp.mips", "realize.failed", "prob.benders_iterations",
                   "prob.cuts", "oracle.scenarios", "failsets.patterns")


def environment() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": str(os.cpu_count()),
        "affinity": str(len(os.sched_getaffinity(0))),
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [
        ("generators.instance_s", "s"), ("io.roundtrip_s", "s"), ("io.bytes", "bytes"),
        ("failsets.polytope_s", "s"), ("failsets.polytope_rows", "count"),
        ("failsets.polytope_vars", "count"), ("failsets.patterns_s", "s"),
        ("failsets.patterns", "count"), ("robust.build_s", "s"),
    ]
    for model in MODELS:
        for mode in MODES:
            names += [(f"robust.lp_rows.{model}.{mode}", "count"),
                      (f"robust.lp_vars.{model}.{mode}", "count"),
                      (f"robust.solve_s.{model}.{mode}", "s")]
    names += [
        ("lp.solve_s", "s"), ("lp.solves", "count"), ("lp.rows_mean", "count"),
        ("lp.vars_mean", "count"), ("lp.mip_s", "s"), ("lp.mips", "count"),
        ("oracle.build_s", "s"), ("oracle.scenarios", "count"),
        ("realize.routing_s", "s"), ("realize.calls", "count"), ("realize.failed", "count"),
        ("prob.subproblem_s", "s"), ("prob.subproblems", "count"), ("prob.master_s", "s"),
        ("prob.masters", "count"), ("prob.benders_iterations", "count"),
        ("prob.cuts", "count"), ("prob.mip_self_s", "s"), ("prob.cvar_s", "s"),
        ("prob.minmax_s", "s"),
    ]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names.append(("trace.overhead_s", "s"))
    return names


def _lp_size(_result, model, *_args, **_kwargs) -> dict:
    return {"rows": model.num_rows, "vars": model.num_vars}


def install_wrappers(tracer: Tracer) -> None:
    """Wrap each public function where its caller module looks it up."""
    for module in (robust, oracle, prob):
        tracer.wrap(module, "solve_lp", "lp", attrs_of=_lp_size)
    tracer.wrap(prob, "solve_mip", "lp", attrs_of=_lp_size)
    for name in ("build_ffc_polytope", "build_exact_polytope", "build_hint_polytope"):
        tracer.wrap(robust, name, "failsets", attrs_of=lambda poly, *_a, **_k: {
            "rows": len(poly.rows), "vars": len(poly.variables)})
    tracer.wrap(robust, "enumerate_patterns", "failsets",
                attrs_of=lambda pats, *_a, **_k: {"patterns": len(pats)})
    tracer.wrap(oracle, "solve_mcf", "oracle")
    tracer.wrap(oracle, "enumerate_scenarios", "net")
    tracer.wrap(prob, "benders_subproblem", "prob")
    tracer.wrap(prob, "benders_master", "prob")


def layer_metrics(spans, ops) -> dict[str, float]:
    """Per-layer metrics of one traced pass (plus its traced set-up)."""
    def picked(prefix):
        return [s for s in spans if s.name.startswith(prefix)]

    def seconds(chosen):
        return sum((s.duration for s in chosen), 0.0)

    def self_seconds(chosen):
        return sum((s.self_time for s in chosen), 0.0)

    def summed(chosen, key):
        return sum(s.attrs[key] for s in chosen)

    roundtrips, polytopes = picked("io.roundtrip"), picked("failsets.build_")
    patterns = picked("failsets.enumerate_patterns")
    lps, mips = picked("lp.solve_lp"), picked("lp.solve_mip")
    mcf = picked("oracle.solve_mcf")
    subproblems, masters = picked("prob.benders_subproblem"), picked("prob.benders_master")
    routing = [op for op in ops if op.name.startswith("extract_routing:")]
    benders = [op for op in ops if op.name.startswith("benders_run:")]
    out = {name: 0.0 for name, _ in per_layer_names()}
    out.update({
        "generators.instance_s": seconds(picked("generators.build")),
        "io.roundtrip_s": seconds(roundtrips), "io.bytes": summed(roundtrips, "bytes"),
        "failsets.polytope_s": seconds(polytopes),
        "failsets.polytope_rows": summed(polytopes, "rows"),
        "failsets.polytope_vars": summed(polytopes, "vars"),
        "failsets.patterns_s": seconds(patterns), "failsets.patterns": summed(patterns, "patterns"),
        "robust.build_s": self_seconds(s for s in spans if s.layer == "robust"),
        "lp.solve_s": seconds(lps), "lp.solves": len(lps),
        "lp.mip_s": seconds(mips), "lp.mips": len(mips),
        "oracle.build_s": self_seconds(mcf), "oracle.scenarios": len(mcf),
        "realize.routing_s": sum((op.seconds for op in routing), 0.0),
        "realize.calls": len(routing),
        "realize.failed": sum(1 for op in routing if op.error is not None),
        "prob.subproblem_s": seconds(subproblems), "prob.subproblems": len(subproblems),
        "prob.master_s": seconds(masters), "prob.masters": len(masters),
        "prob.benders_iterations": sum(op.attrs["iterations"] for op in benders if not op.error),
        "prob.cuts": sum(op.attrs["cuts"] for op in benders if not op.error),
        "prob.mip_self_s": self_seconds(picked("prob.solve_direct_mip")),
        "prob.cvar_s": seconds(picked("prob.solve_cvar")),
        "prob.minmax_s": seconds(picked("prob.solve_scenario_minmax")),
    })
    if lps:
        out["lp.rows_mean"] = statistics.fmean(s.attrs["rows"] for s in lps)
        out["lp.vars_mean"] = statistics.fmean(s.attrs["vars"] for s in lps)
    for s in spans:
        if s.layer == "robust" and "model" in s.attrs:
            key = f"{s.attrs['model']}.{s.attrs['mode']}"
            out[f"robust.solve_s.{key}"] += s.duration
            for child in spans:
                if child.parent == s.id and child.name == "lp.solve_lp":
                    out[f"robust.lp_rows.{key}"] = child.attrs["rows"]
                    out[f"robust.lp_vars.{key}"] = child.attrs["vars"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_seconds(s for s in spans if s.layer == layer)
    return out


def load_expected(key: str) -> dict:
    with open(EXPECTED_FILE) as fh:
        return json.load(fh).get(key, {})


class FingerprintError(RuntimeError):
    """A default-seed instance no longer matches its recorded fingerprint."""


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, instance_seed: int, smoke: bool) -> None:
        self.workload = WORKLOADS[workload]
        self.instance_seed = instance_seed
        self.smoke = smoke
        self.gates: dict[str, GateTally] = {}
        self.passes: list[Recorder] = []
        #: (wall seconds, reference seconds) of every timed set-up
        self.setup_times: list[tuple[float, float | None]] = []
        self.speed: Speedometer | None = None
        self.key = f"{'smoke/' if smoke else ''}{workload}"
        expected = load_expected(self.key) if instance_seed == DEFAULT_INSTANCE_SEED else {}
        self.expected_fingerprints = expected.get("fingerprints")
        self.recorded = expected.get("objectives")
        self.order_rng = random.Random(seed)

    def set_up(self) -> list:
        named = None
        for _ in range(SETUP_REPEATS):
            mark = self.speed.mark() if self.speed is not None else None
            start = time.perf_counter()
            named = set_up(self.workload.name, self.instance_seed, self.smoke)
            took = time.perf_counter() - start
            ref = self.speed.reference_seconds(took, mark) if mark is not None else None
            self.setup_times.append((took, ref))
        return named

    def fingerprints(self, named) -> dict[str, str]:
        prints = {n.label: instances.fingerprint(n.instance, n.scenarios) for n in named}
        if self.expected_fingerprints is not None and prints != self.expected_fingerprints:
            changed = sorted(k for k in set(prints) | set(self.expected_fingerprints)
                             if prints.get(k) != self.expected_fingerprints.get(k))
            raise FingerprintError(
                f"{self.key}: instances at the default seed changed: {changed}; "
                "a generator or library change altered the workload")
        return prints

    def one_pass(self, ctx, tracer: Tracer | None = None) -> Recorder:
        rec = Recorder(self.gates, tracer, self.speed)
        self.workload.run_pass(ctx, rec, self.order_rng, self.recorded)
        self.passes.append(rec)
        return rec


def _fmt(value: float) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def e2e_report(run: Run) -> dict[str, tuple]:
    """All end-to-end metrics measured on this workload: value, unit, samples.

    Times are in reference seconds (see speed.py), except `wall_s`.
    """
    name = run.workload.name
    ops = [op for rec in run.passes for op in rec.ops]
    failed = sum(1 for op in ops if op.error or op.wrong)
    passes = f"median of {len(run.passes)} passes"

    def ref_total(rec: Recorder, groups=None) -> float:
        return sum(t.ref_seconds for t in rec.timings.values()
                   if groups is None or t.group in groups)

    setups = statistics.median(ref for _, ref in run.setup_times)
    out = {
        "setup_s": (setups, "s", f"median of {len(run.setup_times)} set-ups; wall median "
                                 f"{statistics.median(t for t, _ in run.setup_times):.6f} s"),
        "wall_ref_s": (statistics.median(ref_total(rec) for rec in run.passes), "s", passes),
        "wall_s": (statistics.median(rec.wall for rec in run.passes), "s",
                   f"{passes}, wall clock"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "1 sample: process peak"),
        "ops_failed_ratio": (failed / max(1, len(ops)), "ratio",
                             f"{failed} of {len(ops)} ops over {len(run.passes)} passes"),
    }
    for metric, (workload, groups) in GROUP_METRICS.items():
        if workload == name:
            out[metric] = (statistics.median(ref_total(rec, groups) for rec in run.passes),
                           "s", passes)
    mcf = [rec.timings[op.name].ref_seconds for rec in run.passes for op in rec.ops
           if op.name.startswith("solve_mcf:") and not op.error]
    if mcf:
        q = statistics.quantiles(mcf, n=10, method="inclusive")
        out["mcf_s.p50"] = (statistics.median(mcf), "s", f"{len(mcf)} solve_mcf calls")
        out["mcf_s.p90"] = (q[8], "s", f"{len(mcf)} solve_mcf calls")
    return out


def _line(name: str, value, unit: str, note: str) -> str:
    return f"metric {name} = {_fmt(value)} {unit} ({note})"


def failed_op_lines(run: Run) -> list[str]:
    seen: dict[tuple[str, str], None] = {}
    for rec in run.passes:
        for op in rec.ops:
            problem = op.error or (f"WrongAnswer: {op.wrong}" if op.wrong else None)
            if problem:
                seen.setdefault((op.name, problem), None)
    lines = []
    for name, problem in seen:
        fn, _, target = name.partition(":")
        kind, _, message = problem.partition(": ")
        lines.append(f"failed-op workload={run.workload.name} op={fn} target={target} "
                     f"error={kind} message={message}")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 instance_seed: int, smoke: bool, out_dir: Path,
                 e2e_names: list[str], layer_names: list[str]) -> dict:
    """Run one workload and print its report; returns the result object."""
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print(f"workload {workload} seed={seed} instance_seed={instance_seed} "
          f"smoke={smoke} trace={int(trace)} package={Path(resilient_te.__file__).parent}")
    run = Run(workload, seed, instance_seed, smoke)

    def prepare():
        named = run.set_up()
        for label, digest in run.fingerprints(named).items():
            status = "checked" if run.expected_fingerprints is not None else "not recorded"
            print(f"fingerprint {label} sha256={digest} ({status})")
        return run.workload.context(named)

    if not trace:
        with Speedometer() as speed:
            run.speed = speed
            ctx = prepare()
            # Start another pass while it would end nearer to `seconds` than
            # stopping now, so a run measures about `seconds` of passes.
            start = time.perf_counter()
            while True:
                pass_start = time.perf_counter()
                run.one_pass(ctx)
                last = time.perf_counter() - pass_start
                run.set_up()
                if time.perf_counter() - start + last / 2 >= seconds:
                    break
        report = e2e_report(run)
        for name, unit, only in E2E_METRICS:
            if name in report:
                value, unit, note = report[name]
                print(_line(name, value, unit, note))
            else:
                print(f"metric {name} = n/a {unit} (measured on {only} only)")
        metrics = {name: {"value": report[name][0], "unit": report[name][1]}
                   for name in e2e_names}
    else:
        ctx = prepare()

        def traced_pass():
            tracer = Tracer()
            install_wrappers(tracer)
            try:
                set_up(workload, instance_seed, smoke, tracer)
                rec = run.one_pass(ctx, tracer)
            finally:
                tracer.unwrap_all()
            return tracer, rec, layer_metrics(tracer.spans, rec.ops)

        _, _, first = traced_pass()
        untraced = run.one_pass(ctx)
        tracer, traced, layers = traced_pass()
        counts = [{name: m[name] for name in REPEATED_COUNTS} for m in (first, layers)]
        record_gate(run.gates, "count metrics repeat", counts[0] == counts[1],
                    f"first {counts[0]}, second {counts[1]}")
        layers["trace.overhead_s"] = traced.wall - untraced.wall
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / f"spans-{workload}-seed{seed}.json"
        tracer.dump(spans_path)
        units = dict(per_layer_names())
        for name, unit in per_layer_names():
            print(_line(name, layers[name], unit, "traced pass"))
        print(f"trace wall traced={traced.wall!r} s untraced={untraced.wall!r} s "
              f"spans={len(tracer.spans)} written to {spans_path}")
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in layer_names}

    for name, tally in sorted(run.gates.items()):
        detail = f"; first failure: {tally.first_failure}" if tally.failed else ""
        print(f"gate {name}: checked {tally.checked}, failed {tally.failed}{detail}")
    for line in failed_op_lines(run):
        print(line)
    ops = [op for rec in run.passes for op in rec.ops]
    return {
        "correct": all(t.failed == 0 for t in run.gates.values()),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.error or op.wrong),
        "metrics": metrics,
    }
