"""Benchmark entry point.

    python3 perfbench/run.py --workload robust-plan --seed 1 --seconds 30 --trace 0

Runs one workload (or `all` of them in one process) against the package
sources in `src/` of the checkout this file sits in, checks every answer,
and prints one line per metric followed, as the last line, by a JSON object
with keys correct, attempted, failed and metrics.  `--trace 0` reports the
end-to-end metrics listed in BENCHMARK.json, `--trace 1` the per-layer
ones.

`--seed` orders the ops of each pass.  The instances come from
`--instance-seed` (default 1): the cost of one robust-plan instance varies
about fourfold between instance seeds, so varying it per run would swamp
any change under test.  `--smoke` runs tiny instances for the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("robust-plan", "oracle-sweep", "flomore")


def pin_threads() -> None:
    """One BLAS thread, so pivot paths cannot depend on the thread count,
    and the oracle's serial path; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("RESILIENT_TE_THREADS", None)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep starting passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.instance_seed < 1:
        print("--instance-seed must be at least 1", file=sys.stderr)
        return 2
    pin_threads()
    if not (ROOT / "src" / "resilient_te" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    from perfbench.harness import FingerprintError, run_workload

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.instance_seed,
                args.smoke, ROOT / ".perfbench_out",
                [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])
        except FingerprintError as exc:
            print(f"FINGERPRINT MISMATCH: {exc}", file=sys.stderr)
            return 3
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
