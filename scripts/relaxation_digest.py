#!/usr/bin/env python3
"""Fingerprint every LP relaxation of one benchmark pass.

    python scripts/relaxation_digest.py --workload flomore --seed 1 [--instance-seed 4]
    python scripts/relaxation_digest.py --out counts.json [--seed 1]

Runs one `perfbench/run.py --seconds 0 --trace 0` pass of the workload on
the instances of `--instance-seed` (default 1) in this process, with
`lp._solve_relaxation` and `np.linalg.inv` wrapped, and prints the number of
relaxations solved, a sha256 over their results, their summed phase-1 and
phase-2 pivots, and the `np.linalg.inv` calls made during the pass.  Each
result is serialized as its status, pivots, the `float.hex` of its
objective, primal names and values and duals, and, when its LP has rows,
the bytes of the final basis state on its `Solution.basis` (basis columns
and at-upper mask).  Two checkouts that print
the same sha256 solved every relaxation identically: same pivots, same
vertex, same basis.  A relaxation solved from inside another (the cold
fallback of a warm start) is part of the outer result and is not counted on
its own.

`--out` prints the digests of robust-plan, oracle-sweep and flomore at
instance seeds 1-5, all at `--seed`, and writes them to a JSON file of
counts, with no wall times.  The file also holds every CLI fixture at
`flomore --cutoff 0` with the CLI's default link probabilities: its
scenarios and scenario classes, and per `solve` (direct MIP) and `cvar`
(flow_adaptive) the relaxations solved and the rows and columns of the
largest compiled form, or the error raised.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402  (stdlib only; numpy is not yet imported)

#: (workload, instance seed) of every digest `--out` records
OUT_DIGESTS = tuple((workload, s) for workload in ("robust-plan", "oracle-sweep", "flomore")
                    for s in range(1, 6))


def serialize(sol) -> bytes:
    parts = [sol.status, repr(tuple(sol.pivots)), float.hex(sol.objective)]
    parts += [f"{name}={float.hex(v)}" for name, v in sol.primal.items()]
    parts.append("duals" if sol.duals is not None else "no duals")
    parts += [float.hex(y) for y in sol.duals or ()]
    out = "\n".join(parts).encode()
    start = sol.basis
    if start is not None and start.basis is not None:
        # The basis and its at-upper mask only: an inverse cached on the
        # start depends on which later solves started from it.
        out += (b"\nbasis" + start.basis.astype("<i8").tobytes()
                + b"\nat_upper" + start.at_upper.tobytes())
    return out + b"\n--\n"


@dataclasses.dataclass
class Counts:
    relaxations: int = 0
    pivots: list[int] = dataclasses.field(default_factory=lambda: [0, 0])
    inversions: int = 0
    shape: tuple[int, int] = (0, 0)  # rows and columns of the largest compiled form
    digest: hashlib._Hash = dataclasses.field(default_factory=hashlib.sha256)


@contextlib.contextmanager
def recording():
    """Count the outermost relaxations and `np.linalg.inv` calls made in
    the block, and hash their results."""
    import numpy as np
    from resilient_te import lp

    solve, inv = lp._solve_relaxation, np.linalg.inv
    counts, depth = Counts(), 0

    def recorded(lp_, std, *a, **k):
        nonlocal depth
        depth += 1
        try:
            result = solve(lp_, std, *a, **k)
        finally:
            depth -= 1
        if depth == 0:
            counts.relaxations += 1
            counts.pivots[0] += result.pivots[0]
            counts.pivots[1] += result.pivots[1]
            counts.shape = max(counts.shape, (std.m, std.n_real))
            counts.digest.update(serialize(result))
        return result

    def inverted(a):
        counts.inversions += 1
        return inv(a)

    lp._solve_relaxation, np.linalg.inv = recorded, inverted
    try:
        yield counts
    finally:
        lp._solve_relaxation, np.linalg.inv = solve, inv


def digest(workload: str, seed: int, instance_seed: int) -> dict:
    """One pass's counts; raises RuntimeError with the pass's output when
    the benchmark exits nonzero."""
    out = io.StringIO()
    with recording() as counts, contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--instance-seed",
                         str(instance_seed), "--seconds", "0", "--trace", "0"])
    if code != 0:
        raise RuntimeError(out.getvalue())
    summary = json.loads(out.getvalue().splitlines()[-1])
    return {"workload": workload, "seed": seed, "instance_seed": instance_seed,
            "relaxations": counts.relaxations, "sha256": counts.digest.hexdigest(),
            "pivots": counts.pivots, "inversions": counts.inversions,
            "correct": summary["correct"], "failed": summary["failed"]}


def digest_line(d: dict) -> str:
    return (f"{d['workload']} seed {d['seed']} instance seed {d['instance_seed']}: "
            f"{d['relaxations']} relaxations, sha256 {d['sha256']}, "
            f"pivots {d['pivots'][0]} + {d['pivots'][1]}, inversions {d['inversions']}, "
            f"correct {d['correct']}, failed {d['failed']}")


def prob_fixtures() -> dict:
    """Every CLI fixture as `flomore --cutoff 0 --beta 0.99` builds it."""
    from resilient_te import prob
    from resilient_te.cli import FIXTURES

    out = {}
    for name, build in FIXTURES.items():
        inst = build()
        inst = dataclasses.replace(inst, topology=prob.sample_link_probs(inst.topology, seed=0))
        pinst = prob.ProbabilisticInstance(
            inst, prob.enumerate_prob_scenarios(inst.topology, 0.0), beta=0.99)
        entry = {"scenarios": len(pinst.scenarios), "classes": len(pinst.classes.reps)}
        for action, solve in (("solve", prob.solve_direct_mip), ("cvar", prob.solve_cvar)):
            try:
                with recording() as counts:
                    solve(pinst)
            except prob.InfeasibleTargetError as exc:
                entry[action] = {"error": type(exc).__name__}
            else:
                entry[action] = {"relaxations": counts.relaxations, "rows": counts.shape[0],
                                 "cols": counts.shape[1]}
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=run.WORKLOAD_NAMES)
    target.add_argument("--out", type=Path, help="write every digest and the fixtures here")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--instance-seed", type=int, default=1)
    args = parser.parse_args(argv)

    run.pin_threads()
    plan = OUT_DIGESTS if args.out else ((args.workload, args.instance_seed),)
    digests = []
    for workload, instance_seed in plan:
        try:
            digests.append(digest(workload, args.seed, instance_seed))
        except RuntimeError as exc:
            print(exc, end="")
            return 1
        print(digest_line(digests[-1]))
    if args.out:
        report = {"digests": digests, "prob_fixtures_cutoff_0": prob_fixtures()}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
