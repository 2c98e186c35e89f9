#!/usr/bin/env python3
"""Fingerprint every LP relaxation of one benchmark pass.

    python scripts/relaxation_digest.py --workload flomore --seed 1 [--instance-seed 4]

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
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402  (stdlib only; numpy is not yet imported)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--instance-seed", type=int, default=1)
    args = parser.parse_args(argv)

    run.pin_threads()
    import numpy as np
    from resilient_te import lp

    solve, inv = lp._solve_relaxation, np.linalg.inv
    digest = hashlib.sha256()
    count = depth = inversions = 0
    pivots = [0, 0]

    def recorded(*a, **k):
        nonlocal count, depth
        depth += 1
        try:
            result = solve(*a, **k)
        finally:
            depth -= 1
        if depth == 0:
            count += 1
            pivots[0] += result.pivots[0]
            pivots[1] += result.pivots[1]
            digest.update(serialize(result))
        return result

    def inverted(a):
        nonlocal inversions
        inversions += 1
        return inv(a)

    lp._solve_relaxation, np.linalg.inv = recorded, inverted
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", args.workload, "--seed", str(args.seed), "--instance-seed",
                         str(args.instance_seed), "--seconds", "0", "--trace", "0"])
    if code != 0:
        print(out.getvalue(), end="")
        return code
    summary = json.loads(out.getvalue().splitlines()[-1])
    print(f"{args.workload} seed {args.seed} instance seed {args.instance_seed}: "
          f"{count} relaxations, sha256 {digest.hexdigest()}, "
          f"pivots {pivots[0]} + {pivots[1]}, inversions {inversions}, "
          f"correct {summary['correct']}, failed {summary['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
