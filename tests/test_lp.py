import copy
import dataclasses
import itertools

import numpy as np
import pytest

from resilient_te import lp as lp_module
from resilient_te import prob
from resilient_te.fixtures import flow_example
from resilient_te.generators import random_instance, with_conditional_sequences
from resilient_te.lp import (
    INF,
    FEAS_TOL,
    PIVOT_TOL,
    SPARSE_MIN_ROWS,
    BudgetExceededError,
    LinearProgram,
    Solution,
    SolverStallError,
    solve_lp,
    solve_mip,
    _Simplex,
    _Start,
    _solve_relaxation,
    _Standardized,
)
from resilient_te.prob import ProbabilisticInstance, enumerate_prob_scenarios
from resilient_te.robust import build_robust_lp


#: The bound kinds of the random LPs' variables.  Every lower bound is
#: finite, as `add_var` requires; some are negative, and some columns are
#: unbounded above.
BOUND_KINDS = {"pos": (0.0, INF), "box": (-1.5, 2.0), "neg": (-2.0, INF), "low": (-3.0, 0.5)}


def dual_objective(lp: LinearProgram, sol: Solution) -> float:
    """Dual objective implied by a solution's row duals and bound activity.

    For an optimal solution this equals the primal objective (weak duality
    made tight): the tests' internal consistency oracle.
    """
    if sol.duals is None:
        raise ValueError("solution carries no duals")
    total = 0.0
    for dual, row in zip(sol.duals, lp._rows):
        total += dual * row.rhs
    # Bound contributions come from reduced costs of variables pinned at a
    # finite nonzero bound.
    red = dict(lp._obj)
    for dual, row in zip(sol.duals, lp._rows):
        for j, c in row.coeffs.items():
            red[j] = red.get(j, 0.0) - dual * c
    for j, v in enumerate(lp._vars):
        r = red.get(j, 0.0)
        if abs(r) < 1e-9:
            continue
        x = sol.primal[v.name]
        if abs(x - v.lb) <= 1e-6 and v.lb != 0.0:
            total += r * v.lb
        elif v.ub != INF and abs(x - v.ub) <= 1e-6:
            total += r * v.ub
    return total


def simple_lp(sense="max"):
    lp = LinearProgram()
    lp.add_var("x")
    lp.add_row({"x": 1}, "<=", 1)
    lp.set_objective({"x": 1}, sense)
    return lp


def test_single_variable_box():
    sol = solve_lp(simple_lp())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)
    assert sol["x"] == pytest.approx(1.0)
    assert sol.duals == [pytest.approx(1.0)]


def test_shared_budget_vertex():
    lp = LinearProgram()
    lp.add_var("x")
    lp.add_var("y")
    lp.add_row({"x": 1, "y": 1}, "<=", 1)
    lp.set_objective({"x": 1, "y": 1}, "max")
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(1.0)


def test_infeasible_detected():
    lp = LinearProgram()
    lp.add_var("x")
    lp.add_row({"x": 1}, ">=", 2)
    lp.add_row({"x": 1}, "<=", 1)
    lp.set_objective({"x": 1}, "min")
    assert solve_lp(lp).status == "infeasible"


def test_unbounded_detected():
    lp = LinearProgram()
    lp.add_var("x")
    lp.set_objective({"x": 1}, "max")
    lp.add_row({"x": -1}, "<=", 0)
    assert solve_lp(lp).status == "unbounded"


def test_equality_rows_over_negative_lower_bounds():
    lp = LinearProgram()
    lp.add_var("x", -5.0, INF)
    lp.add_var("y", -5.0, INF)
    lp.add_row({"x": 1, "y": 1}, "=", -3)
    lp.add_row({"x": 1, "y": -1}, "=", 1)
    lp.set_objective({"x": 1, "y": 2}, "min")
    sol = solve_lp(lp)
    assert sol["x"] == pytest.approx(-1.0)
    assert sol["y"] == pytest.approx(-2.0)


@pytest.mark.parametrize("lb, ub", [(-INF, INF), (INF, INF), (float("nan"), INF),
                                    (0.0, float("nan"))])
def test_a_lower_bound_that_is_not_finite_or_a_nan_upper_bound_is_refused(lb, ub):
    # Each variable compiles to one column, x - lb.
    with pytest.raises(ValueError):
        LinearProgram().add_var("x", lb, ub)


def test_an_edit_to_an_infinite_lower_bound_is_refused():
    lp = simple_lp()
    with pytest.raises(ValueError):
        lp.with_bounds({"x": (-INF, 1.0)})
    assert lp._vars[0].lb == 0.0


def _random_lp(rng):
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 7))
    lp = LinearProgram()
    for j in range(n):
        kind = rng.choice(["pos", "box", "neg"])
        if kind == "pos":
            lp.add_var(f"x{j}")
        elif kind == "box":
            lp.add_var(f"x{j}", -1.0, 2.0)
        else:
            lp.add_var(f"x{j}", -2.0, INF)
    A = np.round(rng.normal(size=(m, n)) * 2, 2)
    b = np.round(rng.normal(size=m) * 2, 2)
    senses = rng.choice(["<=", ">=", "="], size=m, p=[0.5, 0.3, 0.2])
    for i in range(m):
        lp.add_row({f"x{j}": A[i, j] for j in range(n)}, str(senses[i]), b[i])
    c = np.round(rng.normal(size=n) * 2, 2)
    lp.set_objective({f"x{j}": c[j] for j in range(n)}, str(rng.choice(["min", "max"])))
    return lp


def test_strong_duality_on_random_lps():
    rng = np.random.default_rng(42)
    optimal_seen = 0
    for _ in range(150):
        lp = _random_lp(rng)
        sol = solve_lp(lp)
        if sol.status != "optimal":
            continue
        optimal_seen += 1
        # primal feasibility
        for row in lp._rows:
            lhs = sum(c * sol.primal[lp._vars[j].name] for j, c in row.coeffs.items())
            if row.sense == "<=":
                assert lhs <= row.rhs + 1e-7
            elif row.sense == ">=":
                assert lhs >= row.rhs - 1e-7
            else:
                assert lhs == pytest.approx(row.rhs, abs=1e-7)
        # weak duality made tight
        assert dual_objective(lp, sol) == pytest.approx(sol.objective, abs=1e-6, rel=1e-6)
    assert optimal_seen > 30


def test_zero_rhs_lp_needs_no_phase_one_pivots():
    # Every artificial starts at 0, so the start basis is phase-1 optimal.
    lp = LinearProgram()
    for name in "xyz":
        lp.add_var(name, 0.0, 2.0)
    lp.add_row({"x": 1, "y": -1}, "=", 0)
    lp.add_row({"y": 1, "z": -1}, "<=", 0)
    lp.add_row({"x": 1, "z": 1}, ">=", 0)
    lp.set_objective({"x": 1, "y": 1, "z": 1}, "max")
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(6.0)
    assert sol.pivots[0] == 0 and sol.pivots[1] > 0
    assert dual_objective(lp, sol) == pytest.approx(6.0)


def test_determinism():
    rng = np.random.default_rng(7)
    lp = _random_lp(rng)
    first = solve_lp(lp)
    for _ in range(3):
        again = solve_lp(lp)
        assert again.status == first.status
        if first.status == "optimal":
            assert again.objective == first.objective
            assert again.primal == first.primal


def test_mip_without_binaries_returns_its_root_and_lp_rejects_binaries():
    lp = simple_lp()
    sol, root = solve_mip(lp), solve_lp(lp)
    assert (sol.status, sol.objective, sol.primal, sol.pivots) == \
        (root.status, root.objective, root.primal, root.pivots)
    # a cutoff the root cannot beat leaves nothing better
    assert solve_mip(lp, cutoff=1.0).status == "infeasible"
    lp2 = LinearProgram()
    lp2.add_var("z", binary=True)
    lp2.set_objective({"z": 1}, "max")
    with pytest.raises(ValueError):
        solve_lp(lp2)


def test_mip_rounds_down_fractional_cap():
    lp = LinearProgram()
    lp.add_var("z", binary=True)
    lp.add_row({"z": 1}, "<=", 0.5)
    lp.set_objective({"z": 1}, "max")
    sol = solve_mip(lp)
    assert sol.objective == pytest.approx(0.0)
    assert sol["z"] == 0.0


def test_mip_one_of_two():
    lp = LinearProgram()
    lp.add_var("z1", binary=True)
    lp.add_var("z2", binary=True)
    lp.add_row({"z1": 1, "z2": 1}, "<=", 1)
    lp.set_objective({"z1": 1, "z2": 1}, "max")
    assert solve_mip(lp).objective == pytest.approx(1.0)


def test_knapsack_matches_enumeration():
    weights = {"a": 2, "b": 1, "c": 1}
    values = {"a": 3, "b": 2, "c": 2}
    best = max(
        sum(values[k] for k in combo)
        for r in range(4)
        for combo in itertools.combinations("abc", r)
        if sum(weights[k] for k in combo) <= 2
    )
    assert best == 4  # frozen from the enumeration above
    lp = LinearProgram()
    for v in "abc":
        lp.add_var(v, binary=True)
    lp.add_row(weights, "<=", 2)
    lp.set_objective(values, "max")
    sol = solve_mip(lp)
    assert sol.objective == pytest.approx(best)
    assert sol["b"] == 1.0 and sol["c"] == 1.0


def test_mip_bounded_by_relaxation():
    # Both orientations: the optimum equals brute force over the binaries and
    # is bounded by the relaxation; a cutoff at the optimum leaves nothing
    # strictly better, and a worse cutoff leaves the optimum.
    rng = np.random.default_rng(11)
    solved = {"max": 0, "min": 0}
    for _ in range(40):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        lp = LinearProgram()
        for j in range(n):
            lp.add_var(f"z{j}", binary=True)
        A = np.round(rng.normal(size=(m, n)), 1)
        b = np.round(rng.normal(size=m) + 1, 1)
        for i in range(m):
            lp.add_row({f"z{j}": A[i, j] for j in range(n)}, "<=", b[i])
        c = np.round(rng.normal(size=n), 1)
        for sense in ("max", "min"):
            lp.set_objective({f"z{j}": c[j] for j in range(n)}, sense)
            best = _best_assignment(lp)
            mip = solve_mip(lp)
            if best is None:
                assert mip.status == "infeasible"
                continue
            assert mip.status == "optimal"
            assert mip.objective == pytest.approx(best, abs=1e-9)
            assert all(mip[f"z{j}"] in (0.0, 1.0) for j in range(n))
            relax_lp = LinearProgram()
            for j in range(n):
                relax_lp.add_var(f"z{j}", 0.0, 1.0)
            for row in lp._rows:
                relax_lp.add_row({lp._vars[j].name: c2 for j, c2 in row.coeffs.items()},
                                 row.sense, row.rhs)
            relax_lp.set_objective({f"z{j}": c[j] for j in range(n)}, sense)
            rel = solve_lp(relax_lp)
            to_max = 1.0 if sense == "max" else -1.0
            assert to_max * mip.objective <= to_max * rel.objective + 1e-9
            assert solve_mip(lp, cutoff=best).status == "infeasible"
            worse = solve_mip(lp, cutoff=best - to_max * 0.5)
            assert worse.status == "optimal"
            assert worse.objective == pytest.approx(best, abs=1e-9)
            solved[sense] += 1
    assert min(solved.values()) > 20


def _random_mip(rng):
    """A small MIP: 1-4 binaries, 0-3 continuous variables of every bound
    kind, 1-4 dense rows of any sense."""
    lp = LinearProgram()
    names = [lp.add_var(f"z{j}", binary=True) for j in range(int(rng.integers(1, 5)))]
    for j, kind in enumerate(rng.choice(list(BOUND_KINDS), size=int(rng.integers(0, 4)))):
        names.append(lp.add_var(f"x{j}", *BOUND_KINDS[str(kind)]))
    for _ in range(int(rng.integers(1, 5))):
        coeffs = {v: float(np.round(rng.normal(), 1)) for v in names}
        lp.add_row(coeffs, str(rng.choice(["<=", ">=", "="])), float(np.round(rng.normal(), 1)))
    lp.set_objective({v: float(np.round(rng.normal(), 1)) for v in names},
                     str(rng.choice(["min", "max"])))
    return lp


def _fixed(lp, fixes):
    """A copy of `lp` with the binaries in `fixes` fixed to their values."""
    return lp.with_bounds({v: (val, val) for v, val in fixes.items()})


def _child(start, lp, fixes):
    """The form of `start`'s relaxation re-bounded with the binaries in
    `fixes` of `lp` fixed to their values, as branch and bound makes it."""
    lb, ub = start.std.lb.copy(), start.std.ub.copy()
    for v, val in fixes.items():
        lb[lp._index[v]] = ub[lp._index[v]] = val
    return start.std.rebound(lb, ub)


def test_rebounded_form_equals_a_fresh_compile():
    # Branch and bound compiles once and re-bounds a copy per node; each
    # node's form must be exactly the one a fresh compile of the fixed LP
    # gives, on the very `A` it was compiled with, and must leave the form it
    # was copied from as it was.  Solving a form twice gives one result.
    rng = np.random.default_rng(8)
    for _ in range(30):
        lp = _random_mip(rng)
        std = _Standardized(lp)
        compiled = {attr: getattr(std, attr).copy() for attr in ("lb", "ub", "b", "u", "c")}
        binaries = lp.binary_vars()
        for _ in range(4):
            fixed = [v for v in binaries if rng.random() < 0.6]
            values = [float(rng.integers(0, 2)) for _ in fixed]
            lb, ub = std.lb.copy(), std.ub.copy()
            idx = [lp._index[v] for v in fixed]
            lb[idx] = ub[idx] = values
            form = std.rebound(lb, ub)
            assert form.A is std.A
            for attr, before in compiled.items():
                np.testing.assert_array_equal(getattr(std, attr), before)
            fixed_lp = _fixed(lp, dict(zip(fixed, values)))
            fresh = _Standardized(fixed_lp)
            for attr in ("A", "b", "u", "c"):
                np.testing.assert_array_equal(getattr(form, attr), getattr(fresh, attr))
            first = _solve_relaxation(lp, form)
            assert repr(_solve_relaxation(lp, form)) == repr(first)
            assert repr(_solve_relaxation(fixed_lp, fresh)) == repr(first)


def test_warm_children_match_a_cold_solve_of_a_fresh_compile():
    # Each child re-solves from its parent's `Solution.basis` with the dual
    # simplex, on the parent's form re-bounded; it must agree with a cold
    # solve of the fixed LP compiled afresh, leave its form as it found it
    # (`b`, `u` and `c` equal, `A` the compiled one), and its own basis must
    # start its children in turn.
    rng = np.random.default_rng(9)
    statuses = []
    for _ in range(40):
        lp = _random_mip(rng)
        root = _solve_relaxation(lp, _Standardized(lp))
        if root.status != "optimal":
            continue
        for _ in range(4):
            fixes, node = {}, root.basis
            for v in rng.permutation(lp.binary_vars()).tolist():
                val = float(rng.integers(0, 2))
                fixes[v] = val
                form = _child(node, lp, {v: val})
                kept = {attr: getattr(form, attr).copy() for attr in ("b", "u", "c")}
                warm = _solve_relaxation(lp, form, node)
                for attr, before in kept.items():
                    np.testing.assert_array_equal(getattr(form, attr), before)
                assert form.A is root.basis.std.A
                fixed_lp = _fixed(lp, fixes)
                cold = _solve_relaxation(fixed_lp, _Standardized(fixed_lp))
                assert warm.status == cold.status
                statuses.append(warm.status)
                if warm.status != "optimal":
                    break
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
                assert warm.basis.std is form
                node = warm.basis
    assert statuses.count("optimal") > 100 and statuses.count("infeasible") > 20


def test_dual_loop_from_an_optimal_parent_ends_optimal():
    # The dual ratio test keeps the parent's dual feasibility, so once every
    # basic variable is within its bounds, phase 2 has no pivot left to take.
    rng = np.random.default_rng(9)
    dual_pivots = 0
    for _ in range(300):
        lp = _random_mip(rng)
        start = _solve_relaxation(lp, _Standardized(lp)).basis
        for v in rng.permutation(lp.binary_vars()).tolist():
            if start is None:
                break
            sx = _Simplex(_child(start, lp, {v: float(rng.integers(0, 2))}), start)
            if not sx.dual(10_000):
                break
            taken = sx.pivots[1]
            sx.run(sx.std.c, 2, 10_000)
            assert sx.pivots[1] == taken
            dual_pivots += taken
            start = _Start(sx.std, sx.basis, sx.at_upper, sx.art)
    assert dual_pivots > 40


def test_child_cut_off_by_its_fixing_is_proved_infeasible_by_the_dual(monkeypatch):
    # min z s.t. z + x >= 1.5, x <= 1: the root has z = 0.5, and z = 0 leaves
    # the row unsatisfiable, so the dual ratio test finds no entering column.
    lp = LinearProgram()
    lp.add_var("z", binary=True)
    lp.add_var("x", 0.0, 1.0)
    lp.add_row({"z": 1, "x": 1}, ">=", 1.5)
    lp.set_objective({"z": 1}, "min")
    root = _solve_relaxation(lp, _Standardized(lp))
    assert root["z"] == pytest.approx(0.5)
    outcomes = []
    dual = _Simplex.dual

    def spy(self, max_iter):
        outcomes.append(dual(self, max_iter))
        return outcomes[-1]

    monkeypatch.setattr(_Simplex, "dual", spy)
    assert _solve_relaxation(lp, _child(root.basis, lp, {"z": 0.0}), root.basis).status == "infeasible"
    assert outcomes == [False]
    fixed_lp = _fixed(lp, {"z": 0.0})
    assert _solve_relaxation(fixed_lp, _Standardized(fixed_lp)).status == "infeasible"


def test_a_start_that_is_not_dual_feasible_still_reaches_the_cold_optimum():
    # A basis optimal for the opposite objective sense is not dual feasible
    # wherever the two optima differ; the dual loop restores the bounds and
    # phase 2 then finishes the solve.
    rng = np.random.default_rng(10)
    not_dual_feasible = 0
    for _ in range(40):
        lp = _random_mip(rng)
        flipped = copy.deepcopy(lp)
        flipped.sense = "max" if lp.sense == "min" else "min"
        opposite = _solve_relaxation(flipped, _Standardized(flipped))
        if opposite.basis is None:
            continue
        fixed_lp = _fixed(lp, {str(rng.choice(lp.binary_vars())): float(rng.integers(0, 2))})
        warm = _solve_relaxation(fixed_lp, _Standardized(fixed_lp), opposite.basis)
        cold = _solve_relaxation(fixed_lp, _Standardized(fixed_lp))
        assert warm.status == cold.status
        if warm.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        own = _solve_relaxation(lp, _Standardized(lp))
        not_dual_feasible += own.status == "optimal" and abs(own.objective - opposite.objective) > 1e-6
    assert not_dual_feasible > 10


def _branching_mip():
    """A knapsack with a cover row: its root needs phase 1 and branches."""
    weights, values = [2, 3, 4, 5, 3], [3, 4, 5, 6, 4]
    lp = LinearProgram()
    for j in range(5):
        lp.add_var(f"z{j}", binary=True)
    lp.add_row({f"z{j}": w for j, w in enumerate(weights)}, "<=", 7.5)
    lp.add_row({f"z{j}": 1 for j in range(5)}, ">=", 2)
    lp.set_objective({f"z{j}": v for j, v in enumerate(values)}, "max")
    return lp


def test_mip_tree_takes_phase_one_pivots_only_at_its_root():
    lp = _branching_mip()
    root = _solve_relaxation(lp, _Standardized(lp))
    mip = solve_mip(lp)
    assert root.pivots[0] > 0
    assert mip.pivots[0] == root.pivots[0]
    assert mip.pivots[1] > root.pivots[1]


def test_mip_repeats_exactly_in_one_process():
    # Children warm-start from their parent's basis; no basis may leak from
    # one solve into the next.
    lp = _branching_mip()
    assert repr(solve_mip(lp)) == repr(solve_mip(lp))


def test_warm_start_past_the_iteration_cap_falls_back_to_cold(monkeypatch):
    lp = _branching_mip()
    expected = solve_mip(lp)
    root = _solve_relaxation(lp, _Standardized(lp))
    # z4 is the root's fractional binary, so fixing it leaves the dual loop
    # a row to repair.
    form = _child(root.basis, lp, {"z4": 1.0})
    cold = _solve_relaxation(lp, form)
    dual = _Simplex.dual
    monkeypatch.setattr(_Simplex, "dual", lambda self, max_iter: dual(self, 0))
    assert repr(_solve_relaxation(lp, form, root.basis)) == repr(cold)
    capped = solve_mip(lp)
    assert capped.objective == expected.objective
    assert capped.pivots[0] > expected.pivots[0]


def test_a_singular_warm_entry_basis_falls_back_to_cold(monkeypatch):
    lp = _branching_mip()
    root = _solve_relaxation(lp, _Standardized(lp))
    form = _child(root.basis, lp, {"z4": 1.0})
    cold = _solve_relaxation(lp, form)
    calls = []

    def singular(a):
        calls.append(a)
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    warm = _solve_relaxation(lp, form, dataclasses.replace(root.basis, factor=None))
    assert len(calls) == 1 and repr(warm) == repr(cold)


def test_a_warm_report_that_fails_its_certificate_falls_back_to_cold(monkeypatch):
    lp = _branching_mip()
    root = _solve_relaxation(lp, _Standardized(lp))
    form = _child(root.basis, lp, {"z4": 1.0})
    cold = _solve_relaxation(lp, form)
    certify, warm_pivots = _Simplex.certify, []

    def fail_once(sx):
        if not warm_pivots:
            warm_pivots.append(sx.pivots[1])
            raise SolverStallError("the exact basis inverse fails the certificate")
        return certify(sx)

    monkeypatch.setattr(_Simplex, "certify", fail_once)
    warm = _solve_relaxation(lp, form, root.basis)
    assert warm_pivots[0] > 0
    assert warm.pivots == (cold.pivots[0], cold.pivots[1] + warm_pivots[0])
    assert repr(dataclasses.replace(warm, pivots=cold.pivots)) == repr(cold)


def test_a_slack_start_of_the_static_cvar_lp_reaches_the_cold_optimum(monkeypatch):
    # From this start, a ratio test that takes the least ratio whatever its
    # |alpha| pivots on |alpha| = 1.0000009e-9, just above PIVOT_TOL, leaves
    # a near-singular basis and reports 0.002997 as optimal.  The Harris
    # pass takes the largest |alpha| among the near-minimal ratios instead,
    # and needs no cold fallback: no phase-1 pivot.
    topo = flow_example().topology
    pinst = ProbabilisticInstance(flow_example(), enumerate_prob_scenarios(topo, cutoff=0.0),
                                  beta=0.99)
    built = []
    monkeypatch.setattr(prob, "solve_lp", lambda lp: built.append(lp) or solve_lp(lp))
    prob.solve_cvar(pinst, "flow_static")
    (lp,) = built
    std = _Standardized(lp)
    # Each inequality row basic on its slack, each equality row on its
    # artificial, and every boxed column with a negative cost at its upper
    # bound.
    slack_rows = np.flatnonzero([row.sense != "=" for row in lp._rows])
    basis = std.n_real + np.arange(std.m)
    basis[slack_rows] = std.n_struct + np.arange(slack_rows.size)
    at_upper = np.zeros(std.ncols, dtype=bool)
    at_upper[:std.n_real] = (std.c[:std.n_real] < 0) & (std.u[:std.n_real] < INF)
    start = _Start(std, basis, at_upper, np.ones(std.m))
    warm, cold = _solve_relaxation(lp, std, start), _solve_relaxation(lp, std)
    assert warm.status == cold.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    assert cold.objective == pytest.approx(0.556118, abs=1e-6)
    assert warm.pivots[0] == 0


def _best_assignment(lp):
    """Best objective over all 0/1 assignments of the (all-binary) `lp`'s
    variables, or None when no assignment satisfies its <= rows."""
    best = None
    for assign in itertools.product([0.0, 1.0], repeat=lp.num_vars):
        if all(sum(c * assign[j] for j, c in row.coeffs.items()) <= row.rhs + 1e-12
               for row in lp._rows):
            obj = sum(c * assign[j] for j, c in lp._obj.items())
            if best is None or (obj > best if lp.sense == "max" else obj < best):
                best = obj
    return best


def test_budget_exceeded_carries_incumbent():
    lp = LinearProgram()
    for j in range(8):
        lp.add_var(f"z{j}", binary=True)
    lp.add_row({f"z{j}": 1 for j in range(8)}, "<=", 4.5)
    lp.set_objective({f"z{j}": 1 + 0.01 * j for j in range(8)}, "max")
    with pytest.raises(BudgetExceededError) as exc:
        solve_mip(lp, node_budget=2)
    # an incumbent may or may not exist after two nodes, but the attribute does
    assert hasattr(exc.value, "incumbent")


def _recorded_relaxations(monkeypatch):
    """Record, for every relaxation `solve_mip` solves, its status and the
    names of the binaries its node fixes (a fixed binary has u = 0)."""
    solves, relax = [], _solve_relaxation

    def spy(lp_, std, start=None):
        result = relax(lp_, std, start)
        fixed = {name for name in lp_.binary_vars() if std.u[lp_._index[name]] == 0.0}
        solves.append((result.status, fixed))
        return result

    monkeypatch.setattr(lp_module, "_solve_relaxation", spy)
    return solves


def _mixed_mip(rng):
    """A small MIP: 3-6 binaries, 0-2 bounded continuous variables and 2-4
    rows of any sense over all of them."""
    lp = LinearProgram()
    names = [lp.add_var(f"z{j}", binary=True) for j in range(int(rng.integers(3, 7)))]
    names += [lp.add_var(f"x{j}", 0.0, float(rng.choice([1.0, 3.0])))
              for j in range(int(rng.integers(0, 3)))]
    for _ in range(int(rng.integers(2, 5))):
        coeffs = {v: float(np.round(rng.normal(), 1)) for v in names}
        lp.add_row(coeffs, str(rng.choice(["<=", "<=", ">=", "="])),
                   float(np.round(rng.normal() + 0.5, 1)))
    lp.set_objective({v: float(np.round(rng.normal(), 1)) for v in names},
                     str(rng.choice(["min", "max"])))
    return lp


def _enumerated_optimum(lp):
    """Best LP objective over every 0/1 assignment of `lp`'s binaries: None
    when none is feasible."""
    objectives = []
    binaries = lp.binary_vars()
    for values in itertools.product([0.0, 1.0], repeat=len(binaries)):
        fixed_lp = _fixed(lp, dict(zip(binaries, values)))
        sol = _solve_relaxation(fixed_lp, _Standardized(fixed_lp))
        if sol.status == "optimal":
            objectives.append(sol.objective)
    if not objectives:
        return None
    return max(objectives) if lp.sense == "max" else min(objectives)


def test_mip_equals_enumeration_of_its_binaries(monkeypatch):
    # Reliability branching changes which nodes are solved, never the
    # optimum: it must equal the best of all 0/1 fixings of the binaries, a
    # cutoff at that optimum leaves nothing strictly better, and a worse one
    # leaves the optimum.
    rng = np.random.default_rng(15)
    solves = _recorded_relaxations(monkeypatch)
    compared = with_infeasible_children = infeasible = 0
    while compared < 120:
        lp = _mixed_mip(rng)
        best = _enumerated_optimum(lp)
        solves.clear()
        mip = solve_mip(lp)
        if mip.status == "unbounded":
            continue
        compared += 1
        with_infeasible_children += any(status == "infeasible" for status, _ in solves[1:])
        if best is None:
            assert mip.status == "infeasible"
            infeasible += 1
            continue
        assert mip.status == "optimal"
        assert mip.objective == pytest.approx(best, abs=1e-7)
        assert all(mip[v] in (0.0, 1.0) for v in lp.binary_vars())
        for row in lp._rows:
            lhs = sum(c * mip[lp._vars[j].name] for j, c in row.coeffs.items())
            assert {"<=": lhs <= row.rhs + 1e-7, ">=": lhs >= row.rhs - 1e-7,
                    "=": abs(lhs - row.rhs) <= 1e-7}[row.sense]
        assert solve_mip(lp, cutoff=best).status == "infeasible"
        to_max = 1.0 if lp.sense == "max" else -1.0
        worse = solve_mip(lp, cutoff=best - to_max * 0.5)
        assert worse.status == "optimal" and worse.objective == pytest.approx(best, abs=1e-7)
    assert with_infeasible_children > 30 and compared - infeasible > 50 and infeasible > 5


def _relaxed(lp):
    """`lp` with its binaries relaxed to continuous variables in [0, 1]."""
    relaxed = copy.deepcopy(lp)
    relaxed._vars = [v._replace(binary=False) for v in relaxed._vars]
    return relaxed


def test_an_infeasible_strong_branching_child_decides_the_branch_at_once(monkeypatch):
    # The root has za = 1, zb = 0.3, zc = 0.55 and zd = 0.86.  Strong
    # branching tries the most fractional zc first, and both its children
    # can improve.  Then zb: zb = 0 leaves zb + x >= 1.3 with x <= 1
    # unsatisfiable, so the root branches on zb at once, never tries zd, and
    # pushes the zb = 1 child it solved without solving it again.  That
    # child has zd = 1 and zc = 0.55, and branches on zc, already observed in
    # both directions, without strong branching; its zc = 1 child leaves
    # za = 0.55 and branches once more.
    lp = LinearProgram()
    for name in ("za", "zb", "zc", "zd"):
        lp.add_var(name, binary=True)
    lp.add_var("x", 0.0, 1.0)
    lp.add_row({"zb": 1, "x": 1}, ">=", 1.3)
    lp.add_row({"za": 1, "zc": 1}, "<=", 1.55)
    lp.add_row({"zd": 1, "zb": -0.2}, "<=", 0.8)
    lp.set_objective({"zb": 1, "za": -1, "zc": -0.9, "zd": -0.5}, "min")
    root = solve_lp(_relaxed(lp))
    assert [root[v] for v in ("za", "zb", "zc", "zd")] == pytest.approx([1.0, 0.3, 0.55, 0.86])
    solves = _recorded_relaxations(monkeypatch)
    mip = solve_mip(lp)
    assert solves == [("optimal", set()), ("optimal", {"zc"}), ("optimal", {"zc"}),
                      ("infeasible", {"zb"}), ("optimal", {"zb"}),
                      ("optimal", {"zb", "zc"}), ("optimal", {"zb", "zc"}),
                      ("optimal", {"za", "zb", "zc"}), ("infeasible", {"za", "zb", "zc"})]
    assert mip.objective == pytest.approx(_enumerated_optimum(lp), abs=1e-9)
    assert [mip[v] for v in ("za", "zb", "zc", "zd")] == [1.0, 1.0, 0.0, 1.0]


def test_node_budget_counts_strong_branching_relaxations(monkeypatch):
    # Every relaxation below the root counts toward the budget, those of
    # strong-branching candidates not branched on included: a budget of
    # exactly that many completes the tree, one less raises.  Raised past
    # an integral relaxation, the error carries that incumbent.
    rng = np.random.default_rng(16)
    solves = _recorded_relaxations(monkeypatch)
    trees = root_tried_two = carried = 0
    for _ in range(40):
        n = int(rng.integers(5, 9))
        lp = LinearProgram()
        for j in range(n):
            lp.add_var(f"z{j}", binary=True)
        lp.add_row({f"z{j}": float(rng.integers(2, 9)) for j in range(n)}, "<=", float(2 * n) + 0.5)
        lp.add_row({f"z{j}": float(rng.integers(1, 4)) for j in range(n)}, "<=", float(n) + 0.5)
        lp.set_objective({f"z{j}": float(rng.integers(3, 12)) for j in range(n)}, "max")
        solves.clear()
        expected = solve_mip(lp)
        children = len(solves) - 1
        if children < 4:
            continue
        trees += 1
        first = [fixed for _, fixed in solves[1:5]]
        root_tried_two += all(len(f) == 1 for f in first) and len(set().union(*first)) == 2
        assert repr(solve_mip(lp, node_budget=children)) == repr(expected)
        solves.clear()
        with pytest.raises(BudgetExceededError) as exc:
            solve_mip(lp, node_budget=children - 1)
        assert len(solves) == children
        incumbent = exc.value.incumbent
        if incumbent is not None:
            carried += 1
            assert incumbent.objective <= expected.objective + 1e-9
            assert all(incumbent[v] in (0.0, 1.0) for v in lp.binary_vars())
            assert incumbent.pivots[1] > 0
    assert trees > 30 and root_tried_two > 5 and carried > 20


def _match_external_reference(rng, cases):
    """Random LPs whose variables take the `BOUND_KINDS`; status and
    objective must match `linprog(method="highs")`.  Returns the LPs and
    solutions found optimal."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    status_map = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    optimal = []
    for _ in range(cases):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 7))
        A = np.round(rng.normal(size=(m, n)) * 2, 2)
        b = np.round(rng.normal(size=m) * 2, 2)
        c = np.round(rng.normal(size=n) * 2, 2)
        senses = rng.choice(["<=", ">=", "="], size=m, p=[0.5, 0.3, 0.2])
        kinds = rng.choice(list(BOUND_KINDS), size=n)
        lp = LinearProgram()
        bounds = []
        for j in range(n):
            lb, ub = BOUND_KINDS[str(kinds[j])]
            lp.add_var(f"x{j}", lb, ub)
            bounds.append((lb, None if ub == INF else ub))
        for i in range(m):
            lp.add_row({f"x{j}": A[i, j] for j in range(n)}, str(senses[i]), b[i])
        lp.set_objective({f"x{j}": c[j] for j in range(n)}, "min")
        sol = solve_lp(lp)
        Aub = [A[i] for i in range(m) if senses[i] == "<="] + \
              [-A[i] for i in range(m) if senses[i] == ">="]
        bub = [b[i] for i in range(m) if senses[i] == "<="] + \
              [-b[i] for i in range(m) if senses[i] == ">="]
        Aeq = [A[i] for i in range(m) if senses[i] == "="]
        beq = [b[i] for i in range(m) if senses[i] == "="]
        ref = linprog(c, A_ub=np.array(Aub) if Aub else None,
                      b_ub=np.array(bub) if bub else None,
                      A_eq=np.array(Aeq) if Aeq else None,
                      b_eq=np.array(beq) if beq else None,
                      bounds=bounds, method="highs")
        assert sol.status == status_map.get(ref.status, "?")
        if sol.status == "optimal":
            assert sol.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
            optimal.append((lp, sol))
    return optimal


def test_random_lps_match_external_reference():
    # scipy is an independent reference implementation here; the dual-route
    # is this cross-check plus the in-house strong-duality identity.
    optimal = _match_external_reference(np.random.default_rng(2024), 120)
    assert len(optimal) > 20


def _flow_lp(rng):
    """A random flow-conservation LP over boxed arcs.

    Every node has a balance row, so one row is redundant; all rhs are 0
    except, half the time, one supply/demand pair.  Phase 2 therefore starts
    with artificials still basic at 0.
    """
    n = int(rng.integers(3, 7))
    order = rng.permutation(n)
    arcs = {(int(order[i]), int(order[(i + 1) % n])) for i in range(n)}
    arcs |= {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3}
    arcs = sorted(arcs)
    cap = rng.integers(1, 7, size=len(arcs)) / 2.0
    cost = rng.integers(-3, 4, size=len(arcs)).astype(float)
    rhs = np.zeros(n)
    if rng.random() < 0.5:
        s, t = rng.choice(n, size=2, replace=False)
        supply = rng.integers(1, 13) / 4.0
        rhs[s], rhs[t] = supply, -supply
    A = np.zeros((n, len(arcs)))
    for k, (u, v) in enumerate(arcs):
        A[u, k], A[v, k] = 1.0, -1.0
    lp = LinearProgram()
    for k in range(len(arcs)):
        lp.add_var(f"f{k}", 0.0, cap[k])
    for i in range(n):
        lp.add_row({f"f{k}": A[i, k] for k in range(len(arcs)) if A[i, k]}, "=", rhs[i])
    lp.set_objective({f"f{k}": cost[k] for k in range(len(arcs))}, "min")
    return lp, cost, A, rhs, [(0.0, c) for c in cap]


def test_degenerate_flow_lps_match_external_reference():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(5)
    status_map = {0: "optimal", 2: "infeasible"}
    statuses = []
    for _ in range(150):
        lp, cost, A, rhs, bounds = _flow_lp(rng)
        sol = solve_lp(lp)
        ref = linprog(cost, A_eq=A, b_eq=rhs, bounds=bounds, method="highs")
        assert sol.status == status_map.get(ref.status, "?")
        statuses.append(sol.status)
        if sol.status == "optimal":
            assert sol.objective == pytest.approx(ref.fun, abs=1e-6)
            assert dual_objective(lp, sol) == pytest.approx(sol.objective, abs=1e-6)
    assert statuses.count("optimal") > 100 and "infeasible" in statuses


def test_warm_lp_resolves_after_bound_edits_match_a_cold_solve():
    # `solve_lp(edited, start=base)` re-solves from the base solution's
    # basis on its compiled form; it must agree with a cold solve of the
    # edited LP and leave the base solution's state as it found it, apart
    # from the inverse the first re-solve caches on it.  Raised lower bounds
    # turn some balance rows' shifted rhs negative, against the sign of
    # their artificials in the base state: the re-solve still inherits the
    # base's signs and shares the base form's `A`.
    rng = np.random.default_rng(11)
    statuses, flipped = [], 0
    for _ in range(120):
        lp, *_ = _flow_lp(rng)
        base = solve_lp(lp)
        if base.status != "optimal":
            continue
        start, A = base.basis, base.basis.std.A
        kept = start.basis.copy(), start.at_upper.copy(), start.art.copy()
        names = [v.name for v in lp._vars]
        for raise_lb in (False, True, False, True):
            edits = {}
            for name in rng.choice(names, size=int(rng.integers(1, len(names) + 1)), replace=False):
                ub = float(rng.choice([0.0, 0.5, 1.0, 2.5, INF]))
                lb = min(ub, float(rng.choice([0.0, 0.5, 1.0]))) if raise_lb else 0.0
                edits[str(name)] = (lb, ub)
            edited = lp.with_bounds(edits)
            warm, cold = solve_lp(edited, start=base), solve_lp(edited)
            assert warm.status == cold.status
            statuses.append(warm.status)
            if warm.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
                assert warm.basis.std.A is A and warm.basis.art is start.art
                flipped += bool(np.any((warm.basis.std.b < 0) != (start.art < 0)))
        for before, after in zip(kept, (start.basis, start.at_upper, start.art), strict=True):
            np.testing.assert_array_equal(before, after)
        # Every re-solve inherits the base's signs, so the cache holds the
        # base's own exact inverse.
        np.testing.assert_array_equal(start.factor, np.linalg.inv(_basis_matrix(start)))
    assert statuses.count("optimal") > 150 and statuses.count("infeasible") > 20
    assert flipped > 20


def test_warm_lp_resolves_from_a_warm_solution_reach_the_cold_optimum():
    # A warm solution's form carries the bounds of the LP it solved, not of
    # the LP its start compiled.  Re-solving the unedited LP, or the LP
    # under another edit, warm from it must still read every bound of its
    # own LP.
    lp = LinearProgram()
    lp.add_var("x", ub=2.0)
    lp.add_var("y", ub=2.0)
    lp.add_row({"x": 1.0, "y": 1.0}, "<=", 3.0)
    lp.set_objective({"x": 1.0, "y": 1.0}, "max")
    base = solve_lp(lp)
    cut = solve_lp(lp.with_bounds({"x": (0.0, 0.0)}), start=base)
    assert (base.objective, cut.objective) == (3.0, 2.0)
    assert solve_lp(lp, start=cut).objective == pytest.approx(3.0)
    assert solve_lp(lp.with_bounds({"y": (0.0, 1.0)}), start=cut).objective == pytest.approx(3.0)
    with pytest.raises(AttributeError):  # so a start's variables keep their bounds
        lp._vars[0].ub = 1.0
    # Chains of warm solves, each started from the last.
    rng = np.random.default_rng(16)
    checked = 0
    for _ in range(40):
        lp, *_ = _flow_lp(rng)
        names = [v.name for v in lp._vars]
        start = solve_lp(lp)
        for _ in range(4):
            if start.status != "optimal":
                break
            edited = lp.with_bounds({str(name): (0.0, float(rng.choice([0.0, 0.5, 2.5, INF])))
                                     for name in rng.choice(names, size=2, replace=False)})
            for target in (lp, edited):
                warm, cold = solve_lp(target, start=start), solve_lp(target)
                assert warm.status == cold.status
                if cold.status == "optimal":
                    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
                    checked += 1
            start = solve_lp(edited, start=start)
    assert checked > 150


def test_warm_lp_start_must_come_from_an_lp_with_the_same_rows_and_columns():
    rng = np.random.default_rng(12)
    lp, *_ = _flow_lp(rng)
    base = solve_lp(lp)
    assert base.status == "optimal" and base.basis is not None
    other, *_ = _flow_lp(rng)
    with pytest.raises(ValueError):
        solve_lp(other, start=base)
    grown = lp.with_bounds({})
    grown.add_var("extra")
    with pytest.raises(ValueError):
        solve_lp(grown, start=base)
    with pytest.raises(ValueError):
        solve_lp(lp, start=solve_mip(_branching_mip()))
    # A start keeps the shape of the LP it solved, not of later edits to it.
    edited_later = lp.with_bounds({})
    later = solve_lp(edited_later)
    edited_later.add_row({"f0": 1.0}, "<=", 1.0)
    with pytest.raises(ValueError):
        solve_lp(edited_later, start=later)
    copy_lp = lp.with_bounds({"f0": (0.0, 0.0)})
    assert lp._vars[0].ub > 0.0
    assert solve_lp(copy_lp, start=base).status == "optimal"
    assert solve_lp(lp.with_bounds({}), start=base).objective == base.objective


def _recorded_inversions(monkeypatch):
    """Record a copy of every matrix passed to `np.linalg.inv`."""
    calls = []
    inv = np.linalg.inv

    def recorded(a):
        calls.append(np.array(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recorded)
    return calls


def _basis_matrix(state):
    """The basis matrix of a basis state (`_Start` or `_Simplex`) on its form
    `std`: column j of `A` for a basic real column, and `art[i]` times the
    unit column e_i for row i's basic artificial."""
    std = state.std
    B = np.zeros((std.m, state.basis.size))
    for pos, j in enumerate(state.basis):
        if j < std.n_real:
            B[:, pos] = std.A[:, j]
        else:
            B[j - std.n_real, pos] = state.art[j - std.n_real]
    return B


def test_a_second_warm_lp_resolve_from_one_start_inverts_nothing(monkeypatch):
    # The second re-solve reads the start's inverse that the first one
    # cached.  Neither inverts for its report: the updated inverse passes its
    # certificate.
    rng = np.random.default_rng(13)
    calls = _recorded_inversions(monkeypatch)
    resolved = 0
    for _ in range(40):
        lp, *_ = _flow_lp(rng)
        base = solve_lp(lp)
        if base.status != "optimal":
            continue
        names = [v.name for v in lp._vars]
        picked = rng.choice(names, size=int(rng.integers(1, len(names) + 1)), replace=False)
        edited = lp.with_bounds({str(n): (0.0, float(rng.choice([0.0, 0.5, 2.5]))) for n in picked})
        calls.clear()
        first = solve_lp(edited, start=base)
        entry = len(calls)
        calls.clear()
        second = solve_lp(edited, start=base)
        assert repr(second) == repr(first)
        if first.status == "optimal":
            assert (entry, len(calls)) == (1, 0)
            resolved += 1
    assert resolved > 10


def test_warm_resolves_leave_the_cached_start_inverse_bit_identical():
    # Every re-solve from one start reads the inverse cached on the start in
    # place and pivots on top of it.  The cache is read-only, so a stray
    # write raises instead of corrupting the re-solves that read it later.
    rng = np.random.default_rng(18)
    pivoted = 0
    for _ in range(40):
        lp, *_ = _flow_lp(rng)
        base = solve_lp(lp)
        if base.status != "optimal":
            continue
        start = base.basis
        solve_lp(lp.with_bounds({}), start=base)
        inverse = start.factor
        kept = inverse.copy()
        assert not inverse.flags.writeable
        with pytest.raises(ValueError):
            inverse[0, 0] += 1.0
        names = [v.name for v in lp._vars]
        for _ in range(3):
            picked = rng.choice(names, size=int(rng.integers(1, len(names) + 1)), replace=False)
            edited = lp.with_bounds({str(n): (0.0, float(rng.choice([0.0, 0.5, 2.5]))) for n in picked})
            warm = solve_lp(edited, start=base)
            assert start.factor is inverse
            np.testing.assert_array_equal(inverse, kept)
            pivoted += warm.status == "optimal" and warm.pivots[1] > 0
    assert pivoted > 10


def test_the_two_children_of_a_node_factor_their_shared_start_once(monkeypatch):
    lp = _branching_mip()
    node = _solve_relaxation(lp, _Standardized(lp)).basis
    start_cols = _basis_matrix(node)
    calls = _recorded_inversions(monkeypatch)
    saved = []
    for branch_val in (0.0, 1.0):
        form = _child(node, lp, {"z4": branch_val})
        calls.clear()
        child = _solve_relaxation(lp, form, dataclasses.replace(node, factor=None))
        uncached = len(calls)
        calls.clear()
        shared = _solve_relaxation(lp, form, node)
        assert repr(shared) == repr(child)
        saved.append(uncached - len(calls))
        np.testing.assert_array_equal(node.factor, np.linalg.inv(start_cols))
    # The first child factors the start, the second copies that inverse.
    assert saved == [0, 1]

    # solve_mip hands each popped node's `_Start` to both of its children.
    starts, relax = [], _solve_relaxation

    def spy(lp_, std_, start=None):
        starts.append(start)
        return relax(lp_, std_, start)

    monkeypatch.setattr(lp_module, "_solve_relaxation", spy)
    solve_mip(lp)
    warm = [start for start in starts if start is not None]
    assert warm and all(warm.count(start) == 2 and start.factor is not None for start in warm)


def test_a_start_whose_basic_artificial_row_flips_sign_reuses_its_inverse(monkeypatch):
    # Raised lower bounds can turn a redundant balance row's shifted rhs
    # negative, against the sign of the artificial basic in that row.  That
    # artificial is pinned at 0, so its sign is immaterial: the re-solve
    # inherits the start's signs, reads the start's cached inverse in place
    # and still reaches the cold optimum.
    rng = np.random.default_rng(14)
    calls = _recorded_inversions(monkeypatch)
    flipped = 0
    for _ in range(200):
        lp, *_ = _flow_lp(rng)
        base = solve_lp(lp)
        if base.status != "optimal":
            continue
        start, std = base.basis, base.basis.std
        solve_lp(lp.with_bounds({}), start=base)  # caches the start's inverse
        cached = start.factor
        lb = np.array([float(rng.choice([0.0, 0.5, 1.0])) for _ in lp._vars])
        ub = np.maximum(lb, [v.ub for v in lp._vars])
        edited = lp.with_bounds({v.name: (lb[j], ub[j]) for j, v in enumerate(lp._vars)})
        rows = start.basis[start.basis >= std.n_real] - std.n_real
        if not np.any((std.rebound(lb, ub).b[rows] < 0) != (start.art[rows] < 0)):
            continue
        start_cols = _basis_matrix(start)
        calls.clear()
        warm = solve_lp(edited, start=base)
        assert not any(np.array_equal(call, start_cols) for call in calls)
        assert start.factor is cached
        cold = solve_lp(edited)
        assert warm.status == cold.status
        if warm.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        flipped += 1
    assert flipped > 10


def test_the_compiled_matrix_is_read_only_and_shared_by_every_form_of_its_lp(monkeypatch):
    # `A` holds the real columns only and is written once, when the LP is
    # compiled: every `rebound` copy and every branch-and-bound node solves
    # on that very array.  A form's bounds and what they decide (`b`, `u`)
    # are read-only too, so no solve can change a form that a
    # start shares with later re-solves.
    lp = _branching_mip()
    std = _Standardized(lp)
    assert std.A.shape == (std.m, std.n_real)
    lb, ub = std.lb.copy(), std.ub.copy()
    lb[0] = ub[0] = 1.0
    assert std.rebound(lb, ub).A is std.A

    forms, relax = [], _solve_relaxation

    def spy(lp_, std_, start=None):
        forms.append(std_)
        return relax(lp_, std_, start)

    monkeypatch.setattr(lp_module, "_solve_relaxation", spy)
    solve_mip(lp)
    assert len(forms) > 3 and forms[0].A is forms[-1].A and all(f.A is forms[0].A for f in forms)
    for form in (std, forms[-1]):  # a compiled form and a B&B child's form
        for attr in ("A", "lb", "ub", "b", "u"):
            array = getattr(form, attr)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0


def test_rows_without_variables_are_satisfied_exactly_when_their_rhs_is_zero():
    # Equality rows over no variables compile to a form with no real column:
    # nothing can enter, so both phases stop at once.
    for rhs, status in ((0.0, "optimal"), (1.0, "infeasible")):
        lp = LinearProgram()
        lp.add_row({}, "=", rhs)
        lp.add_row({}, "=", 0.0)
        sol = solve_lp(lp)
        assert sol.status == status
        if status == "optimal":
            assert (sol.objective, sol.duals) == (0.0, [0.0, 0.0])
            assert solve_lp(lp.with_bounds({}), start=sol).status == "optimal"


def test_an_lp_without_rows_warm_starts_under_bound_edits():
    # Its optimum has no basis arrays, only its compiled form, and still
    # re-solves every bound edit as a cold solve of the edited LP does.
    lp = LinearProgram()
    lp.add_var("x", 0.0, 2.0)
    lp.add_var("y", -1.0, 4.0)
    lp.add_var("w", -3.0, 3.0)
    lp.set_objective({"x": 1.0, "y": -1.0, "w": -2.0}, "min")
    base = solve_lp(lp)
    assert base.status == "optimal" and base.basis is not None
    for bounds, status in (({"y": (-1.0, 1.5), "x": (0.5, 2.0)}, "optimal"),
                           ({"y": (0.0, 0.0), "w": (-3.0, -2.0)}, "optimal"),
                           ({"y": (-1.0, INF)}, "unbounded")):
        edited = lp.with_bounds(bounds)
        warm, cold = solve_lp(edited, start=base), solve_lp(edited)
        assert repr(warm) == repr(cold) and warm.status == status


def test_phase_one_never_enters_an_artificial(monkeypatch):
    # Phase 1 prices the real columns only, so an artificial that leaves the
    # basis is never entered again: over feasible and infeasible LPs, no
    # phase-1 pivot computes B^-1 a_j for an artificial j.
    rng = np.random.default_rng(35)
    run, ftran, entering = _Simplex.run, _Simplex._ftran, []

    def phased(sx, c, phase, max_iter):
        sx.phase = phase
        return run(sx, c, phase, max_iter)

    def recorded(sx, j):
        if getattr(sx, "phase", 0) == 1:
            entering.append(j - sx.std.n_real)
        return ftran(sx, j)

    monkeypatch.setattr(_Simplex, "run", phased)
    monkeypatch.setattr(_Simplex, "_ftran", recorded)
    statuses = []
    for _ in range(150):
        lp = _random_lp(rng) if rng.random() < 0.5 else _flow_lp(rng)[0]
        statuses.append(solve_lp(lp).status)
    assert len(entering) > 200 and max(entering) < 0
    assert statuses.count("optimal") > 40 and statuses.count("infeasible") > 20


def test_bound_edits_are_checked_as_declarations_are():
    lp = LinearProgram()
    lp.add_var("z", binary=True)
    lp.add_var("x", 0.0, 4.0)
    lp.add_row({"z": 1, "x": 1}, "<=", 10)
    lp.set_objective({"z": 1, "x": 1}, "max")
    for lb, ub in ((2.0, 1.0), (2.0, 2.0)):
        with pytest.raises(ValueError):
            lp.add_var("w", lb, ub, binary=True)
        with pytest.raises(ValueError):
            lp.with_bounds({"z": (lb, ub)})
    with pytest.raises(ValueError):
        lp.with_bounds({"x": (3.0, 1.0)})
    assert lp.num_vars == 2
    assert (lp._vars[0].lb, lp._vars[0].ub, lp._vars[1].lb) == (0.0, 1.0, 0.0)
    assert lp.with_bounds({"z": (-1.0, 3.0)})._vars[0].ub == 1.0
    sol = solve_mip(lp.with_bounds({"z": (0.0, 2.0)}))
    assert sol.status == "optimal" and sol["z"] == 1.0 and sol.objective == 5.0


def _spoiled_reports(monkeypatch, rng, inverse_factor=1.0, drop_upper=False):
    """Before each report that follows a pivot, perturb the held inverse
    (through the eta file's `V`) and `xB` by about 1e-6, as drift in the
    updated inverse would; the report's own
    inversions are scaled by `inverse_factor`.  With `drop_upper`, every
    nonbasic column at its upper bound also moves to its lower one, so the
    refactor lands on another basic point.  Returns the list that
    collects the number of `np.linalg.inv` calls each spoiled report made."""
    calls = _recorded_inversions(monkeypatch)
    certify, recorded, reports = _Simplex.certify, np.linalg.inv, []

    def spoiled(sx):
        if not sx.pivots_since_refactor:
            return certify(sx)
        etas = sx.V[:sx.pivots_since_refactor]
        etas += 1e-6 * rng.standard_normal(etas.shape)
        sx.xB += 1e-6 * rng.standard_normal(sx.xB.shape)
        if drop_upper:
            sx.at_upper &= sx.in_basis
        calls.clear()
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverse_factor * recorded(a))
        try:
            return certify(sx)
        finally:
            monkeypatch.setattr(np.linalg, "inv", recorded)
            reports.append(len(calls))

    monkeypatch.setattr(_Simplex, "certify", spoiled)
    return reports


def test_a_report_whose_updated_inverse_fails_its_residuals_refactors_once(monkeypatch):
    rng = np.random.default_rng(15)
    checked = 0
    for _ in range(60):
        lp, *_ = _flow_lp(rng)
        cold = solve_lp(lp)
        with monkeypatch.context() as patch:
            reports = _spoiled_reports(patch, rng)
            spoiled = solve_lp(lp)
        if cold.status != "optimal" or not reports:
            continue
        assert reports == [1]
        assert spoiled.objective == pytest.approx(cold.objective, abs=1e-9)
        np.testing.assert_allclose(list(spoiled.primal.values()), list(cold.primal.values()),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(spoiled.duals, cold.duals, rtol=0, atol=1e-9)
        checked += 1
    assert checked > 20


def test_a_report_that_even_the_exact_inverse_cannot_certify_raises(monkeypatch):
    # An inverse off by a factor of 2 leaves a primal residual of |rhs|.
    lp = LinearProgram()
    lp.add_var("x", 0.0, 4.0)
    lp.add_var("y")
    lp.add_row({"x": 1, "y": 1}, "<=", 3)
    lp.add_row({"x": 1, "y": -1}, ">=", 1)
    lp.set_objective({"x": 1, "y": 2}, "max")
    assert solve_lp(lp).status == "optimal"
    reports = _spoiled_reports(monkeypatch, np.random.default_rng(16), inverse_factor=2.0)
    with pytest.raises(SolverStallError):
        solve_lp(lp)
    assert reports == [1]


def test_a_report_whose_exact_basic_point_is_not_optimal_raises(monkeypatch):
    # x is optimal at its upper bound 2, with y = 1 basic.  Moved to 0, x
    # leaves the refactored basic point at y = 3: above y's upper bound of
    # 2, or within an upper bound of 4 but with x's reduced cost of the
    # wrong sign at its lower bound.  The residuals hold either way.
    rng = np.random.default_rng(18)
    for y_ub, x_cost in ((2.0, 1.0), (4.0, 2.0)):
        lp = LinearProgram()
        lp.add_var("x", 0.0, 2.0)
        lp.add_var("y", 0.0, y_ub)
        lp.add_row({"x": 1, "y": 1}, "<=", 3)
        lp.set_objective({"x": x_cost, "y": 1}, "max")
        sol = solve_lp(lp)
        assert (sol.status, sol["x"], sol["y"]) == ("optimal", 2.0, 1.0)
        with monkeypatch.context() as patch:
            reports = _spoiled_reports(patch, rng, drop_upper=True)
            with pytest.raises(SolverStallError):
                solve_lp(lp)
        assert reports == [1]


def test_optimal_flow_lp_solutions_satisfy_their_rows_and_duality():
    # Checked from `sol.primal` against the LP's own rows and bounds, not
    # the compiled form, for cold solves and warm re-solves after bound
    # edits.
    rng = np.random.default_rng(17)
    optimal = {False: 0, True: 0}
    for _ in range(80):
        lp, *_ = _flow_lp(rng)
        base = solve_lp(lp)
        solves = [(lp, base, False)]
        names = [v.name for v in lp._vars]
        for _ in range(3 if base.status == "optimal" else 0):
            edits = {}
            for name in rng.choice(names, size=int(rng.integers(1, len(names) + 1)), replace=False):
                ub = float(rng.choice([0.0, 0.5, 1.0, 2.5, INF]))
                edits[str(name)] = (min(ub, float(rng.choice([0.0, 0.5]))), ub)
            edited = lp.with_bounds(edits)
            solves.append((edited, solve_lp(edited, start=base), True))
        for prog, sol, warm in solves:
            if sol.status != "optimal":
                continue
            optimal[warm] += 1
            for row in prog._rows:
                lhs = sum(c * sol[prog._vars[j].name] for j, c in row.coeffs.items())
                tol = 1e-9 * (1.0 + abs(row.rhs))
                if row.sense != ">=":
                    assert lhs <= row.rhs + tol
                if row.sense != "<=":
                    assert lhs >= row.rhs - tol
            for v in prog._vars:
                assert v.lb - FEAS_TOL <= sol[v.name] <= v.ub + FEAS_TOL
            assert dual_objective(prog, sol) == pytest.approx(sol.objective, abs=1e-6)
    assert optimal[False] > 40 and optimal[True] > 100


# -- sparse kernels --------------------------------------------------------


def _sparse_lp(rng, m):
    """A random feasible, bounded LP with m rows of mixed sense over 2.5 m
    variables of mixed bound kinds, each in one to four rows."""
    n = int(2.5 * m)
    lp = LinearProgram()
    rows, point, cost = [{} for _ in range(m)], {}, {}
    for j in range(n):
        kind, name = str(rng.choice(list(BOUND_KINDS))), f"x{j}"
        lb, ub = BOUND_KINDS[kind]
        lp.add_var(name, lb, ub)
        # A cost that keeps the minimum finite, and a point within the bounds.
        point[name] = float(np.clip(rng.normal(), lb, ub))
        cost[name] = {"pos": 1.0, "box": float(rng.normal()), "neg": 0.0, "low": -1.0}[kind] \
            * float(np.round(rng.uniform(0.1, 2.0), 2))
        for i in rng.choice(m, size=int(rng.integers(1, 5)), replace=False):
            rows[i][name] = float(rng.choice([-1.0, 1.0, np.round(rng.normal() * 2, 2) or 1.0]))
    for i, sense in enumerate(rng.choice(["<=", ">=", "="], size=m, p=[0.5, 0.3, 0.2])):
        lhs = sum(c * point[name] for name, c in rows[i].items())
        slack = {"<=": 1.0, ">=": -1.0, "=": 0.0}[str(sense)] * float(rng.uniform(0.0, 1.0))
        lp.add_row(rows[i], str(sense), lhs + slack)
    lp.set_objective(cost, "min")
    return lp


def _both_forms(lp, monkeypatch):
    """`lp` compiled with the sparse kernels and without them."""
    forms = {}
    for sparse, rule in ((True, 0), (False, lp.num_rows + 1)):
        monkeypatch.setattr(lp_module, "SPARSE_MIN_ROWS", rule)
        forms[sparse] = _Standardized(lp)
        assert forms[sparse].sparse is sparse
    return forms[True], forms[False]


def test_sparse_products_equal_the_dense_ones(monkeypatch):
    rng = np.random.default_rng(31)
    for m in (SPARSE_MIN_ROWS // 4, SPARSE_MIN_ROWS + 20):
        lp = _sparse_lp(rng, m)
        assert _Standardized(lp).sparse is (m >= SPARSE_MIN_ROWS)
        sparse, dense = _both_forms(lp, monkeypatch)
        A = np.abs(dense.A)
        y = rng.normal(size=m) * (rng.random(m) < 0.5)
        # Summed in another order: each entry within 1e-12 of the magnitude
        # of its terms.
        assert np.all(np.abs(sparse.price(y) - dense.price(y)) <= 1e-12 * (np.abs(y) @ A))
        Binv = rng.normal(size=(m, m)) * (rng.random((m, m)) < 0.3)
        for j in list(rng.choice(dense.n_real, size=20, replace=False)) + [0, dense.n_real - 1]:
            assert np.all(np.abs(sparse.ftran(Binv, j) - dense.ftran(Binv, j))
                          <= 1e-12 * (np.abs(Binv) @ A[:, j]))


def test_the_eta_file_holds_the_exact_inverse_after_every_pivot(monkeypatch):
    # B0 - U V against a fresh inverse of the basis after each pivot: in
    # both phases of cold solves and in warm dual re-solves, on dense and
    # sparse forms.
    rng = np.random.default_rng(32)
    update, checked = _Simplex._update_inverse, {"run": 0, "dual": 0}

    def checked_update(sx, leave_pos, col, row=None):
        v = update(sx, leave_pos, col, row)
        k = sx.pivots_since_refactor
        held = sx.B0 - sx.U[:, :k] @ sx.V[:k]
        exact = np.linalg.inv(_basis_matrix(sx))
        assert np.abs(held - exact).max() <= 1e-9 * np.abs(exact).max()
        checked["dual" if row is not None else "run"] += 1
        return v

    for _ in range(8):
        lp = _sparse_lp(rng, int(rng.integers(10, 40)))
        edited = lp.with_bounds({v.name: (v.lb, v.lb + float(rng.choice([0.0, 0.25, 1.0])))
                                 for v in lp._vars if rng.random() < 0.3})
        lb = np.array([v.lb for v in edited._vars])
        ub = np.array([v.ub for v in edited._vars])
        for std in _both_forms(lp, monkeypatch):
            with monkeypatch.context() as patch:
                patch.setattr(_Simplex, "_update_inverse", checked_update)
                cold = _solve_relaxation(lp, std)
                assert cold.status == "optimal"
                _solve_relaxation(edited, std.rebound(lb, ub), cold.basis)
    assert checked["run"] > 200 and checked["dual"] > 20


def test_the_carried_bounds_and_directions_match_a_recompute_after_every_pivot(monkeypatch):
    # `_exchange` (and a primal bound flip) carries the basic upper bounds
    # and each real column's pricing direction, which both loops read in
    # place of recomputing them; after each pivot, and when either loop
    # returns, both must equal a fresh recompute from the basis state.  Cold
    # solves, then warm dual re-solves after bound edits, on dense and
    # sparse forms.
    rng = np.random.default_rng(34)
    exchange, dual, run = _Simplex._exchange, _Simplex.dual, _Simplex.run
    checked = {"dual": 0, "other": 0}

    def check(sx):
        n = sx.std.n_real
        assert np.array_equal(sx.uB, sx.u[sx.basis])
        dirn = np.where(sx.at_upper[:n], 1.0, np.where(sx.u[:n] > PIVOT_TOL, -1.0, 0.0))
        dirn[sx.in_basis[:n]] = 0.0
        assert np.array_equal(sx.dirn, dirn)

    def checked_exchange(sx, r, j, col, step, value, to_upper, row=None):
        v = exchange(sx, r, j, col, step, value, to_upper, row)
        check(sx)
        checked["dual" if row is not None else "other"] += 1
        return v

    def checked_loop(loop):
        def wrapped(sx, *args):
            done = loop(sx, *args)
            check(sx)
            return done
        return wrapped

    for _ in range(10):
        lp = _sparse_lp(rng, int(rng.integers(10, 40)))
        # A repeated equality row keeps an artificial basic at 0 past phase
        # 1, so that pinning it changes a basic upper bound.
        for row in [row for row in lp._rows if row.sense == "="][:1]:
            lp.add_row({lp._vars[j].name: c for j, c in row.coeffs.items()}, "=", row.rhs)
        edited = lp.with_bounds({v.name: (v.lb, v.lb + float(rng.choice([0.0, 0.25, 1.0])))
                                 for v in lp._vars if rng.random() < 0.3})
        lb = np.array([v.lb for v in edited._vars])
        ub = np.array([v.ub for v in edited._vars])
        for std in _both_forms(lp, monkeypatch):
            with monkeypatch.context() as patch:
                patch.setattr(_Simplex, "_exchange", checked_exchange)
                patch.setattr(_Simplex, "dual", checked_loop(dual))
                patch.setattr(_Simplex, "run", checked_loop(run))
                cold = _solve_relaxation(lp, std)
                assert cold.status == "optimal"
                _solve_relaxation(edited, std.rebound(lb, ub), cold.basis)
    assert checked["dual"] > 100 and checked["other"] > 1000


def test_solves_on_the_sparse_kernels_reach_the_dense_objectives(monkeypatch):
    # Cold two-phase solves, and warm dual re-solves after bound edits.  On
    # a sparse form the dual loop updates its reduced costs on each pivot;
    # they must keep the optimal start's dual feasibility, so that phase 2
    # has no pivot left to take.
    rng = np.random.default_rng(33)
    dual_pivots = 0
    for _ in range(25):
        lp = _sparse_lp(rng, int(rng.integers(4, 30)))
        edited = lp.with_bounds({v.name: (v.lb, v.lb + float(rng.choice([0.0, 0.25, 1.0])))
                                 for v in lp._vars if rng.random() < 0.3})
        lb = np.array([v.lb for v in edited._vars])
        ub = np.array([v.ub for v in edited._vars])
        solved = []
        for std in _both_forms(lp, monkeypatch):
            cold = _solve_relaxation(lp, std)
            assert cold.status == "optimal"
            sx = _Simplex(std.rebound(lb, ub), cold.basis)
            if sx.dual(10_000):
                taken = sx.pivots[1]
                sx.run(sx.std.c, 2, 10_000)
                assert sx.pivots[1] == taken
                dual_pivots += taken
            solved.append((cold, _solve_relaxation(edited, std.rebound(lb, ub), cold.basis)))
        for sparse, dense in zip(*solved):
            assert sparse.status == dense.status
            if dense.status == "optimal":
                assert sparse.objective == pytest.approx(dense.objective, rel=1e-9, abs=1e-9)
    assert dual_pivots > 40


def test_twenty_node_robust_rungs_keep_their_objectives():
    inst = with_conditional_sequences(
        random_instance(1, 20, 17, 15, tunnels_per_pair=3, with_sequences=True), 501)
    for model, mode, objective in (("ffc_plus", "dual", 5.442), ("cls", "enumerate", 5.574)):
        lp = build_robust_lp(inst, model, 1, "throughput", mode)
        assert _Standardized(lp).sparse
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert abs(sol.objective - objective) <= 1e-9
