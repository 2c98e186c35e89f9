"""Dense two-phase simplex with bounded variables, plus branch and bound.

Every optimization model in this package compiles down to this layer.  The
solver keeps an explicit basis inverse (dense, refactorized periodically),
prices with the Dantzig rule, and falls back to Bland's rule after a run of
degenerate pivots.  Row duals are returned for LP solves; they are the
sensitivities d(objective)/d(rhs) in the caller's min/max orientation.

Sizes up to a few thousand rows and variables are in scope; nothing here is
tuned beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

INF = math.inf

FEAS_TOL = 1e-7
OBJ_TOL = 1e-6
PIVOT_TOL = 1e-9
COST_TOL = 1e-9
INT_TOL = 1e-6
DEGENERATE_RUN_LIMIT = 40
REFACTOR_EVERY = 150


class SolverStallError(RuntimeError):
    """The simplex failed to make progress even under Bland's rule."""


class BudgetExceededError(RuntimeError):
    """Branch and bound ran out of nodes; carries the best incumbent found."""

    def __init__(self, message: str, incumbent: "Solution | None"):
        super().__init__(message)
        self.incumbent = incumbent


@dataclass
class _Var:
    name: str
    lb: float
    ub: float
    binary: bool = False


@dataclass
class _Row:
    coeffs: dict[int, float]
    sense: str  # "<=", ">=", "="
    rhs: float
    name: str = ""


@dataclass
class LinearProgram:
    """A mutable builder for LPs and MIPs.

    Variables are referenced by name in row/objective coefficient maps.
    Binary variables must have bounds inside [0, 1].
    """

    name: str = "lp"
    _vars: list[_Var] = field(default_factory=list)
    _index: dict[str, int] = field(default_factory=dict)
    _rows: list[_Row] = field(default_factory=list)
    _obj: dict[int, float] = field(default_factory=dict)
    _obj_const: float = 0.0
    sense: str = "min"

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF, binary: bool = False) -> str:
        if name in self._index:
            raise ValueError(f"variable {name!r} already declared")
        if binary:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        if lb > ub:
            raise ValueError(f"variable {name!r} has lb > ub")
        self._index[name] = len(self._vars)
        self._vars.append(_Var(name, lb, ub, binary))
        return name

    def add_row(self, coeffs: dict[str, float], sense: str, rhs: float, name: str = "") -> int:
        if sense not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {sense!r}")
        mapped = {}
        for var, c in coeffs.items():
            if var not in self._index:
                raise KeyError(f"row references undeclared variable {var!r}")
            if c != 0.0:
                mapped[self._index[var]] = mapped.get(self._index[var], 0.0) + c
        self._rows.append(_Row(mapped, sense, float(rhs), name))
        return len(self._rows) - 1

    def set_objective(self, coeffs: dict[str, float], sense: str = "min", const: float = 0.0) -> None:
        if sense not in ("min", "max"):
            raise ValueError(f"bad objective sense {sense!r}")
        self._obj = {self._index[v]: float(c) for v, c in coeffs.items()}
        self._obj_const = float(const)
        self.sense = sense

    @property
    def num_vars(self) -> int:
        return len(self._vars)

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    def binary_vars(self) -> list[str]:
        return [v.name for v in self._vars if v.binary]

    def set_bounds(self, name: str, lb: float, ub: float) -> None:
        v = self._vars[self._index[name]]
        v.lb, v.ub = lb, ub

    def row_names(self) -> list[str]:
        return [r.name for r in self._rows]

    def to_lp_text(self) -> str:
        """CPLEX-LP-style dump for external cross-checking."""
        def term(c, name, first):
            sign = "-" if c < 0 else ("" if first else "+")
            mag = abs(c)
            return f"{sign} {mag:.12g} {name} "

        lines = ["\\ " + self.name, "Maximize" if self.sense == "max" else "Minimize", " obj: "]
        first = True
        for j, c in sorted(self._obj.items()):
            lines[-1] += term(c, self._vars[j].name, first)
            first = False
        if first:
            lines[-1] += "0 zero_dummy"
        lines.append("Subject To")
        for i, row in enumerate(self._rows):
            label = row.name or f"c{i}"
            body = ""
            first = True
            for j, c in sorted(row.coeffs.items()):
                body += term(c, self._vars[j].name, first)
                first = False
            if first:
                body = "0 zero_dummy "
            op = {"<=": "<=", ">=": ">=", "=": "="}[row.sense]
            lines.append(f" {label}: {body}{op} {row.rhs:.12g}")
        lines.append("Bounds")
        for v in self._vars:
            lo = "-inf" if v.lb == -INF else f"{v.lb:.12g}"
            hi = "+inf" if v.ub == INF else f"{v.ub:.12g}"
            lines.append(f" {lo} <= {v.name} <= {hi}")
        bins = [v.name for v in self._vars if v.binary]
        if bins:
            lines.append("Binaries")
            lines.append(" " + " ".join(bins))
        lines.append("End")
        return "\n".join(lines)


@dataclass
class Solution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float
    primal: dict[str, float]
    duals: list[float] | None = None

    def __getitem__(self, var: str) -> float:
        return self.primal[var]

    def value(self, var: str, default: float = 0.0) -> float:
        return self.primal.get(var, default)


# --------------------------------------------------------------------------
# Simplex core.  Internal form: minimize c'x  s.t.  A x = b,  0 <= x <= u,
# after lower-bound shifting, free-variable splitting, slack and artificial
# columns.  Nonbasic variables sit at 0 or at their upper bound.

_AT_LOWER = 0
_AT_UPPER = 1


class _Standardized:
    def __init__(self, lp: LinearProgram,
                 bound_override: dict[int, tuple[float, float]] | None = None):
        nv = len(lp._vars)
        override = bound_override or {}
        lbs = np.empty(nv)
        ubs = np.empty(nv)
        for j, v in enumerate(lp._vars):
            lb, ub = override.get(j, (v.lb, v.ub))
            lbs[j], ubs[j] = lb, ub
        self.infeasible_box = bool(np.any(lbs > ubs + 1e-12))

        # Column layout: one column per finite-lb variable (shifted), two for
        # free variables (plus minus split).
        self.col_of: list[tuple[int, int] | None] = [None] * nv  # (pos_col, neg_col or -1)
        cols_lb: list[float] = []
        cols_ub: list[float] = []
        shift: list[float] = []
        for j in range(nv):
            if lbs[j] == -INF:
                self.col_of[j] = (len(cols_ub), len(cols_ub) + 1)
                cols_ub.extend([INF, INF])
                shift.extend([0.0, 0.0])
            else:
                self.col_of[j] = (len(cols_ub), -1)
                cols_ub.append(ubs[j] - lbs[j])
                shift.append(lbs[j])
        self.n_struct = len(cols_ub)
        m = len(lp._rows)
        self.m = m

        dense = np.zeros((m, self.n_struct))
        b = np.zeros(m)
        for i, row in enumerate(lp._rows):
            rhs = row.rhs
            for j, c in row.coeffs.items():
                pos, neg = self.col_of[j]
                dense[i, pos] += c
                if neg >= 0:
                    dense[i, neg] -= c
                else:
                    rhs -= c * shift[pos]
            b[i] = rhs

        # Slack columns for inequality rows.
        self.slack_col: list[int] = [-1] * m
        slack_cols = []
        for i, row in enumerate(lp._rows):
            if row.sense == "=":
                continue
            col = np.zeros(m)
            col[i] = 1.0 if row.sense == "<=" else -1.0
            slack_cols.append(col)
            self.slack_col[i] = self.n_struct + len(slack_cols) - 1
        if slack_cols:
            dense = np.hstack([dense, np.column_stack(slack_cols)])
            cols_ub.extend([INF] * len(slack_cols))
        self.n_real = dense.shape[1]

        # One artificial per row gives a trivially feasible starting basis.
        art = np.zeros((m, m))
        for i in range(m):
            art[i, i] = 1.0 if b[i] >= 0 else -1.0
        self.A = np.hstack([dense, art]) if m else dense
        self.ub = np.array(cols_ub + [INF] * m)
        self.b = b
        self.shift = np.array(shift)
        self.ncols = self.A.shape[1]
        self.obj_sign = 1.0 if lp.sense == "min" else -1.0
        c = np.zeros(self.ncols)
        for j, coef in lp._obj.items():
            pos, neg = self.col_of[j]
            c[pos] += self.obj_sign * coef
            if neg >= 0:
                c[neg] -= self.obj_sign * coef
        self.c = c


class _Simplex:
    def __init__(self, std: _Standardized):
        self.std = std
        m, n = std.m, std.ncols
        self.basis = np.array([std.n_real + i for i in range(m)], dtype=int)
        self.in_basis = np.zeros(n, dtype=bool)
        self.in_basis[self.basis] = True
        self.at_upper = np.zeros(n, dtype=bool)  # nonbasic position
        # The artificial start basis is diag(sign(b)), which is its own inverse.
        self.Binv = np.diag(np.where(std.b >= 0, 1.0, -1.0)) if m else np.eye(0)
        self.xB = np.abs(std.b.copy())
        self.pivots_since_refactor = 0
        self.degenerate_run = 0
        self.bland = False
        self.iterations = 0

    # -- linear algebra maintenance ---------------------------------------

    def _refactor(self) -> None:
        m = self.std.m
        if m == 0:
            return
        B = self.std.A[:, self.basis]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SolverStallError("basis became singular") from exc
        self._recompute_xb()
        self.pivots_since_refactor = 0

    def _recompute_xb(self) -> None:
        rhs = self.std.b.copy()
        upper_cols = np.flatnonzero(~self.in_basis & self.at_upper)
        if upper_cols.size:
            rhs = rhs - self.std.A[:, upper_cols] @ self.std.ub[upper_cols]
        self.xB = self.Binv @ rhs

    # -- pricing -----------------------------------------------------------

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        y = c[self.basis] @ self.Binv
        return c - y @ self.std.A

    def _choose_entering(self, d: np.ndarray) -> int:
        cand_low = ~self.in_basis & ~self.at_upper & (d < -COST_TOL) & (self.std.ub > PIVOT_TOL)
        cand_up = ~self.in_basis & self.at_upper & (d > COST_TOL)
        if self.bland:
            idx = np.flatnonzero(cand_low | cand_up)
            return int(idx[0]) if idx.size else -1
        score = np.zeros_like(d)
        score[cand_low] = -d[cand_low]
        score[cand_up] = d[cand_up]
        j = int(np.argmax(score))
        return j if score[j] > COST_TOL else -1

    # -- main loop ---------------------------------------------------------

    def run(self, c: np.ndarray, max_iter: int) -> None:
        """Minimize c over the current basis state (phase body)."""
        std = self.std
        if std.m == 0:
            return
        while True:
            self.iterations += 1
            if self.iterations > max_iter:
                raise SolverStallError(f"simplex exceeded {max_iter} iterations")
            if self.pivots_since_refactor >= REFACTOR_EVERY:
                self._refactor()
            d = self._reduced_costs(c)
            j = self._choose_entering(d)
            if j < 0:
                return
            entering_from_upper = self.at_upper[j]
            col = self.Binv @ std.A[:, j]
            # Direction of basic-variable change per unit increase of x_j
            # (decrease when entering from the upper bound).
            sign = -1.0 if entering_from_upper else 1.0
            step_limit = std.ub[j]
            leave_pos = -1
            leave_to_upper = False
            t = step_limit
            ratios: list[tuple[float, int, bool]] = []
            for i in range(std.m):
                a = sign * col[i]
                if a > PIVOT_TOL:
                    ratios.append(((self.xB[i]) / a, i, False))
                elif a < -PIVOT_TOL:
                    ub_i = std.ub[self.basis[i]]
                    if ub_i != INF:
                        ratios.append(((ub_i - self.xB[i]) / (-a), i, True))
            if ratios:
                tmin = min(r[0] for r in ratios)
                if tmin < t:
                    t = max(tmin, 0.0)
                    ties = [r for r in ratios if r[0] <= tmin + 1e-12]
                    if self.bland:
                        ties.sort(key=lambda r: self.basis[r[1]])
                        leave_pos, leave_to_upper = ties[0][1], ties[0][2]
                    else:
                        ties.sort(key=lambda r: (-abs(col[r[1]]), self.basis[r[1]]))
                        leave_pos, leave_to_upper = ties[0][1], ties[0][2]
            if t == INF:
                raise _UnboundedPhase()
            if t <= 1e-11:
                self.degenerate_run += 1
                if self.degenerate_run >= DEGENERATE_RUN_LIMIT:
                    self.bland = True
            else:
                self.degenerate_run = 0
            self.xB = self.xB - (sign * t) * col
            if leave_pos < 0:
                # Bound flip: the entering variable crosses to its other bound.
                self.at_upper[j] = not entering_from_upper
                continue
            leaving = self.basis[leave_pos]
            self.in_basis[leaving] = False
            self.at_upper[leaving] = leave_to_upper
            self.basis[leave_pos] = j
            self.in_basis[j] = True
            self.xB[leave_pos] = (std.ub[j] - t) if entering_from_upper else t
            piv = col[leave_pos]
            if abs(piv) < PIVOT_TOL:
                self._refactor()
                continue
            row = self.Binv[leave_pos] / piv
            self.Binv -= np.outer(col, row)
            self.Binv[leave_pos] = row
            self.pivots_since_refactor += 1


class _UnboundedPhase(Exception):
    pass


def _solve_standardized(std: _Standardized) -> tuple[str, np.ndarray | None, np.ndarray | None]:
    """Returns (status, column values, duals y) for the internal min problem."""
    m = std.m
    if std.infeasible_box:
        return "infeasible", None, None
    if m == 0:
        # Only bounds: minimize each cost coordinate independently.
        x = np.zeros(std.ncols)
        for j in range(std.ncols):
            if std.c[j] > 0:
                x[j] = 0.0
            elif std.c[j] < 0:
                if std.ub[j] == INF:
                    return "unbounded", None, None
                x[j] = std.ub[j]
        return "optimal", x, np.zeros(0)

    sx = _Simplex(std)
    max_iter = 2000 + 60 * (std.m + std.ncols)

    # Phase 1: drive artificials to zero.
    c1 = np.zeros(std.ncols)
    c1[std.n_real:] = 1.0
    try:
        sx.run(c1, max_iter)
    except _UnboundedPhase:  # pragma: no cover - phase 1 is bounded below
        raise SolverStallError("phase 1 reported unbounded")
    art_value = float(np.sum(sx.xB[np.flatnonzero(sx.basis >= std.n_real)]))
    scale = 1.0 + float(np.max(np.abs(std.b))) if m else 1.0
    if art_value > FEAS_TOL * scale:
        return "infeasible", None, None

    # Pin artificials at zero for phase 2; basic ones that cannot be driven
    # out sit in redundant rows and stay at value 0.
    std.ub[std.n_real:] = 0.0
    sx.at_upper[std.n_real:] = False
    sx.bland = False
    sx.degenerate_run = 0
    try:
        sx.run(std.c, max_iter)
    except _UnboundedPhase:
        return "unbounded", None, None

    x = np.zeros(std.ncols)
    nonbasic_upper = np.flatnonzero(~sx.in_basis & sx.at_upper)
    x[nonbasic_upper] = std.ub[nonbasic_upper]
    sx._refactor()  # exact solve before reporting
    x[sx.basis] = sx.xB
    y = std.c[sx.basis] @ sx.Binv
    return "optimal", x, y


def solve_lp(lp: LinearProgram) -> Solution:
    """Solve an LP (no binaries) to optimality, returning primal and duals."""
    if lp.binary_vars():
        raise ValueError("solve_lp requires a pure LP; use solve_mip")
    return _solve_relaxation(lp)


def _solve_relaxation(lp: LinearProgram,
                      bound_override: dict[int, tuple[float, float]] | None = None) -> Solution:
    std = _Standardized(lp, bound_override)
    status, x, y = _solve_standardized(std)
    if status != "optimal":
        return Solution(status=status, objective=math.nan, primal={}, duals=None)
    primal: dict[str, float] = {}
    for j, v in enumerate(lp._vars):
        pos, neg = std.col_of[j]
        if neg >= 0:
            primal[v.name] = float(x[pos] - x[neg])
        else:
            primal[v.name] = float(x[pos] + std.shift[pos])
    obj = lp._obj_const + sum(coef * primal[lp._vars[j].name] for j, coef in lp._obj.items())
    duals = [float(std.obj_sign * y[i]) for i in range(std.m)] if y is not None else None
    return Solution(status="optimal", objective=float(obj), primal=primal, duals=duals)


def dual_objective(lp: LinearProgram, sol: Solution) -> float:
    """Dual objective implied by a solution's row duals and bound activity.

    For an optimal solution this equals the primal objective (weak duality
    made tight); used by tests as an internal consistency oracle.
    """
    if sol.duals is None:
        raise ValueError("solution carries no duals")
    total = lp._obj_const
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
        if v.lb != -INF and abs(x - v.lb) <= 1e-6 and v.lb != 0.0:
            total += r * v.lb
        elif v.ub != INF and abs(x - v.ub) <= 1e-6:
            total += r * v.ub
    return total


def solve_mip(lp: LinearProgram, node_budget: int = 100_000,
              cutoff: float | None = None) -> Solution:
    """Branch and bound over the binary variables of `lp`.

    Best-bound node selection; branches on the most fractional binary with
    ties broken by lowest variable index.  The returned solution has no
    duals.  Raises BudgetExceededError (carrying the incumbent) if the node
    budget is exhausted before the tree is.

    `cutoff` declares a known achievable objective: subtrees that cannot
    strictly beat it are pruned, and "infeasible" is returned when nothing
    better exists (the caller already holds the cutoff solution).
    """
    import heapq

    bin_idx = [lp._index[name] for name in lp.binary_vars()]
    if not bin_idx:
        raise ValueError("solve_mip requires at least one binary variable")
    maximize = lp.sense == "max"

    def beats_cutoff(obj: float) -> bool:
        if cutoff is None:
            return True
        return obj > cutoff + 1e-9 if maximize else obj < cutoff - 1e-9

    root = _solve_relaxation(lp)
    if root.status != "optimal":
        return Solution(status=root.status, objective=math.nan, primal={})
    if not beats_cutoff(root.objective):
        return Solution(status="infeasible", objective=math.nan, primal={})

    incumbent: Solution | None = None
    counter = 0

    def bound_key(obj: float) -> float:
        return -obj if maximize else obj

    heap: list[tuple[float, int, dict[int, tuple[float, float]], Solution]] = []
    heapq.heappush(heap, (bound_key(root.objective), counter, {}, root))
    nodes = 0
    while heap:
        key, _, fixes, relax = heapq.heappop(heap)
        if incumbent is not None:
            # Best-bound queue: once the best bound cannot beat the
            # incumbent, the search is complete.
            if (maximize and -key <= incumbent.objective + 1e-9) or \
               (not maximize and key >= incumbent.objective - 1e-9):
                break
        frac_var = -1
        frac_dist = -1.0
        for j in bin_idx:
            xval = relax.primal[lp._vars[j].name]
            dist = abs(xval - round(xval))
            if dist > INT_TOL and dist > frac_dist + 1e-12:
                frac_dist = dist
                frac_var = j
        if frac_var < 0:
            rounded = dict(relax.primal)
            for j in bin_idx:
                rounded[lp._vars[j].name] = float(round(rounded[lp._vars[j].name]))
            cand = Solution("optimal", relax.objective, rounded)
            if incumbent is None or \
               (maximize and cand.objective > incumbent.objective + 1e-12) or \
               (not maximize and cand.objective < incumbent.objective - 1e-12):
                incumbent = cand
            continue
        for branch_val in (0.0, 1.0):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(f"node budget {node_budget} exceeded", incumbent)
            child = dict(fixes)
            child[frac_var] = (branch_val, branch_val)
            sol = _solve_relaxation(lp, bound_override=child)
            if sol.status != "optimal" or not beats_cutoff(sol.objective):
                continue
            if incumbent is not None:
                if maximize and sol.objective <= incumbent.objective + 1e-9:
                    continue
                if not maximize and sol.objective >= incumbent.objective - 1e-9:
                    continue
            counter += 1
            heapq.heappush(heap, (bound_key(sol.objective), counter, child, sol))
    if incumbent is None:
        return Solution(status="infeasible", objective=math.nan, primal={})
    return incumbent
