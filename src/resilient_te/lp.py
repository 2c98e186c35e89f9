"""Two-phase simplex with bounded variables, plus branch and bound.

Every optimization model in this package compiles down to this layer.  Each
solve call compiles its LP once into a standard form with one column per
variable, holding x - lb: every lower bound is finite (`add_var` and
`with_bounds` refuse any other), so no variable is split or reflected.
Every warm re-solve, a branch-and-bound child or `solve_lp(start=)`, solves
a copy of that form under its own bounds (`_Standardized.rebound`), and a
`solve_lp(start=)` under its own objective too (`_Standardized.reprice`).
The solver holds the basis inverse as an eta file on top of its last
refactor (below), prices with the Dantzig rule, and falls back to Bland's
rule after a run of degenerate pivots.  The primal ratio test takes the minimum
ratio; ratios within 1e-12 of it tie.  In phase 1 a tie that holds basic
artificials is cut to them, so a tied artificial leaves first (Maros 2003,
ch. 9).  Ties then go to the largest |pivot column entry|, then to the
lowest basis index (under Bland's rule, to the lowest basis index alone).
Under Bland's rule that is the least-index rule on a column order with the
artificials first; no artificial enters, so entering columns follow the
same order, and phase 1 stays finite.

The basis inverse is held as B^-1 = B0 - U V.  B0 is the dense inverse
from the last refactor, and nothing writes to it.  Each pivot since then
appends one eta, a column u = B^-1 a_j - e_r to U and a row v = (row r of
B^-1) / pivot to V: the Sherman-Morrison rank-1 update left unevaluated.
After k pivots, row r of B^-1, the entering column `B^-1 a_j` and
`c_B B^-1` each cost a product with B0 plus O(m k), where an explicit update
would rewrite all m^2 entries on every pivot.  The primal loop updates
y = c_B B^-1 on each pivot, y += d_j v, and the dual loop its reduced costs,
d -= d_j / alpha_j * alpha; both are recomputed at each refactor.  The basis
is refactored every REFACTOR_EVERY pivots and on a pivot below PIVOT_TOL.

The compiled matrix `A` holds the real (structural and slack) columns only,
is written once and is read-only: re-bounded forms share it.  It is sparse.
A form of at least SPARSE_MIN_ROWS rows also keeps `A` by its nonzeros, and
each pivot multiplies over those: pricing `y @ A` and the entering column
`B^-1 a_j`.  Smaller forms multiply by the dense `A`, where numpy's per-call
cost outweighs the saving; the crossover was measured on the LPs of this
package's benchmark.

Every relaxation starts from a `_Start`, a cold one from `_Start.cold`: one
artificial per row, its row's unit column signed as `b`.  Artificials are
placeholders of the basis state, not columns of `A`: the basis matrix takes
the basic real columns of `A` and a signed unit column per basic artificial.
Both phases price the real columns only, so an artificial that leaves the
basis never re-enters (Koberstein 2005; Bixby 2002); a nonbasic artificial
sits at 0, so phase 1 still reaches 0 exactly when the LP is feasible.  It
stops as soon as no basic artificial is positive (no tolerance): its
objective, the artificials' sum, is bounded below by 0, so that basis is
phase-1 optimal.  Artificials still basic at 0 stay in the basis for phase
2, pinned at 0.  Row duals are returned for LP solves; they are the
sensitivities d(objective)/d(rhs) in the caller's min/max orientation.

A warm re-solve starts from an optimal relaxation of the same compiled form
under other bounds, its `Solution.basis`: the final basis and artificial
signs, with the artificials pinned at 0, where their signs are immaterial.
It runs a bounded dual simplex.  The basic variable with the largest bound
violation leaves at the bound it violated.  The entering column comes from
a Harris two-pass ratio test (Harris 1973; Koberstein 2005, ch. 3 and 6)
over the nonbasic real columns that can move in the direction that repairs
that row: the first pass bounds the step by the least (|reduced cost| +
COST_TOL) / |alpha|, and the second takes, among the columns whose exact
ratio is within that bound, the largest |alpha|, then the lowest column
index.  So a tiny |alpha| enters only when no larger one has a ratio near
the minimum.  A row that no column can repair proves the re-solve
infeasible.  Once every basic variable is within its bounds, phase 2
finishes the solve; it stops at once on an optimal basis.  A
`solve_lp(start=)` re-solve may also change the objective, which can leave
the start's basis dual infeasible: the dual loop counts a wrong-signed
reduced cost as 0, and phase 2 repairs it.  Under the start's own bounds
the dual loop has nothing to repair, so phase 2 alone re-solves, from the
start's basis and without a phase-1 pivot.  If the warm path fails
anywhere (a singular entry basis, the iteration cap, a singular basis, or
the certificate below), the form is solved cold instead, once.
Neither loop rebuilds the basis state per pivot: `_exchange` carries the
basic upper bounds and each real column's pricing direction, which both
loops read, and the dual ratio test gathers each candidate array once.

`solve_lp(lp, start=sol)` re-solves `lp` this way from `sol`, an optimal
solution of an LP with the same variables and rows
(`LinearProgram.with_bounds` makes one): the bounds, the objective and its
sense may differ.  A new objective is compiled onto the copy of the start's
form, which still shares its `A`.
Branch and bound pops the best bound first and branches by reliability
branching (Achterberg, Koch & Martin, "Branching rules revisited", 2005; see
`solve_mip`).  It solves its root cold and each child the same way, from its
parent's `Solution.basis` under the parent's bounds with one binary fixed.

Every warm start inherits its start's artificial signs, and with them its
basis matrix, so it can take the start's inverse as it stands.  A
relaxation solved warm keeps its inverse on its `_Start`: the read-only B0
it pivoted from and a copy of its eta file, which a warm start from it loads
without inverting anything; a chain of warm starts, such as a B&B path,
inverts only at refactors.  A relaxation solved cold keeps neither, as its
eta file runs long: the first warm start from it caches its exact entry
inverse on that `_Start`, read-only, and later ones take it in place as
their B0.  So a B&B node's two children, or all re-solves from one
`solve_lp` start, factor a start once at most and copy nothing but etas.

An optimal report is certified on the inverse the solve holds: after a
pivot, |B x_B - rhs| <= 1e-10 (1 + |rhs|) and |c_B B^-1 B - c_B| <= 1e-10
(1 + |c|) in max norms.  Both products go through `A`, not a gathered B:
B x_B is A z, z the basic real values in place, and y B is y A at the
basic real columns, each plus the basic artificials' terms, art_i x_i and
y_i art_i.  Otherwise the basis is refactored, and its exact
point must have a primal residual and bound violations within FEAS_TOL
(1 + |rhs|) and nonbasic reduced costs of the optimal sign to COST_TOL: on a
basic solution, that is optimality.  A warm solve that fails solves cold
instead; a cold one raises SolverStallError.

`Solution.pivots` counts basis changes and bound flips per phase; dual
pivots count as phase 2, and a MIP reports the sum over its tree.

Sizes up to a few thousand rows and variables are in scope; nothing here is
tuned beyond that.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

INF = math.inf

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
COST_TOL = 1e-9
INT_TOL = 1e-6
DEGENERATE_RUN_LIMIT = 40
REFACTOR_EVERY = 150
# Branch-and-bound relaxations below the root that `solve_mip` may solve.
NODE_BUDGET = 100_000
# Forms with this many rows price and update over their nonzeros.  Replayed
# on the benchmark's LPs, the sparse kernels took 1.2-1.4x the dense time
# below 96 rows, broke even at 96-111, and won from 112 (0.6x at 271).
SPARSE_MIN_ROWS = 112


class SolverStallError(RuntimeError):
    """The simplex failed to make progress even under Bland's rule."""


class BudgetExceededError(RuntimeError):
    """Branch and bound ran out of nodes; carries the best incumbent found."""

    def __init__(self, message: str, incumbent: "Solution | None"):
        super().__init__(message)
        self.incumbent = incumbent


class _Var(NamedTuple):
    """Immutable, so a warm `solve_lp` tells edits by identity; made by
    `checked`."""

    name: str
    lb: float
    ub: float
    binary: bool = False

    @classmethod
    def checked(cls, name: str, lb: float, ub: float, binary: bool) -> _Var:
        if binary:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        if not math.isfinite(lb) or math.isnan(ub):
            raise ValueError(f"variable {name!r} needs a finite lb and an ub that is not NaN")
        if lb > ub:
            raise ValueError(f"variable {name!r} has lb > ub")
        return cls(name, lb, ub, binary)


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
    A binary's bounds are clamped to [0, 1].  A lower bound that is not
    finite, an upper bound that is NaN, and lb > ub raise ValueError,
    whether the bounds are declared or edited.
    """

    name: str = "lp"
    _vars: list[_Var] = field(default_factory=list)
    _index: dict[str, int] = field(default_factory=dict)
    _rows: list[_Row] = field(default_factory=list)
    _obj: dict[int, float] = field(default_factory=dict)
    sense: str = "min"

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF, binary: bool = False) -> str:
        if name in self._index:
            raise ValueError(f"variable {name!r} already declared")
        self._vars.append(_Var.checked(name, lb, ub, binary))
        self._index[name] = len(self._vars) - 1
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

    def set_objective(self, coeffs: dict[str, float], sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ValueError(f"bad objective sense {sense!r}")
        self._obj = {self._index[v]: float(c) for v, c in coeffs.items()}
        self.sense = sense

    @property
    def num_vars(self) -> int:
        return len(self._vars)

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    def binary_vars(self) -> list[str]:
        return [v.name for v in self._vars if v.binary]

    def with_bounds(self, bounds: dict[str, tuple[float, float]]) -> LinearProgram:
        """A copy of this LP with the named variables' (lb, ub) replaced.

        It shares its row objects with this LP, so a solution of either is a
        cheap `solve_lp` start for the other; neither LP is changed later by
        edits to the other.
        """
        out = LinearProgram(self.name, list(self._vars), dict(self._index), list(self._rows),
                            dict(self._obj), self.sense)
        for name, (lb, ub) in bounds.items():
            j = self._index[name]
            out._vars[j] = _Var.checked(name, lb, ub, self._vars[j].binary)
        return out


@dataclass
class Solution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float
    primal: dict[str, float]
    duals: list[float] | None = None
    #: Simplex pivots (basis changes and bound flips) as (phase 1, phase 2):
    #: of the LP solve that produced this solution, or for `solve_mip`, summed
    #: over every relaxation of its tree.  Dual simplex pivots count as
    #: phase 2.
    pivots: tuple[int, int] = (0, 0)
    #: Opaque: what `solve_lp(..., start=)` re-solves from, the compiled form
    #: and final basis state (`_Start`), for an LP with the same variables
    #: and rows under any bounds and objective.  Set on every optimal LP
    #: solution; None otherwise, and on every `solve_mip` result.
    basis: _Start | None = field(default=None, compare=False, repr=False)

    def __getitem__(self, var: str) -> float:
        return self.primal[var]

    def value(self, var: str, default: float = 0.0) -> float:
        return self.primal.get(var, default)


# --------------------------------------------------------------------------
# Simplex core.  Internal form: minimize c'x  s.t.  A x = b,  0 <= x <= u,
# over structural and slack columns, plus one artificial per row that is a
# placeholder of the basis state only.  Nonbasic variables sit at 0 or at
# their upper bound.

class _Standardized:
    """One LP compiled into the internal form.

    `A`, the row rhs, the LP's `vars` with their bounds `var_lb` and
    `var_ub`, their `names` and its `rows` are built once and kept by every
    `rebound` copy.  So are the cost `c`, `obj_sign` and the `objective`
    (coefficients, sense) they compile, except on a copy that `reprice`
    gives another objective.  `A` holds the `n_real` real columns:
    variable j's, x_j - lb_j, at j, then one slack per inequality row.
    Column n_real + i is row i's artificial, in `c` and `u` but not in `A`:
    its sign is basis state (`_Simplex.art`).  The bounds `lb` and `ub`
    decide `b` and `u`; `rebound` copies the form under other bounds.  `A`,
    `c` and these four arrays are read-only, so a form shared by several
    solves cannot be changed by one of them.

    A form with at least SPARSE_MIN_ROWS rows is `sparse`: it also keeps `A`
    by columns (`nz_rows`, `nz_vals`, column starts `col_start`), and `price`
    and `ftran` multiply over those nonzeros.
    """

    def __init__(self, lp: LinearProgram):
        self.vars = tuple(lp._vars)
        self.names = tuple(v.name for v in self.vars)
        self.rows = tuple(lp._rows)
        lb = np.array([v.lb for v in self.vars], dtype=float)
        ub = np.array([v.ub for v in self.vars], dtype=float)
        self.n_struct = len(self.vars)

        rows = lp._rows
        m = len(rows)
        self.m = m
        self.ri = ri = np.array([i for i, row in enumerate(rows) for _ in row.coeffs], dtype=np.intp)
        self.vj = vj = np.array([j for row in rows for j in row.coeffs], dtype=np.intp)
        self.cv = cv = np.array([c for row in rows for c in row.coeffs.values()], dtype=float)
        senses = np.array([row.sense for row in rows], dtype=object)
        slack_rows = np.flatnonzero(senses != "=")
        self.n_real = self.n_struct + slack_rows.size
        self.ncols = self.n_real + m

        # Structural block, then one slack column per inequality row.
        A = np.zeros((m, self.n_real))
        A[ri, vj] = cv
        A[slack_rows, self.n_struct + np.arange(slack_rows.size)] = \
            np.where(senses[slack_rows] == "<=", 1.0, -1.0)
        A.flags.writeable = False
        self.A = A
        self.rhs = np.array([row.rhs for row in rows], dtype=float)
        self.reprice(lp)
        self.sparse = m >= SPARSE_MIN_ROWS
        if self.sparse:
            cols, self.nz_rows = np.nonzero(A.T)
            self.nz_cols, self.nz_vals = cols, A[self.nz_rows, cols]
            self.col_start = np.searchsorted(cols, np.arange(self.n_real + 1))
        self._freeze_bounds(lb, ub)
        self.var_lb, self.var_ub = self.lb, self.ub

    def _freeze_bounds(self, lb: np.ndarray, ub: np.ndarray, b: np.ndarray | None = None) -> None:
        """Take these bounds and set what they decide, `b` = rhs - A lb
        (given as `b` when already known) and `u`; all four arrays are made
        read-only."""
        u = np.full(self.ncols, INF)
        u[:self.n_struct] = ub - lb
        if b is None:
            b = self.rhs.copy()
            lower = lb[self.vj]
            nz = np.flatnonzero(lower)
            np.subtract.at(b, self.ri[nz], self.cv[nz] * lower[nz])
        for array in (lb, ub, u, b):
            array.flags.writeable = False
        self.lb, self.ub, self.u, self.b = lb, ub, u, b

    def reprice(self, lp: LinearProgram) -> None:
        """Take the objective and sense of `lp`: set `objective`, `obj_sign`
        and the cost `c`, made read-only."""
        self.objective = (lp._obj, lp.sense)
        self.obj_sign = 1.0 if lp.sense == "min" else -1.0
        c = np.zeros(self.ncols)
        oj = np.fromiter(lp._obj.keys(), dtype=np.intp, count=len(lp._obj))
        c[oj] += self.obj_sign * np.fromiter(lp._obj.values(), dtype=float, count=len(lp._obj))
        c.flags.writeable = False
        self.c = c

    def price(self, y: np.ndarray) -> np.ndarray:
        """`y @ A`."""
        if not self.sparse:
            return y @ self.A
        return np.bincount(self.nz_cols, y[self.nz_rows] * self.nz_vals, self.n_real)

    def times(self, x: np.ndarray) -> np.ndarray:
        """`A @ x`."""
        if not self.sparse:
            return self.A @ x
        return np.bincount(self.nz_rows, self.nz_vals * x[self.nz_cols], self.m)

    def ftran(self, M: np.ndarray, j: int) -> np.ndarray:
        """`M @ A[:, j]`, for M with m columns."""
        if not self.sparse:
            return M @ self.A[:, j]
        span = slice(self.col_start[j], self.col_start[j + 1])
        return M[:, self.nz_rows[span]] @ self.nz_vals[span]

    def rebound(self, lb: np.ndarray, ub: np.ndarray) -> _Standardized:
        """A copy of this form under the bounds `lb` and `ub`, which it takes
        and makes read-only; this form is left as it was.  When `lb` equals
        this form's, the copy shares this form's `lb` and `b` instead."""
        new = copy.copy(self)
        if np.array_equal(lb, self.lb):
            new._freeze_bounds(self.lb, ub, self.b)
        else:
            new._freeze_bounds(lb, ub)
        return new


@dataclass(eq=False)
class _Start:
    """A basis state on a compiled form that a solve starts from: the basis
    columns, the nonbasic columns at their upper bounds and the artificial
    signs `art` (all None for a form without rows, which has no basis).  An
    optimal relaxation's state is kept for warm re-solves; `cold` builds
    phase 1's.  A solve copies what it changes.

    The state's basis inverse is `factor` less the eta file `etas`: the
    `(U[:, :k], V[:k])` of `_Simplex`, None when k is 0.  A warm-solved
    relaxation carries both from its solve: the read-only B0 it pivoted from
    and a copy of its k etas.  A cold-solved one carries neither; the first
    solve from it inverts its basis and caches that exact inverse as
    `factor`, read-only, the only write to a start.  Every solve from a
    state inherits its signs, hence its basis matrix, and takes its inverse
    as it stands."""

    std: _Standardized
    basis: np.ndarray | None = None
    at_upper: np.ndarray | None = None
    art: np.ndarray | None = None
    factor: np.ndarray | None = None
    etas: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def cold(cls, std: _Standardized) -> _Start:
        """The all-artificial basis, signed as `b`: diag(art), its own
        inverse."""
        art = np.where(std.b >= 0, 1.0, -1.0)
        factor = np.diag(art)
        factor.flags.writeable = False
        return cls(std, np.arange(std.n_real, std.ncols), np.zeros(std.ncols, dtype=bool), art,
                   factor)


class _Simplex:
    """One solve's basis state on a compiled form: the basis columns, the
    nonbasic columns at their upper bounds, the signs `art` (row i's
    artificial column is `art[i]` e_i), the basic values `xB`, and the basis
    inverse as `B0` (read-only, from the last refactor) less the eta file
    `U[:, :k] @ V[:k]` of the k = `pivots_since_refactor` pivots since
    (module docstring).  `U` and `V` belong to this solve alone, a start's
    etas copied in; `B0` may be a start state's `factor`."""

    def __init__(self, std: _Standardized, start: _Start):
        """The basis state of `start`, signs included: `_Start.cold`, or an
        optimal relaxation of this form under other bounds, which `dual`
        re-solves."""
        self.std = std
        # Per-solve copy of the column upper bounds: phase 2 pins the
        # artificials here, not in the compiled form.
        self.u = std.u.copy()
        self.degenerate_run = 0
        self.bland = False
        self.iterations = 0
        self.pivots = [0, 0]
        # The eta file, room for the REFACTOR_EVERY pivots between refactors.
        self.U = np.empty((std.m, REFACTOR_EVERY))
        self.V = np.empty((REFACTOR_EVERY, std.m))
        self.basis, self.at_upper, self.art = start.basis.copy(), start.at_upper.copy(), start.art
        # A column whose upper bound is now infinite starts at its lower
        # bound; phase 2 repairs the reduced cost this may leave wrong.
        self.at_upper &= self.u < INF
        self.in_basis = np.zeros(std.ncols, dtype=bool)
        self.in_basis[self.basis] = True
        # Carried by `_exchange` and `_at_bound`: u[basis], and each real
        # column's pricing direction `dirn`: -1 may enter from its lower
        # bound, +1 from its upper bound, 0 may not enter (basic, or at a
        # lower bound within PIVOT_TOL of its upper one); d_j is optimal
        # when d_j * dirn_j <= COST_TOL.
        self.uB, n = self.u[self.basis], std.n_real
        self.dirn = self._directions()[:n]
        self.xB = np.empty(std.m)
        self._refactor(start)

    def pin_artificials(self) -> None:
        """Enter phase 2: artificials are pinned at 0.  Basic ones that
        cannot be driven out sit in redundant rows at value 0."""
        self.u[self.std.n_real:] = 0.0
        self.uB[...] = self.u[self.basis]
        self.at_upper[self.std.n_real:] = False
        self.bland = False
        self.degenerate_run = 0

    # -- linear algebra maintenance ---------------------------------------

    def _basis_matrix(self) -> np.ndarray:
        """B: the basic real columns of `A`, and `art[i]` e_i for row i's
        basic artificial."""
        std, basis = self.std, self.basis
        # One gather, clipped: the artificials' positions are overwritten.
        B = std.A.take(basis, axis=1, mode="clip") if std.n_real else np.empty((std.m,) * 2)
        pos = np.flatnonzero(basis >= std.n_real)
        rows = basis[pos] - std.n_real
        B[:, pos] = 0.0
        B[rows, pos] = self.art[rows]
        return B

    def _refactor(self, start: _Start | None = None) -> None:
        """Invert the basis afresh into `B0`, empty the eta file and
        recompute the basic values (in place, so that local aliases of `xB`
        stay current).  With `start`, the state this basis and its signs were
        copied from, take its inverse instead: its `factor`, read in place
        (inverted and cached on it first if it has none), and a copy of its
        etas."""
        factor, etas = (start.factor, start.etas) if start is not None else (None, None)
        if factor is None:
            try:
                factor = np.linalg.inv(self._basis_matrix())
            except np.linalg.LinAlgError as exc:
                raise SolverStallError("basis became singular") from exc
            factor.flags.writeable = False
            if start is not None:
                start.factor = factor
        self.B0 = factor
        self.pivots_since_refactor = k = 0 if etas is None else len(etas[1])
        if k:
            self.U[:, :k], self.V[:k] = etas
        rhs = self._rhs()
        self.xB[...] = self.B0 @ rhs - self.U[:, :k] @ (self.V[:k] @ rhs)

    def _rhs(self) -> np.ndarray:
        """`b` less the nonbasic real columns at their upper bounds."""
        n = self.std.n_real
        upper = np.flatnonzero(~self.in_basis[:n] & self.at_upper[:n])
        return self.std.b - self.std.A[:, upper] @ self.u[upper]

    def _row(self, r: int) -> np.ndarray:
        """Row r of B^-1."""
        k = self.pivots_since_refactor
        return self.B0[r] - self.U[r, :k] @ self.V[:k] if k else self.B0[r]

    def _ftran(self, j: int) -> np.ndarray:
        """`B^-1 a_j`."""
        col = self.std.ftran(self.B0, j)
        k = self.pivots_since_refactor
        if k:
            col -= self.U[:, :k] @ self.std.ftran(self.V[:k], j)
        return col

    def _btran(self, cB: np.ndarray) -> np.ndarray:
        """`cB @ B^-1`."""
        y = cB @ self.B0
        k = self.pivots_since_refactor
        if k:
            y -= (cB @ self.U[:, :k]) @ self.V[:k]
        return y

    def _basis_products(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`B x_B` and `y B` without gathering B: `A z`, z the basic real
        values in place, and `y A` at the basic real columns, each with the
        terms of the basic artificials' columns `art[i]` e_i."""
        std, basis, xB = self.std, self.basis, self.xB
        real = basis < std.n_real
        z = np.zeros(std.n_real)
        z[basis[real]] = xB[real]
        Bx, yB = std.times(z), np.empty(std.m)
        yB[real] = std.price(y)[basis[real]]
        rows = basis[~real] - std.n_real
        Bx[rows] += self.art[rows] * xB[~real]
        yB[~real] = y[rows] * self.art[rows]
        return Bx, yB

    def certify(self) -> np.ndarray:
        """Certify an optimal report (module docstring); returns c_B B^-1.
        The residuals take B x_B and c_B B^-1 B through `A` (see
        `_basis_products`), so only a refactor gathers B."""
        std = self.std
        cB = std.c[self.basis]
        y = self._btran(cB)
        if self.pivots_since_refactor:  # else B0 and x_B are exact
            rhs = self._rhs()
            scale = 1.0 + np.abs(rhs).max()
            Bx, yB = self._basis_products(y)
            if (np.abs(Bx - rhs).max() > 1e-10 * scale
                    or np.abs(yB - cB).max() > 1e-10 * (1.0 + np.abs(std.c).max())):
                self._refactor()
                y = self._btran(cB)
                xB, n = self.xB, std.n_real
                Bx, _ = self._basis_products(y)
                primal = max(np.abs(Bx - rhs).max(), (-xB).max(),
                             (xB - self.u[self.basis]).max())
                dual = np.max((std.c[:n] - std.price(y)) * self._directions()[:n], initial=0.0)
                if primal > FEAS_TOL * scale or dual > COST_TOL:
                    raise SolverStallError("the exact basis inverse fails the certificate")
        return y

    def _update_inverse(self, leave_pos: int, col: np.ndarray, row: np.ndarray | None = None
                        ) -> np.ndarray | None:
        """Append the eta of a pivot to the file after `col` (the entering
        column times the old inverse) replaced basis position `leave_pos`:
        u = col - e_r and v = (row r of the old inverse, `row` if given) /
        pivot, the Sherman-Morrison rank-1 update left unevaluated.  Returns
        v, or None when the pivot is tiny and the basis is refactored
        instead."""
        piv = col[leave_pos]
        if abs(piv) < PIVOT_TOL:
            self._refactor()
            return None
        k = self.pivots_since_refactor
        u, v = self.U[:, k], self.V[k]
        u[:] = col
        u[leave_pos] -= 1.0
        np.divide(self._row(leave_pos) if row is None else row, piv, out=v)
        self.pivots_since_refactor += 1
        return v

    def _exchange(self, r: int, j: int, col: np.ndarray, step: float, value: float,
                  to_upper: bool, row: np.ndarray | None = None) -> np.ndarray | None:
        """Pivot column j (`col` = B^-1 a_j) into basis position r: x_B moves
        by -step * col, j takes `value`, and the leaving variable goes to its
        upper bound if `to_upper`, else to 0; returns `_update_inverse`'s v."""
        self.xB -= step * col
        self.xB[r] = value
        leaving = self.basis[r]
        self.in_basis[leaving] = False
        self._at_bound(leaving, to_upper)
        self.basis[r] = j
        self.in_basis[j] = True
        self.uB[r] = self.u[j]
        self.dirn[j] = 0.0
        return self._update_inverse(r, col, row)

    def _directions(self) -> np.ndarray:
        """Each column's pricing direction, recomputed (see `dirn`)."""
        dirn = np.where(self.at_upper, 1.0, np.where(self.u > PIVOT_TOL, -1.0, 0.0))
        dirn[self.in_basis] = 0.0
        return dirn

    def _at_bound(self, k: int, upper: bool) -> None:
        """Put nonbasic column k at its upper bound if `upper`, else at 0."""
        self.at_upper[k] = upper
        if k < self.std.n_real:
            self.dirn[k] = 1.0 if upper else (-1.0 if self.u[k] > PIVOT_TOL else 0.0)

    # -- main loop ---------------------------------------------------------

    def run(self, c: np.ndarray, phase: int, max_iter: int) -> bool:
        """Minimize c over the current basis state (phase body).  Returns
        True at an optimum and False when a column can improve c without
        bound (an unbounded ray).

        Both phases price the real columns only, so an artificial never
        enters.  Phase 1 stops as soon as no basic artificial is positive;
        in phase 2 the artificials are pinned at 0.
        """
        std = self.std
        if not std.n_real:  # no column can enter
            return True
        ub = self.u
        c_price = c[:std.n_real]
        basis, at_upper = self.basis, self.at_upper
        cB, ubB, dirn = c[basis], self.uB, self.dirn
        ratio = np.empty(std.m)
        xB = self.xB
        # c_B B^-1: updated on each pivot by y += d_j v, recomputed at each
        # refactor.
        y = None
        while True:
            # Phase 1 is optimal once no basic artificial is positive: its
            # objective, their sum, is bounded below by 0.  cB is 1 exactly
            # on the basic artificials and 0 elsewhere.
            if phase == 1 and not (cB * xB).max() > 0.0:
                return True
            self.iterations += 1
            if self.iterations > max_iter:
                raise SolverStallError(f"simplex exceeded {max_iter} iterations")
            if self.pivots_since_refactor >= REFACTOR_EVERY:
                self._refactor()
                y = None
            if y is None:
                y = self._btran(cB)
            d = c_price - std.price(y)
            score = d * dirn
            j = int((score > COST_TOL).argmax() if self.bland else score.argmax())
            if not score[j] > COST_TOL:
                return True
            from_upper = bool(at_upper[j])
            col = self._ftran(j)
            # Rate of change of the basic variables per unit step of x_j
            # away from its bound.
            a = -col if from_upper else col
            # Ratio test: a basic variable falling to 0 or rising to its
            # upper bound blocks the step.  Ties within 1e-12 of the minimum
            # go, in phase 1, to the basic artificials among them if any;
            # then to the largest |col| (Bland: any size), then the lowest
            # basis index.  Bland's rule thus orders the artificials before
            # the real columns, and since no artificial enters, entering
            # and leaving follow one order: it stays finite.
            ratio.fill(INF)
            np.divide(xB, a, out=ratio, where=a > PIVOT_TOL)
            np.divide(ubB - xB, -a, out=ratio, where=a < -PIVOT_TOL)
            t = ub[j]
            leave_pos = -1
            tmin = ratio[ratio.argmin()]
            if tmin < t:
                t = max(tmin, 0.0)
                ties = (ratio <= tmin + 1e-12).nonzero()[0]
                if phase == 1 and ties.size > 1:
                    artificial = ties[basis[ties] >= std.n_real]
                    ties = artificial if artificial.size else ties
                if ties.size > 1 and not self.bland:
                    size = np.abs(col[ties])
                    ties = ties[size == size.max()]
                leave_pos = int(ties[basis[ties].argmin()] if ties.size > 1 else ties[0])
            if t == INF:
                return False
            if t <= 1e-11:
                self.degenerate_run += 1
                if self.degenerate_run >= DEGENERATE_RUN_LIMIT:
                    self.bland = True
            else:
                self.degenerate_run = 0
            step = -t if from_upper else t
            self.pivots[phase - 1] += 1
            if leave_pos < 0:
                # Bound flip: the entering variable crosses to its other bound.
                xB -= step * col
                self._at_bound(j, not from_upper)
                continue
            to_upper = bool(a[leave_pos] < 0)
            v = self._exchange(leave_pos, j, col, step, (ub[j] - t) if from_upper else t, to_upper)
            cB[leave_pos] = c[j]
            if v is None:
                y = None
            else:
                y += d[j] * v

    def dual(self, max_iter: int) -> bool:
        """Bounded dual simplex from a warm start: pin the artificials, then
        pivot until every basic variable is within its bounds.  Returns
        False when a row proves the LP infeasible.

        The leaving row has the largest bound violation above FEAS_TOL, and
        its variable leaves at the bound it violated.  Entering candidates
        are the nonbasic real columns that can move (u > PIVOT_TOL) in the
        direction that repairs that row.  A Harris two-pass ratio test picks
        among them: the first pass bounds the step by the least
        (|reduced cost| + COST_TOL) / |alpha|, and the second takes the
        largest |alpha| among the candidates whose exact ratio is within that
        bound, then the lowest column index.  When no column qualifies, no
        point within the bounds satisfies the row.  A pivot reads `uB` and
        `dirn` as `_exchange` carries them and gathers each candidate array
        once; reduced costs are updated, and recomputed on entry and at each
        refactor.
        """
        std = self.std
        n = std.n_real
        c, u = std.c, self.u
        c_real = c[:n]
        basis, at_upper, dirn, uB = self.basis, self.at_upper, self.dirn, self.uB
        # Real bounds do not change here.  A column at an upper bound within
        # PIVOT_TOL of 0 has direction +1 (it may move down) but cannot enter.
        movable = u[:n] > PIVOT_TOL
        xB = self.xB
        self.pin_artificials()
        d = None
        while True:
            if self.pivots_since_refactor >= REFACTOR_EVERY:
                self._refactor()
            above = xB - uB
            viol = np.maximum(-xB, above)
            r = int(viol.argmax())
            if not viol[r] > FEAS_TOL:
                # Fixed columns sit at lower: at upper, phase 2 would price
                # them as able to move down.
                at_upper &= u > 0.0
                dirn[u[:n] == 0.0] = 0.0
                return True
            self.iterations += 1
            if self.iterations > max_iter:
                raise SolverStallError(f"dual simplex exceeded {max_iter} iterations")
            to_upper = bool(above[r] > -xB[r])
            rho = self._row(r)
            alpha = std.price(rho)
            # Rate at which each nonbasic column, stepping away from its
            # bound (by the sign of -dirn), moves x_B[r] toward the bound it
            # violates; 0 for a basic column.
            rate = -(alpha * dirn) if to_upper else alpha * dirn
            cand = np.flatnonzero((rate > PIVOT_TOL) & movable)
            if cand.size == 0:
                return False
            if d is None or self.pivots_since_refactor == 0:  # entry, or a refactor
                d = c_real - std.price(self._btran(c[basis]))
            # |d_j| on a dual-feasible start; a wrong-signed d_j counts as 0,
            # and phase 2 repairs such a start afterwards.  rate is |alpha|.
            rate = rate[cand]
            gain = np.maximum(-(d[cand] * dirn[cand]), 0.0)
            near = gain / rate <= ((gain + COST_TOL) / rate).min()
            j = int(cand[np.where(near, rate, 0.0).argmax()])
            col = self._ftran(j)
            step = (xB[r] - (uB[r] if to_upper else 0.0)) / col[r]
            self.pivots[1] += 1
            d -= d[j] / alpha[j] * alpha
            self._exchange(r, j, col, step, (u[j] if at_upper[j] else 0.0) + step, to_upper, rho)


def solve_lp(lp: LinearProgram, start: Solution | None = None) -> Solution:
    """Solve an LP (no binaries) to optimality, returning primal and duals.

    With `start`, an optimal `solve_lp` solution of an LP with the same
    variables and rows as `lp` (when that LP was solved), `lp` is re-solved
    warm from its basis (see the module docstring); the bounds, the
    objective and its sense may differ.  A `start` without a basis or of an
    LP with other variables or rows raises ValueError.
    """
    if start is None:
        if lp.binary_vars():
            raise ValueError("solve_lp requires a pure LP; use solve_mip")
        return _solve_relaxation(lp, _Standardized(lp))
    warm = start.basis
    mismatch = "start is not an optimal solution of an LP with these rows and columns"
    if warm is None or len(lp._vars) != warm.std.n_struct or tuple(lp._rows) != warm.std.rows:
        raise ValueError(mismatch)
    held, lb, ub = warm.std.vars, warm.std.var_lb.copy(), warm.std.var_ub.copy()
    for j in [j for j, v in enumerate(lp._vars) if v is not held[j]]:  # edited
        v = lp._vars[j]
        if v.binary or v.name != held[j].name:
            raise ValueError("solve_lp requires a pure LP; use solve_mip" if v.binary else mismatch)
        lb[j], ub[j] = v.lb, v.ub
    std = warm.std.rebound(lb, ub)
    if (lp._obj, lp.sense) != std.objective:
        std.reprice(lp)
    return _solve_relaxation(lp, std, warm)


def _solve_relaxation(lp: LinearProgram, std: _Standardized, start: _Start | None = None
                      ) -> Solution:
    """Solve `lp` under the bounds of its compiled form `std`; an optimal
    solution's `basis` is its `_Start` on `std`.

    Cold, phase 1 runs from `_Start.cold` and phase 2 finishes.
    With `start`, an optimal relaxation of this form under other bounds or
    another objective, the dual simplex re-solves from its basis state and
    phase 2 finishes.  An optimum is certified before it is reported
    (`_Simplex.certify`): the basis is refactored only when the updated
    inverse fails its residuals, and the exact point must then pass the full
    certificate.  When any step of a warm solve raises SolverStallError, the
    form is solved cold instead and the warm pivots count as phase 2 of that
    cold solve; a cold solve raises it.
    """
    if std.m == 0:
        # Only bounds: minimize each cost coordinate independently.
        if np.any((std.c < 0) & (std.u == INF)):
            return Solution("unbounded", math.nan, {})
        x, y, basis, pivots = np.where(std.c < 0, std.u, 0.0), np.zeros(0), _Start(std), (0, 0)
    else:
        max_iter = 2000 + 60 * (std.m + std.ncols)
        sx = None
        try:
            sx = _Simplex(std, start or _Start.cold(std))
            if start is not None:
                feasible = sx.dual(max_iter)
            else:
                # Phase 1: drive artificials to zero.
                c1 = np.zeros(std.ncols)
                c1[std.n_real:] = 1.0
                if not sx.run(c1, 1, max_iter):  # pragma: no cover - bounded below by 0
                    raise SolverStallError("phase 1 reported unbounded")
                art_value = float(np.sum(sx.xB[np.flatnonzero(sx.basis >= std.n_real)]))
                feasible = not art_value > FEAS_TOL * (1.0 + float(np.max(np.abs(std.b))))
                sx.pin_artificials()
            if not feasible:
                return Solution("infeasible", math.nan, {}, pivots=tuple(sx.pivots))
            if not sx.run(std.c, 2, max_iter):
                return Solution("unbounded", math.nan, {}, pivots=tuple(sx.pivots))
            y = sx.certify()
        except SolverStallError:
            if start is None:
                raise
            # The one fallback of a warm start: solve cold on the same form.
            sol = _solve_relaxation(lp, std)
            sol.pivots = (sol.pivots[0], sol.pivots[1] + (sx.pivots[1] if sx else 0))
            return sol
        x = np.where(~sx.in_basis & sx.at_upper, sx.u, 0.0)
        x[sx.basis] = sx.xB
        basis, pivots = _Start(std, sx.basis, sx.at_upper, sx.art), tuple(sx.pivots)
        if start is not None:  # warm: the solve's inverse goes with its state
            k = sx.pivots_since_refactor
            basis.factor = sx.B0
            basis.etas = (sx.U[:, :k].copy(), sx.V[:k].copy()) if k else None

    values = (std.lb + x[:std.n_struct]).tolist()
    obj = sum(coef * values[j] for j, coef in lp._obj.items())
    primal = dict(zip(std.names, values))
    return Solution("optimal", float(obj), primal, (std.obj_sign * y).tolist(), pivots, basis)


def solve_mip(lp: LinearProgram) -> Solution:
    """Branch and bound over the binary variables of `lp`.

    Best-bound node selection with reliability branching.  Each binary keeps
    a pseudocost per direction: the mean objective gain (clipped at 0) of
    its down (up) children per unit of the fractionality f (1 - f) they
    removed.  At a node, every fractional binary not yet observed in both
    directions is strong-branched, most fractional first (ties to the
    lowest index): both its children are solved.  If one of them is
    infeasible or cannot beat the incumbent, the node branches on that
    binary at once; otherwise on the largest
    `max(f * psi_down, 1e-6) * max((1 - f) * psi_up, 1e-6)` over its
    fractional binaries, ties to the lowest index, reusing the children that
    strong branching solved.  A solved relaxation that is integral and beats
    the incumbent becomes the incumbent at once; the search starts with
    none, so "infeasible" means that no 0/1 fixing of the binaries is
    feasible.

    The root relaxation is solved cold; each child is re-solved warm from
    its parent's `Solution.basis`, as by `solve_lp(start=)`.  The returned
    solution has no duals and no basis; its pivots are those of every
    relaxation solved.  Every relaxation below the root, strong-branching
    ones included, counts toward NODE_BUDGET; BudgetExceededError
    (carrying the incumbent, if any) is raised when it is exhausted before
    the tree is.

    An LP without binaries is its own root: its relaxation is integral.
    """
    bin_idx = [lp._index[name] for name in lp.binary_vars()]
    # Search in min orientation: key = sign * objective, and `best` is the
    # incumbent's key.
    sign = 1.0 if lp.sense == "min" else -1.0
    best = INF

    root = _solve_relaxation(lp, _Standardized(lp))
    if root.status != "optimal":
        return root
    pivots = list(root.pivots)

    incumbent: Solution | None = None
    # (direction, binary index) -> [summed gain per unit of fractionality,
    # observations]; direction 0 is down, 1 up.
    pseudo: dict[tuple[int, int], list] = {}
    counter = nodes = 0

    def beats(sol: Solution) -> bool:
        return sol.status == "optimal" and sign * sol.objective < best - 1e-9

    def fractional(sol: Solution) -> dict[int, float]:
        """Binary index -> fractional part, for each binary `sol` leaves
        fractional; an integral relaxation that beats `best` becomes the
        incumbent."""
        nonlocal best, incumbent
        frac = {}
        for j in bin_idx:
            xval = sol.primal[lp._vars[j].name]
            if abs(xval - round(xval)) > INT_TOL:
                frac[j] = xval - math.floor(xval)
        if not frac and beats(sol):
            rounded = dict(sol.primal)
            for j in bin_idx:
                rounded[lp._vars[j].name] = float(round(rounded[lp._vars[j].name]))
            best = sign * sol.objective
            incumbent = Solution("optimal", sol.objective, rounded)
        return frac

    def branch(j: int, f: float) -> list[tuple[Solution, dict[int, float]]]:
        """Solve both children of the popped node on binary j, which is f
        there, warm from the node, and record their pseudocost
        observations."""
        nonlocal nodes
        out = []
        for up in (0, 1):
            nodes += 1
            if nodes > NODE_BUDGET:
                if incumbent is not None:
                    incumbent.pivots = tuple(pivots)
                raise BudgetExceededError(f"node budget {NODE_BUDGET} exceeded", incumbent)
            lb, ub = node.std.lb.copy(), node.std.ub.copy()
            lb[j] = ub[j] = float(up)
            sol = _solve_relaxation(lp, node.std.rebound(lb, ub), node)
            pivots[0] += sol.pivots[0]
            pivots[1] += sol.pivots[1]
            sol_frac = {}
            if sol.status == "optimal":
                total = pseudo.setdefault((up, j), [0.0, 0])
                total[0] += max(sign * sol.objective - key, 0.0) / (1.0 - f if up else f)
                total[1] += 1
                sol_frac = fractional(sol)
            out.append((sol, sol_frac))
        return out

    def score(j: int, f: float) -> float:
        (down, n_down), (up, n_up) = pseudo[0, j], pseudo[1, j]
        return max(f * down / n_down, 1e-6) * max((1.0 - f) * up / n_up, 1e-6)

    heap = []
    root_frac = fractional(root)
    if beats(root):
        heap.append((sign * root.objective, counter, root_frac, root.basis))
    while heap:
        key, _, frac, node = heapq.heappop(heap)
        # Best-bound queue: once the best bound cannot beat the incumbent,
        # the search is complete.
        if key >= best - 1e-9:
            break
        solved, chosen = {}, None
        for j in sorted(frac, key=lambda j: -min(frac[j], 1.0 - frac[j])):
            if (0, j) in pseudo and (1, j) in pseudo:
                continue
            solved[j] = branch(j, frac[j])
            if not all(beats(child[0]) for child in solved[j]):
                chosen = j
                break
        if chosen is None:
            chosen = max(frac, key=lambda j: score(j, frac[j]))
        for sol, sol_frac in solved.get(chosen) or branch(chosen, frac[chosen]):
            if beats(sol):
                counter += 1
                heapq.heappush(heap, (sign * sol.objective, counter, sol_frac, sol.basis))
    if incumbent is None:
        return Solution(status="infeasible", objective=math.nan, primal={}, pivots=tuple(pivots))
    incumbent.pivots = tuple(pivots)
    return incumbent
