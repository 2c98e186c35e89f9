"""Failure polytopes over link/tunnel/condition indicators, and their
enumerated integral counterparts.

A polytope is a set of `<=` rows over indicator variables, each bounded in
[0, 1].  Robust models build these sets on each protected pair's own
sub-instance (its tunnels, the conditions it names and the links those use),
then either instantiate one row per distinct integral point (enumerate mode)
or dualize the relaxation (dual mode).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .net import Condition, NetworkInstance, Scenario, Tunnel, UnknownLinkError, enumerate_scenarios

#: Indicator variables are identified by (kind, ref) where kind is "x" for a
#: link, "y" for a tunnel, "h" for a condition.
Indicator = tuple[str, str]

#: How far a point may lie outside a row or the [0, 1] box and still hold.
HOLDS_TOL = 1e-9


@dataclass(frozen=True)
class PolytopeRow:
    """sum(coeff * indicator) <= rhs."""

    coeffs: tuple[tuple[Indicator, float], ...]
    rhs: float
    tag: str = ""


@dataclass
class FailurePolytope:
    variables: list[Indicator]
    rows: list[PolytopeRow] = field(default_factory=list)

    def add_row(self, coeffs: dict[Indicator, float], rhs: float, tag: str = "") -> None:
        self.rows.append(PolytopeRow(tuple(sorted(coeffs.items())), rhs, tag))

    def holds(self, point: dict[Indicator, float]) -> bool:
        for var in self.variables:
            v = point.get(var, 0.0)
            if v < -HOLDS_TOL or v > 1 + HOLDS_TOL:
                return False
        for row in self.rows:
            lhs = sum(c * point.get(var, 0.0) for var, c in row.coeffs)
            if lhs > row.rhs + HOLDS_TOL:
                return False
        return True


@dataclass(frozen=True)
class TunnelFailurePattern:
    """Integral (y, h) point realized by one concrete failure scenario."""

    scenario: Scenario
    tunnel_failed: tuple[tuple[str, bool], ...]
    condition_state: tuple[tuple[str, bool], ...]

    def as_point(self) -> dict[Indicator, float]:
        point: dict[Indicator, float] = {}
        for e in self.scenario.failed_links:
            point[("x", e)] = 1.0
        for tid, dead in self.tunnel_failed:
            point[("y", tid)] = 1.0 if dead else 0.0
        for cid, active in self.condition_state:
            point[("h", cid)] = 1.0 if active else 0.0
        return point


def shared_link_bound(instance: NetworkInstance, src: str, dst: str) -> int:
    """Largest number of (src, dst) tunnels sharing any single link."""
    tunnels = instance.tunnels_for(src, dst)
    counts: dict[str, int] = {}
    for t in tunnels:
        for e in set(t.path):
            counts[e] = counts.get(e, 0) + 1
    return max(counts.values(), default=0)


def build_ffc_polytope(instance: NetworkInstance, k: int) -> FailurePolytope:
    """Per-pair budget rows: at most k * p_st of a pair's tunnels fail.

    Pairs without tunnels contribute nothing; their protected constraints
    degenerate to zero reservations downstream.
    """
    poly = FailurePolytope(variables=[("y", t.id) for t in instance.tunnels])
    pairs: dict[tuple[str, str], list] = {}
    for t in instance.tunnels:
        pairs.setdefault((t.src, t.dst), []).append(t)
    for (s, d), tunnels in sorted(pairs.items()):
        p_st = shared_link_bound(instance, s, d)
        poly.add_row({("y", t.id): 1.0 for t in tunnels}, k * p_st, tag=f"ffc:{s}>{d}")
    return poly


def _add_tunnel_rows(poly: FailurePolytope, tunnels: Iterable[Tunnel]) -> None:
    """A tunnel fails iff one of its links does: y >= each x_e, y <= sum x_e."""
    for t in tunnels:
        for e in t.path:
            poly.add_row({("x", e): 1.0, ("y", t.id): -1.0}, 0.0, tag=f"up:{t.id}:{e}")
        poly.add_row({("y", t.id): 1.0, **{("x", e): -1.0 for e in t.path}}, 0.0, tag=f"down:{t.id}")


def build_exact_polytope(instance: NetworkInstance, k: int) -> FailurePolytope:
    """Exact link-to-tunnel coupling under a budget of k link failures.

    A topology without links gets no budget row: it would bound nothing.
    """
    variables: list[Indicator] = [("x", ln.id) for ln in instance.topology.links]
    variables += [("y", t.id) for t in instance.tunnels]
    poly = FailurePolytope(variables=variables)
    if instance.topology.links:
        poly.add_row({("x", ln.id): 1.0 for ln in instance.topology.links}, float(k), tag="budget")
    _add_tunnel_rows(poly, instance.tunnels)
    return poly


def reject_contradictions(conditions: Iterable[Condition]) -> None:
    """Raise ValueError for a condition listing a link as both alive and dead."""
    for cond in conditions:
        if cond.alive_links & cond.dead_links:
            raise ValueError(f"condition {cond.id} lists a link as both alive and dead")


def build_hint_polytope(instance: NetworkInstance, k: int,
                        conditions: list[Condition]) -> FailurePolytope:
    """Exact polytope extended with condition indicators.

    A condition holds when its alive set survived and its dead set failed.
    Three kinds of row pin h at integral points: h <= 1 - x_e per alive link,
    h <= x_e per dead link, and a floor h >= 1 - (alive failed) - (dead
    survived).  For one dead link alone, that is h = x_e.
    """
    reject_contradictions(conditions)
    poly = build_exact_polytope(instance, k)
    for cond in conditions:
        h = ("h", cond.id)
        poly.variables.append(h)
        for e in sorted(cond.alive_links):
            poly.add_row({h: 1.0, ("x", e): 1.0}, 1.0, tag=f"hint-alive:{cond.id}:{e}")
        for e in sorted(cond.dead_links):
            poly.add_row({h: 1.0, ("x", e): -1.0}, 0.0, tag=f"hint-dead:{cond.id}:{e}")
        lower = {h: -1.0}
        rhs = -1.0
        for e in sorted(cond.alive_links):
            lower[("x", e)] = -1.0
        for e in sorted(cond.dead_links):
            lower[("x", e)] = 1.0
            rhs += 1.0
        poly.add_row(lower, rhs, tag=f"hint-floor:{cond.id}")
    return poly


def enumerate_patterns(instance: NetworkInstance, k: int,
                       conditions: list[Condition] | None = None) -> list[TunnelFailurePattern]:
    """One integral (y, h) point per scenario of at most k link failures.

    Distinct scenarios may induce identical patterns; both are kept so the
    originating scenario stays attached.  The robust models call this on one
    pair's sub-instance, so the scenario guard (see `enumerate_scenarios`)
    counts that pair's own links, and drop the duplicate patterns per pair.
    """
    conditions = conditions if conditions is not None else list(instance.conditions)
    topo = instance.topology
    # Every scenario fails topology links only, so the tunnels and conditions
    # are checked against the topology once, not per scenario.
    used = [e for t in instance.tunnels for e in t.path]
    used += [e for c in conditions for e in c.alive_links | c.dead_links]
    unknown = [e for e in used if not topo.has_link(e)]
    if unknown:
        raise UnknownLinkError(unknown[0])
    paths = [(t.id, frozenset(t.path)) for t in instance.tunnels]
    out = []
    for sc in enumerate_scenarios(topo, k):
        failed = sc.failed_links
        out.append(TunnelFailurePattern(
            scenario=sc,
            tunnel_failed=tuple((tid, not path.isdisjoint(failed)) for tid, path in paths),
            condition_state=tuple((c.id, c.alive_links.isdisjoint(failed) and c.dead_links <= failed)
                                  for c in conditions),
        ))
    return out
