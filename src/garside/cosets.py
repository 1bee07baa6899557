"""Minimal-length coset representatives and projections onto a parabolic.

A group element is reduced for the right-coset structure when its right
D-form a * D^p has an N-reduced positive part and either p = 0, or p < 0 and
the complement w does not left-divide a. These reduced elements form a
transversal of H in G, one per right-coset, and each has minimal length in
its coset; `coset_representative` computes the representative
constructively. On top of that sit the metric operations: the projection
of an element onto H, read off the shortest elements of its coset, its
diameter, the fellow-projection audit and the certificate that projections
are unbounded. Membership needs no search: proj(x) = {h in H : lg(h^-1 x) =
lg(Hx)}, because h^-1 x runs over Hx as h runs over H.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from .budget import Budget, ensure_budget
from .errors import BudgetExceededError, DomainError, StructureError
from .kernel import (
    Element,
    GarsideTable,
    conjugate_by_delta,
    delta_power,
    format_element,
    format_letter,
    has_left_divisor,
    identity,
    invert,
    may_follow,
    multiply,
    right_delta_positive_part,
    simple,
    strip_left_simple,
)
from .parabolic import (
    ParabolicData,
    d_k,
    element_in_subgroup,
    is_n_reduced,
    tail_split,
)


def is_hn_reduced(x: Element, p: ParabolicData) -> bool:
    """Membership test for the transversal, straight from the definition."""
    a = right_delta_positive_part(x)
    if not is_n_reduced(a, p):
        return False
    power = x.delta_power
    if power == 0:
        return True
    return power < 0 and not has_left_divisor(a, p.omega)


def coset_representative(x: Element, p: ParabolicData) -> Element:
    """The reduced representative of the coset H x.

    Write x = a * D^-q with q = 0 for x positive, strip the N-tail of a once,
    and while q >= 1 and the complement w left-divides the remainder c,
    absorb one factor of delta_sub into H: c = w c' becomes phi(c'), and q
    drops by one. That the result is reduced and in H x is the paper's
    transversal theorem, so it is not re-checked here.

    Lemma: phi(c') is N-reduced again, so one tail strip suffices. Proof:
    let 1 != u <= delta_sub with u <= phi(c'), and y = u\\delta_sub, so
    y != delta_sub. From u y w = delta_sub w = D follows w phi^-1(u) =
    sigma(y), and phi^-1(u) <= c' gives sigma(y) <= w c' = c. By balance
    y <=_L delta_sub, so z = y\\delta_sub != 1 divides delta_sub, and
    y z = delta_sub <= D = y sigma(y) gives z <= sigma(y) <= c, against
    delta_sub meet c = 1.
    """
    q = max(0, -x.delta_power)
    c = tail_split(right_delta_positive_part(x) if q else x, p)
    while q and has_left_divisor(c, p.omega):
        c = conjugate_by_delta(strip_left_simple(c, p.omega), 1)
        q -= 1
    return multiply(c, delta_power(x.table, -q)) if q else c


def coset_length(x: Element, p: ParabolicData) -> int:
    """Minimal word length over the coset H x."""
    return coset_representative(x, p).length()


# -- shortest coset elements and projections ---------------------------------


def _ball(
    table: GarsideTable, simples: Sequence[int], radius: int, budget: Budget
) -> list[Element]:
    """The ball of the given radius over the signed letters of `simples`.

    Theorem: over every non-unit simple of G, or of div(delta_sub) for a
    parabolic H, this yields {h in H : lg(h) <= radius} (H = G in the first
    case; lg is the length of G), each element once, in length order, and
    the letter count of its word is `length()`. Proof: the walk extends each
    word by the letters `kernel.may_follow` admits, so it lists each
    symmetric greedy word over these letters once, from its prefix. That
    word is geodesic (Charney, Math. Ann. 1995; Dehornoy et al., Foundations
    of Garside Theory), and for h in H it uses letters of H only (Godelle,
    J. Algebra 2007; see `element_in_subgroup`). So lg_H = lg on H, too.
    The budget is charged |letters| per element shorter than the radius,
    the edge count of a BFS.
    """
    letters = [(s, e) for s in simples for e in (1, -1)]
    gens = _signed_generators(table, simples)
    steps = [
        [(j, gens[j]) for j, v in enumerate(letters) if may_follow(table, u, v)]
        for u in letters
    ]
    ball = [identity(table)]
    frontier = [(identity(table), list(enumerate(gens)))]
    for _ in range(radius):
        budget.charge(len(letters) * len(frontier))
        frontier = [(multiply(x, g), steps[j]) for x, after in frontier for j, g in after]
        ball.extend(y for y, _ in frontier)
    return ball


def _signed_generators(table: GarsideTable, simples: Iterable[int]) -> list[Element]:
    """Each simple followed by its inverse: the order of the signed letters."""
    return [g for s in simples for g in (simple(table, s), invert(simple(table, s)))]


@dataclasses.dataclass(frozen=True)
class ProjectionSet:
    """The nearest H-elements to a base element, with their common distance."""

    base: Element
    members: tuple[Element, ...]
    distance: int

    def diameter(self) -> int:
        """Largest pairwise distance within the members."""
        best = 0
        for i, b1 in enumerate(self.members):
            for b2 in self.members[i + 1 :]:
                best = max(best, multiply(invert(b1), b2).length())
        return best


def projection(x: Element, p: ParabolicData, budget: Budget | None = None) -> ProjectionSet:
    """Projection of x onto H: x * gamma^-1 over the shortest coset elements.

    With theta the representative, every shortest element is gamma = beta *
    theta with beta in H, and lg(beta) <= lg(beta theta) + lg(theta^-1) =
    2 lg(theta), lg the length of G. `_ball` over div(delta_sub) yields
    exactly these beta, each once (theorem there), so the scan is complete.
    The members are x gamma^-1 = h beta^-1 with h = x theta^-1, and beta ->
    h beta^-1 is injective by cancellation, so they are distinct unchecked.
    """
    theta = coset_representative(x, p)
    level = theta.length()
    h = multiply(x, invert(theta))
    ball = _ball(p.table, p.generator_simples(), 2 * level, ensure_budget(budget))
    members = [multiply(h, invert(b)) for b in ball if multiply(b, theta).length() == level]
    return ProjectionSet(x, tuple(sorted(members, key=Element.sort_key)), level)


def projection_diameter(x: Element, p: ParabolicData, budget: Budget | None = None) -> int:
    """Largest pairwise distance within the projection of x onto H."""
    return projection(x, p, budget).diameter()


# -- fellow projection audit --------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AuditRow:
    """One audited triple: the best partner for beta across one edge."""

    alpha: Element
    letter: tuple[int, int]
    beta: Element
    best_partner: Element
    distance: int


@dataclasses.dataclass
class FellowAuditReport:
    """Outcome of the fellow-projection audit up to a length bound."""

    max_len: int
    bound: int
    k_observed: int
    witness: AuditRow | None
    rows: list[AuditRow]
    partial: bool

    @property
    def passed(self) -> bool:
        return not self.partial and self.k_observed <= self.bound

    def summary(self) -> str:
        state = "PASS" if self.passed else ("PARTIAL" if self.partial else "FAIL")
        return (
            f"fellow-projection audit: K_obs = {self.k_observed} "
            f"(bound {self.bound}), {len(self.rows)} rows, {state}"
        )


def fellow_projection_audit(
    p: ParabolicData,
    max_len: int,
    bound: int = 5,
    budget: Budget | None = None,
) -> FellowAuditReport:
    """Audit the fellow-projection property over a ball of the group.

    For every alpha of length at most max_len and every signed letter u,
    both directions of the edge (alpha, alpha u) are checked: each member of
    one projection set must have a partner in the other within the bound.
    The worst distance observed and its witness are reported. If the node
    budget runs out the report is returned flagged as partial.
    Each edge is audited from its end that sorts first, as the loop reaches
    it first; both directions read one distance table, since lg(a^-1 b) =
    lg(b^-1 a), and take the first nearest partner.
    """
    if max_len < 0:
        raise DomainError("the audit radius must be at least 0")
    if bound < 0:
        raise DomainError("the distance bound must be at least 0")
    budget = ensure_budget(budget)
    t = p.table
    simples = [s for s in range(t.n_simples) if s != t.unit]
    letters = [(s, e) for s in simples for e in (1, -1)]
    steps = list(zip(letters, _signed_generators(t, simples)))

    rows: list[AuditRow] = []
    k_obs = 0
    witness: AuditRow | None = None
    partial = False

    proj_cache: dict[Element, tuple[Element, ...]] = {}

    def proj(alpha: Element) -> tuple[Element, ...]:
        got = proj_cache.get(alpha)
        if got is None:
            got = projection(alpha, p, budget).members
            proj_cache[alpha] = got
        return got

    try:
        ball = _ball(t, simples, max_len, budget)
        for alpha in sorted(ball, key=Element.sort_key):
            pa = proj(alpha)
            key = alpha.sort_key()
            for (s, e), step in steps:
                alpha_u = multiply(alpha, step)
                if alpha_u.length() <= max_len and alpha_u.sort_key() < key:
                    continue
                pb = proj(alpha_u)
                dist = [[multiply(invert(a), b).length() for b in pb] for a in pa]
                for base, letter, src, dst, dists in (
                    (alpha, (s, e), pa, pb, dist),
                    (alpha_u, (s, -e), pb, pa, list(zip(*dist))),
                ):
                    for beta, ds in zip(src, dists):
                        budget.charge()
                        distance = min(ds)
                        partner = dst[ds.index(distance)]
                        row = AuditRow(base, letter, beta, partner, distance)
                        rows.append(row)
                        if distance > k_obs:
                            k_obs = distance
                            witness = row
    except BudgetExceededError:
        partial = True

    return FellowAuditReport(
        max_len=max_len,
        bound=bound,
        k_observed=k_obs,
        witness=witness,
        rows=rows,
        partial=partial,
    )


def audit_rows_csv(report: FellowAuditReport) -> str:
    """Machine-readable audit rows: alpha, u, beta, best_beta_prime, distance."""
    lines = ["alpha,u,beta,best_beta_prime,distance"]
    for row in report.rows:
        t = row.alpha.table
        lines.append(
            ",".join(
                (
                    format_element(row.alpha),
                    format_letter(t, row.letter),
                    format_element(row.beta),
                    format_element(row.best_partner),
                    str(row.distance),
                )
            )
        )
    return "\n".join(lines) + "\n"


# -- unbounded projections ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class UnboundedProjectionCertificate:
    """Witness that no bound K survives: an element whose projection spreads."""

    k: int
    element: Element
    contains_identity: bool
    contains_delta_neg: bool
    element_length: int
    spread: int

    @property
    def verified(self) -> bool:
        return (
            self.contains_identity
            and self.contains_delta_neg
            and self.element_length == self.k
            and self.spread == self.k
        )


def bounded_projection_witness(
    p: ParabolicData, k_bound: int, budget: Budget | None = None
) -> UnboundedProjectionCertificate:
    """Certificate that K-bounded projections fail, for K = k_bound.

    Uses d = w_1 ... w_(K+1), whose projection holds 1 and delta_sub^-(K+1),
    which are K+1 > K apart. Membership is proj(x) = {h in H : lg(h^-1 x) =
    lg(Hx)} (h^-1 x runs over Hx as h runs over H), so nothing is searched
    and `budget` is never charged. The improper parabolic is refused: its
    complement is trivial, so every d_k is the identity.
    """
    if p.improper:
        raise DomainError(
            "the whole group has no proper projections; pick a proper parabolic"
        )
    if k_bound < 1:
        raise DomainError("the bound must be at least 1")
    k = k_bound + 1
    d = d_k(p, k)
    level = coset_length(d, p)
    delta_neg = p.delta_element() ** (-k)
    has_one, has_delta_neg = (
        element_in_subgroup(y, p) and multiply(invert(y), d).length() == level
        for y in (identity(p.table), delta_neg)
    )
    cert = UnboundedProjectionCertificate(
        k=k,
        element=d,
        contains_identity=has_one,
        contains_delta_neg=has_delta_neg,
        element_length=d.length(),
        spread=delta_neg.length(),
    )
    if not cert.verified:
        raise StructureError("unbounded-projection certificate failed verification")
    return cert
