"""Minimal-length coset representatives and projections onto a parabolic.

A group element is reduced for the right-coset structure when its right
D-form a * D^p has an N-reduced positive part and either p = 0, or p < 0 and
the complement w does not left-divide a. These reduced elements form a
transversal of H in G, one per right-coset, and each has minimal length in
its coset; `coset_representative` computes the representative
constructively. On top of that sit the metric operations: the projection
of an element onto H, its diameter, the fellow-projection audit and the
certificate that projections are unbounded. proj(x) = {h in H : lg(h^-1 x)
= lg(Hx)}, because h^-1 x runs over Hx as h runs over H. It is an interval
of H, the right divisors in N of one positive element, with no search over
H: one walk, `_walk`, lists both that interval and the audit's ball.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

from .budget import Budget, ensure_budget
from .errors import BudgetExceededError, DomainError, StructureError
from .kernel import (
    Element,
    SignedLetter,
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
    signed_generators,
    simple,
)
from .parabolic import (
    ParabolicData,
    d_k,
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
    drops by one. c' = w^-1 c needs no divisibility check: the loop condition
    has just tested w <= c. That the result is reduced and in H x is the paper's
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
        c = conjugate_by_delta(multiply(invert(simple(x.table, p.omega)), c), 1)
        q -= 1
    return multiply(c, delta_power(x.table, -q)) if q else c


def coset_length(x: Element, p: ParabolicData) -> int:
    """Minimal word length over the coset H x."""
    return coset_representative(x, p).length()


# -- shortest coset elements and projections ---------------------------------


def _walk(
    x0: Element,
    letters: Sequence[SignedLetter],
    radius: int,
    budget: Budget,
    keep: Callable[[Element], bool] | None = None,
) -> list[Element]:
    """x0 y for each symmetric greedy word y of at most `radius` `letters`, once.

    Each word is extended by the letters `kernel.may_follow` admits, so each
    symmetric greedy word comes once, from its prefix, in length order, and
    distinct words are distinct elements. A word with keep(x0 y) false is
    dropped with every word through it. The budget is charged |letters| per
    element extended, that is per listed element shorter than the radius.

    Balls: with x0 = 1, both signs of every non-unit simple of G, or of
    div(delta_sub) for a parabolic H, and no keep rule, this lists {h in H :
    lg(h) <= radius} (H = G in the first case; lg is the length of G), and
    the letter count of its word is `length()`. Proof: that word is geodesic
    (Charney, Math. Ann. 1995; Dehornoy et al., Foundations of Garside
    Theory), and for h in H it uses letters of H only (Godelle, J. Algebra
    2007; see `element_in_subgroup`). So lg_H = lg on H, too. The charge is
    the edge count of a BFS of the same ball.

    Right divisors: with x0 = z positive, the negative letters of
    div(delta_sub), keep = positivity and radius sup z, this lists z e^-1
    once for each e in N+ = H meet G+ with e <=_R z. Proof: by the ball case
    the negative words are those of the e^-1, e in N+, one each, of sup e <=
    sup z letters. The keep rule is prefix-closed: y s^-1 stands for s e,
    and if z (s e)^-1 is positive, so is z e^-1 = z (s e)^-1 s; so every
    prefix of a kept word is kept, and the walk reaches each such e.
    """
    t = x0.table
    gens = [simple(t, s) if e == 1 else invert(simple(t, s)) for s, e in letters]
    steps = [
        [(j, gens[j]) for j, v in enumerate(letters) if may_follow(t, u, v)]
        for u in letters
    ]
    out = [x0]
    frontier = [(x0, list(enumerate(gens)))]
    for _ in range(radius):
        budget.charge(len(letters) * len(frontier))
        frontier = [(multiply(x, g), steps[j]) for x, after in frontier for j, g in after]
        if keep is not None:
            frontier = [(y, after) for y, after in frontier if keep(y)]
        out.extend(y for y, _ in frontier)
    return out


@dataclasses.dataclass(frozen=True)
class ProjectionSet:
    """The nearest H-elements to an element, with their common distance."""

    members: tuple[Element, ...]
    distance: int

    def diameter(self, budget: Budget | None = None) -> int:
        """Largest pairwise distance within the members, one node per pair."""
        budget = ensure_budget(budget)
        best = 0
        for i, b1 in enumerate(self.members):
            b1_inv = invert(b1)
            rest = self.members[i + 1 :]
            budget.charge(len(rest))
            for b2 in rest:
                best = max(best, multiply(b1_inv, b2).length())
        return best


def projection(x: Element, p: ParabolicData, budget: Budget | None = None) -> ProjectionSet:
    """Projection of x onto H: an interval of H, read off one positive element.

    Notation: theta = a D^p is the representative of x (p <= 0, a N-reduced),
    l = lg(theta) = max(-p, sup a), h = x theta^-1, N+ = H meet G+ (generated
    by div(delta_sub)), omega = sigma(delta_sub), and e <=_R y means y e^-1 is
    positive. Every shortest element of H x is beta theta with beta in H, and
    the members are x (beta theta)^-1 = h beta^-1.

    Theorem: with z = D^(l+p) theta^-1, which is positive (its D power is
    l - |body of theta| >= 0),

        proj(x) = {h e^-1 : e in N+, e <=_R z},

    so the nearest points of H to theta, {beta^-1 : lg(beta theta) = l},
    form the interval [c^-1, 1] of H in the prefix order, c the right N-tail
    of z (its largest right divisor in N+). Proof, with these standard
    facts:
    (F1) lg y = max(sup y, -inf y, sup y - inf y) (`Element.length`), so
         lg y <= l iff some j in [0, l] has inf y >= -j and sup y <= l - j.
    (F2) sup y <= m iff D^m y^-1 is positive; so e <=_R z iff sup(e theta)
         <= l + p.
    (F3) For e in N+ and a N-reduced, every N+ prefix of e a divides e
         (Godelle, J. Algebra 2007; `tail_split` rests on it).
    (F4) If y = f^-1 g with f, g positive, f meet g = 1 and f != 1, then
         inf y = -sup f, and sup y = sup g when g != 1 (`left_orthogonal`).
    (F5) N+ is closed under divisors and right lcms, so c exists and
         e <=_R z gives e <=_R c for e in N+.
    Lemma C: e\\omega = omega, i.e. e join omega = e omega, for e in N+. For
    u <= delta_sub let v = delta_sub u delta_sub^-1, again a divisor, since
    conjugation by delta_sub permutes them (`make_parabolic`); then
    u omega = omega phi^-1(v), so omega <= u omega.
    Write u join omega = u y with y <= omega, and let u* u = delta_sub
    (balance). delta_sub y = u*(u join omega) is a multiple of u* omega,
    hence of omega, and of delta_sub. Now delta_sub join omega = D: under
    sigma and phi it reads delta_sub meet_R phi(omega) = 1, where
    phi(omega) delta_sub = D, and a common right divisor r makes r delta_sub
    simple, so r = 1 by divisor closure and grade (as in `d_k`). So D <=
    delta_sub y <= delta_sub omega = D and y = omega; induct over the
    factors of e.
    Lemma A: if p < 0 and e in N+, inf(e theta) = p. Otherwise D <= e a, so
    omega <= e a and e omega = e join omega <= e a by Lemma C: omega <= a,
    which reducedness excludes.
    The interval is nearest: e <=_R z gives sup(e theta) <= l + p (F2) and
    inf(e theta) >= p; (F1) with j = -p gives lg(e theta) <= l, and
    minimality gives equality.
    Nothing else is, for beta = e positive: (F1) gives some j, and j >= -p
    (trivial for p = 0, Lemma A for p < 0). So sup(e theta) <= l + p, and
    e <=_R z by (F2).
    Nor for beta = f^-1 e in left orthogonal form with f != 1 (both parts
    in N+): f meet e a = 1 by (F3), so (F4) and (F1) give lg(beta theta) >=
    sup f - p and, if e a != 1, >= sup f + sup(e a) >= sup f + sup a.
    Either way that is more than l = max(-p, sup a), so beta is never
    nearest.

    The computation: `_walk` from z over the inverse letters of H's
    generators, keeping z e^-1 positive, lists z e^-1 for each e of the
    interval once (theorem there); by (F5) it never needs c. The members,
    distinct by cancellation, are h e^-1 = (h z^-1)(z e^-1), with h z^-1 =
    x D^-(l+p). The budget is charged |generators| per member the walk
    extends, at most |members| * |generators| per projection.
    """
    budget = ensure_budget(budget)
    t = p.table
    theta = coset_representative(x, p)
    level = theta.length()
    power = level + theta.delta_power
    z = multiply(delta_power(t, power), invert(theta))
    letters = [(s, -1) for s in p.generator_simples()]
    # z.length() is sup z, as z is positive.
    walk = _walk(z, letters, z.length(), budget, keep=lambda y: y.delta_power >= 0)
    hz = multiply(x, delta_power(t, -power))
    members = [multiply(hz, y) for y in walk]
    return ProjectionSet(tuple(sorted(members, key=Element.sort_key)), level)


def projection_diameter(x: Element, p: ParabolicData, budget: Budget | None = None) -> int:
    """Largest pairwise distance within the projection of x onto H."""
    budget = ensure_budget(budget)
    return projection(x, p, budget).diameter(budget)


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
    lg(b^-1 a), and take the first nearest partner. The members of alpha's
    projection are inverted once, for all its edges.
    """
    if max_len < 0:
        raise DomainError("the audit radius must be at least 0")
    if bound < 0:
        raise DomainError("the distance bound must be at least 0")
    budget = ensure_budget(budget)
    t = p.table
    simples = [s for s in range(t.n_simples) if s != t.unit]
    letters = [(s, e) for s in simples for e in (1, -1)]
    steps = list(zip(letters, signed_generators(t, simples)))

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
        ball = _walk(identity(t), letters, max_len, budget)
        for alpha in sorted(ball, key=Element.sort_key):
            pa = proj(alpha)
            pa_inv = [invert(a) for a in pa]
            key = alpha.sort_key()
            for (s, e), step in steps:
                alpha_u = multiply(alpha, step)
                if alpha_u.length() <= max_len and alpha_u.sort_key() < key:
                    continue
                pb = proj(alpha_u)
                dist = [[multiply(a_inv, b).length() for b in pb] for a_inv in pa_inv]
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
    and `budget` is never charged. 1 and delta_sub^-(K+1) lie in H by
    construction, so only the length condition is tested. The improper
    parabolic is refused: its complement is trivial, so d_k is the identity.
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
        multiply(invert(y), d).length() == level
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
