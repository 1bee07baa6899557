"""Parabolic substructures and their tail calculus.

A parabolic substructure is selected by one balanced simple d; its divisors
generate the parabolic subgroup H and submonoid N. This module validates the
choice (balance, divisor closure) and provides the machinery the transversal
is built from: the N-tail strip of a positive element, N-reducedness, the
complement w = d^-1 D, the twisted complements w_i = phi^(1-i)(w) and their
products d_k = w_1 ... w_k (which satisfy delta_sub^k * d_k = D^k exactly).
"""

from __future__ import annotations

import dataclasses

from .errors import DomainError, StructureError
from .kernel import (
    Element,
    GarsideTable,
    invert,
    left_orthogonal,
    meet_with_simple,
    multiply,
    normalize,
    simple,
)


@dataclasses.dataclass(frozen=True, eq=False)
class ParabolicData:
    """A validated parabolic substructure (H, N, delta_sub).

    ``improper`` flags the degenerate choice delta_sub = D, where H is the
    whole group. It is accepted everywhere but callers that need a proper
    subgroup (the unbounded-projection certificate) refuse it.
    """

    table: GarsideTable
    delta_sub: int
    div_delta: frozenset[int]
    omega: int
    improper: bool

    @property
    def div_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.div_delta))

    def generator_simples(self) -> tuple[int, ...]:
        """Non-trivial simples of the substructure, the generators of H."""
        return tuple(s for s in self.div_sorted if s != self.table.unit)

    def delta_element(self) -> Element:
        return simple(self.table, self.delta_sub)

    def __repr__(self):
        return f"ParabolicData(delta={self.table.display(self.delta_sub)})"


def make_parabolic(table: GarsideTable, delta_sub: int) -> ParabolicData:
    """Validate delta_sub and assemble the parabolic data.

    Rejects the trivial choice (the unit), unbalanced simples and divisor
    sets that are not closed under the simple product.

    Conjugation by delta_sub needs no check (theorem; Godelle, Parabolic
    subgroups of Garside groups, J. Algebra 2007): it permutes the divisors
    of a balanced simple. For u <= delta_sub let u * u' = delta_sub. By
    balance u' also left-divides delta_sub, say u' * u'' = delta_sub, so
    u * delta_sub = u * u' * u'' = delta_sub * u'' and
    delta_sub^-1 * u * delta_sub = u'', again a divisor of delta_sub. The
    map is injective on a finite set, hence a bijection.
    """
    table.check_simple(delta_sub)
    if delta_sub == table.unit:
        raise StructureError("parabolic: delta must not be the unit")

    n = table.n_simples
    left = {u for u in range(n) if table.left_divides(u, delta_sub)}
    right = {table.lquot(u, delta_sub) for u in left}
    if left != right:
        raise StructureError(
            f"parabolic: {table.display(delta_sub)} is not balanced"
        )
    div = left

    for u in div:
        for v in div:
            w = table.product(u, v)
            if w is not None and w not in div:
                raise StructureError(
                    "parabolic: divisor closure fails at "
                    f"{table.display(u)} * {table.display(v)} = {table.display(w)}"
                )

    return ParabolicData(
        table=table,
        delta_sub=delta_sub,
        div_delta=frozenset(div),
        omega=table.sigma(delta_sub),
        improper=delta_sub == table.delta,
    )


# -- tails ------------------------------------------------------------------


def tail_split(a: Element, p: ParabolicData) -> Element:
    """The N-reduced part c of a positive element a = b * c, b its N-tail.

    Works by iterated head stripping: while the meet x of the remainder with
    delta_sub is non-trivial, strip it as x^-1 * a, which needs no
    divisibility check since x divides a by definition of the meet. The
    stripped simples multiply to b, which no caller needs, so it is not
    built. Each step removes positive grade, so the loop terminates.
    """
    if a.delta_power < 0:
        raise DomainError("tail_split requires a positive element")
    while (x := meet_with_simple(a, p.delta_sub)) != p.table.unit:
        a = multiply(invert(simple(p.table, x)), a)
    return a


def is_n_reduced(a: Element, p: ParabolicData) -> bool:
    """Whether a positive element has trivial meet with delta_sub."""
    if a.delta_power < 0:
        raise DomainError("is_n_reduced requires a positive element")
    return meet_with_simple(a, p.delta_sub) == p.table.unit


# -- twisted complements ------------------------------------------------------


def omega_i(p: ParabolicData, i: int) -> int:
    """The simple w_i = phi^(1-i)(w); w_1 is the complement itself."""
    if i < 1:
        raise DomainError("omega index starts at 1")
    return p.table.phi_pow(p.omega, 1 - i)


def d_k(p: ParabolicData, k: int) -> Element:
    """The product w_1 w_2 ... w_k; equal to delta_sub^-k * D^k.

    Theorem: the word w_1 ... w_k is already left greedy, so one normaliser
    pass over it makes no transfer and only drops unit letters (all of them
    for the improper parabolic, whose complement is the unit). Proof:
    sigma commutes with phi and sigma(w) = sigma(sigma(delta_sub)) =
    phi^-1(delta_sub), so sigma(w_i) meet w_(i+1) = phi^-i(delta_sub meet w).
    Let x = delta_sub meet w. Then delta_sub x <= delta_sub w = D is simple,
    and a product of divisors of delta_sub that is simple divides delta_sub
    (divisor closure), so grade(delta_sub) + grade(x) <= grade(delta_sub)
    and x = 1.
    """
    if k < 0:
        raise DomainError("d_k requires k >= 0")
    return normalize(p.table, [(omega_i(p, i), 1) for i in range(1, k + 1)])


# -- membership ---------------------------------------------------------------


def element_in_subgroup(x: Element, p: ParabolicData) -> bool:
    """Whether x lies in the parabolic subgroup H.

    Both positive parts of the left orthogonal form of an H-element have all
    their greedy factors among the divisors of delta_sub, and conversely, so
    the test is a scan of two factor sequences.
    """
    b, a = left_orthogonal(x)
    for part in (b, a):
        for u in part.positive_factors():
            if u not in p.div_delta:
                return False
    return True

