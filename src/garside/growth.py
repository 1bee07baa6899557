"""Coset growth coefficients and their exact rational generating function.

e(n), the number of accepted words of length n, comes from powers of the
acceptor's transition-count matrix in plain integer arithmetic. With r
reachable states, e(n) = u^T M^n v for an r x r count matrix M, so the
growth series is P/Q with deg Q <= r and deg P < r. Its linear complexity
is therefore at most r, and the first 2r coefficients fix the minimal Q
uniquely; Berlekamp-Massey over the rationals reads Q off those 2r terms.
By Fatou's lemma P and Q are integral once Q(0) = 1, so no rescaling is
needed. No floating point is used anywhere in this module.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Sequence

from .automaton import START, SINK, CosetAutomaton
from .errors import DomainError, StructureError


# -- transfer counts -----------------------------------------------------------


def _count_matrix(aut: CosetAutomaton) -> list[list[int]]:
    n = aut.n_states
    m = [[0] * n for _ in range(n)]
    n_letters = len(aut.alphabet)
    for state in range(n):
        base = state * n_letters
        for j in range(n_letters):
            m[state][aut.transition[base + j]] += 1
    return m


def transfer_counts(aut: CosetAutomaton, n_max: int) -> list[int]:
    """e(0..n_max): the number of accepted words of each length."""
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    m = _count_matrix(aut)
    n = aut.n_states
    vec = [0] * n
    vec[START] = 1
    out = []
    for _ in range(n_max + 1):
        out.append(sum(vec[s] for s in range(n) if s != SINK))
        vec = [
            sum(vec[s] * m[s][t] for s in range(n) if vec[s])
            for t in range(n)
        ]
    return out


def reachable_states(aut: CosetAutomaton) -> list[int]:
    seen = {START}
    stack = [START]
    n_letters = len(aut.alphabet)
    while stack:
        state = stack.pop()
        base = state * n_letters
        for j in range(n_letters):
            t = aut.transition[base + j]
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return sorted(seen)


# -- polynomials over the integers ----------------------------------------------

Poly = tuple[int, ...]  # coefficient list, ascending powers


def poly_trim(p: Sequence[int]) -> Poly:
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def format_poly(p: Sequence[int]) -> str:
    terms = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag) if i == 0 else f"{mag}*t" if i == 1 else f"{mag}*t^{i}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    sign, body = terms[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


# -- rational series -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RationalSeries:
    """The growth series as numerator/denominator in lowest terms.

    Both polynomials have integer coefficients and the denominator has
    constant term 1. `guard` is the degree of the numerator: taking
    e(m) = 0 for m < 0, e(n) = sum recurrence[i-1] * e(n-i) holds for every
    n > guard, and for no smaller guard.
    """

    numerator: Poly
    denominator: Poly
    recurrence: tuple[int, ...]
    guard: int

    def expand(self, n_max: int) -> list[int]:
        """Taylor coefficients of numerator/denominator, exactly."""
        d = len(self.denominator) - 1
        out: list[int] = []
        for n in range(n_max + 1):
            val = self.numerator[n] if n < len(self.numerator) else 0
            for i in range(1, min(d, n) + 1):
                val -= self.denominator[i] * out[n - i]
            out.append(val)
        return out

    def __str__(self):
        rec = ",".join(str(c) for c in self.recurrence) if self.recurrence else ""
        return (
            f"numerator = {format_poly(self.numerator)}; "
            f"denominator = {format_poly(self.denominator)}; "
            f"recurrence = {rec}; guard = {self.guard}"
        )


def _berlekamp_massey(seq: Sequence[int]) -> list[Fraction]:
    """Shortest connection polynomial C, C[0] = 1, of seq (Massey 1969).

    With L the linear complexity of seq, deg C <= L and
    sum C[i] seq[n-i] = 0 for L <= n < len(seq); C is unique when
    len(seq) >= 2L.
    """
    conn, prev = [Fraction(1)], [Fraction(1)]
    length, shift, prev_disc = 0, 1, Fraction(1)
    for n in range(len(seq)):
        disc = sum(c * seq[n - i] for i, c in enumerate(conn))
        if disc:
            coef = disc / prev_disc
            new = conn + [Fraction(0)] * (len(prev) + shift - len(conn))
            for i, b in enumerate(prev):
                new[i + shift] -= coef * b
            if 2 * length <= n:
                prev, prev_disc, length, shift = conn, disc, n + 1 - length, 0
            conn = new
        shift += 1
    return conn


def rational_series(aut: CosetAutomaton) -> RationalSeries:
    """Minimal rational form of the growth series.

    With r reachable states the series has linear complexity at most r (see
    the module docstring), so Berlekamp-Massey on e(0..2r-1) returns the
    lowest-terms denominator Q, and the numerator is (Q * e) mod t^r. The
    expansion is then compared with e(0..2r+1); a mismatch means the counts
    broke that bound and raises StructureError.
    """
    r = len(reachable_states(aut))
    seq = transfer_counts(aut, 2 * r + 1)
    den = poly_trim([int(c) for c in _berlekamp_massey(seq[: 2 * r])])
    num = poly_trim(
        [sum(den[i] * seq[n - i] for i in range(min(n + 1, len(den)))) for n in range(r)]
    )
    series = RationalSeries(
        numerator=num,
        denominator=den,
        recurrence=tuple(-c for c in den[1:]),
        guard=len(num) - 1 if num else 0,
    )
    if series.expand(2 * r + 1) != seq:
        raise StructureError("rational form disagrees with the transfer counts")
    return series
