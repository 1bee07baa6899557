"""Coset growth coefficients and their exact rational generating function.

e(n), the number of accepted words of length n, is counted on the
coarsest ordinary lumping of the acceptor's live states (reachable, not
the sink), in plain integer arithmetic with sparse rows. With d lumped
classes, e(n) = 1_start^T L^n 1 for the d x d lumped count matrix L, so
the growth series is P/Q with deg Q <= d and deg P < d. Its linear
complexity is therefore at most d, and the first 2d coefficients fix the
minimal Q uniquely; Berlekamp-Massey over the rationals reads Q off those
2d terms. By Fatou's lemma P and Q are integral once Q(0) = 1, so no
rescaling is needed. No floating point is used anywhere in this module.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from fractions import Fraction
from typing import Sequence

from .automaton import START, SINK, CosetAutomaton
from .errors import DomainError


# -- transfer counts -----------------------------------------------------------


def _lumped_rows(aut: CosetAutomaton) -> list[list[tuple[int, int]]]:
    """Sparse rows of the coarsest ordinary lumping of the live states.

    Live states are those reachable from START other than the sink, which
    rejects and never leaves, so every live state accepts. The partition
    starts as one class and is refined until all states of a class have the
    same multiset of successor classes (Kemeny-Snell); then counting words
    class by class gives the same totals as state by state. Row c lists
    (target class, number of letters) for class c; START is in class 0.

    The refinement runs over groups of states with equal rows, not over
    states; the sink is a group of its own. Lemma: this gives the same
    classes. Proof: states with equal rows have equal successor multisets
    under every partition, so a refinement that starts from one class
    never separates them, and refining the groups, each weighted by its
    row's successor multiset, makes the same splits round by round. The
    sink stays apart because it is the only rejecting state; a live state
    whose row is all sink is an accepting dead end, and keyed by its row
    it would merge with the sink. A group is reached from START's group
    exactly when it holds a reachable state: a reachable state's row is
    its group's row. So the class count d is the one of the state-by-state
    refinement (`oracle.state_lumping`, the slow twin).
    """
    k = len(aut.alphabet)
    trans = aut.transition
    group = [0] * aut.n_states  # group 0 holds the sink alone
    first = [SINK]  # the first state of each group
    by_row: dict[bytes, int] = {}
    for s in range(aut.n_states):
        if s != SINK:
            g = group[s] = by_row.setdefault(trans[s * k : (s + 1) * k].tobytes(), len(first))
            if g == len(first):
                first.append(s)
    index = {group[START]: 0}
    live = [group[START]]
    succ = []
    for g in live:
        s = first[g]
        out = Counter(map(group.__getitem__, trans[s * k : (s + 1) * k]))
        out.pop(0, None)  # moves to the sink are not counted
        for h in out:
            if h not in index:
                index[h] = len(live)
                live.append(h)
        succ.append([(index[h], mult) for h, mult in out.items()])

    def successor_classes(out: list[tuple[int, int]], cls: list[int]) -> tuple:
        into: Counter = Counter()
        for j, mult in out:
            into[cls[j]] += mult
        return tuple(sorted(into.items()))

    cls = [0] * len(live)
    n_cls = 1
    while True:
        keys: dict[tuple, int] = {}
        new = [
            keys.setdefault((cls[i], successor_classes(out, cls)), len(keys))
            for i, out in enumerate(succ)
        ]
        if len(keys) == n_cls:
            break
        cls, n_cls = new, len(keys)
    return [list(successor_classes(succ[cls.index(c)], cls)) for c in range(n_cls)]


def _count(rows: list[list[tuple[int, int]]], n_max: int) -> list[int]:
    """e(0..n_max): words from class 0, advanced one length at a time."""
    vec = [0] * len(rows)
    vec[0] = 1
    out = []
    for _ in range(n_max + 1):
        out.append(sum(vec))
        nxt = [0] * len(rows)
        for c, row in enumerate(rows):
            v = vec[c]
            if v:
                for t, mult in row:
                    nxt[t] += v * mult
        vec = nxt
    return out


def transfer_counts(aut: CosetAutomaton, n_max: int) -> list[int]:
    """e(0..n_max): the number of accepted words of each length."""
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    return _count(_lumped_rows(aut), n_max)


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
    """Minimal rational form of the growth series, from 2d counted terms.

    Theorem: with d lumped live classes, Berlekamp-Massey on e(0..2d-1)
    returns the lowest-terms denominator Q exactly, and the numerator P is
    (Q * e) mod t^d. Proof: the series is N/det(I - tL) with deg N < d (see
    the module docstring), so its lowest-terms form P/Q, Q(0) = 1, has
    linear complexity L = max(deg Q, deg P + 1) <= d. On 2d >= 2L terms the
    shortest connection polynomial is unique and is Q (Massey 1969), and
    deg P < L <= d. So nothing is left to check against further terms.
    """
    rows = _lumped_rows(aut)
    d = len(rows)
    seq = _count(rows, 2 * d - 1)
    den = poly_trim([int(c) for c in _berlekamp_massey(seq)])
    num = poly_trim(
        [sum(den[i] * seq[n - i] for i in range(min(n + 1, len(den)))) for n in range(d)]
    )
    return RationalSeries(
        numerator=num,
        denominator=den,
        recurrence=tuple(-c for c in den[1:]),
        guard=len(num) - 1 if num else 0,
    )
