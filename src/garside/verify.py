"""Oracle agreement suite behind the `verify` CLI subcommand.

Each check recomputes a kernel result with the brute-force oracles and
compares exactly. `quick` keeps radii small enough for interactive use;
`full` matches the scale of the acceptance tests.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable

from . import kernel as K
from . import oracle as O
from .automaton import build_automaton, enumerate_accepted, word_to_element
from .budget import Budget
from .cosets import coset_length, coset_representative, is_hn_reduced, projection
from .growth import transfer_counts
from .parabolic import make_parabolic, tail
from .structures import build_braid, build_dihedral, build_free_abelian, validate_table


@dataclasses.dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _signed_words(table, max_len):
    letters = [
        (s, e) for s in range(table.n_simples) if s != table.unit for e in (1, -1)
    ]
    for length in range(max_len + 1):
        yield from itertools.product(letters, repeat=length)


def run_verification(level: str = "quick") -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError("level must be quick or full")
    full = level == "full"
    budget = Budget()
    results: list[CheckResult] = []

    def check(name: str, fn: Callable[[], str]) -> None:
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))

    def builtin_tables():
        yield build_braid(3)
        yield build_dihedral(4)
        yield build_free_abelian(2)
        if full:
            yield build_braid(4)
            yield build_dihedral(3)
            yield build_free_abelian(3)

    def check_validators() -> str:
        count = 0
        for table in builtin_tables():
            violations = validate_table(table)
            assert not violations, f"{table.name}: {violations[:3]}"
            count += 1
        return f"{count} built-in tables valid"

    check("table-axioms", check_validators)

    def check_normal_forms() -> str:
        count = 0
        for table in builtin_tables():
            max_len = 3 if full else 2
            for word in _signed_words(table, max_len):
                got = K.normalize(table, word)
                want = O.canonical_key(table, word)
                assert (got.delta_power, got.body) == want, f"{table.name}: {word}"
                count += 1
        return f"{count} words agree with the brute-force normal form"

    check("normal-forms", check_normal_forms)

    def check_lengths() -> str:
        count = 0
        for table in builtin_tables():
            radius = 3 if full else 2
            ball = O.bfs_lengths(table, radius, budget)
            for x, dist in ball.dist.items():
                assert x.length() == dist, f"{table.name}: {x}"
                count += 1
        return f"{count} ball elements match BFS distances"

    check("length-formula", check_lengths)

    def parabolic_cases():
        t3 = build_braid(3)
        yield t3, t3.simples.index("a")
        i4 = build_dihedral(4)
        yield i4, i4.simples.index("s")
        if full:
            z2 = build_free_abelian(2)
            yield z2, z2.simples.index("x")

    def check_tails() -> str:
        count = 0
        for table, d_sub in parabolic_cases():
            p = make_parabolic(table, d_sub)
            ball = O.bfs_lengths(table, 3 if full else 2, budget)
            for x in ball.dist:
                if x.delta_power < 0:
                    continue
                got = tail(x, p)
                want = O.brute_tail(x, p.div_sorted, budget)
                assert got == want, f"{table.name}: tail({x})"
                count += 1
        return f"{count} tails agree with the divisor-set definition"

    check("tails", check_tails)

    def check_transversal() -> str:
        count = 0
        for table, d_sub in parabolic_cases():
            p = make_parabolic(table, d_sub)
            radius = 3 if full else 2
            part = O.brute_coset_partition(table, p.div_sorted, radius, budget)
            for cls in part.classes:
                reps = {coset_representative(x, p) for x in cls.members}
                assert len(reps) == 1, f"{table.name}: split class {cls.members[:3]}"
                (rep,) = reps
                assert rep.length() == cls.min_length, f"{table.name}: {rep}"
                count += 1
        return f"{count} coset classes have one representative of minimal length"

    check("transversal", check_transversal)

    def check_automaton() -> str:
        count = 0
        for table, d_sub in parabolic_cases():
            p = make_parabolic(table, d_sub)
            aut = build_automaton(table, p)
            radius = 3 if full else 2
            ball = O.bfs_lengths(table, radius, budget)
            for n in range(radius + 1):
                words = enumerate_accepted(aut, n)
                image = {word_to_element(aut, w) for w in words}
                assert len(image) == len(words), f"{table.name}: n={n} not injective"
                expected = {
                    x for x in ball.elements_of_length(n) if is_hn_reduced(x, p)
                }
                assert image == expected, f"{table.name}: n={n} image mismatch"
                count += len(words)
        return f"{count} accepted words map onto the reduced elements"

    check("automaton", check_automaton)

    def check_growth() -> str:
        details = []
        for table, d_sub in parabolic_cases():
            p = make_parabolic(table, d_sub)
            aut = build_automaton(table, p)
            radius = 3 if full else 2
            part = O.brute_coset_partition(table, p.div_sorted, radius, budget)
            counts = part.counts_by_length(radius)
            series = transfer_counts(aut, radius)
            assert series == counts, f"{table.name}: {series} != {counts}"
            details.append(f"{table.name}:{counts}")
        return "; ".join(details)

    check("growth-counts", check_growth)

    def check_projections() -> str:
        t3 = build_braid(3)
        p = make_parabolic(t3, t3.simples.index("a"))
        ball = O.bfs_lengths(t3, 2, budget)
        count = 0
        for x in sorted(ball.dist, key=K.Element.sort_key):
            got = projection(x, p, budget=budget)
            radius = 2 * coset_length(x, p) + 2
            want, dist = O.brute_projection(x, p.div_sorted, radius, budget)
            assert set(got.members) == want, f"projection({x})"
            assert got.distance == dist, f"distance({x})"
            count += 1
        return f"{count} projections agree with the brute-force scan"

    check("projections", check_projections)

    return results
