"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Every criterion prints a single pass/fail line with its runtime and is
asserted against its stated wall-clock limit. All comparisons are exact;
there are no numeric tolerances anywhere.
"""

import time
from contextlib import contextmanager


from garside import kernel as K
from garside import oracle as O
from garside.automaton import build_automaton, enumerate_accepted
from garside.budget import Budget
from garside.cosets import (
    bounded_projection_witness,
    coset_length,
    coset_representative,
    fellow_projection_audit,
    is_hn_reduced,
    projection,
    projection_diameter,
)
from garside.growth import rational_series, transfer_counts
from garside.parabolic import d_k, is_n_reduced, make_parabolic
from garside.structures import build_braid, build_dihedral, build_free_abelian

from conftest import positives_up_to, signed_words


@contextmanager
def criterion(number: int, limit_s: float, label: str):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        state = "PASS" if failed is None and elapsed < limit_s else "FAIL"
        print(f"criterion {number} {state} {elapsed:.2f}s (limit {limit_s:.0f}s): {label}")
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s"


def test_criterion_1_normal_form_soundness(b3):
    with criterion(1, 10, "normal forms of all signed 3-strand words of length <= 4"):
        t = b3.table
        count = 0
        for word in signed_words(t, 4):
            x = K.normalize(t, word)
            assert (x.delta_power, x.body) == O.canonical_key(t, word)
            for u, v in zip(x.body, x.body[1:]):
                assert t.meet_l(t.sigma(u), v) == t.unit
            count += 1
        assert count == 11111


def test_criterion_2_length_formula():
    with criterion(2, 60, "length formula vs BFS on three desk-scale balls"):
        budget = Budget(10**7)
        for table, radius in (
            (build_braid(3), 4),
            (build_dihedral(4), 3),
            (build_braid(4), 3),
        ):
            ball = O.bfs_lengths(table, radius, budget)
            assert ball.dist
            for x, dist in ball.dist.items():
                assert x.length() == dist


def test_criterion_3_transversal():
    with criterion(3, 60, "representative fibers equal the oracle coset partition"):
        budget = Budget(10**7)
        for table, name in ((build_braid(3), "a"), (build_dihedral(4), "s")):
            p = make_parabolic(table, table.simples.index(name))
            part = O.brute_coset_partition(table, p.div_sorted, 3, budget)
            seen_reps = set()
            for cls in part.classes:
                reps = {coset_representative(x, p) for x in cls.members}
                assert len(reps) == 1
                (rep,) = reps
                assert rep not in seen_reps
                seen_reps.add(rep)
                assert rep.length() == cls.min_length
                assert rep in cls.members or rep.length() > part.radius
                for x in cls.members:
                    assert coset_length(x, p) == cls.min_length


def test_criterion_4_automaton_bijection():
    with criterion(4, 30, "accepted words of length n = 0..4 match the transversal"):
        budget = Budget(10**7)
        for table, name in ((build_braid(3), "a"), (build_dihedral(4), "s")):
            p = make_parabolic(table, table.simples.index(name))
            aut = build_automaton(table, p)
            ball = O.bfs_lengths(table, 4, budget)
            for n in range(5):
                words = enumerate_accepted(aut, n)
                image = [K.normalize(aut.table, w) for w in words]
                assert len(set(image)) == len(words)
                for w, el in zip(words, image):
                    assert el.length() == n
                    assert O.element_to_word(aut, el) == w
                assert set(image) == {
                    x for x in ball.elements_of_length(n) if is_hn_reduced(x, p)
                }


def test_criterion_5_growth_series():
    with criterion(5, 10, "growth coefficients, rational series and closed forms"):
        budget = Budget(10**7)
        b3 = build_braid(3)
        p3 = make_parabolic(b3, b3.simples.index("a"))
        aut3 = build_automaton(b3, p3)
        counts = transfer_counts(aut3, 5)
        part = O.brute_coset_partition(b3, p3.div_sorted, 5, budget)
        assert counts == part.counts_by_length(5) == [1, 4, 10, 24, 56, 128]

        i24 = build_dihedral(4)
        p24 = make_parabolic(i24, i24.simples.index("s"))
        aut24 = build_automaton(i24, p24)
        part24 = O.brute_coset_partition(i24, p24.div_sorted, 4, budget)
        assert transfer_counts(aut24, 4) == part24.counts_by_length(4)

        for aut in (aut3, aut24):
            rs = rational_series(aut)
            assert rs.expand(20) == transfer_counts(aut, 20)
            assert rs.denominator[0] == 1
            assert O.poly_divides(rs.denominator, O.reversed_charpoly(O.reachable_count_matrix(aut)))

        z2 = build_free_abelian(2)
        pz = make_parabolic(z2, z2.simples.index("x"))
        rs = rational_series(build_automaton(z2, pz))
        assert rs.numerator == (1, 1) and rs.denominator == (1, -1)


def test_criterion_6_unbounded_projections(b3, b3_parabolic):
    with criterion(6, 120, "projection spread certificates for k = 1..4"):
        t, p = b3.table, b3_parabolic
        budget = Budget(10**7)
        one = K.identity(t)
        for k in range(1, 5):
            d = d_k(p, k)
            assert d.length() == k
            assert coset_length(d, p) == k
            proj = projection(d, p, budget=budget)
            delta_neg = p.delta_element() ** (-k)
            assert one in proj.members
            assert delta_neg in proj.members
            assert delta_neg.length() == k
            assert projection_diameter(d, p, budget=budget) >= k
        for k_bound in (1, 2, 3):
            assert bounded_projection_witness(p, k_bound, budget).verified


def test_criterion_7_fellow_projections(b3, b3_parabolic):
    with criterion(7, 600, "fellow-projection audit over the radius-2 ball"):
        report = fellow_projection_audit(b3_parabolic, 2, bound=5, budget=Budget())
        assert not report.partial, "budget exhausted"
        assert report.k_observed <= 5
        assert report.passed
        assert report.rows


def test_criterion_8_structural_sweeps(b3, b3_parabolic, b3_ball4):
    with criterion(8, 120, "structural property sweeps, exhaustive over small ranges"):
        t, p = b3.table, b3_parabolic
        budget = Budget(10**7)
        omega_el = K.simple(t, p.omega)

        n_ball = sorted(
            O.subgroup_ball(t, p.generator_simples(), 2, budget),
            key=K.Element.sort_key,
        )
        n_monoid_short = [x for x in n_ball if x.delta_power >= 0 and x.length() <= 2]

        # Complement splits off: trivial meet, join is the plain product.
        for b in n_monoid_short:
            assert O.brute_meet(b, omega_el).is_identity
            assert O.brute_join(b, omega_el) == K.multiply(b, omega_el)

        # Sandwiching by positives never shortens.
        shorts = positives_up_to(b3_ball4, 2)
        for a in shorts:
            for b1 in shorts:
                for b2 in shorts:
                    assert K.multiply(K.multiply(b1, a), b2).length() >= a.length()

        # Twisted complement products stay reduced and add length.
        reduced_short = [
            c for c in positives_up_to(b3_ball4, 2) if is_n_reduced(c, p)
        ]
        for k in range(1, 5):
            base = d_k(p, k)
            for c in reduced_short:
                prod = K.multiply(base, K.conjugate_by_delta(c, -k))
                assert is_n_reduced(prod, p)
                if not K.has_left_divisor(c, p.omega):
                    assert prod.length() == c.length() + k

        # Orthogonal form of beta * positive-representative.
        thetas_pos = [
            x
            for x, dist in b3_ball4.dist.items()
            if dist <= 3 and x.delta_power >= 0 and is_hn_reduced(x, p)
        ]
        betas = n_ball
        for beta in betas:
            b2, b1 = K.left_orthogonal(beta)
            for c in thetas_pos:
                got_b, got_a = K.left_orthogonal(K.multiply(beta, c))
                assert got_b == b2 and got_a == K.multiply(b1, c)

        # Negative representatives keep their D power under N and H multiples.
        thetas_neg = [
            x
            for x, dist in b3_ball4.dist.items()
            if dist <= 4 and x.delta_power <= -1 and is_hn_reduced(x, p)
        ]
        assert thetas_neg
        n_pos = [x for x in n_monoid_short]
        for theta in thetas_neg:
            ppow = -theta.delta_power
            c = K.right_delta_positive_part(theta)
            for b in n_pos:
                assert K.multiply(b, theta).delta_power == -ppow
                if K.has_left_divisor(b, p.delta_sub):
                    continue
                for k in (1, 2):
                    beta = K.multiply(b, p.delta_element() ** -k)
                    z = K.multiply(beta, theta)
                    w = K.multiply(
                        K.multiply(b, d_k(p, k)), K.conjugate_by_delta(c, -k)
                    )
                    assert w.delta_power == 0
                    assert z == K.multiply(w, K.delta_power(t, -(k + ppow)))

        # Right greedy prefixes of a right divisor divide the matching ones.
        positives4 = positives_up_to(b3_ball4, 4)
        for bb in positives4:
            letters_b = [s for s, _ in K.right_greedy_letters(bb)]
            for aa in positives4:
                if K.multiply(bb, K.invert(aa)).delta_power < 0:
                    continue
                letters_a = [s for s, _ in K.right_greedy_letters(aa)]
                m = len(letters_a)
                assert m <= len(letters_b)
                for i in range(1, m + 1):
                    pa = K.normalize(t, [(s, 1) for s in letters_a[-i:]])
                    pb = K.normalize(t, [(s, 1) for s in letters_b[-i:]])
                    assert K.multiply(pb, K.invert(pa)).delta_power >= 0

        # Shortest-coset-element map onto the projection is a bijection; the
        # shortest elements come from a wide scan of H x, not from projection.
        for x, dist in b3_ball4.dist.items():
            if dist > 2:
                continue
            radius = 2 * coset_length(x, p) + 2
            coset = [K.multiply(beta, x) for beta in O.subgroup_ball(t, p.div_sorted, radius, budget)]
            level = min(y.length() for y in coset)
            shortest = [y for y in coset if y.length() == level]
            proj = projection(x, p, budget=budget)
            assert len(proj.members) == len(shortest)
            rebuilt = {K.multiply(x, K.invert(g)) for g in shortest}
            assert rebuilt == set(proj.members)
