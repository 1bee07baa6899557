"""Transversal, minimal lengths, projections, audits and certificates."""

import random
from collections import Counter

import pytest

from garside import cosets as C
from garside import kernel as K
from garside import oracle as O
from garside.budget import Budget
from garside.cosets import (
    audit_rows_csv,
    bounded_projection_witness,
    coset_length,
    coset_representative,
    fellow_projection_audit,
    is_hn_reduced,
    projection,
    projection_diameter,
)
from garside.errors import BudgetExceededError, DomainError
from garside.parabolic import d_k, element_in_subgroup, is_n_reduced, make_parabolic, tail_split
from garside.structures import table_from_descriptor

from conftest import THEOREM_STRUCTURES, all_parabolics, any_table, positives_up_to


def transversal_elements(ball, p, max_len):
    return [
        x
        for x, d in sorted(ball.dist.items(), key=lambda kv: kv[0].sort_key())
        if d <= max_len and is_hn_reduced(x, p)
    ]


def subgroup_elements(p, max_len):
    return sorted(
        O.subgroup_ball(p.table, p.generator_simples(), max_len, Budget(10**7)),
        key=K.Element.sort_key,
    )


# -- reducedness -------------------------------------------------------------


def test_is_hn_reduced_examples(b3, b3_parabolic):
    t, p = b3.table, b3_parabolic
    assert is_hn_reduced(K.identity(t), p)
    assert is_hn_reduced(K.simple(t, b3.ba), p)
    assert not is_hn_reduced(K.simple(t, b3.ab), p)
    b_dinv = K.normalize(t, [(b3.b, 1), (b3.D, -1)])
    assert b_dinv == K.invert(K.simple(t, b3.ba))
    assert is_hn_reduced(b_dinv, p)
    a_dinv = K.normalize(t, [(b3.a, 1), (b3.D, -1)])
    assert not is_hn_reduced(a_dinv, p)
    assert not is_hn_reduced(K.delta_power(t, 1), p)  # positive D power


# -- representatives -----------------------------------------------------------


def test_representative_examples(b3, b3_parabolic):
    t, p = b3.table, b3_parabolic
    assert coset_representative(K.simple(t, b3.a), p).is_identity
    assert coset_representative(K.simple(t, b3.ab), p) == K.simple(t, b3.b)
    binv = K.invert(K.simple(t, b3.b))
    assert coset_representative(binv, p) == K.normalize(t, [(b3.b, 1), (b3.D, -1)])
    assert coset_representative(K.delta_power(t, 1), p) == K.simple(t, b3.ba)
    assert coset_representative(K.delta_power(t, 2), p) == d_k(p, 2)


def test_representative_fixes_transversal(b3, b3_parabolic, b3_ball4):
    for theta in transversal_elements(b3_ball4, b3_parabolic, 3):
        assert coset_representative(theta, b3_parabolic) == theta


def test_representative_is_coset_invariant(b3, b3_parabolic, b3_ball4):
    p = b3_parabolic
    betas = subgroup_elements(p, 2)
    for x, d in b3_ball4.dist.items():
        if d > 2:
            continue
        rep = coset_representative(x, p)
        for beta in betas:
            assert coset_representative(K.multiply(beta, x), p) == rep


def test_representative_is_reduced_and_in_the_coset():
    # The transversal theorem, which coset_representative relies on without
    # re-checking: theta is reduced and x theta^-1 lies in H, on every
    # proper parabolic of the census for random words and a ball of G.
    rng = random.Random(20261019)
    for p in proper_parabolics(CENSUS_STRUCTURES):
        t = p.table
        simples = [s for s in range(t.n_simples) if s != t.unit]
        letters = [(s, e) for s in simples for e in (1, -1)]
        xs = [
            K.normalize(t, [rng.choice(letters) for _ in range(rng.randint(0, 12))])
            for _ in range(40)
        ]
        xs += C._walk(K.identity(t), letters, 2 if len(simples) < 20 else 1, Budget(10**7))
        for x in xs:
            theta = coset_representative(x, p)
            assert is_hn_reduced(theta, p), (p, x)
            assert element_in_subgroup(K.multiply(x, K.invert(theta)), p), (p, x)


def oracle_partition_agrees(table, p, radius):
    part = O.brute_coset_partition(table, p.div_sorted, radius, Budget(10**7))
    for cls in part.classes:
        reps = {coset_representative(x, p) for x in cls.members}
        assert len(reps) == 1, cls.members[:4]
        (rep,) = reps
        assert rep in cls.members or rep.length() > radius
        assert rep.length() == cls.min_length
        assert coset_length(cls.members[0], p) == cls.min_length
    return part


def test_transversality_b3(b3, b3_parabolic):
    part = oracle_partition_agrees(b3.table, b3_parabolic, 3)
    assert part.counts_by_length(3) == [1, 4, 10, 24]


def test_transversality_i24(i24, i24_parabolic):
    part = oracle_partition_agrees(i24, i24_parabolic, 3)
    assert part.counts_by_length(3) == [1, 6, 24, 90]


def test_coset_length_examples(b3, b3_parabolic):
    t, p = b3.table, b3_parabolic
    assert coset_length(K.simple(t, b3.a) ** 2, p) == 0
    assert coset_length(K.delta_power(t, 1), p) == 1
    for k in range(1, 5):
        assert coset_length(d_k(p, k), p) == k


def test_coset_key_equality(b3, b3_parabolic):
    t, p = b3.table, b3_parabolic
    x = K.delta_power(t, 1)
    y = K.simple(t, b3.ba)
    # The reduced representative is the coset's key.
    assert coset_representative(x, p) == coset_representative(y, p)
    assert coset_representative(x, p) != coset_representative(K.simple(t, b3.b), p)
    assert coset_representative(x, p).length() == 1


# -- shortest elements and projections --------------------------------------------


def test_min_set_identity(b3, b3_parabolic):
    assert O.min_set(K.identity(b3.table), b3_parabolic) == [K.identity(b3.table)]


def test_min_set_d1(b3, b3_parabolic):
    t, p = b3.table, b3_parabolic
    assert O.min_set(d_k(p, 1), p) == sorted(
        [K.simple(t, b3.ba), K.delta_power(t, 1)], key=K.Element.sort_key
    )


def test_min_set_depends_only_on_coset(b3, b3_parabolic):
    # H D = H ba, so the two minimum sets coincide.
    t, p = b3.table, b3_parabolic
    assert O.min_set(K.delta_power(t, 1), p) == O.min_set(K.simple(t, b3.ba), p)


def test_min_set_bound_saturation(b3, b3_parabolic, b3_ball4):
    # The H-ball of radius 2 * length finds every shortest element: a wider
    # scan of beta * x over H finds the same set. A shortest gamma = beta x
    # has lg(beta) <= lg(gamma) + lg(x) <= length + 2, inside the scan.
    p = b3_parabolic
    for x, d in b3_ball4.dist.items():
        if d > 2:
            continue
        radius = 2 * coset_length(x, p) + 2
        h_ball = O.subgroup_ball(b3.table, p.div_sorted, radius)
        coset = [K.multiply(beta, x) for beta in h_ball]
        level = min(y.length() for y in coset)
        shortest = {y for y in coset if y.length() == level}
        assert O.min_set(x, p) == sorted(shortest, key=K.Element.sort_key)


def test_projection_examples(b3, b3_parabolic):
    t, p = b3.table, b3_parabolic
    x = K.simple(t, b3.a) ** -2
    ps = projection(x, p)
    assert ps.members == (x,) and ps.distance == 0

    pr1 = projection(d_k(p, 1), p)
    a_inv = K.invert(K.simple(t, b3.a))
    assert pr1.distance == 1
    assert set(pr1.members) == {K.identity(t), a_inv}

    pr2 = projection(d_k(p, 2), p)
    assert K.identity(t) in pr2.members
    assert K.simple(t, b3.a) ** -2 in pr2.members


def test_projection_bijection_sizes(b3, b3_parabolic, b3_ball4):
    # gamma -> x gamma^-1 is injective, so the members are distinct and as
    # many as the shortest elements of H x, counted here by a wide H-scan.
    p = b3_parabolic
    for x, d in b3_ball4.dist.items():
        if d > 2:
            continue
        members = projection(x, p).members
        h_ball = O.subgroup_ball(b3.table, p.div_sorted, 2 * coset_length(x, p) + 2)
        coset = [K.multiply(beta, x) for beta in h_ball]
        level = min(y.length() for y in coset)
        assert len(set(members)) == len(members)
        assert len(members) == sum(y.length() == level for y in coset)


def test_projection_agrees_with_bruteforce():
    # On every parabolic of five structures, for x of length at most 3.
    # Members m satisfy lg(m) <= lg(x) + lg(Hx), so that scan radius is
    # complete. H = G for the improper parabolic, whose scan is the whole
    # ball of G; it is kept to lg(x) <= 2 to bound the test's time.
    for descriptor in ("braid:3", "dihedral:4", "abelian:3", "cyclic:3", "cyclic:5"):
        t = any_table(descriptor)
        ball = O.bfs_lengths(t, 3, Budget(10**7)).dist
        for p in all_parabolics(t):
            for x, n in ball.items():
                if p.improper and n > 2:
                    continue
                got = projection(x, p)
                want, dist = O.brute_projection(
                    x, p.div_sorted, n + got.distance, Budget(10**7)
                )
                assert list(got.members) == sorted(want, key=K.Element.sort_key)
                assert got.distance == dist


def test_projection_diameter_examples(b3, b3_parabolic):
    t, p = b3.table, b3_parabolic
    assert projection_diameter(K.simple(t, b3.a), p) == 0
    assert projection_diameter(d_k(p, 1), p) == 1
    assert projection_diameter(d_k(p, 3), p) >= 3


def test_projection_abelian_values(z2):
    # pi_H(y^k) over H = <x> is {1, x^-1, ..., x^-k}: y^k = x^-j (x^j y^k)
    # with lg(x^j y^k) = k for 0 <= j <= k, anything else is further away.
    p = make_parabolic(z2, z2.simples.index("x"))
    x_inv = K.invert(K.simple(z2, z2.simples.index("x")))
    y = K.simple(z2, z2.simples.index("y"))
    for k in (1, 2):
        ps = projection(y ** k, p)
        assert ps.distance == k
        assert set(ps.members) == {x_inv ** j for j in range(k + 1)}
        want, dist = O.brute_projection(y ** k, p.div_sorted, 4, Budget(10**6))
        assert set(ps.members) == want and dist == k


# Structures of the interval theorem's checks (`projection`), each with the
# largest coset length sampled; every parabolic of each is checked.
INTERVAL_STRUCTURES = {
    "braid:3": 4, "braid:4": 3,
    "dihedral:3": 4, "dihedral:4": 4, "dihedral:5": 4, "dihedral:6": 4,
    "abelian:2": 4, "abelian:3": 4, "abelian:4": 4,
    "cyclic:3": 4, "cyclic:5": 4, "cyclic:7": 4,
}


def interval_cases():
    """(parabolic, coset length cap) over every parabolic of the structures."""
    return [
        (p, cap)
        for descriptor, cap in INTERVAL_STRUCTURES.items()
        for p in all_parabolics(any_table(descriptor))
    ]


def random_elements(t, rng, count, max_letters):
    letters = [(s, e) for s in range(t.n_simples) if s != t.unit for e in (1, -1)]
    return [
        K.normalize(t, [rng.choice(letters) for _ in range(rng.randint(0, max_letters))])
        for _ in range(count)
    ]


def submonoid_elements(p, rng, count, max_factors):
    """Random products of generators of H, elements of N+ = H meet G+."""
    gens = [K.simple(p.table, s) for s in p.generator_simples()]
    out = []
    for _ in range(count):
        e = K.identity(p.table)
        for _ in range(rng.randint(0, max_factors)):
            e = K.multiply(e, rng.choice(gens))
        out.append(e)
    return out


def test_interval_projection_equals_ball_scan():
    # `projection` walks the right divisors in N+ of z = D^(l+p) theta^-1;
    # its slow twin scans the BFS H-ball of radius 2 lg(Hx). Random elements,
    # and the adversarial d_k (whose projections spread) and D powers, up
    # to the coset length cap of each structure.
    rng = random.Random(20261020)
    checked = 0
    for p, cap in interval_cases():
        t = p.table
        xs = random_elements(t, rng, 20, cap + 2)
        xs += [K.delta_power(t, k) for k in (-cap, -1, 1, cap)]
        xs += [d_k(p, k) for k in range(1, cap + 1) if not p.improper]
        for x in xs:
            if coset_length(x, p) > cap:
                continue
            budget = Budget(10**7)
            got = projection(x, p, budget)
            assert got == O.ball_projection(x, p, Budget(10**8))
            # The charge bound of the docstring: |generators| per member
            # the walk extends.
            assert budget.used <= len(got.members) * len(p.generator_simples())
            checked += 1
    assert checked > 1500
    # braid:5 and its rank-three parabolic, where the ball scan is slow: the
    # first sampled element of each coset length 0-2, and d_1 and d_2. The
    # BFS twin takes about 1 s for each of length 2.
    t = any_table("braid:5")
    p = make_parabolic(t, t.simples.index("abacba"))
    firsts = {}
    for x in random_elements(t, rng, 40, 3):
        firsts.setdefault(coset_length(x, p), x)
    assert {0, 1, 2} <= set(firsts)
    for x in [firsts[n] for n in (0, 1, 2)] + [d_k(p, 1), d_k(p, 2)]:
        assert projection(x, p) == O.ball_projection(x, p, Budget(10**8))


def test_diameter_charges_one_node_per_pair():
    t = any_table("braid:4")
    p = make_parabolic(t, t.simples.index("aba"))
    x = K.normalize(t, [(t.simples.index("c"), 1)] * 3)
    ps = projection(x, p)
    n = len(ps.members)
    assert n > 10
    budget = Budget(10**7)
    assert ps.diameter(budget) == projection_diameter(x, p) > 0
    assert budget.used == n * (n - 1) // 2
    with pytest.raises(BudgetExceededError):
        ps.diameter(Budget(n * (n - 1) // 2 - 1))


def test_projection_lemma_c():
    # Lemma C of `projection`: e join omega = e omega for e in N+. That is,
    # omega <= e omega and no proper prefix y of omega has omega <= e y.
    # The same test rejects delta_sub in place of omega, so it can fail.
    rng = random.Random(3)
    cases = [p for p, _ in interval_cases()]
    t5 = any_table("braid:5")
    cases.append(make_parabolic(t5, t5.simples.index("abacba")))

    def join_is_product(e, w):
        t = e.table
        prefixes = [y for y in range(t.n_simples) if t.left_divides(y, w) and y != w]
        return K.has_left_divisor(K.multiply(e, K.simple(t, w)), w) and not any(
            K.has_left_divisor(K.multiply(e, K.simple(t, y)), w) for y in prefixes
        )

    for p in cases:
        es = submonoid_elements(p, rng, 20, 3)
        es += [K.simple(p.table, s) for s in p.generator_simples()]
        for e in es:
            assert join_is_product(e, p.omega)
        if not p.improper:
            g = K.simple(p.table, p.generator_simples()[0])
            assert not join_is_product(g, p.delta_sub)


def test_projection_lemma_a():
    # Lemma A of `projection`: for theta = a D^p on the transversal with
    # p < 0 and e in N+, inf(e theta) = p.
    rng = random.Random(4)
    negative = 0
    for p, cap in interval_cases():
        if p.improper:
            continue
        thetas = {coset_representative(x, p) for x in random_elements(p.table, rng, 30, 2 * cap)}
        thetas |= {d_k(p, k) for k in range(1, cap + 1)}
        es = submonoid_elements(p, rng, 10, 3)
        for theta in thetas:
            if theta.delta_power >= 0:
                continue
            negative += 1
            for e in es:
                assert K.multiply(e, theta).delta_power == theta.delta_power
    assert negative > 300


# -- the ball walk ------------------------------------------------------------


def signed_letters(simples):
    return [(s, e) for s in simples for e in (1, -1)]


def assert_walk_is_bfs(t, simples, radius):
    """`_walk` from 1 against the BFS over the same letters: one element per
    distance-labelled BFS entry, in length order, with the same charge."""
    walk_budget, bfs_budget = Budget(10**7), Budget(10**7)
    got = C._walk(K.identity(t), signed_letters(simples), radius, walk_budget)
    want = O.subgroup_ball(t, simples, radius, bfs_budget)
    assert len(got) == len(set(got)) == len(want)
    assert {x: x.length() for x in got} == want
    lengths = [x.length() for x in got]
    assert lengths == sorted(lengths)
    inner = sum(1 for n in lengths if n < radius)
    assert walk_budget.used == bfs_budget.used == 2 * len(simples) * inner


def test_ball_walk_on_census_parabolics():
    # The H-ball of every proper parabolic of the census at radius 4: the
    # ball theorem of `_walk`, and with it lg_H = lg_G on H.
    parabolics = proper_parabolics(CENSUS_STRUCTURES)
    assert len(parabolics) == 16 + 2 + 6 + 14
    for p in parabolics:
        assert_walk_is_bfs(p.table, p.generator_simples(), 4)


def test_ball_walk_b4_aba_radius_6():
    t = table_from_descriptor("braid:4")
    p = make_parabolic(t, t.simples.index("aba"))
    assert_walk_is_bfs(t, p.generator_simples(), 6)


@pytest.mark.parametrize("descriptor, radius", [("braid:3", 4), ("dihedral:4", 4)])
def test_ball_walk_over_the_group(descriptor, radius):
    t = table_from_descriptor(descriptor)
    simples = [s for s in range(t.n_simples) if s != t.unit]
    ball = O.bfs_lengths(t, radius, Budget(10**7))
    got = C._walk(K.identity(t), signed_letters(simples), radius, Budget(10**7))
    assert len(got) == len(ball.dist)
    assert {x: x.length() for x in got} == ball.dist


@pytest.mark.parametrize("limit", [0, 9, 10, 11, 109, 110, 111, 449, 450, 451])
def test_ball_walk_stops_where_the_bfs_stops(limit):
    # braid:4/aba at radius 3 has 1, 10 and 34 elements shorter than the
    # radius and 10 letters, so a full ball costs 10, 110 and then 450.
    # The first node past the limit raises and leaves used at limit + 1.
    t = table_from_descriptor("braid:4")
    simples = make_parabolic(t, t.simples.index("aba")).generator_simples()
    walks = (
        lambda budget: C._walk(K.identity(t), signed_letters(simples), 3, budget),
        lambda budget: O.subgroup_ball(t, simples, 3, budget),
    )
    outcomes = []
    for walk in walks:
        budget = Budget(limit)
        try:
            walk(budget)
            outcomes.append(("done", budget.used))
        except BudgetExceededError:
            outcomes.append(("exceeded", budget.used))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (("done", 450) if limit >= 450 else ("exceeded", limit + 1))


# -- compatibility of products with the transversal --------------------------------


def test_orthogonal_form_of_subgroup_multiple(b3, b3_parabolic, b3_ball4):
    # For a positive representative c and beta = b2^-1 b1 in H, the left
    # orthogonal form of beta*c is exactly (b2, b1 c).
    p = b3_parabolic
    thetas = [
        th for th in transversal_elements(b3_ball4, p, 3) if th.delta_power >= 0
    ]
    for beta in subgroup_elements(p, 2):
        b2, b1 = K.left_orthogonal(beta)
        for c in thetas:
            got_b, got_a = K.left_orthogonal(K.multiply(beta, c))
            assert got_b == b2
            assert got_a == K.multiply(b1, c)


def _negative_form_cases():
    """(table, parabolic, ball) pairs with a parabolic of rank 1 and 2."""
    from garside.structures import build_braid

    from conftest import B3

    b3 = B3()
    cases = [(b3.table, make_parabolic(b3.table, b3.a), 4)]
    t4 = build_braid(4)
    cases.append((t4, make_parabolic(t4, t4.simples.index("aba")), 3))
    return [
        (t, p, O.bfs_lengths(t, radius, Budget(10**7)))
        for t, p, radius in cases
    ]


def test_delta_power_survives_submonoid_multiple():
    # theta = c D^-p with p >= 1 and b in N: b*theta keeps the D power -p.
    for t, p, ball in _negative_form_cases():
        thetas = [
            th
            for th in transversal_elements(ball, p, ball.radius)
            if th.delta_power <= -1
        ]
        assert thetas
        n_elements = [
            x for x in positives_up_to(ball, 2)
            if all(u in p.div_delta for u in x.positive_factors())
        ]
        for theta in thetas:
            for b in n_elements:
                z = K.multiply(b, theta)
                assert z.delta_power == theta.delta_power


def test_right_delta_form_of_full_subgroup_multiple():
    # beta = b delta^-k with k >= 1 and delta not dividing b: the right
    # D-form of beta*theta is b w_1..w_k phi^-k(c) D^(-k-p), the positive
    # part unmovable.
    for t, p, ball in _negative_form_cases():
        thetas = [
            th
            for th in transversal_elements(ball, p, ball.radius)
            if th.delta_power <= -1
        ]
        n_elements = [
            x for x in positives_up_to(ball, 2)
            if all(u in p.div_delta for u in x.positive_factors())
            and not K.has_left_divisor(x, p.delta_sub)
        ]
        assert n_elements
        for theta in thetas:
            ppow = -theta.delta_power
            c = K.right_delta_positive_part(theta)
            for b in n_elements:
                for k in (1, 2):
                    beta = K.multiply(b, p.delta_element() ** -k)
                    z = K.multiply(beta, theta)
                    w = K.multiply(
                        K.multiply(b, d_k(p, k)), K.conjugate_by_delta(c, -k)
                    )
                    assert w.delta_power == 0  # unmovable
                    assert z == K.multiply(w, K.delta_power(t, -(k + ppow)))


# -- audits and certificates ---------------------------------------------------------


def test_fellow_audit_len0(b3, b3_parabolic):
    report = fellow_projection_audit(b3_parabolic, 0, budget=Budget(10**7))
    assert report.passed
    assert report.k_observed <= 1


def test_fellow_audit_len1(b3, b3_parabolic):
    report = fellow_projection_audit(b3_parabolic, 1, budget=Budget(10**7))
    assert report.passed
    assert report.k_observed <= 5
    assert report.rows
    # Every row's claimed best distance really is achievable.
    for row in report.rows[:50]:
        assert K.multiply(K.invert(row.beta), row.best_partner).length() == row.distance


def reference_audit(p, max_len):
    """The audit rows from an explicit edge set, each direction by its own min.

    Returns the rows as tuples and the number of rows each edge gives.
    """
    t = p.table
    letters = [(s, e) for s in range(t.n_simples) if s != t.unit for e in (1, -1)]
    ball = O.bfs_lengths(t, max_len, Budget(10**7)).dist
    proj: dict[K.Element, tuple[K.Element, ...]] = {}
    rows, edges = [], {}
    for alpha in sorted(ball, key=K.Element.sort_key):
        for s, e in letters:
            alpha_u = K.multiply(alpha, K.normalize(t, [(s, e)]))
            edge = frozenset((alpha, alpha_u))
            if edge in edges:
                continue
            for x in (alpha, alpha_u):
                if x not in proj:
                    proj[x] = projection(x, p).members
            edges[edge] = len(proj[alpha]) + len(proj[alpha_u])
            for base, letter, src, dst in (
                (alpha, (s, e), proj[alpha], proj[alpha_u]),
                (alpha_u, (s, -e), proj[alpha_u], proj[alpha]),
            ):
                for beta in src:
                    distance, partner = min(
                        ((K.multiply(K.invert(beta), b2).length(), b2) for b2 in dst),
                        key=lambda pair: pair[0],
                    )
                    rows.append((base, letter, beta, partner, distance))
    return rows, edges


@pytest.mark.parametrize(
    "descriptor, name, max_radius",
    [("braid:3", "a", 2), ("dihedral:4", "s", 2), ("braid:4", "aba", 1), ("cyclic:3", "a1", 2)],
)
def test_fellow_audit_agrees_with_edge_set(descriptor, name, max_radius):
    # The audit skips an edge when its other end is in the ball and sorts
    # first, and reads both directions off one distance table. The reference
    # remembers every edge and takes each direction's min on its own. Each
    # edge with an end in the ball must give its rows once, in the same order.
    t = any_table(descriptor)
    p = make_parabolic(t, t.simples.index(name))
    for radius in range(max_radius + 1):
        report = fellow_projection_audit(p, radius, budget=Budget(10**8))
        assert not report.partial
        want_rows, want_edges = reference_audit(p, radius)
        got = [(r.alpha, r.letter, r.beta, r.best_partner, r.distance) for r in report.rows]
        assert got == want_rows
        edges = Counter(
            frozenset((r.alpha, K.multiply(r.alpha, K.normalize(t, [r.letter]))))
            for r in report.rows
        )
        assert edges == want_edges
        assert report.k_observed == max((r[4] for r in want_rows), default=0)


# The full charge of each audit below, pinned so that the fixed limits under
# it stay partial and the test cannot go vacuous.
FULL_AUDIT_CHARGE = {("braid:3", "a", 2): 1756, ("braid:4", "aba", 1): 36126}


@pytest.mark.parametrize("descriptor, name, radius", [("braid:3", "a", 2), ("braid:4", "aba", 1)])
def test_partial_audit_rows_are_a_prefix(descriptor, name, radius):
    # A budget that runs out mid-audit keeps the rows audited so far: the
    # partial CSV is a prefix of the full one, whatever the charge unit.
    t = any_table(descriptor)
    p = make_parabolic(t, t.simples.index(name))
    budget = Budget(10**8)
    full = fellow_projection_audit(p, radius, budget=budget)
    assert not full.partial
    assert budget.used == FULL_AUDIT_CHARGE[descriptor, name, radius]
    want = audit_rows_csv(full).splitlines()
    fixed = [limit for limit in (40, 300, 2000) if limit < budget.used]
    for limit in fixed + [budget.used // 3, budget.used - 1]:
        report = fellow_projection_audit(p, radius, budget=Budget(limit))
        assert report.partial
        got = audit_rows_csv(report).splitlines()
        assert len(got) < len(want) and got == want[: len(got)]
        assert report.k_observed <= full.k_observed


def test_fellow_audit_abelian(z2):
    p = make_parabolic(z2, z2.simples.index("x"))
    report = fellow_projection_audit(p, 1, budget=Budget(10**7))
    assert report.passed
    assert report.k_observed <= 1


def test_fellow_audit_budget_exhaustion(b3, b3_parabolic):
    report = fellow_projection_audit(b3_parabolic, 2, budget=Budget(50))
    assert report.partial
    assert not report.passed


def test_unbounded_witness(b3, b3_parabolic):
    for k in (1, 3):
        cert = bounded_projection_witness(b3_parabolic, k)
        assert cert.verified
        assert cert.element == d_k(b3_parabolic, k + 1)
        assert cert.spread == k + 1 > k


def test_unbounded_witness_refuses_improper(b3):
    p = make_parabolic(b3.table, b3.D)
    with pytest.raises(DomainError):
        bounded_projection_witness(p, 1)


WITNESS_STRUCTURES = ("braid:3", "braid:4", "dihedral:3", "dihedral:4", "dihedral:5", "dihedral:6")
CENSUS_STRUCTURES = WITNESS_STRUCTURES + ("abelian:2", "abelian:3", "abelian:4")


def proper_parabolics(descriptors=WITNESS_STRUCTURES):
    """Every proper parabolic of the given structures."""
    return [
        p
        for t in map(table_from_descriptor, descriptors)
        for p in all_parabolics(t)
        if not p.improper
    ]


def test_unbounded_witness_agrees_with_bruteforce():
    parabolics = proper_parabolics()
    assert len(parabolics) == 16
    for p in parabolics:
        one = K.identity(p.table)
        for k_bound in (1, 2, 3):
            cert = bounded_projection_witness(p, k_bound)
            assert cert.verified
            want, dist = O.brute_projection(
                cert.element, p.div_delta, 2 * cert.k, Budget(10**7)
            )
            assert dist == coset_length(cert.element, p)
            assert cert.contains_identity == (one in want)
            assert cert.contains_delta_neg == (p.delta_element() ** -cert.k in want)


@pytest.mark.parametrize("structure, name", [("braid:4", "aba"), ("braid:3", "a")])
def test_unbounded_witness_searches_nothing(structure, name):
    t = table_from_descriptor(structure)
    p = make_parabolic(t, t.simples.index(name))
    cert = bounded_projection_witness(p, 100, Budget(0))
    assert cert.verified
    assert cert.element == d_k(p, 101)


@pytest.mark.parametrize("descriptor", THEOREM_STRUCTURES)
def test_absorbed_complement_leaves_n_reduced_remainder(descriptor):
    # The lemma of `coset_representative`: once c = w c' is absorbed, phi(c')
    # is N-reduced again, so the loop strips no second tail. Each x = a D^-q
    # starts with d_j, so up to j complements are absorbed.
    t = any_table(descriptor)
    rng = random.Random(descriptor)
    absorbed = 0
    for p in all_parabolics(t):
        for _ in range(30):
            j = rng.randint(0, 4)
            rest = K.normalize(t, [(rng.choice(t.atoms), 1) for _ in range(rng.randint(0, 8))])
            shift = K.delta_power(t, -rng.randint(1, j + 2))
            x = K.multiply(K.multiply(d_k(p, j), rest), shift)
            q = max(0, -x.delta_power)
            c = tail_split(K.right_delta_positive_part(x) if q else x, p)
            while q and K.has_left_divisor(c, p.omega):
                c = K.conjugate_by_delta(K.multiply(K.invert(K.simple(t, p.omega)), c), 1)
                q -= 1
                absorbed += 1
                assert is_n_reduced(c, p)
            assert coset_representative(x, p) == K.multiply(c, K.delta_power(t, -q))
    assert absorbed > 0
