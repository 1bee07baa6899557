"""Self-checks for the brute-force reference machinery."""

import pytest

from garside import kernel as K
from garside import oracle as O
from garside.budget import Budget
from garside.errors import BudgetExceededError


def test_greedy_word_matches_definition(b3):
    t = b3.table
    # a, b is already greedy; b, ba as well; a, a stays two factors.
    assert O.greedy_word(t, [b3.a, b3.b, b3.a]) == [b3.D]
    assert O.greedy_word(t, [b3.b, b3.ba]) == [b3.b, b3.ba]
    assert O.greedy_word(t, [b3.a, b3.a]) == [b3.a, b3.a]
    assert O.greedy_word(t, [b3.one, b3.a]) == [b3.a]
    assert O.greedy_word(t, []) == []


def test_simple_divides_word(b3):
    t = b3.table
    assert O.simple_divides_word(t, b3.a, [b3.a, b3.b])
    assert O.simple_divides_word(t, b3.ab, [b3.a, b3.b])
    assert not O.simple_divides_word(t, b3.ba, [b3.a, b3.b])
    assert O.simple_divides_word(t, b3.D, [b3.a, b3.b, b3.a])


def test_ball_radius_one(b3):
    ball = O.bfs_lengths(b3.table, 1, Budget(10**6))
    assert len(ball.elements_of_length(0)) == 1
    assert len(ball.elements_of_length(1)) == 10  # all signed letters distinct


def test_ball_radius_two_value(b3):
    ball = O.bfs_lengths(b3.table, 2, Budget(10**6))
    x = K.normalize(b3.table, [(b3.b, 1), (b3.a, -1)])
    assert ball.length(x) == 2


def test_bfs_budget_guard(b3):
    with pytest.raises(BudgetExceededError):
        O.bfs_lengths(b3.table, 3, Budget(20))


def test_brute_meet_join_basics(b3):
    t = b3.table
    x = K.normalize(t, [(b3.a, 1), (b3.b, 1)])
    assert O.brute_meet(x, x) == x
    assert O.brute_meet(K.simple(t, b3.ab), K.simple(t, b3.ba)).is_identity
    assert O.brute_join(K.simple(t, b3.a), K.simple(t, b3.b)) == K.delta_power(t, 1)
    assert O.brute_join(K.simple(t, b3.a), K.simple(t, b3.ab)) == K.simple(t, b3.ab)
    assert O.join_l(t, b3.a, b3.b) == b3.D
    assert O.join_l(t, b3.a, b3.ab) == b3.ab
    assert O.join_l(t, b3.ab, b3.ba) == b3.D


def test_brute_tail_example(b3, b3_parabolic):
    x = K.simple(b3.table, b3.ab)
    assert O.brute_tail(x, b3_parabolic.div_sorted, Budget(10**6)) == K.simple(
        b3.table, b3.a
    )


def test_brute_projection_d1(b3, b3_parabolic):
    from garside.parabolic import d_k

    members, dist = O.brute_projection(
        d_k(b3_parabolic, 1), b3_parabolic.div_sorted, 3, Budget(10**6)
    )
    a_inv = K.invert(K.simple(b3.table, b3.a))
    assert members == {K.identity(b3.table), a_inv}
    assert dist == 1


def test_partition_identity_class_is_subgroup_ball(b3, b3_parabolic):
    part = O.brute_coset_partition(b3.table, b3_parabolic.div_sorted, 2, Budget(10**7))
    cls = part.class_of(K.identity(b3.table))
    assert cls.min_length == 0
    a = K.simple(b3.table, b3.a)
    assert set(cls.members) == {a**k for k in (-2, -1, 0, 1, 2)}
    assert cls.boundary_contact  # the subgroup keeps going past any ball


def test_partition_min_length_of_delta(b3, b3_parabolic):
    part = O.brute_coset_partition(b3.table, b3_parabolic.div_sorted, 2, Budget(10**7))
    assert part.class_of(K.delta_power(b3.table, 1)).min_length == 1


def test_partition_counts(b3, b3_parabolic):
    part = O.brute_coset_partition(b3.table, b3_parabolic.div_sorted, 2, Budget(10**7))
    assert part.counts_by_length(2) == [1, 4, 10]


def test_canonical_key_roundtrip(b3):
    for word in ([(b3.a, 1), (b3.b, -1)], [(b3.D, -1), (b3.ab, 1)], []):
        key = O.canonical_key(b3.table, word)
        el = O.key_to_element(b3.table, key)
        assert O.canonical_key(b3.table, O.element_letters(el)) == key


def test_full_agreement_on_stated_balls(b3, b3_parabolic, b3_ball4, i24, i24_parabolic, i24_ball3):
    """Kernel, parabolic and coset results agree with the oracles on the
    radius-4 three-strand ball and the radius-3 balls of dihedral:4,
    dihedral:3 and abelian:2."""
    from garside.cosets import coset_length, coset_representative, projection
    from garside.parabolic import is_n_reduced, make_parabolic, tail_split
    from garside.structures import table_from_descriptor

    budget = Budget(10**7)
    cases = [(b3.table, b3_parabolic, b3_ball4), (i24, i24_parabolic, i24_ball3)]
    for descriptor, name in (("dihedral:3", "s"), ("abelian:2", "x")):
        table = table_from_descriptor(descriptor)
        p = make_parabolic(table, table.simples.index(name))
        cases.append((table, p, O.bfs_lengths(table, 3, budget)))
    for table, p, ball in cases:
        part = O.brute_coset_partition(table, p.div_sorted, ball.radius, budget)
        rep_of = {}
        for cls in part.classes:
            for x in cls.members:
                rep_of[x] = (cls.min_length, cls.members[0])
        for x, dist in ball.dist.items():
            assert x.length() == dist
            if x.delta_power >= 0:
                c = tail_split(x, p)
                assert K.multiply(O.brute_tail(x, p.div_sorted, budget), c) == x
                assert is_n_reduced(c, p)
                for s in range(table.n_simples):
                    got = K.meet_with_simple(x, s)
                    assert K.simple(table, got) == O.brute_meet(x, K.simple(table, s), budget)
            min_len, mate = rep_of[x]
            rep = coset_representative(x, p)
            assert rep.length() == min_len
            assert coset_length(x, p) == min_len
            assert rep == coset_representative(mate, p)
            got = projection(x, p, budget=budget)
            # Members satisfy lg(beta) <= lg(x) + distance, so this scan
            # radius is complete for the brute-force argmin.
            want, want_dist = O.brute_projection(
                x, p.div_sorted, x.length() + min_len + 1, budget
            )
            assert set(got.members) == want and got.distance == want_dist
