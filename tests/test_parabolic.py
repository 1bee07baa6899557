"""Parabolic substructure tests: validation, tails, twisted complements."""

import pytest

from garside import kernel as K
from garside import oracle as O
from garside.budget import Budget
from garside.errors import StructureError
from garside.parabolic import (
    d_k,
    element_in_subgroup,
    is_n_reduced,
    make_parabolic,
    omega_i,
    tail_split,
)
from garside.structures import build_free_abelian, load_table, table_from_descriptor

from conftest import THEOREM_STRUCTURES, all_parabolics, any_table, cyclic_text, positives_up_to


def n_elements_up_to(p, max_len):
    """Subgroup-monoid elements of length at most max_len."""
    out = {K.identity(p.table)}
    frontier = [K.identity(p.table)]
    gens = [K.simple(p.table, s) for s in p.generator_simples()]
    for _ in range(max_len):
        nxt = []
        for x in frontier:
            for g in gens:
                y = K.multiply(x, g)
                if y not in out and y.length() <= max_len:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(out, key=K.Element.sort_key)


# -- make_parabolic -----------------------------------------------------------


def test_parabolic_a_in_b3(b3, b3_parabolic):
    p = b3_parabolic
    assert p.div_delta == {b3.one, b3.a}
    assert p.omega == b3.ba
    assert not p.improper
    for u in (b3.one, b3.a):
        assert O.conjugate_by_delta_sub(p, K.simple(b3.table, u)) == K.simple(b3.table, u)


def test_parabolic_delta_is_improper(b3):
    p = make_parabolic(b3.table, b3.D)
    assert p.improper
    assert p.div_delta == set(range(6))
    assert p.omega == b3.one


def test_parabolic_rejects_unbalanced(b3):
    with pytest.raises(StructureError, match="balanced"):
        make_parabolic(b3.table, b3.ab)


def test_parabolic_rejects_unit(b3):
    with pytest.raises(StructureError):
        make_parabolic(b3.table, b3.one)


def test_parabolic_abelian_subsets(z2):
    x = z2.simples.index("x")
    p = make_parabolic(z2, x)
    assert sorted(z2.simples[u] for u in p.div_delta) == ["1", "x"]
    assert z2.simples[p.omega] == "y"


CONJUGATION_TABLES = (
    [f"braid:{n}" for n in (3, 4, 5)]
    + [f"dihedral:{m}" for m in range(3, 11)]
    + [f"abelian:{n}" for n in range(2, 6)]
    + [f"cyclic:{n}" for n in (3, 5, 7)]
)


@pytest.mark.parametrize("descriptor", CONJUGATION_TABLES)
def test_conjugation_permutes_divisors_of_every_accepted_simple(descriptor):
    # make_parabolic checks no conjugation: balance makes delta_sub-conjugation
    # a permutation of the divisors. Check that on every simple it accepts,
    # over the table and its reversal.
    kind, _, arg = descriptor.partition(":")
    table = load_table(cyclic_text(int(arg))) if kind == "cyclic" else table_from_descriptor(descriptor)
    accepted = 0
    for t in (table, table.reversed()):
        for u in range(t.n_simples):
            try:
                p = make_parabolic(t, u)
            except StructureError as exc:
                assert "balanced" in str(exc) or u == t.unit
                continue
            accepted += 1
            divisors = {K.simple(t, v) for v in p.div_delta if v != t.unit}
            images = {O.conjugate_by_delta_sub(p, d) for d in divisors}
            assert images == divisors, (t.name, t.display(u))
    assert accepted >= 2  # at least D on both sides


# -- tails -----------------------------------------------------------------------


def test_tail_examples(b3, b3_parabolic):
    t, p = b3.table, b3_parabolic
    assert tail_split(K.identity(t), p) == (K.identity(t), K.identity(t))
    assert tail_split(K.simple(t, b3.ab), p) == (K.simple(t, b3.a), K.simple(t, b3.b))
    assert tail_split(K.simple(t, b3.ba), p) == (K.identity(t), K.simple(t, b3.ba))
    assert tail_split(K.delta_power(t, 1), p) == (K.simple(t, b3.a), K.simple(t, b3.ba))


def test_tail_product_recomposes(b3, b3_parabolic, b3_ball4):
    for x in positives_up_to(b3_ball4, 3):
        b, c = tail_split(x, b3_parabolic)
        assert K.multiply(b, c) == x
        assert is_n_reduced(c, b3_parabolic)
        assert O.positive_in_submonoid(b, b3_parabolic)


def test_tail_agrees_with_bruteforce(b3, b3_parabolic, b3_ball4):
    # The head-stripping tail equals the definition-level maximum N-divisor.
    for x in positives_up_to(b3_ball4, 3):
        assert tail_split(x, b3_parabolic)[0] == O.brute_tail(
            x, b3_parabolic.div_sorted, Budget(10**7)
        )


def test_is_n_reduced_examples(b3, b3_parabolic):
    t, p = b3.table, b3_parabolic
    assert is_n_reduced(K.identity(t), p)
    assert is_n_reduced(K.simple(t, b3.b), p)
    assert not is_n_reduced(K.simple(t, b3.ab), p)
    assert is_n_reduced(d_k(p, 2), p)


# -- twisted complements -----------------------------------------------------------


def test_omega_sequence(b3, b3_parabolic):
    p = b3_parabolic
    assert omega_i(p, 1) == b3.ba
    assert omega_i(p, 2) == b3.ab
    assert omega_i(p, 3) == b3.ba


def test_d_k_identity(b3, b3_parabolic):
    t, p = b3.table, b3_parabolic
    assert d_k(p, 2).body == (b3.ba, b3.ab)
    for k in range(5):
        lhs = K.multiply(p.delta_element() ** k, d_k(p, k))
        assert lhs == K.delta_power(t, k)


def test_d_k_length(b3_parabolic):
    for k in range(1, 5):
        assert d_k(b3_parabolic, k).length() == k


def test_complement_meet_and_join(b3, b3_parabolic):
    # For b in the submonoid, the meet with the complement is trivial, the
    # join is the plain product b * omega, and the complement commutes up
    # to the combined twist: b * omega = omega * phi^-1(conj(b)).
    p = b3_parabolic
    omega_el = K.simple(p.table, p.omega)
    for b in n_elements_up_to(p, 2):
        assert O.brute_meet(b, omega_el).is_identity
        join = O.brute_join(b, omega_el)
        assert join == K.multiply(b, omega_el)
        twisted = K.conjugate_by_delta(O.conjugate_by_delta_sub(p, b, 1), -1)
        assert join == K.multiply(omega_el, twisted)


def test_twisted_products_stay_reduced(b3, b3_parabolic):
    # d_k * phi^-k(c) is N-reduced for every N-reduced c.
    p = b3_parabolic
    cs = [
        c
        for c in positives_up_to(O.bfs_lengths(b3.table, 2, Budget(10**7)), 2)
        if is_n_reduced(c, p)
    ]
    for k in range(1, 5):
        base = d_k(p, k)
        for c in cs:
            prod = K.multiply(base, K.conjugate_by_delta(c, -k))
            assert is_n_reduced(prod, p)


def test_twisted_products_add_length(b3, b3_parabolic):
    # lg(d_k * phi^-k(c)) = lg(c) + k when the complement does not divide c.
    p = b3_parabolic
    omega = p.omega
    cs = [
        c
        for c in positives_up_to(O.bfs_lengths(b3.table, 2, Budget(10**7)), 2)
        if is_n_reduced(c, p) and not K.has_left_divisor(c, omega)
    ]
    assert cs
    for k in range(1, 5):
        base = d_k(p, k)
        for c in cs:
            prod = K.multiply(base, K.conjugate_by_delta(c, -k))
            assert prod.length() == c.length() + k


# -- subgroup structure ---------------------------------------------------------


def test_positive_subgroup_elements_lie_in_submonoid(b3, b3_parabolic, b3_ball4):
    # A positive element of H is a product of divisors of delta_sub. The
    # subgroup test is the brute-force one: reachable in the H-ball.
    p = b3_parabolic
    h_ball = set(O.subgroup_ball(b3.table, p.generator_simples(), 8, Budget(10**7)))
    n_set = O.positive_monoid_ball(
        b3.table, p.generator_simples(), 3 * b3.table.grade[b3.table.delta], Budget(10**7)
    )
    for x in positives_up_to(b3_ball4, 3):
        if x in h_ball:
            assert x in n_set
            assert O.positive_in_submonoid(x, p)


def test_greedy_factors_of_n_elements_stay_in_divisors(b3, b3_parabolic):
    p = b3_parabolic
    for x in n_elements_up_to(p, 3):
        assert x.delta_power == 0 or p.improper
        assert all(u in p.div_delta for u in x.body)


def test_conjugation_preserves_subgroup_and_length(b3, b3_parabolic):
    p = b3_parabolic
    for x in n_elements_up_to(p, 3):
        for k in (1, -1, 2):
            y = O.conjugate_by_delta_sub(p, x, k)
            assert element_in_subgroup(y, p)
            assert y.length() == x.length()


def test_element_in_subgroup_examples(b3, b3_parabolic):
    t, p = b3.table, b3_parabolic
    assert element_in_subgroup(K.identity(t), p)
    assert element_in_subgroup(K.simple(t, b3.a) ** -3, p)
    assert not element_in_subgroup(K.simple(t, b3.b), p)
    assert not element_in_subgroup(K.delta_power(t, 1), p)


def test_improper_abelian_case():
    z1 = build_free_abelian(1)
    p = make_parabolic(z1, z1.delta)
    assert p.improper
    assert d_k(p, 3).is_identity  # the complement is trivial


@pytest.mark.parametrize("descriptor", THEOREM_STRUCTURES)
def test_d_k_word_is_greedy_as_written(descriptor):
    # The letters w_1 ... w_k are the greedy body of d_k, no transfer made,
    # and d_k equals the product of its letters, for every parabolic.
    t = any_table(descriptor)
    for p in all_parabolics(t):
        product = K.identity(t)
        for k in range(1, 13):
            product = K.multiply(product, K.simple(t, omega_i(p, k)))
            d = d_k(p, k)
            assert d == product
            assert O.is_canonical(d)
            letters = tuple(omega_i(p, i) for i in range(1, k + 1))
            assert d.delta_power == 0
            assert d.body == (() if p.improper else letters)
