"""Wider structure matrix: rank-2 parabolics, odd dihedral, rank-3 abelian.

The core tests keep to the small structures; this module re-runs the whole
pipeline (parabolic data, transversal, acceptor, growth) on bigger tables
where the parabolic subgroup itself has rank greater than one.
"""

import pytest

from garside import kernel as K
from garside import oracle as O
from garside.automaton import build_automaton
from garside.budget import Budget
from garside.cosets import coset_length, coset_representative, fellow_projection_audit, is_hn_reduced
from garside.growth import rational_series, transfer_counts
from garside.oracle import enumerate_accepted
from garside.parabolic import d_k, make_parabolic
from garside.structures import build_braid, build_dihedral, build_free_abelian


@pytest.fixture(scope="module")
def b4():
    return build_braid(4)


@pytest.fixture(scope="module")
def b4_sub(b4):
    return make_parabolic(b4, b4.simples.index("aba"))


def test_rank2_parabolic_data(b4, b4_sub):
    names = sorted(b4.simples[u] for u in b4_sub.div_delta)
    assert names == ["1", "a", "ab", "aba", "b", "ba"]
    assert b4.simples[b4_sub.omega] == "cba"
    assert not b4_sub.improper
    # Conjugation by the sub-Garside element mirrors the rank-2 flip.
    flip = {
        b4.simples[u]: K.format_element(O.conjugate_by_delta_sub(b4_sub, K.simple(b4, u)))
        for u in b4_sub.div_delta
    }
    assert flip == {"1": "1", "a": "b", "b": "a", "ab": "ba", "ba": "ab", "aba": "aba"}


def test_rank2_transversal_against_oracle(b4, b4_sub):
    part = O.brute_coset_partition(b4, b4_sub.div_sorted, 2, Budget(10**7))
    assert part.counts_by_length(2) == [1, 6, 30]
    for cls in part.classes:
        reps = {coset_representative(x, b4_sub) for x in cls.members}
        assert len(reps) == 1
        assert next(iter(reps)).length() == cls.min_length


def test_rank2_automaton_bijection(b4, b4_sub):
    aut = build_automaton(b4, b4_sub)
    assert aut.n_states == 2 * 23 + 2
    ball = O.bfs_lengths(b4, 2, Budget(10**7))
    for n in range(3):
        words = enumerate_accepted(aut, n)
        image = [K.normalize(aut.table, w) for w in words]
        assert len(set(image)) == len(words)
        assert set(image) == {
            x for x in ball.elements_of_length(n) if is_hn_reduced(x, b4_sub)
        }
        for w, el in zip(words, image):
            assert O.element_to_word(aut, el) == w


def test_rank2_growth(b4, b4_sub):
    aut = build_automaton(b4, b4_sub)
    assert transfer_counts(aut, 6) == [1, 6, 30, 174, 1078, 6766, 42174]
    rs = rational_series(aut)
    assert rs.denominator == (1, -16, 94, -252, 321, -180, 36)
    assert rs.expand(25) == transfer_counts(aut, 25)


def test_rank2_projection_certificate(b4, b4_sub):
    d2 = d_k(b4_sub, 2)
    assert d2.length() == 2
    assert coset_length(d2, b4_sub) == 2
    lhs = K.multiply(b4_sub.delta_element() ** 2, d2)
    assert lhs == K.delta_power(b4, 2)


def test_rank2_fellow_audit_small(b4, b4_sub):
    report = fellow_projection_audit(b4_sub, 1, budget=Budget(10**7))
    assert not report.partial
    assert report.k_observed <= 5


def test_b4_atom_parabolic_growth(b4):
    p = make_parabolic(b4, b4.simples.index("a"))
    aut = build_automaton(b4, p)
    assert transfer_counts(aut, 3) == [1, 22, 202, 1494]
    part = O.brute_coset_partition(b4, p.div_sorted, 2, Budget(10**7))
    assert part.counts_by_length(2) == [1, 22, 202]
    rs = rational_series(aut)
    assert rs.expand(25) == transfer_counts(aut, 25)


def test_odd_dihedral_pipeline():
    t = build_dihedral(5)
    p = make_parabolic(t, t.simples.index("s"))
    # phi swaps the two alternating chains when the relator length is odd.
    assert t.phi(t.simples.index("s")) == t.simples.index("t")
    part = O.brute_coset_partition(t, p.div_sorted, 2, Budget(10**7))
    aut = build_automaton(t, p)
    assert transfer_counts(aut, 2) == part.counts_by_length(2)
    rs = rational_series(aut)
    assert rs.expand(20) == transfer_counts(aut, 20)
    ball = O.bfs_lengths(t, 2, Budget(10**7))
    for n in range(3):
        got = {K.normalize(aut.table, w) for w in enumerate_accepted(aut, n)}
        assert got == {x for x in ball.elements_of_length(n) if is_hn_reduced(x, p)}


def test_b5_normal_forms_spot_check():
    import random

    t5 = build_braid(5)
    assert t5.n_simples == 120
    rng = random.Random(7)
    letters = [(s, e) for s in range(t5.n_simples) if s != t5.unit for e in (1, -1)]
    for _ in range(40):
        word = [rng.choice(letters) for _ in range(rng.randint(0, 5))]
        x = K.normalize(t5, word)
        assert (x.delta_power, x.body) == O.canonical_key(t5, word)
        assert K.multiply(x, K.invert(x)).is_identity


def test_dihedral50_growth_series():
    t = build_dihedral(50)
    p = make_parabolic(t, t.simples.index("s"))
    aut = build_automaton(t, p)
    e = transfer_counts(aut, 2)
    assert e == [1, 98, 7154]  # e(1) = 2(m-1), as for the m = 4 case
    rs = rational_series(aut)
    assert len(rs.denominator) - 1 == 2
    assert rs.expand(30) == transfer_counts(aut, 30)


def test_abelian_rank3_sub_plane():
    z3 = build_free_abelian(3)
    p = make_parabolic(z3, z3.simples.index("xy"))
    assert sorted(z3.simples[u] for u in p.div_delta) == ["1", "x", "xy", "y"]
    aut = build_automaton(z3, p)
    assert transfer_counts(aut, 5) == [1, 2, 2, 2, 2, 2]
    rs = rational_series(aut)
    assert rs.numerator == (1, 1) and rs.denominator == (1, -1)
    # Cosets are the powers of the remaining generator. Positive powers are
    # their own representatives; negative ones reduce to powers of D^-1
    # (same coset: z^-k D^k = (xy)^k lies in the subgroup).
    z = K.simple(z3, z3.simples.index("z"))
    for k in range(1, 4):
        assert coset_representative(z ** k, p) == z ** k
        assert coset_representative(z ** -k, p) == K.delta_power(z3, -k)
        assert coset_length(z ** k, p) == k
        assert coset_length(z ** -k, p) == k
