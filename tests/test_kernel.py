"""Kernel tests: canonical forms, arithmetic, length, views, head meets."""

import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from garside import kernel as K
from garside import oracle as O
from garside.budget import Budget
from garside.errors import DomainError, StructureError
from garside.structures import build_braid, build_dihedral, table_from_descriptor

from conftest import any_table, signed_letters, signed_words, positives_up_to


# -- normalize ---------------------------------------------------------------


def test_normalize_empty_word_is_identity(b3):
    x = K.normalize(b3.table, [])
    assert x.delta_power == 0 and x.body == ()
    assert x.is_identity


def test_normalize_aba_is_delta(b3):
    x = K.normalize(b3.table, [(b3.a, 1), (b3.b, 1), (b3.a, 1)])
    assert x == K.delta_power(b3.table, 1)


def test_normalize_cancellation(b3):
    x = K.normalize(b3.table, [(b3.a, 1), (b3.a, -1)])
    assert x.is_identity


def test_normalize_b_ainv(b3):
    # b * a^-1 = D^-1 * a * ab; the greedy pair (a, ab) has trivial head meet.
    x = K.normalize(b3.table, [(b3.b, 1), (b3.a, -1)])
    assert x.delta_power == -1
    assert x.body == (b3.a, b3.ab)


def test_normalize_idempotent_on_canonical_words(b3):
    for word in signed_words(b3.table, 3):
        x = K.normalize(b3.table, word)
        again = K.normalize(b3.table, O.element_letters(x))
        assert again == x


def test_normalize_rejects_bad_ids(b3):
    with pytest.raises(StructureError):
        K.normalize(b3.table, [(99, 1)])
    with pytest.raises(StructureError):
        K.normalize(b3.table, [(b3.a, 2)])


def test_element_constructor_rejects_non_greedy(b3):
    with pytest.raises(StructureError):
        K.Element(b3.table, 0, (b3.ba, b3.b))  # sigma(ba) meet b = b
    with pytest.raises(StructureError):
        K.Element(b3.table, 0, (b3.one,))
    with pytest.raises(StructureError):
        K.Element(b3.table, 0, (b3.D,))


def test_normalize_agrees_with_oracle_words_len3():
    # braid:4 has 46 signed letters, so its words stop at length 2.
    cases = ["braid:3", "dihedral:3", "dihedral:4", "abelian:2", "abelian:3"]
    for descriptor, max_len in [(d, 3) for d in cases] + [("braid:4", 2)]:
        table = table_from_descriptor(descriptor)
        for word in signed_words(table, max_len):
            x = K.normalize(table, word)
            assert (x.delta_power, x.body) == O.canonical_key(table, word), descriptor


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_normalize_agrees_with_oracle_random(data):
    table = build_braid(3) if data.draw(st.booleans()) else build_dihedral(4)
    letters = signed_letters(table)
    word = data.draw(st.lists(st.sampled_from(letters), max_size=7))
    x = K.normalize(table, word)
    assert (x.delta_power, x.body) == O.canonical_key(table, word)


# -- multiply / invert ---------------------------------------------------------


def test_multiply_delta_with_inverse(b3):
    assert K.multiply(K.delta_power(b3.table, 1), K.delta_power(b3.table, -1)).is_identity


def test_multiply_simples(b3):
    t = b3.table
    assert K.multiply(K.simple(t, b3.a), K.simple(t, b3.b)) == K.simple(t, b3.ab)
    assert K.multiply(K.simple(t, b3.ab), K.simple(t, b3.a)) == K.delta_power(t, 1)


def test_multiply_table_mismatch(b3, i24):
    with pytest.raises(StructureError):
        K.multiply(K.identity(b3.table), K.identity(i24))


def test_multiply_associative_words_len2(b3):
    els = [K.normalize(b3.table, w) for w in signed_words(b3.table, 2)]
    sample = els[:: max(len(els) // 40, 1)]
    for x in sample:
        for y in sample[::3]:
            for z in sample[::5]:
                assert K.multiply(K.multiply(x, y), z) == K.multiply(x, K.multiply(y, z))


def test_invert_examples(b3):
    t = b3.table
    assert K.invert(K.identity(t)).is_identity
    assert K.invert(K.delta_power(t, 1)) == K.delta_power(t, -1)
    # b^-1 = sigma(b) D^-1 = ab.D^-1, canonically D^-1 * ba.
    ib = K.invert(K.simple(t, b3.b))
    assert (ib.delta_power, ib.body) == (-1, (b3.ba,))
    assert K.multiply(K.simple(t, b3.b), ib).is_identity


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_invert_roundtrip_random(b3, data):
    letters = signed_letters(b3.table)
    word = data.draw(st.lists(st.sampled_from(letters), max_size=8))
    x = K.normalize(b3.table, word)
    assert K.multiply(x, K.invert(x)).is_identity
    assert K.multiply(K.invert(x), x).is_identity
    assert K.invert(K.invert(x)) == x


# -- length ---------------------------------------------------------------------


def test_length_examples(b3):
    t = b3.table
    assert K.identity(t).length() == 0
    assert K.delta_power(t, 3).length() == 3
    two_body = K.normalize(t, [(b3.b, 1), (b3.a, -1)])
    assert two_body.length() == 2  # p = -1, two factors
    deep = K.multiply(K.delta_power(t, -4), two_body)  # p = -5, two factors
    assert (deep.delta_power, len(deep.body)) == (-5, 2)
    assert deep.length() == 5


def test_length_equals_inverse_length(b3, b3_ball4):
    for x in b3_ball4.dist:
        assert x.length() == K.invert(x).length()


def test_positive_factor_count_is_geodesic_length(b3, b3_ball4):
    # Greedy factor count of a positive element equals its BFS distance.
    for x, dist in b3_ball4.dist.items():
        if x.delta_power >= 0:
            assert x.delta_power + len(x.body) == dist


def test_length_is_bfs_distance_ball3(b3_ball4):
    balls = [b3_ball4] + [
        O.bfs_lengths(table_from_descriptor(d), 3, Budget(10**7))
        for d in ("abelian:2", "abelian:3", "dihedral:3")
    ]
    for ball in balls:
        for x, dist in ball.dist.items():
            if dist <= 3:
                assert x.length() == dist


def test_product_length_lower_bound(b3, b3_ball4):
    # lg(b1 a b2) >= lg(a) for positive a, b1, b2 of length <= 2.
    shorts = [x for x in positives_up_to(b3_ball4, 2)]
    for a in shorts:
        for b1 in shorts:
            for b2 in shorts:
                assert K.multiply(K.multiply(b1, a), b2).length() >= a.length()


# -- views -----------------------------------------------------------------------


def test_views_of_identity(b3):
    x = K.identity(b3.table)
    for variant in K.Form:
        assert K.view(x, variant).remultiply() == x


def test_right_delta_view(b3):
    x = K.normalize(b3.table, [(b3.b, 1), (b3.a, -1)])
    body, p = K.view(x, K.Form.RIGHT_DELTA).payload
    assert p == -1
    assert body == (b3.b, b3.ba)  # b.a^-1 = (b.ba) D^-1


def test_right_delta_positive_part(b3):
    # x = a * D^p with a = phi^p(body), built unchecked: a must be canonical,
    # and phi has order n on cyclic:n, so D powers of both signs twist by
    # every power of phi. The RIGHT_DELTA view is (a.body, p).
    x = K.normalize(b3.table, [(b3.b, 1), (b3.a, -1)])
    assert K.right_delta_positive_part(x).body == (b3.b, b3.ba)
    for descriptor in ("cyclic:3", "cyclic:5", "cyclic:7"):
        t = any_table(descriptor)
        rng = random.Random(descriptor)
        for shift in range(-9, 10):
            word = [(rng.choice(t.atoms), 1) for _ in range(rng.randint(1, 8))]
            x = K.multiply(K.normalize(t, word), K.delta_power(t, shift))
            a = K.right_delta_positive_part(x)
            assert a.delta_power == 0 and O.is_canonical(a)
            assert K.multiply(a, K.delta_power(t, x.delta_power)) == x
            assert K.view(x, K.Form.RIGHT_DELTA).payload == (a.body, x.delta_power)


def test_left_orthogonal_of_b_ainv(b3):
    x = K.normalize(b3.table, [(b3.b, 1), (b3.a, -1)])
    b, a = K.view(x, K.Form.LEFT_ORTHOGONAL).payload
    assert b == K.simple(b3.table, b3.ba)
    assert a == K.simple(b3.table, b3.ab)


def test_left_orthogonal_exhaustive_uniqueness(b3, b3_ball4):
    # The orthogonal pair is the unique positive pair of length <= 2 with
    # trivial meet representing b.a^-1. Search uses the brute-force meet.
    x = K.normalize(b3.table, [(b3.b, 1), (b3.a, -1)])
    shorts = positives_up_to(b3_ball4, 2)
    found = []
    for b in shorts:
        for a in shorts:
            if K.multiply(K.invert(b), a) != x:
                continue
            if O.brute_meet(a, b).is_identity:
                found.append((b, a))
    assert found == [K.view(x, K.Form.LEFT_ORTHOGONAL).payload]


def test_views_roundtrip_ball3(b3, b3_ball4):
    for x, dist in b3_ball4.dist.items():
        if dist > 3:
            continue
        for variant in K.Form:
            assert K.view(x, variant).remultiply() == x


def test_orthogonal_parts_have_trivial_meets(b3, b3_ball4):
    for x, dist in b3_ball4.dist.items():
        if dist > 3:
            continue
        b, a = K.view(x, K.Form.LEFT_ORTHOGONAL).payload
        if not a.is_identity or not b.is_identity:
            assert O.brute_meet(a, b).is_identity
        assert a.length() + b.length() == x.length()


def test_greedy_letters_length(b3, b3_ball4):
    for x, dist in b3_ball4.dist.items():
        if dist <= 3:
            assert len(K.greedy_letters(x)) == x.length()


def test_right_greedy_prefix_divisibility(b3, b3_ball4):
    # For positive a right-dividing b with lg(b) <= 4, matching right greedy
    # prefixes right-divide each other, at every index.
    positives = positives_up_to(b3_ball4, 4)
    for bb in positives:
        letters_b = [s for s, _ in K.right_greedy_letters(bb)]
        for aa in positives:
            quot = K.multiply(bb, K.invert(aa))
            if quot.delta_power < 0:  # aa does not right-divide bb
                continue
            letters_a = [s for s, _ in K.right_greedy_letters(aa)]
            m = len(letters_a)
            assert m <= len(letters_b)
            for i in range(1, m + 1):
                pa = K.normalize(b3.table, [(s, 1) for s in letters_a[-i:]])
                pb = K.normalize(b3.table, [(s, 1) for s in letters_b[-i:]])
                assert K.multiply(pb, K.invert(pa)).delta_power >= 0


# -- head meets -------------------------------------------------------------------


def test_meet_with_simple_examples(b3):
    t = b3.table
    assert K.meet_with_simple(K.identity(t), b3.a) == b3.one
    assert K.meet_with_simple(K.simple(t, b3.ab), b3.a) == b3.a
    assert K.meet_with_simple(K.simple(t, b3.ba), b3.a) == b3.one


def test_meet_with_simple_rejects_negative(b3):
    with pytest.raises(DomainError, match="meet_with_simple"):
        K.meet_with_simple(K.delta_power(b3.table, -1), b3.a)


def test_meet_with_simple_agrees_with_oracle(b3, b3_ball4):
    t = b3.table
    for x in positives_up_to(b3_ball4, 3):
        for s in range(t.n_simples):
            got = K.meet_with_simple(x, s)
            want = O.brute_meet(x, K.simple(t, s))
            assert K.simple(t, got) == want


def test_has_left_divisor(b3):
    t = b3.table
    assert K.has_left_divisor(K.simple(t, b3.ab), b3.a)
    assert not K.has_left_divisor(K.simple(t, b3.ba), b3.a)
    assert K.has_left_divisor(K.delta_power(t, 2), b3.D)


# -- long words against the oracle ------------------------------------------------
#
# Random words of 40-300 atoms and adversarial families in which one appended
# simple sets off a long cascade of pair transfers (a D that forms at the tail
# and travels to the front). Every element the kernel returns is also checked
# with `O.is_canonical`, since kernel results skip the constructor's check.

LONG_STRUCTURES = ("braid:4", "braid:5", "dihedral:50", "abelian:3")
# No shrink phase: shrinking a 300-letter word re-runs the oracle hundreds of
# times (up to a second each), so a failure is reported as drawn.
long_settings = settings(
    max_examples=12, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)


# phi has order n on cyclic:n, so a wrong D-power twist shows there.
CYCLIC_STRUCTURES = ("cyclic:3", "cyclic:5", "cyclic:7")


def atom_word(draw, table, signed, min_len=40, max_len=300):
    n = draw(st.integers(min_value=min_len, max_value=max_len))
    atoms = draw(st.lists(st.sampled_from(table.atoms), min_size=n, max_size=n))
    if not signed:
        return [(a, 1) for a in atoms]
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return list(zip(atoms, signs))


def inverse_word(word):
    return [(s, -e) for s, e in reversed(word)]


def key(x):
    return x.delta_power, x.body


def assert_views_canonical(x):
    for part in K.left_orthogonal(x) + K.right_orthogonal(x):
        assert O.is_canonical(part)
    xr = K.to_reversed(x)
    assert O.is_canonical(xr)
    back = K.from_reversed(xr)
    assert O.is_canonical(back) and back == x


@long_settings
@given(data=st.data())
def test_long_normalize_agrees_with_oracle(data):
    t = any_table(data.draw(st.sampled_from(LONG_STRUCTURES)))
    word = atom_word(data.draw, t, data.draw(st.booleans()))
    x = K.normalize(t, word)
    assert O.is_canonical(x)
    assert key(x) == O.canonical_key(t, word)
    assert_views_canonical(x)


@long_settings
@given(data=st.data())
def test_long_multiply_agrees_with_oracle(data):
    t = any_table(data.draw(st.sampled_from(LONG_STRUCTURES)))
    signed = data.draw(st.booleans())
    w1 = atom_word(data.draw, t, signed, 20, 150)
    w2 = atom_word(data.draw, t, signed, 20, 150)
    z = K.multiply(K.normalize(t, w1), K.normalize(t, w2))
    assert O.is_canonical(z)
    assert key(z) == O.canonical_key(t, w1 + w2)
    assert_views_canonical(z)


@long_settings
@given(data=st.data())
def test_long_invert_agrees_with_oracle(data):
    t = any_table(data.draw(st.sampled_from(LONG_STRUCTURES + CYCLIC_STRUCTURES)))
    word = atom_word(data.draw, t, data.draw(st.booleans()))
    y = K.invert(K.normalize(t, word))
    assert O.is_canonical(y)
    assert key(y) == O.canonical_key(t, inverse_word(word))
    assert_views_canonical(y)


@pytest.mark.parametrize("descriptor", LONG_STRUCTURES + CYCLIC_STRUCTURES)
@pytest.mark.parametrize("p", [-4, -1, 0, 1, 3])
def test_invert_by_complements_with_delta_powers(descriptor, p):
    # invert builds D^-(p+k) w_k ... w_1 with no normaliser pass; the result
    # must be canonical and equal the oracle form of the inverted letters.
    t = any_table(descriptor)
    rng = random.Random(f"{descriptor}:{p}")
    for _ in range(6):
        word = [(t.delta, 1 if p > 0 else -1)] * abs(p)
        word += [(rng.choice(t.atoms), 1) for _ in range(rng.randint(0, 30))]
        x = K.normalize(t, word)
        y = K.invert(x)
        assert O.is_canonical(y)
        assert key(y) == O.canonical_key(t, inverse_word(word))
        assert K.multiply(x, y).is_identity


def spell(table, u):
    """Atoms whose product is the simple u."""
    out = []
    while u != table.unit:
        a = next(a for a in table.atoms if table.left_divides(a, u))
        out.append(a)
        u = table.lquot(a, u)
    return out


def times_delta(x, p):
    """x * D^p = D^p * phi^-p(x), built by the checking public constructor."""
    t = x.table
    return K.Element(t, x.delta_power + p, tuple(t.phi_pow(u, -p) for u in x.body))


def check_against_oracle(table, word, want):
    x = K.normalize(table, word)
    assert O.is_canonical(x)
    assert key(x) == O.canonical_key(table, word)
    assert x == want
    assert_views_canonical(x)
    return x


@pytest.mark.parametrize("m", [0, 1, 7, 40])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_delta_forms_at_tail_and_travels_to_front(b3, m, k):
    # a^m is greedy, and a.b.a = D, (a.b)^3 = D^2: every D forms at the tail,
    # behind m body factors, and must travel through all of them to the front.
    t = b3.table
    a_m = K.Element(t, 0, (b3.a,) * m)
    aba = [(b3.a, 1), (b3.b, 1), (b3.a, 1)]
    ab = [(b3.a, 1), (b3.b, 1)]
    check_against_oracle(t, [(b3.a, 1)] * m + aba * k, times_delta(a_m, k))
    check_against_oracle(t, [(b3.a, 1)] * m + ab * (3 * k), times_delta(a_m, 2 * k))


@pytest.mark.parametrize("descriptor", LONG_STRUCTURES)
@pytest.mark.parametrize("sign", [1, -1])
def test_long_greedy_body_then_delta(descriptor, sign):
    # One appended D crosses the whole body; D^-1 twists every factor.
    t = any_table(descriptor)
    rng = random.Random(descriptor)
    word = [(rng.choice(t.atoms), 1) for _ in range(120)]
    x = K.normalize(t, word)
    assert len(x.body) > 10
    y = check_against_oracle(t, word + [(t.delta, sign)], times_delta(x, sign))
    assert y == K.multiply(x, K.delta_power(t, sign))


@pytest.mark.parametrize("pairs", [1, 4, 12])
def test_braid4_products_of_delta_complements(pairs):
    # u.sigma(u) = D for every simple u, spelled in atoms, so the word equals
    # D^pairs; behind a greedy prefix each D cascades over the whole body.
    t = any_table("braid:4")
    rng = random.Random(pairs)
    prefix = [(rng.choice(t.atoms), 1) for _ in range(30)]
    word = list(prefix)
    for _ in range(pairs):
        u = rng.randrange(t.n_simples)
        word += [(a, 1) for a in spell(t, u) + spell(t, t.sigma(u))]
    x = K.normalize(t, prefix)
    check_against_oracle(t, word, times_delta(x, pairs))
    check_against_oracle(t, word[len(prefix):], K.delta_power(t, pairs))
