"""A loaded structure whose phi has order n: <a1..an | a1 a2 = a2 a3 = ... = an a1 = D>.

Every built-in structure has a phi of order at most 2, where phi^k and
phi^-k agree, so a D-power twist with the wrong sign passes their tests.
Here sigma(ai) = a(i+1), phi = sigma^-2 has order n for odd n, and the
twists are checked against the oracle's word-level normal form.
"""

import random

import pytest

from garside import kernel as K
from garside import oracle as O
from garside.automaton import build_automaton
from garside.growth import transfer_counts
from garside.parabolic import make_parabolic
from garside.structures import load_table, validate_table

from conftest import cyclic_text, signed_letters


@pytest.fixture(scope="module", params=[3, 5], ids=lambda n: f"cyclic:{n}")
def cyclic(request):
    return request.param, load_table(cyclic_text(request.param))


def random_words(table, seed, count=40, max_len=25):
    rng = random.Random(seed)
    letters = signed_letters(table)
    return [[rng.choice(letters) for _ in range(rng.randint(1, max_len))] for _ in range(count)]


def key(x):
    return x.delta_power, x.body


def assert_views_remultiply(x):
    for variant in K.Form:
        assert K.view(x, variant).remultiply() == x


def test_cyclic_table_validates_with_phi_of_order_n(cyclic):
    n, t = cyclic
    assert validate_table(t) == []
    assert t.phi_order == n
    a1 = t.simples.index("a1")
    assert [t.simples[t.phi_pow(a1, k)] for k in range(n)] == [
        f"a{(-2 * k) % n + 1}" for k in range(n)
    ]


def test_cyclic_normalize_agrees_with_oracle(cyclic):
    n, t = cyclic
    for word in random_words(t, f"normalize:{n}"):
        x = K.normalize(t, word)
        assert O.is_canonical(x)
        assert key(x) == O.canonical_key(t, word)
        assert_views_remultiply(x)


def test_cyclic_multiply_agrees_with_oracle(cyclic):
    n, t = cyclic
    words = random_words(t, f"multiply:{n}")
    for w1, w2 in zip(words, words[1:]):
        z = K.multiply(K.normalize(t, w1), K.normalize(t, w2))
        assert O.is_canonical(z)
        assert key(z) == O.canonical_key(t, w1 + w2)
        assert_views_remultiply(z)


def test_cyclic_invert_agrees_with_oracle(cyclic):
    n, t = cyclic
    for word in random_words(t, f"invert:{n}"):
        y = K.invert(K.normalize(t, word))
        assert O.is_canonical(y)
        assert key(y) == O.canonical_key(t, [(s, -e) for s, e in reversed(word)])
        assert_views_remultiply(y)


@pytest.mark.parametrize("n,want", [(3, [1, 4, 10, 24]), (5, [1, 8, 44, 224])])
def test_cyclic_coset_growth_agrees_with_partition(n, want):
    t = load_table(cyclic_text(n))
    p = make_parabolic(t, t.simples.index("a1"))
    assert transfer_counts(build_automaton(t, p), 3) == want
    assert O.brute_coset_partition(t, p.div_sorted, 3).counts_by_length(3) == want
