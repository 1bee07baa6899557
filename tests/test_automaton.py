"""Acceptor construction, language enumeration and the word bijection."""

import gc
import hashlib
import random
import sys
import weakref
from array import array

import pytest

from garside import kernel as K
from garside import oracle as O
from garside.automaton import (
    SINK,
    START,
    build_automaton,
    dot_text,
    transition_table_text,
)
from garside.cosets import is_hn_reduced
from garside.errors import DomainError
from garside.oracle import enumerate_accepted
from garside.parabolic import make_parabolic
from garside.structures import build_braid, build_free_abelian, table_from_descriptor

from conftest import all_parabolics, any_table


@pytest.fixture(scope="module")
def aut(b3, b3_parabolic):
    return build_automaton(b3.table, b3_parabolic)


def test_state_count(aut, b3):
    assert aut.n_states == 2 * (b3.table.n_simples - 1) + 2


def test_cached_per_pair(b3, b3_parabolic):
    assert build_automaton(b3.table, b3_parabolic) is build_automaton(
        b3.table, b3_parabolic
    )


def test_initial_transitions(aut, b3):
    assert aut.step(START, (b3.a, 1)) == SINK
    assert aut.step(START, (b3.ab, 1)) == SINK
    assert aut.step(START, (b3.D, 1)) == SINK
    assert aut.state_name(aut.step(START, (b3.b, 1))) == "b"
    assert aut.state_name(aut.step(START, (b3.D, -1))) == "D^-1"
    assert aut.step(START, (b3.a, -1)) == SINK  # omega divides sigma(a)
    assert aut.state_name(aut.step(START, (b3.ba, -1))) == "ba^-1"


def test_sink_is_absorbing(aut):
    for letter in aut.alphabet:
        assert aut.step(SINK, letter) == SINK


def test_positive_after_negative_rule(aut, b3):
    # mu(u^-1, v) accepts iff u meet v is trivial.
    state = aut.step(START, (b3.ba, -1))
    assert aut.step(state, (b3.b, 1)) == SINK  # ba meet b = b
    assert aut.state_name(aut.step(state, (b3.a, 1))) == "a"


def test_negative_after_positive_is_sink(aut, b3):
    state = aut.step(START, (b3.b, 1))
    for s in (b3.a, b3.b, b3.ab, b3.ba, b3.D):
        assert aut.step(state, (s, -1)) == SINK


def test_accepts_examples(aut, b3):
    assert O.accepts(aut, [])
    assert O.accepts(aut, [(b3.b, 1)])
    assert not O.accepts(aut, [(b3.a, 1)])
    assert not O.accepts(aut, [(b3.ba, -1), (b3.b, 1)])


def test_accepts_unknown_letter(aut, b3):
    with pytest.raises(DomainError):
        O.accepts(aut, [(b3.one, 1)])


def test_enumerate_level_zero(aut):
    assert enumerate_accepted(aut, 0) == [()]


def test_enumerate_level_one(aut, b3):
    words = enumerate_accepted(aut, 1)
    assert sorted(words) == sorted(
        [((b3.b, 1),), ((b3.ba, 1),), ((b3.ba, -1),), ((b3.D, -1),)]
    )


def test_enumeration_counts_b3(aut):
    assert [len(enumerate_accepted(aut, n)) for n in range(5)] == [1, 4, 10, 24, 56]


def test_accepted_words_satisfy_local_greedy_conditions(aut, b3):
    t = b3.table
    for n in range(4):
        for word in enumerate_accepted(aut, n):
            for (u, eu), (v, ev) in zip(word, word[1:]):
                if eu == 1 and ev == 1:
                    assert t.meet_l(t.sigma(u), v) == t.unit
                if eu == -1 and ev == -1:
                    assert t.meet_l(t.sigma(v), u) == t.unit
                if eu == -1 and ev == 1:
                    assert t.meet_l(u, v) == t.unit
                assert not (eu == 1 and ev == -1)


def bijection_check(table, p, ball, n_max):
    aut = build_automaton(table, p)
    for n in range(n_max + 1):
        words = enumerate_accepted(aut, n)
        elements = [K.normalize(aut.table, w) for w in words]
        assert len(set(elements)) == len(words)
        for w, el in zip(words, elements):
            assert el.length() == n
            assert is_hn_reduced(el, p)
            assert O.element_to_word(aut, el) == w
        expected = {x for x in ball.elements_of_length(n) if is_hn_reduced(x, p)}
        assert set(elements) == expected


def test_bijection_b3(b3, b3_parabolic, b3_ball4):
    bijection_check(b3.table, b3_parabolic, b3_ball4, 4)


def test_bijection_i24(i24, i24_parabolic, i24_ball3):
    bijection_check(i24, i24_parabolic, i24_ball3, 3)


def test_word_of_negative_representative(aut, b3):
    theta = K.normalize(b3.table, [(b3.b, 1), (b3.D, -1)])
    assert O.element_to_word(aut, theta) == ((b3.ba, -1),)


def test_element_to_word_rejects_non_representatives(aut, b3):
    with pytest.raises(DomainError):
        O.element_to_word(aut, K.simple(b3.table, b3.a))


def test_improper_automaton_accepts_delta_lines():
    # With the improper parabolic H = G has one coset, whose representative
    # is 1: the empty word is accepted and no line D^-k is.
    z1 = build_free_abelian(1)
    p = make_parabolic(z1, z1.delta)
    aut = build_automaton(z1, p)
    assert enumerate_accepted(aut, 0) == [()]
    for n in range(1, 4):
        assert enumerate_accepted(aut, n) == []


def test_exports(aut):
    table_text = transition_table_text(aut)
    assert "x0 b -> b" in table_text
    assert "x0 a -> x1" in table_text
    assert table_text.count("\n") == aut.n_states * len(aut.alphabet)
    dot = dot_text(aut)
    assert dot.startswith("digraph")
    assert "x1" in dot
    assert "-> s1 [" not in dot  # sink edges omitted


def test_acceptor_cache_does_not_keep_its_table_alive():
    t = build_braid(3)
    build_automaton(t, make_parabolic(t, t.simples.index("a")))
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None


# SHA-256 of the `automaton --table` and `--dot` texts: the output must stay byte-stable.
EXPORT_PINS = [
    (
        "braid:4", "aba",
        "8daf07f6f66dfbde4617c80fde9824130c5f60a91ffa26b85a0aa94aa0554182",
        "78f6220fc4d484368ed399f17c1d6eccde47818b41e04ca4485fe1dd1038a093",
    ),
    (
        "braid:5", "a",
        "994ae20447edc6fbcd37daf6a48aad3bc52df8696538d2cc4a665ea359f95c0d",
        "2201af4a086811920c34c679b0fa9440ca3e9d0ace63b9e9bc98435b7939ec1a",
    ),
    (
        "dihedral:50", "s",
        "60ef820b06ac2dc594a61a4f82680d5fe8659d747402a2205ede869e26079015",
        "11a4ac7b414dcdcc302b3f1a80bed9895d902b8297fd07e8847f57c330167940",
    ),
]


def automaton_of(descriptor, name):
    t = table_from_descriptor(descriptor)
    return build_automaton(t, make_parabolic(t, t.simples.index(name)))


@pytest.mark.parametrize("descriptor, name, table_digest, dot_digest", EXPORT_PINS)
def test_exports_pinned(descriptor, name, table_digest, dot_digest):
    aut = automaton_of(descriptor, name)
    assert hashlib.sha256(transition_table_text(aut).encode()).hexdigest() == table_digest
    assert hashlib.sha256(dot_text(aut).encode()).hexdigest() == dot_digest


# SHA-256 of the transition table's bytes, little-endian, on the largest
# tables: abelian:10/x1 has 2048 states and so reaches the top id, 2047.
TRANSITION_PINS = [
    ("braid:6", "a", "41cd1b40eeccb9539ff4dd9b6dea0141f45806013edc4a7e75c7fe1aa6d5c0f5"),
    ("abelian:10", "x1", "efb177452ee1e29ea3cd3787b3e80b2654e5d3bc7b2a10c7744c9004a3810b65"),
]


@pytest.mark.parametrize("descriptor, name, digest", TRANSITION_PINS)
def test_transition_bytes_pinned(descriptor, name, digest):
    transition = array("H", automaton_of(descriptor, name).transition)
    if sys.byteorder == "big":
        transition.byteswap()
    assert hashlib.sha256(transition.tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "descriptor",
    [f"braid:{n}" for n in range(3, 6)]
    + [f"dihedral:{m}" for m in range(3, 9)]
    + [f"abelian:{n}" for n in range(1, 5)]
    + ["cyclic:3", "cyclic:5", "cyclic:7"],
)
def test_row_fill_equals_slot_by_slot_twin(descriptor):
    table = any_table(descriptor)
    for p in all_parabolics(table):
        assert build_automaton(table, p).transition == O.acceptor_transitions(table, p)


def test_state_ids_fit_in_16_bits():
    # At most MAX_SIMPLES simples, so at most 2 + 2 * (MAX_SIMPLES - 1) states.
    assert 2 + 2 * (K.MAX_SIMPLES - 1) < 2**16


def test_braid6_table_reads_wide_state_ids():
    # braid:6/a has 1440 states, so most ids need more than one byte.
    aut = automaton_of("braid:6", "a")
    assert aut.transition.typecode == "H"
    assert max(aut.transition) > 255
    rng = random.Random(29)
    for _ in range(3000):
        i = rng.randrange(len(aut.alphabet))
        j = rng.randrange(len(aut.alphabet))
        prev, nxt = aut.alphabet[i], aut.alphabet[j]
        want = 2 + j if K.may_follow(aut.table, prev, nxt) else SINK
        assert aut.step(2 + i, nxt) == want
