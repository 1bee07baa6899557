"""Transfer counts and the exact rational generating function."""

from array import array

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from garside import kernel as K
from garside import oracle as O
from garside.automaton import SINK, START, CosetAutomaton, build_automaton
from garside.budget import Budget
from garside.cosets import is_hn_reduced
from garside.errors import StructureError
from garside.growth import (
    RationalSeries,
    _berlekamp_massey,
    _count,
    _lumped_rows,
    format_poly,
    poly_trim,
    rational_series,
    transfer_counts,
)
from garside.oracle import enumerate_accepted
from garside.parabolic import make_parabolic
from garside.structures import build_free_abelian, table_from_descriptor


@pytest.fixture(scope="module")
def b3_aut(b3, b3_parabolic):
    return build_automaton(b3.table, b3_parabolic)


def test_transfer_counts_b3(b3_aut):
    assert transfer_counts(b3_aut, 5) == [1, 4, 10, 24, 56, 128]


def test_counts_match_enumeration(b3_aut):
    counts = transfer_counts(b3_aut, 4)
    for n in range(5):
        assert counts[n] == len(enumerate_accepted(b3_aut, n))


def test_counts_match_oracle_partition(b3, b3_parabolic, b3_aut):
    part = O.brute_coset_partition(
        b3.table, b3_parabolic.div_sorted, 4, Budget(10**7)
    )
    assert transfer_counts(b3_aut, 4) == part.counts_by_length(4)


def test_series_b3(b3_aut):
    rs = rational_series(b3_aut)
    assert rs.numerator == (1, 0, -2)
    assert rs.denominator == (1, -4, 4)
    assert rs.recurrence == (4, -4)
    assert rs.guard == 2
    assert rs.expand(20) == transfer_counts(b3_aut, 20)


def test_series_denominator_properties(b3_aut):
    rs = rational_series(b3_aut)
    assert rs.denominator[0] == 1
    # Recurrence reproduces the tail (shift consistency).
    e = transfer_counts(b3_aut, 12)
    d = len(rs.recurrence)
    for n in range(rs.guard + 1, 13):
        assert e[n] == sum(rs.recurrence[i - 1] * e[n - i] for i in range(1, d + 1))


def test_denominator_divides_reversed_charpoly(b3_aut):
    rs = rational_series(b3_aut)
    char_rev = O.reversed_charpoly(O.reachable_count_matrix(b3_aut))
    assert O.poly_divides(rs.denominator, char_rev)


def test_series_abelian_closed_form(z2):
    p = make_parabolic(z2, z2.simples.index("x"))
    rs = rational_series(build_automaton(z2, p))
    assert rs.numerator == (1, 1)
    assert rs.denominator == (1, -1)
    assert rs.expand(6) == [1, 2, 2, 2, 2, 2, 2]


def test_series_improper_line():
    z1 = build_free_abelian(1)
    p = make_parabolic(z1, z1.delta)
    rs = rational_series(build_automaton(z1, p))
    # H = G has one coset, so the series is the constant 1.
    assert rs.numerator == (1,)
    assert rs.denominator == (1,)
    assert rs.guard == 0


def test_series_i24(i24, i24_parabolic):
    aut = build_automaton(i24, i24_parabolic)
    assert transfer_counts(aut, 3) == [1, 6, 24, 90]
    rs = rational_series(aut)
    assert rs.denominator == (1, -6, 9)
    assert rs.expand(20) == transfer_counts(aut, 20)
    assert O.poly_divides(rs.denominator, O.reversed_charpoly(O.reachable_count_matrix(aut)))


def test_series_deterministic(b3_aut):
    assert str(rational_series(b3_aut)) == str(rational_series(b3_aut))


def test_format_poly():
    assert format_poly((1, -4, 4)) == "1 - 4*t + 4*t^2"
    assert format_poly((0,)) == "0"
    assert format_poly(()) == "0"
    assert format_poly((-1, 0, 2)) == "-1 + 2*t^2"


def automaton_of(descriptor, name):
    t = table_from_descriptor(descriptor)
    sid = t.delta if name == "D" else t.simples.index(name)
    return build_automaton(t, make_parabolic(t, sid))


@pytest.mark.parametrize(
    "descriptor, name",
    [(f"dihedral:{m}", "s") for m in range(3, 7)]
    + [("braid:3", "a"), ("abelian:2", "x"), ("abelian:3", "xy"), ("abelian:4", "xz"), ("braid:3", "D")],
)
def test_series_matches_cayley_hamilton_twin(descriptor, name):
    # Qc = det(I - tM) is a denominator of the series, so with Pc = (Qc e) mod t^r
    # the two fractions num/den and Pc/Qc must be equal.
    aut = automaton_of(descriptor, name)
    rs = rational_series(aut)
    matrix = O.reachable_count_matrix(aut)
    qc = O.reversed_charpoly(matrix)
    r = len(matrix)
    pc = poly_trim(O.poly_mul(qc, transfer_counts(aut, r - 1))[:r])
    assert O.poly_mul(rs.numerator, qc) == O.poly_mul(pc, rs.denominator)


def every_parabolic(descriptor):
    t = table_from_descriptor(descriptor)
    for sid in range(t.n_simples):
        if sid == t.unit:
            continue
        try:
            p = make_parabolic(t, sid)
        except StructureError:
            continue
        yield t.simples[sid], build_automaton(t, p)


@pytest.mark.parametrize(
    "descriptor",
    ["braid:3", "braid:4"]
    + [f"dihedral:{m}" for m in range(3, 9)]
    + [f"abelian:{n}" for n in range(2, 5)],
)
def test_transfer_counts_match_dense_twin(descriptor):
    names = []
    for name, aut in every_parabolic(descriptor):
        assert transfer_counts(aut, 30) == O.dense_transfer_counts(aut, 30), name
        names.append(name)
    assert "D" in names and len(names) >= 3


@pytest.mark.parametrize("descriptor", ["braid:3", "dihedral:3", "abelian:1", "abelian:2"])
def test_every_parabolic_agrees_with_oracle_partition(descriptor):
    # D included: H = G has one coset, so its counts are 1, 0, 0.
    budget = Budget(10**7)
    names = []
    for name, aut in every_parabolic(descriptor):
        part = O.brute_coset_partition(aut.table, aut.parabolic.div_sorted, 2, budget)
        assert transfer_counts(aut, 2) == part.counts_by_length(2), name
        for n in range(4):
            for word in enumerate_accepted(aut, n):
                assert is_hn_reduced(K.normalize(aut.table, word), aut.parabolic), (name, word)
        names.append(name)
    assert "D" in names


@pytest.mark.parametrize(
    "descriptor, name, classes",
    [
        ("braid:3", "a", 4),
        ("dihedral:4", "s", 4),
        ("braid:4", "a", 8),
        ("braid:4", "aba", 8),
        ("braid:5", "a", 12),
        ("dihedral:50", "s", 4),
        ("abelian:3", "xy", 2),
    ],
)
def test_lumping_is_coarsest(descriptor, name, classes):
    # The class counts of the coarsest ordinary lumping; a finer partition
    # still counts correctly but widens the Berlekamp-Massey window.
    assert len(_lumped_rows(automaton_of(descriptor, name))) == classes


def acceptor(k, transition):
    """A complete acceptor on k letters over the flat transition table."""
    alphabet = tuple((j, 1) for j in range(k))
    return CosetAutomaton(
        table=None,
        parabolic=None,
        alphabet=alphabet,
        transition=array("H", transition),
        letter_index={letter: j for j, letter in enumerate(alphabet)},
    )


@st.composite
def random_acceptors(draw):
    # Complete tables with an absorbing sink, a block of states that no live
    # state reaches (their own rows may point anywhere), and a one-letter
    # chain START -> 2 -> 3 -> ... whose states split into classes one
    # refinement round at a time, from the far end of the chain back.
    k = draw(st.integers(1, 8))
    n = 2 + k
    reach = n - draw(st.integers(0, k - 1))
    chain = draw(st.integers(0, reach - 2))
    target = st.one_of(st.just(SINK), st.integers(0, n - 1))
    trans = draw(st.lists(target, min_size=n * k, max_size=n * k))
    for s in range(reach):
        row = [SINK] * k if s == SINK else trans[s * k : (s + 1) * k]
        trans[s * k : (s + 1) * k] = [t if t < reach else SINK for t in row]
    path = [START] + list(range(2, 2 + chain))
    for a, b in zip(path, path[1:]):
        trans[a * k : (a + 1) * k] = [b] + [SINK] * (k - 1)
    return acceptor(k, trans)


def delay_chain():
    # START -> 2 -> ... -> 7 on the first of six letters, every other move to
    # the sink: one word of each length up to 6, and six refinement rounds
    # before the seven chain states are all apart.
    path = [START, 2, 3, 4, 5, 6, 7]
    trans = [SINK] * (8 * 6)
    for a, b in zip(path, path[1:]):
        trans[a * 6] = b
    return acceptor(6, trans)


@settings(max_examples=200, deadline=None)
@given(random_acceptors())
@example(delay_chain())
def test_lumped_counts_match_dense_twin_on_random_tables(aut):
    dense = O.dense_transfer_counts(aut, 30)
    assert transfer_counts(aut, 30) == dense
    assert rational_series(aut).expand(30) == dense


def start_row_is_a_letter_row():
    # START and state 2 share the row [2, 3]; state 3 is a dead end.
    return acceptor(2, [2, 3, SINK, SINK, 2, 3, SINK, SINK])


def unreachable_twin_of_a_live_state():
    # State 3 has live state 2's row [2, sink, sink], but nothing reaches it;
    # nor state 4, whose own row would make a class of its own.
    return acceptor(3, [2, 2, SINK] + [SINK] * 3 + [2, SINK, SINK] * 2 + [4] * 3)


def chain_with_equal_rows():
    # START -> 2 -> 3 -> 3 -> ...: the live states 2 and 3 share the row [3, sink].
    return acceptor(2, [2, SINK, SINK, SINK, 3, SINK, 3, SINK])


@settings(max_examples=200, deadline=None)
@given(random_acceptors())
@example(delay_chain())
@example(start_row_is_a_letter_row())
@example(unreachable_twin_of_a_live_state())
@example(chain_with_equal_rows())
def test_row_lumping_matches_state_lumping(aut):
    # The refinement over distinct rows against its state-by-state twin.
    rows, twin = _lumped_rows(aut), O.state_lumping(aut)
    assert len(rows) == len(twin)
    dense = O.dense_transfer_counts(aut, 30)
    assert _count(rows, 30) == _count(twin, 30) == dense


def coprime(p, q) -> bool:
    a, b = list(p), list(q)
    while b:
        _, rem = O.poly_divmod_exact(a, b)
        a, b = b, rem
    return len(a) == 1


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-4, 4), max_size=6),
    st.lists(st.integers(-4, 4), min_size=1, max_size=6),
)
def test_berlekamp_massey_on_exactly_2l_terms(den_tail, num):
    # P/Q in lowest terms with Q(0) = 1 has linear complexity
    # L = max(deg Q, deg P + 1); 2L terms must give back Q exactly.
    den, num = poly_trim([1] + den_tail), poly_trim(num)
    assume(num and coprime(num, den))
    complexity = max(len(den) - 1, len(num))
    seq = RationalSeries(num, den, (), 0).expand(2 * complexity - 1)
    conn = _berlekamp_massey(seq)
    assert all(c.denominator == 1 for c in conn)
    assert poly_trim([int(c) for c in conn]) == den


# Frozen `series` strings: the output must stay byte-stable.
SERIES_PINS = [
    ('dihedral:3', 's', 'numerator = 1 - 2*t^2; denominator = 1 - 4*t + 4*t^2; recurrence = 4,-4; guard = 2'),
    ('dihedral:4', 's', 'numerator = 1 - 3*t^2; denominator = 1 - 6*t + 9*t^2; recurrence = 6,-9; guard = 2'),
    ('dihedral:5', 's', 'numerator = 1 - 4*t^2; denominator = 1 - 8*t + 16*t^2; recurrence = 8,-16; guard = 2'),
    ('dihedral:6', 's', 'numerator = 1 - 5*t^2; denominator = 1 - 10*t + 25*t^2; recurrence = 10,-25; guard = 2'),
    ('dihedral:7', 's', 'numerator = 1 - 6*t^2; denominator = 1 - 12*t + 36*t^2; recurrence = 12,-36; guard = 2'),
    ('dihedral:8', 's', 'numerator = 1 - 7*t^2; denominator = 1 - 14*t + 49*t^2; recurrence = 14,-49; guard = 2'),
    ('dihedral:9', 's', 'numerator = 1 - 8*t^2; denominator = 1 - 16*t + 64*t^2; recurrence = 16,-64; guard = 2'),
    ('dihedral:10', 's', 'numerator = 1 - 9*t^2; denominator = 1 - 18*t + 81*t^2; recurrence = 18,-81; guard = 2'),
    ('dihedral:11', 's', 'numerator = 1 - 10*t^2; denominator = 1 - 20*t + 100*t^2; recurrence = 20,-100; guard = 2'),
    ('dihedral:12', 's', 'numerator = 1 - 11*t^2; denominator = 1 - 22*t + 121*t^2; recurrence = 22,-121; guard = 2'),
    ('dihedral:13', 's', 'numerator = 1 - 12*t^2; denominator = 1 - 24*t + 144*t^2; recurrence = 24,-144; guard = 2'),
    ('dihedral:14', 's', 'numerator = 1 - 13*t^2; denominator = 1 - 26*t + 169*t^2; recurrence = 26,-169; guard = 2'),
    ('braid:3', 'a', 'numerator = 1 - 2*t^2; denominator = 1 - 4*t + 4*t^2; recurrence = 4,-4; guard = 2'),
    ('braid:4', 'a', 'numerator = 1 + 6*t - 56*t^2 + 78*t^3 - 1*t^4 - 36*t^5 + 12*t^6; denominator = 1 - 16*t + 94*t^2 - 252*t^3 + 321*t^4 - 180*t^5 + 36*t^6; recurrence = 16,-94,252,-321,180,-36; guard = 6'),
    ('braid:4', 'aba', 'numerator = 1 - 10*t + 28*t^2 + 6*t^3 - 77*t^4 + 60*t^5 - 12*t^6; denominator = 1 - 16*t + 94*t^2 - 252*t^3 + 321*t^4 - 180*t^5 + 36*t^6; recurrence = 16,-94,252,-321,180,-36; guard = 6'),
    ('abelian:2', 'x', 'numerator = 1 + 1*t; denominator = 1 - 1*t; recurrence = 1; guard = 1'),
    ('abelian:3', 'x', 'numerator = 1 + 4*t + 1*t^2; denominator = 1 - 2*t + 1*t^2; recurrence = 2,-1; guard = 2'),
    ('abelian:3', 'xy', 'numerator = 1 + 1*t; denominator = 1 - 1*t; recurrence = 1; guard = 1'),
    ('abelian:4', 'x', 'numerator = 1 + 11*t + 11*t^2 + 1*t^3; denominator = 1 - 3*t + 3*t^2 - 1*t^3; recurrence = 3,-3,1; guard = 3'),
    ('abelian:4', 'xy', 'numerator = 1 + 4*t + 1*t^2; denominator = 1 - 2*t + 1*t^2; recurrence = 2,-1; guard = 2'),
    ('abelian:4', 'xyz', 'numerator = 1 + 1*t; denominator = 1 - 1*t; recurrence = 1; guard = 1'),
    ('dihedral:50', 's', 'numerator = 1 - 49*t^2; denominator = 1 - 98*t + 2401*t^2; recurrence = 98,-2401; guard = 2'),
    ('braid:5', 'a', 'numerator = 1 + 62*t - 1162*t^2 + 1826*t^3 + 21871*t^4 - 92280*t^5 + 139566*t^6 - 83016*t^7 - 792*t^8 + 19008*t^9 - 5184*t^10; denominator = 1 - 56*t + 1182*t^2 - 12140*t^3 + 68449*t^4 - 225372*t^5 + 447108*t^6 - 535392*t^7 + 373824*t^8 - 138240*t^9 + 20736*t^10; recurrence = 56,-1182,12140,-68449,225372,-447108,535392,-373824,138240,-20736; guard = 10'),
]


@pytest.mark.parametrize("descriptor, name, expected", SERIES_PINS)
def test_series_pinned(descriptor, name, expected):
    assert str(rational_series(automaton_of(descriptor, name))) == expected


# The braid:6/a series, frozen from the table the scan-based constructor built.
BRAID6_A_SERIES = (
    "numerator = 1 + 498*t - 25914*t^2 - 345786*t^3 + 16647028*t^4 - 167549166*t^5 + 672658766*t^6 - 488100390*t^7 - 5625066717*t^8 + 23947272732*t^9 - 48162881356*t^10 + 57794374176*t^11 - 43125274032*t^12 + 18931499712*t^13 - 3377867328*t^14 - 988540416*t^15 + 728082432*t^16 - 169205760*t^17 + 14929920*t^18; denominator = 1 - 220*t + 17808*t^2 - 682136*t^3 + 14353670*t^4 - 181811376*t^5 + 1481868476*t^6 - 8138913992*t^7 + 31068733329*t^8 - 84117667540*t^9 + 163595961724*t^10 - 230120201280*t^11 + 234507917616*t^12 - 172441475136*t^13 + 90414732096*t^14 - 32966161920*t^15 + 7953914880*t^16 - 1144627200*t^17 + 74649600*t^18; recurrence = 220,-17808,682136,-14353670,181811376,-1481868476,8138913992,-31068733329,84117667540,-163595961724,230120201280,-234507917616,172441475136,-90414732096,32966161920,-7953914880,1144627200,-74649600; guard = 18"
)


def test_braid6_series_and_counts():
    # braid:6 has 720 simples; the acceptor of its parabolic <a> has 1440 states.
    aut = automaton_of("braid:6", "a")
    assert aut.n_states == 1440
    assert str(rational_series(aut)) == BRAID6_A_SERIES
    assert transfer_counts(aut, 4) == O.dense_transfer_counts(aut, 4)
