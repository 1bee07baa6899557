"""Transfer counts and the exact rational generating function."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from garside import oracle as O
from garside.automaton import build_automaton, enumerate_accepted
from garside.budget import Budget
from garside.growth import (
    RationalSeries,
    _berlekamp_massey,
    format_poly,
    poly_trim,
    rational_series,
    transfer_counts,
)
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
    assert rs.numerator == (1,)
    assert rs.denominator == (1, -1)
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
]


@pytest.mark.parametrize("descriptor, name, expected", SERIES_PINS)
def test_series_pinned(descriptor, name, expected):
    assert str(rational_series(automaton_of(descriptor, name))) == expected
