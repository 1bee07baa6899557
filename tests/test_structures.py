"""Builders, validator, text format round-trip and isomorphism checks."""

import hashlib
import random

import pytest

from garside import oracle as O
from garside.errors import StructureError
from garside.kernel import MAX_SIMPLES, GarsideTable
from garside.structures import (
    build_braid,
    build_dihedral,
    build_free_abelian,
    load_table,
    parse_structure_text,
    save_table,
    table_from_descriptor,
    tables_isomorphic,
    validate_table,
)

from conftest import MUTATION_SOURCES, cyclic_text, mutate_products, mutation_source


def test_braid2_is_infinite_cyclic():
    t = build_braid(2)
    assert t.n_simples == 2
    assert set(t.simples) == {"1", "D"}
    assert validate_table(t) == []


def test_braid3_structure(b3):
    t = b3.table
    assert t.n_simples == 6
    assert set(t.simples) == {"1", "a", "b", "ab", "ba", "D"}
    assert t.sigma(b3.a) == b3.ba  # a * ba = aba = D
    assert t.phi(b3.a) == b3.b and t.phi(b3.ab) == b3.ba


def test_braid4_counts():
    t = build_braid(4)
    assert t.n_simples == 24
    # Every simple divides D on the left: 24 divisors.
    assert sum(1 for u in range(24) if t.left_divides(u, t.delta)) == 24


def test_braid_range_guard():
    with pytest.raises(StructureError):
        build_braid(1)
    with pytest.raises(StructureError):
        build_braid(7)


def test_dihedral_counts_and_sigma():
    t = build_dihedral(4)
    assert t.n_simples == 8
    t3 = build_dihedral(3)
    s = t3.simples.index("s")
    ts = t3.simples.index("ts")
    assert t3.sigma(s) == ts  # s * ts = sts = D for m = 3
    with pytest.raises(StructureError):
        build_dihedral(2)
    with pytest.raises(StructureError):
        build_dihedral(51)


def test_abelian_structure():
    t1 = build_free_abelian(1)
    assert t1.n_simples == 2
    t2 = build_free_abelian(2)
    x, y = t2.simples.index("x"), t2.simples.index("y")
    assert t2.meet_l(x, y) == t2.unit
    t3 = build_free_abelian(3)
    xi = t3.simples.index("x")
    assert t3.simples[t3.sigma(xi)] == "yz"
    assert t3.phi(xi) == xi
    with pytest.raises(StructureError):
        build_free_abelian(0)
    with pytest.raises(StructureError):
        build_free_abelian(11)


def test_builtin_families_validate():
    for table in (
        build_braid(3),
        build_braid(4),
        build_dihedral(3),
        build_dihedral(4),
        build_dihedral(5),
        build_free_abelian(1),
        build_free_abelian(2),
        build_free_abelian(3),
    ):
        assert validate_table(table) == [], table.name


def test_meet_algebra_laws():
    # Idempotent, commutative, associative; D is neutral, the unit absorbing.
    for t in (build_braid(3), build_dihedral(4), build_free_abelian(2)):
        n = t.n_simples
        for u in range(n):
            assert t.meet_l(u, u) == u
            assert t.meet_l(u, t.delta) == u
            assert t.meet_l(u, t.unit) == t.unit
            for v in range(n):
                assert t.meet_l(u, v) == t.meet_l(v, u)
                assert t.left_divides(u, v) == (t.meet_l(u, v) == u)
                for w in range(n):
                    assert t.meet_l(t.meet_l(u, v), w) == t.meet_l(u, t.meet_l(v, w))


def test_sigma_phi_consistency():
    for t in (build_braid(3), build_dihedral(4), build_free_abelian(3)):
        assert t.sigma(t.unit) == t.delta
        assert t.sigma(t.delta) == t.unit
        for u in range(t.n_simples):
            assert t.product(u, t.sigma(u)) == t.delta
            assert t.phi(t.sigma(t.sigma(u))) == u


def test_dihedral3_isomorphic_to_braid3(b3):
    assert tables_isomorphic(build_dihedral(3), b3.table)
    assert not tables_isomorphic(build_dihedral(4), b3.table)
    assert not tables_isomorphic(build_free_abelian(2), build_dihedral(4))


def test_two_complements_rejected():
    # a1 * a2 = D already; a second complement of a1 breaks left cancellation.
    with pytest.raises(StructureError, match="left cancellation fails at a1"):
        load_table(cyclic_text(3) + "a1 a3 = D\n")


def test_divisor_set_without_maximum_rejected():
    # p = a c = b d and q = a d = b c: the common left divisors of p and q
    # are 1, a and b, which have no maximum.
    text = "simples: 1 a b c d p q D\ndelta: D\na c = p\nb d = p\na d = q\nb c = q\n"
    with pytest.raises(StructureError, match="meet_l: common divisors have no maximum"):
        load_table(text)


def _build_unvalidated(text):
    """The table of a structure file, as load_table builds it, without validation."""
    sf = parse_structure_text(text)
    i = {s: k for k, s in enumerate(sf.simples)}
    products = {(i[u], i[v]): i[w] for u, v, w in sf.products}
    return GarsideTable(sf.name, sf.simples, i["1"], i[sf.delta], products)


NON_ADDITIVE_TEXT = """\
simples: 1 a b c e D
delta: D
a b = D
b a = D
c c = e
c e = D
e c = D
"""


def test_non_additive_grade_reported():
    # D = ab = ccc: every axiom the constructor enforces holds, but no
    # grade is additive on both spellings of D.
    assert validate_table(_build_unvalidated(NON_ADDITIVE_TEXT)) == [
        "grading: not additive at a * b",
        "grading: not additive at b * a",
    ]
    with pytest.raises(StructureError, match="grading: not additive at a [*] b"):
        load_table(NON_ADDITIVE_TEXT)


def test_table_size_bound():
    # abelian:10, the largest built-in, sits at the limit.
    assert build_free_abelian(10).n_simples == MAX_SIMPLES
    names = " ".join(f"s{k}" for k in range(MAX_SIMPLES - 1))
    with pytest.raises(StructureError, match=f"{MAX_SIMPLES + 1} simples exceed"):
        load_table(f"simples: 1 {names} D\ndelta: D\n")


def _divisors(t, left):
    """Left (or right) divisor sets of every simple, read off the product."""
    div = [set() for _ in range(t.n_simples)]
    for a in range(t.n_simples):
        for b in range(t.n_simples):
            w = t.product(a, b)
            if w is not None:
                div[w].add(a if left else b)
    return div


def test_mutated_tables_build_only_consistent_lattices():
    # Seeded product-line mutations of saved tables. On every mutant the
    # constructor accepts, the meets are greatest common divisors read off
    # the product, sigma and phi satisfy their definitions, and a valid
    # table has a unique join for every pair.
    rng = random.Random(20261018)
    sources = [mutation_source(d) for d in MUTATION_SOURCES]
    built = valid = 0
    for k in range(3000):
        text = mutate_products(sources[k % len(sources)], rng)
        try:
            t = _build_unvalidated(text)
        except StructureError:
            continue
        built += 1
        n = t.n_simples
        for meet, div in ((t.meet_l, _divisors(t, True)), (t.meet_r, _divisors(t, False))):
            for u in range(n):
                for v in range(n):
                    m = meet(u, v)
                    common = div[u] & div[v]
                    assert m in common and common <= div[m], text
        for u in range(n):
            assert t.product(u, t.sigma(u)) == t.delta, text
            assert t.phi(t.sigma(t.sigma(u))) == u, text
        if validate_table(t) == []:
            valid += 1
            for u in range(n):
                for v in range(n):
                    O.join_l(t, u, v)
    assert built > 300 and valid > 150


# Saved tables the validator differential test mutates, all small enough
# for the n^3 twin. The cyclic tables make ties in grade among common
# divisors, where the constructor's choice of meet shows.
DIFFERENTIAL_SOURCES = MUTATION_SOURCES + ("abelian:4",)
# SHA-256 over what the constructor makes of each of the 3200 mutants of
# seed 20261018: its error message, or everything it derives. Frozen from
# the constructor that found each meet by a linear scan in grade order.
MUTANT_OUTCOMES_SHA256 = "455bb82e58dddfc8a740dd939c8cee2804ba8089ab3fd0ecf13f1521a79d2b0d"


def _derived(t):
    """Everything the constructor derives from the product, as text."""
    n = t.n_simples
    pairs = [(u, v) for u in range(n) for v in range(n)]
    return repr((
        t.atoms,
        t.grade,
        [t.product(u, v) for u, v in pairs],
        [t.meet_l(u, v) for u, v in pairs],
        [t.meet_r(u, v) for u, v in pairs],
        [t.sigma(u) for u in range(n)],
        [t.phi(u) for u in range(n)],
    ))


@pytest.mark.parametrize(
    "descriptor",
    [f"braid:{n}" for n in range(2, 5)]
    + [f"dihedral:{m}" for m in range(3, 21)]
    + [f"abelian:{n}" for n in range(1, 6)],
)
def test_validator_agrees_with_dense_twin_on_builtins(descriptor):
    t = table_from_descriptor(descriptor)
    for table in (t, t.reversed()):
        assert validate_table(table) == O.dense_validate_table(table) == []


def test_validator_and_constructor_on_mutants():
    # On every mutant the constructor accepts, the sparse validator returns
    # the n^3 twin's list; and the constructor accepts, derives and refuses
    # exactly as the scan-based constructor did.
    rng = random.Random(20261018)
    sources = [mutation_source(d) for d in DIFFERENTIAL_SOURCES]
    outcomes = hashlib.sha256()
    built = valid = 0
    for k in range(3200):
        text = mutate_products(sources[k % len(sources)], rng)
        try:
            t = _build_unvalidated(text)
        except StructureError as exc:
            outcomes.update(f"error: {exc}\n".encode())
            continue
        outcomes.update(f"{_derived(t)}\n".encode())
        violations = validate_table(t)
        assert violations == O.dense_validate_table(t), text
        built += 1
        valid += not violations
    assert (built, valid) == (438, 265)
    assert outcomes.hexdigest() == MUTANT_OUTCOMES_SHA256


B3_TEXT = """\
# the braid group on three strands
name: threestrand
simples: 1 a b ab ba H
delta: H
a b = ab
b a = ba
a ba = H
b ab = H
ab a = H
ba b = H
"""


def test_load_table_from_text(b3):
    t = load_table(B3_TEXT)
    assert validate_table(t) == []
    assert tables_isomorphic(t, b3.table)
    assert t.simples[t.delta] == "H"


def test_conflicting_product_lines_rejected():
    # A later line for the same pair must not silently replace an earlier one.
    with pytest.raises(StructureError, match=r"conflicting products for a \* b"):
        load_table(B3_TEXT + "a b = H\n")
    assert tables_isomorphic(load_table(B3_TEXT + "a b = ab\n"), load_table(B3_TEXT))


def test_save_load_roundtrip(b3, tmp_path):
    text = save_table(b3.table)
    again = load_table(text)
    assert tables_isomorphic(again, b3.table)
    assert again.simples == b3.table.simples  # same layout, not just isomorphic
    path = tmp_path / "b3.garside"
    path.write_text(text)
    assert tables_isomorphic(table_from_descriptor(f"file:{path}"), b3.table)


# Sources of at most 8 simples, where the brute-force twin tries every bijection.
ISO_SOURCES = ("braid:3", "dihedral:3", "dihedral:4", "abelian:2", "abelian:3", "cyclic:3", "cyclic:5")


def _shuffled(rng, text):
    """A saved structure with its simples and product lines reordered."""
    name, simples, delta, *products = text.splitlines()
    names = simples.split()[1:]
    rng.shuffle(names)
    rng.shuffle(products)
    return "\n".join([name, "simples: " + " ".join(names), delta] + products) + "\n"


def _swapped_values(text):
    """The constructor-accepted tables with the values of two product lines swapped."""
    head, products = text.splitlines()[:3], text.splitlines()[3:]
    out = []
    for i in range(len(products)):
        for j in range(i):
            (ui, wi), (uj, wj) = products[i].split("="), products[j].split("=")
            mutant = list(products)
            mutant[i], mutant[j] = ui + "=" + wj, uj + "=" + wi
            try:
                out.append(_build_unvalidated("\n".join(head + mutant) + "\n"))
            except StructureError:
                pass
    return out


def test_isomorphism_agrees_with_brute_force():
    # Each source and its distinct value-swapped mutants, against their
    # seed-shuffled reloads (isomorphic) and against every other table of
    # the pool with as many simples (both answers; braid:3 and dihedral:3
    # are isomorphic).
    rng = random.Random(20261018)
    pool = {}
    for source in ISO_SOURCES:
        text = mutation_source(source)
        for t in [_build_unvalidated(text)] + _swapped_values(text):
            pool.setdefault(save_table(t), t)
    pool = list(pool.values())
    answers = []
    for t1 in pool:
        reload = _build_unvalidated(_shuffled(rng, save_table(t1)))
        assert tables_isomorphic(t1, reload) and O.brute_isomorphic(t1, reload)
        for t2 in pool:
            if t2 is not t1 and t2.n_simples == t1.n_simples:
                got = tables_isomorphic(t1, t2)
                assert got == O.brute_isomorphic(t1, t2), (save_table(t1), save_table(t2))
                answers.append(got)
    assert answers.count(True) >= 20 and answers.count(False) >= 200


def test_parse_errors():
    with pytest.raises(StructureError):
        parse_structure_text("simples: 1 a\n")  # no delta
    with pytest.raises(StructureError):
        parse_structure_text("simples: a D\ndelta: D\n")  # no unit
    with pytest.raises(StructureError):
        parse_structure_text("simples: 1 a a\ndelta: a\n")  # duplicate
    with pytest.raises(StructureError):
        parse_structure_text("simples: 1 a\ndelta: D\n")  # unknown delta
    with pytest.raises(StructureError):
        parse_structure_text("simples: 1 a\ndelta: a\nbroken line\n")


def test_load_rejects_incomplete_product_list():
    # Missing complements: the completion cannot find sigma for a.
    text = "simples: 1 a D\ndelta: D\n"
    with pytest.raises(StructureError):
        load_table(text)


def test_table_from_descriptor_errors():
    with pytest.raises(StructureError):
        table_from_descriptor("braid:zz")
    with pytest.raises(StructureError):
        table_from_descriptor("file:/does/not/exist")
