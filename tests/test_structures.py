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


# SHA-256 of `save_table` on every built-in table but abelian:10 (0.7 s
# alone), frozen from the pairwise product loops that the Coxeter walk
# replaced: the saved text holds each id, name and product.
BUILTIN_PINNED = {
    "braid:2": "6b5d01661194c81cc00c60baa6f503db686d8c045bd3f418669bcd1b3243eebb",
    "braid:3": "3cd06cf4ae18def22b59c360a0d66b0b603e1f433df9d9657f610e1f5accb64e",
    "braid:4": "17b690c5972a2f795c8975877763dd38225cc5ff07810cd0c02503731ec436af",
    "braid:5": "f73133ec59a395ee6ad6d037dbdb5e82e6257d4f7975b6ee72bdbcc4cd3b2a9f",
    "braid:6": "b5d8f61148c1c77fa9ce2b101344a6bc8fa7511f46a5315ea08f5d4c71b61e41",
    "dihedral:3": "ab24e9cb4b44484d71cbb5178146a5fc276cfa61c2ce1e92d40a0a7bc68dd6f8",
    "dihedral:4": "cf140a31fe46abbd647f3da4a5d5a4603b4bed37924b623051d435cee9e3780e",
    "dihedral:5": "9977bb39dad603b477c745837a7e6f5bdb6e566b3db124c4b492bf9b15144fa3",
    "dihedral:6": "d33d6169737862e5cd61983e18513f782e94746f1aa32730c1fffa4bee800494",
    "dihedral:7": "f7b120ebcffa79e15d487a894751cc68d2fe7da29a5a25c63616cbb85c87a6d4",
    "dihedral:8": "30202c27b2b85804f80079ceddb4f236b0230bb988b118d954a54d0456d70698",
    "dihedral:9": "3bcc100e1bbfd0197c33cf902d7870a7812ba3582c4262cc4dc42ea28a930416",
    "dihedral:10": "29fc56f1a4d9b1083fba321a29f9c6afcfe4d119bdc12efb51623bd3bf57147c",
    "dihedral:11": "8a147d824cdc07fead062e812d50ba3141e121e23f11cbc5dd4834147703d353",
    "dihedral:12": "049ef728768765751ca9f400c24ce6c47083ad0a2695d0ddc1350c91088da6e8",
    "dihedral:13": "0370497e5010e8fa393297521b652c2793ec94a906c32541ecdb91edc92b6165",
    "dihedral:14": "baa037d2a117b605f4b136775316c1138cc3259035e382ea351c7b819562e67a",
    "dihedral:15": "33ff9504eabc9d84885c26342abf5b5c9fab6b781330eabe725a77672e64ab47",
    "dihedral:16": "b892866337095025d70d5e66f353eb3becc21ac7cf1925ee7199bc512eeadb49",
    "dihedral:17": "f7403fb23010b4152f88fa557742aa14a398b652ba7040d093bb36d72e174ae7",
    "dihedral:18": "51ef186bc50ed8c988f263f74bbd07ce74bbb025728f5499a70f4c228912452e",
    "dihedral:19": "87dd56f85fbd658fb58d5833c01f1239d56f1f96bf1f1dac9af58d20cb0142a8",
    "dihedral:20": "2e7c54f4dbc36af6a67bf8c3540e6d45b6e95326f001e760ef59c5cf693b02a7",
    "dihedral:21": "6750b03878557a42dad03ae3039b8a582625ad3efa0c4a77fb81fda5460f4566",
    "dihedral:22": "63cc0788dfe0b1262a0ff34dd12a32d0661fc718f5843996b2de4b3b7cd2535e",
    "dihedral:23": "1b8bdd90397659eedede07184dd13650ee78f08c0f27322176b918794396bfa5",
    "dihedral:24": "bbc7550b413f2911282db00112d11b82bf2e77828296e93ff5916e6f723f4116",
    "dihedral:25": "5f9ef5d875cc1f62ff089699d80dd13ecb8b65c6a4e3c60ef310825930833c87",
    "dihedral:26": "e7f2eb90956806f4c6c5a2626ef85c4165c27a5ca66bbe59a9dd0dcf38edb077",
    "dihedral:27": "b80b39eef7a400cceebb329d3b96bf29dc4e19bacb9aaaefd62e6f6057583830",
    "dihedral:28": "9ef9a960fc96764552ab2fbc9915b1ca4a59259ec4a91a01759a1793a07bb782",
    "dihedral:29": "ab0c8b3de83b45e44f486878ca32ce762a18ce5b5912ccf5d08c2ef7a2db4b4e",
    "dihedral:30": "0b88ec94c30dd0f96ce8c8131df33ed1ded8fea3792a969b86c2ddbaad5d50a9",
    "dihedral:31": "ae3c16777fd9d09bb002eff4655ca8183ce891100a2d9bc59cbaf5504d5eb32c",
    "dihedral:32": "957142472da059496f0653937becde6f2c94012734f4eca7c854fc1dc64040e1",
    "dihedral:33": "7390d0c71193d277060fafc6c36858096c6df1e602960adbcff0d62905680e29",
    "dihedral:34": "3b96a13e7036bc8ff216d6e43cb359c010e9bc1550c4b3202dc7a3020186459b",
    "dihedral:35": "f1858927feb59e9f1ff40303f1391934331eb9e9030ba3e9948d8b4cfec5921a",
    "dihedral:36": "0bb8c15b9b69c7ed0a9f4b58e5ef3ebfb2e7391acdacaf46746c4532023c9674",
    "dihedral:37": "8137caf53194837fe7a1f73d3c8b4b22f4353ec06c874c4e7bab7b04f18fa087",
    "dihedral:38": "166eaf69c182fb40e803f544f741cdfdfa5d60ae9c94f1ff18982e98efce8e33",
    "dihedral:39": "8eda713ee78bc987d2c909cd35a035fc2807841dd4d2bf98592974d9e2fc80eb",
    "dihedral:40": "25dbad6fca0a68068b2a4c2839672ecc83b05434b6b2dd1309deb0296c8c8a6d",
    "dihedral:41": "bf522b0bce68485301c811e7855a8acac367f35bfcbeb2402166fa25033f1620",
    "dihedral:42": "74d5f3e210640c6ccbeff35e7f03864d5545a5273a99ac869fa789791cc3b30b",
    "dihedral:43": "09958b94de2a26d601c67a40c53a19ff1f417b86b0beaa1827057254d7ee3b87",
    "dihedral:44": "097be5f303c8d42ef26ee9b82580cf6b4d9614a146e3fce6b7089642bc5cbb58",
    "dihedral:45": "2df2fbda9f727ae0a99f7b0f5aa3b36e20c9e5aacff810b77a5f73b622c7f79a",
    "dihedral:46": "79782f9ac7dfefe8cd8bd6321c19654f8e5d75270daf9d9d827b8cd4b197b79e",
    "dihedral:47": "7bc175f89966245378682771c3294bb34577c2788cb10c43077bdf09d410fc25",
    "dihedral:48": "1ee43a7fe44c7ce488d0dead397740b9a391be589ef9135654f0f30575d2128a",
    "dihedral:49": "cfba7786c804c046cdc73f4902d7d32faff6ef287e1e9808f943aa5a44398fcc",
    "dihedral:50": "269982652c9cb042769365eacdc66c494b459bd532762864f492cd376c59b078",
    "abelian:1": "d64ff24f06b936f8dd3b24229da5bbc67a5f8ba3c39976ddfbe4bc9dfb37ff83",
    "abelian:2": "ff50338df094d2540aee18f1735b02ee4052bcde0a5c81ab3668d0077c884408",
    "abelian:3": "39bec4f92ed0f6540227ec216467a9b93f0475c05d77deea028dee2e58ff2ad4",
    "abelian:4": "d6ec3d6aeb7938a744834997379585a98eeac954ea9cd411689c6af96cf9d976",
    "abelian:5": "c26a74f548339646e0d7d19d42a34c521d8a8642371d5fabf19560b9b4721b92",
    "abelian:6": "e62956648af8908d4864936acf659c7f5239305521945d9cbdfe33e58098752f",
    "abelian:7": "eb3ce7fdcfe29bb5f315fa8cbd71786e58cc2e808f8d20e5ac69fbb0294aa1c7",
    "abelian:8": "b9b2ee049aa8b842496511cb61881568096a9721972ab4c5713effbf812fbdd3",
    "abelian:9": "5c737a4d915b95d57f020bde245f556c376b01bf1dee7b8b2b8a18e3d0a44b84",
}


@pytest.mark.parametrize("descriptor", BUILTIN_PINNED)
def test_builtin_table_pinned(descriptor):
    text = save_table(table_from_descriptor(descriptor))
    assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_PINNED[descriptor]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_braid_matches_permutation_twin(n):
    assert save_table(O.permutation_braid(n)) == save_table(build_braid(n))


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


def test_shared_complement_rejected():
    # a b = b b = D: b is the complement of both a and b.
    text = "simples: 1 a b D\ndelta: D\na b = D\nb b = D\n"
    with pytest.raises(StructureError, match=r"sigma is not injective: \? \* b = delta"):
        load_table(text)


def test_product_cycle_rejected():
    # a b = c and c b = a: the grade of a and c grows on every pass. Left
    # cancellation, the left meets and sigma (a <-> c, b -> b) all hold.
    text = "simples: 1 a b c D\ndelta: D\na b = c\nc b = a\na c = D\nc a = D\nb b = D\n"
    with pytest.raises(StructureError, match="the product has a cycle"):
        load_table(text)


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
    products = {}
    for u, v, w in sf.products:
        if products.setdefault((i[u], i[v]), i[w]) != i[w]:
            raise StructureError(f"conflicting products for {u} * {v}")
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


def _assert_meets(meet, div, text):
    """meet(u, v) is the greatest element of div[u] & div[v] for every pair."""
    for u in range(len(div)):
        for v in range(len(div)):
            m = meet(u, v)
            common = div[u] & div[v]
            assert m in common and common <= div[m], text


def test_mutated_tables_build_only_consistent_lattices():
    # Seeded product-line mutations of saved tables. On every mutant the
    # constructor accepts, the left meets are greatest common divisors read
    # off the product and sigma and phi satisfy their definitions. A valid
    # table has a unique join for every pair, and its reversed table builds
    # and holds the right meets.
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
        _assert_meets(t.meet_l, _divisors(t, True), text)
        for u in range(n):
            assert t.product(u, t.sigma(u)) == t.delta, text
            assert t.phi(t.sigma(t.sigma(u))) == u, text
        if validate_table(t) == []:
            valid += 1
            for u in range(n):
                for v in range(n):
                    O.join_l(t, u, v)
            _assert_meets(t.reversed().meet_l, _divisors(t, False), text)
    assert built > 300 and valid > 150


# Saved tables the validator differential test mutates, all small enough
# for the n^3 twin. The cyclic tables make ties in grade among common
# divisors, where the constructor's choice of meet shows.
DIFFERENTIAL_SOURCES = MUTATION_SOURCES + ("abelian:4",)
# SHA-256 over what the constructor makes of each of the 3200 mutants of
# seed 20261018: its error message, or everything it derives. Frozen from
# the constructor that derives only the left-hand tables, with the 495
# mutants that repeat a product line with another value refused as
# `load_table` refuses them (462 built, 264 valid).
MUTANT_OUTCOMES_SHA256 = "149e041e44047c9004c0126f6147e95bfd08eddb22105a97774de02d4fe32bb8"
# SHA-256 of the indices of the mutants `load_table` accepts, frozen from
# the constructor that also derived and checked the right-hand tables.
MUTANTS_LOADED_SHA256 = "50c28b25e61970344012be72f02af4c596aa7731ac1619a1c9153e56f1d57686"


def _derived(t):
    """Everything the constructor derives from the product, as text."""
    n = t.n_simples
    pairs = [(u, v) for u in range(n) for v in range(n)]
    return repr((
        t.atoms,
        t.grade,
        [t.product(u, v) for u, v in pairs],
        [t.meet_l(u, v) for u, v in pairs],
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


# SHA-256 of every derived field of the reversed table of braid:2-5,
# dihedral:3-20 and abelian:1-6, frozen from the reversed table that was
# copied field by field from the right-hand tables.
REVERSED_PINNED_SHA256 = "bd624dea0c37b6c3e5a5152874734a214bbd591bcdb10eea645d0959163689cd"


def test_reversed_tables_pinned():
    digest = hashlib.sha256()
    for descriptor in (
        [f"braid:{n}" for n in range(2, 6)]
        + [f"dihedral:{m}" for m in range(3, 21)]
        + [f"abelian:{n}" for n in range(1, 7)]
    ):
        r = table_from_descriptor(descriptor).reversed()
        n = r.n_simples
        pairs = [(u, v) for u in range(n) for v in range(n)]
        fields = repr((
            r.atoms,
            r.grade,
            [r.product(u, v) for u, v in pairs],
            [r.meet_l(u, v) for u, v in pairs],
            [r.sigma(u) for u in range(n)],
            [r.phi(u) for u in range(n)],
            [r.lquot(u, w) if r.left_divides(u, w) else -1 for u, w in pairs],
            r.phi_order,
        ))
        digest.update(f"{descriptor} {fields}\n".encode())
    assert digest.hexdigest() == REVERSED_PINNED_SHA256


def test_validator_and_constructor_on_mutants():
    # On every mutant the constructor accepts, the sparse validator returns
    # the n^3 twin's list; the constructor accepts, derives and refuses as
    # pinned; and the loader accepts exactly the valid mutants, the same
    # ones as the constructor that checked both hands.
    rng = random.Random(20261018)
    sources = [mutation_source(d) for d in DIFFERENTIAL_SOURCES]
    outcomes = hashlib.sha256()
    loaded = hashlib.sha256()
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
        if not violations:
            load_table(text)
            loaded.update(f"{k}\n".encode())
    assert (built, valid) == (462, 264)
    assert outcomes.hexdigest() == MUTANT_OUTCOMES_SHA256
    assert loaded.hexdigest() == MUTANTS_LOADED_SHA256


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
