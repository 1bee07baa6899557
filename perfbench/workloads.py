"""The four benchmark workloads.

Each item is the computation behind one `garside` subcommand and calls the
same public functions `cli.py` calls. A workload builds its tables,
parabolics and acceptors in `setup` and makes all of its items from the
seed in `items`: at least 100 distinct inputs, so that at least ten items
lie above the 90th percentile of their latencies. The item mix is fixed;
the seed picks the generated expressions and parameters inside fixed size
classes (word lengths, coset lengths, --max-n bands), so runs with
different seeds time work of the same sizes.

Each item carries a `check`, run after the item outside the timed region,
and optionally an `oracle` check, run after the timed loop on a seeded
sample of the items because it is expensive.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from typing import Any, Callable, Hashable

from garside import automaton as A
from garside import cli
from garside import cosets as C
from garside import growth as G
from garside import kernel as K
from garside import oracle as O
from garside import parabolic as P
from garside import structures as S
from garside.budget import Budget

BUDGET_LIMIT = 10**7


class CheckFailed(Exception):
    """An item produced a wrong answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclasses.dataclass
class Item:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    oracle: Callable[[Any], None] | None = None
    budget: Budget | None = None  # its `used` feeds cosets.ball_nodes
    label: str = ""  # kind plus the input class, for the per-class time table
    input: Hashable = ()  # the item's input; no two items of a run share one


def rng_for(seed: int, *tag) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + tag)))


def random_word(rng: random.Random, table: K.GarsideTable, n: int, signed: bool) -> str:
    """A dot-separated word of n atoms, each inverted with probability 1/2 if signed."""
    atoms = [table.simples[a] for a in table.atoms]
    return ".".join(
        rng.choice(atoms) + ("^-1" if signed and rng.random() < 0.5 else "")
        for _ in range(n)
    )


def word_letters(table: K.GarsideTable, expr: str) -> list[tuple[int, int]]:
    """Signed letters of a generated word, parsed without the library's parser."""
    out = []
    for token in expr.split("."):
        name, _, exp = token.partition("^")
        out.append((table.simples.index(name), -1 if exp == "-1" else 1))
    return out


def fresh(draw: Callable[[], Hashable], seen: set) -> Hashable:
    """A value of draw() that is not in `seen` yet; it is added there."""
    for _ in range(1000):
        value = draw()
        if value not in seen:
            seen.add(value)
            return value
    raise RuntimeError("no new input found in 1000 draws")


def labelled(item: Item, *parts) -> Item:
    item.label = " ".join(map(str, (item.kind,) + parts))
    return item


def key(x: K.Element) -> tuple[int, tuple[int, ...]]:
    return x.delta_power, x.body


def parabolic_of(table: K.GarsideTable, name: str) -> P.ParabolicData:
    return P.make_parabolic(table, table.simples.index(name))


class Workload:
    name: str

    def __init__(self, seed: int):
        self.seed = seed

    def acceptor_states(self, env) -> int:
        """States of the acceptors built in set-up."""
        return 0


# -- kernel-forms ----------------------------------------------------------------


class KernelForms(Workload):
    """`nf` items (normalise plus the six views) and multiply/invert of pairs."""

    name = "kernel-forms"
    structures = ("braid:3", "braid:4", "braid:5", "dihedral:50")
    # (kind, letters per word, signed); `per_class` items of each per structure.
    classes = (("nf", 150, True), ("nf", 250, True), ("nf", 250, False), ("multiply", 150, True))
    per_class = 8

    def setup(self):
        return {d: S.table_from_descriptor(d) for d in self.structures}

    def items(self, env) -> list[Item]:
        rng = rng_for(self.seed, self.name)
        items = []
        for t in env.values():
            for kind, n, signed in self.classes:
                words = "signed" if signed else "positive"
                for _ in range(self.per_class):
                    if kind == "nf":
                        item = self.nf_item(t, random_word(rng, t, n, signed))
                    else:
                        item = self.pair_item(t, *(random_word(rng, t, n, signed) for _ in range(2)))
                    items.append(labelled(item, t.name, words, n))
        rng.shuffle(items)
        return items

    @staticmethod
    def nf_item(t, expr: str) -> Item:
        def run():
            x = cli.parse_element(t, expr)
            x.length()
            return x, [K.view(x, form) for form in K.Form]

        def check(out):
            x, views = out
            for v in views:
                expect(v.remultiply() == x, f"{v.variant.value} view does not remultiply")

        def oracle(out):
            expect(key(out[0]) == O.canonical_key(t, word_letters(t, expr)), "nf differs from oracle")

        return Item("nf", run, check, oracle, input=(t.name, expr))

    @staticmethod
    def pair_item(t, e1: str, e2: str) -> Item:
        def run():
            x = cli.parse_element(t, e1)
            y = cli.parse_element(t, e2)
            z = K.multiply(x, y)
            return z, K.invert(z)

        def check(out):
            z, w = out
            expect(K.multiply(z, w).is_identity, "z * z^-1 is not the identity")
            expect(K.multiply(w, z).is_identity, "z^-1 * z is not the identity")

        def oracle(out):
            letters = word_letters(t, e1) + word_letters(t, e2)
            expect(key(out[0]) == O.canonical_key(t, letters), "product differs from oracle")

        return Item("multiply", run, check, oracle, input=(t.name, e1, e2))


# -- coset-projection ------------------------------------------------------------


class CosetProjection(Workload):
    """coset-rep, coset-length, project, unbounded-witness and audit-fellow items.

    Projection cost grows with the coset length of the element (the H-ball
    searched has radius twice that length), so projected elements are drawn
    at fixed coset lengths.
    """

    name = "coset-projection"
    rank_one = (("braid:3", "a"), ("dihedral:4", "s"), ("braid:5", "a"))
    wide = ("braid:4", "aba")
    cheap_per_pair = 12  # coset-rep items, and as many coset-length items, per pair
    cheap_lengths = tuple(range(4, 13))  # letters of their words, in turn
    wide_lengths = tuple(range(4, 9))
    rank_one_levels = (1, 2, 3, 4, 5, 6) * 2  # coset lengths of the projected elements
    wide_levels = (1,) * 4 + (2,) * 4 + (3,)
    rank_one_witness = tuple(range(1, 9))  # k of the unbounded-witness items
    wide_witness = (1, 2)
    audit = (("braid:3", "a"), 2, 5)  # pair, radius, bound
    # coset-rep and coset-length items of these pairs whose element lies in
    # the ball of this radius are also checked against the oracle's coset
    # partition of that ball.
    partition_radius = {("braid:3", "a"): 4, ("dihedral:4", "s"): 3}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.partitions: dict[int, O.CosetPartition] = {}  # by id of the parabolic

    def setup(self):
        env = {}
        for d, name in self.rank_one + (self.wide,):
            t = S.table_from_descriptor(d)
            env[(d, name)] = (t, parabolic_of(t, name))
        return env

    def items(self, env) -> list[Item]:
        rng = rng_for(self.seed, self.name)
        items = []
        for pair, (t, p) in env.items():
            where = "%s/%s" % pair
            small = pair != self.wide
            seen: set[str] = set()
            lengths = self.cheap_lengths if small else self.wide_lengths
            for make in (self.rep_item, self.length_item):
                for i in range(self.cheap_per_pair):
                    n = lengths[i % len(lengths)]
                    expr = fresh(lambda: random_word(rng, t, n, True), seen)
                    items.append(labelled(make(pair, t, p, expr, small), where))
                seen.clear()
            for level in self.rank_one_levels if small else self.wide_levels:
                expr = fresh(lambda: self.at_level(rng, t, p, level), seen)
                affordable = small or len(word_letters(t, expr)) + level <= 6
                items.append(labelled(self.project_item(t, p, expr, affordable), where, f"level {level}"))
            for k in self.rank_one_witness if small else self.wide_witness:
                items.append(labelled(self.witness_item(p, k), where, f"k={k}"))
        pair, radius, bound = self.audit
        items.append(labelled(self.audit_item(env[pair][1], radius, bound), "%s/%s" % pair, f"radius {radius}"))
        rng.shuffle(items)
        return items

    @staticmethod
    def at_level(rng, t, p, level: int) -> str:
        """A random word whose element has the given coset length."""
        for _ in range(10000):
            expr = random_word(rng, t, rng.randint(level, level + 6), True)
            if C.coset_length(cli.parse_element(t, expr), p) == level:
                return expr
        raise RuntimeError(f"no word of coset length {level} found for {p}")

    @staticmethod
    def near(x: K.Element, p, radius: int):
        """Oracle projection of x: the nearest H-elements in an H-ball."""
        return O.brute_projection(x, p.div_delta, radius, Budget(BUDGET_LIMIT))

    def partition_class(self, pair, p, x: K.Element) -> O.CosetClass | None:
        """The class of x in the oracle coset partition of the pair's ball, if x lies in it."""
        radius = self.partition_radius.get(pair)
        if radius is None or x.length() > radius:
            return None
        part = self.partitions.get(id(p))
        if part is None or part.table is not p.table:
            budget = Budget(BUDGET_LIMIT)
            part = self.partitions[id(p)] = O.brute_coset_partition(p.table, p.div_sorted, radius, budget)
        return part.class_of(x)

    def rep_item(self, pair, t, p, expr: str, affordable: bool) -> Item:
        def run():
            x = cli.parse_element(t, expr)
            return x, C.coset_representative(x, p)

        def check(out):
            x, theta = out
            expect(C.is_hn_reduced(theta, p), "representative is not reduced")
            expect(P.element_in_subgroup(K.multiply(x, K.invert(theta)), p), "representative left the coset")
            cls = self.partition_class(pair, p, x)
            if cls is not None:
                expect(theta.length() == cls.min_length, "representative length differs from the oracle partition")
                if theta.length() <= self.partition_radius[pair]:
                    expect(theta in cls.members, "representative outside its oracle coset class")

        def oracle(out):
            x, theta = out
            _, dist = self.near(x, p, x.length() + theta.length())
            expect(dist == theta.length(), "representative is not shortest")

        return Item("coset-rep", run, check, oracle if affordable else None, input=(pair, expr))

    def length_item(self, pair, t, p, expr: str, affordable: bool) -> Item:
        def run():
            x = cli.parse_element(t, expr)
            return x, C.coset_length(x, p)

        def check(out):
            x, n = out
            expect(n == C.coset_representative(x, p).length(), "coset length differs from representative")
            cls = self.partition_class(pair, p, x)
            if cls is not None:
                expect(n == cls.min_length, "coset length differs from the oracle partition")

        def oracle(out):
            x, n = out
            expect(self.near(x, p, x.length() + n)[1] == n, "coset length differs from oracle")

        return Item("coset-length", run, check, oracle if affordable else None, input=(pair, expr))

    @classmethod
    def project_item(cls, t, p, expr: str, affordable: bool) -> Item:
        budget = Budget(BUDGET_LIMIT)

        def run():
            x = cli.parse_element(t, expr)
            ps = C.projection(x, p, budget=budget)
            return x, ps, C.projection_diameter(x, p, budget=budget)

        def check(out):
            x, ps, diameter = out
            expect(ps.distance == C.coset_length(x, p), "projection distance is not the coset length")
            for m in ps.members:
                expect(P.element_in_subgroup(m, p), "projection member outside H")
                expect(K.multiply(K.invert(m), x).length() == ps.distance, "member at the wrong distance")
            widest = max(
                (K.multiply(K.invert(a), b).length() for a in ps.members for b in ps.members),
                default=0,
            )
            expect(diameter == widest, "diameter is not the widest member pair")

        def oracle(out):
            x, ps, _ = out
            members, dist = cls.near(x, p, x.length() + ps.distance)
            expect(dist == ps.distance and members == set(ps.members), "projection differs from oracle")

        return Item("project", run, check, oracle if affordable else None, budget, input=(t.name, expr))

    @classmethod
    def witness_item(cls, p, k: int) -> Item:
        budget = Budget(BUDGET_LIMIT)

        def run():
            return C.bounded_projection_witness(p, k, budget)

        def check(cert):
            expect(cert.verified and cert.k == k + 1, "certificate not verified")
            expect(cert.element == P.d_k(p, k + 1), "certificate element is not d_(k+1)")

        def oracle(cert):
            members, _ = cls.near(cert.element, p, 2 * cert.k)
            one = K.identity(p.table)
            expect(one in members and p.delta_element() ** -cert.k in members, "oracle projection lacks 1 or delta^-k")

        return Item("unbounded-witness", run, check, oracle, budget, input=(p.table.name, k))

    @classmethod
    def audit_item(cls, p, radius: int, bound: int) -> Item:
        budget = Budget(BUDGET_LIMIT)

        def run():
            return C.fellow_projection_audit(p, radius, bound, budget)

        def check(report):
            expect(not report.partial and report.passed, "audit did not pass")
            expect(report.k_observed == max(row.distance for row in report.rows), "K_obs is not the worst row")
            for row in report.rows:
                d = K.multiply(K.invert(row.beta), row.best_partner).length()
                expect(d == row.distance, "row distance is wrong")

        def oracle(report):
            rows = rng_for(0, "audit-rows").sample(report.rows, 8)
            for row in rows:
                members, _ = cls.near(row.alpha, p, 2 * row.alpha.length() + 2)
                expect(row.beta in members, "audited beta is not in the oracle projection")

        return Item("audit-fellow", run, check, oracle, budget, input=(radius, bound))


# -- growth-series ---------------------------------------------------------------


class GrowthSeries(Workload):
    """`series` over a fixed ladder of (structure, parabolic) pairs, plus `growth --max-n`.

    Every ladder pair gets one `series` item and one `growth` item per
    --max-n band; dihedral:50/s and braid:5/a, whose series take seconds,
    get `growth` items only. The seed picks each --max-n inside its band.
    """

    name = "growth-series"
    ladder = tuple((f"dihedral:{m}", "s") for m in range(3, 15)) + (
        ("braid:3", "a"), ("braid:4", "a"), ("braid:4", "aba"),
        ("abelian:2", "x"), ("abelian:3", "x"), ("abelian:3", "xy"),
        ("abelian:4", "x"), ("abelian:4", "xy"), ("abelian:4", "xyz"),
    )
    bands = ((12, 14), (24, 26), (36, 38), (48, 50))  # --max-n of the ladder's growth items
    counted = (("dihedral:50", "s"), ("braid:5", "a"))
    counted_bands = ((12, 14), (20, 22))
    check_terms = 64  # coefficients compared when a series is first checked

    def __init__(self, seed: int):
        super().__init__(seed)
        self.walks: dict[int, tuple[A.CosetAutomaton, list[int]]] = {}

    def setup(self):
        tables = {}
        env = {}
        for d, name in self.ladder + self.counted:
            if d not in tables:
                tables[d] = S.table_from_descriptor(d)
            t = tables[d]
            env[(d, name)] = (t, A.build_automaton(t, parabolic_of(t, name)))
        return env

    def acceptor_states(self, env) -> int:
        return sum(aut.n_states for _, aut in env.values())

    def items(self, env) -> list[Item]:
        rng = rng_for(self.seed, self.name)
        items = []
        for pair in self.ladder + self.counted:
            where = "%s/%s" % pair
            if pair in self.ladder:
                items.append(labelled(self.series_item(pair, *env[pair]), where))
            for lo, hi in self.bands if pair in self.ladder else self.counted_bands:
                n = rng.randint(lo, hi)
                items.append(labelled(self.growth_item(pair, *env[pair], n), where, f"max-n {lo}-{hi}"))
        rng.shuffle(items)
        return items

    def series_item(self, pair, t, aut) -> Item:
        def run():
            return G.rational_series(A.build_automaton(t, aut.parabolic))

        def check(rs):
            n = self.check_terms
            expect(rs.denominator[0] == 1, "denominator does not start with 1")
            expect(rs.expand(n) == G.transfer_counts(aut, n), "series.expand != transfer_counts")
            expect(rs.expand(n) == self.accepted_counts(aut, n), "series.expand != accepted word counts")

        return Item("series", run, check, input=pair)

    def growth_item(self, pair, t, aut, n: int) -> Item:
        def run():
            return G.transfer_counts(A.build_automaton(t, aut.parabolic), n)

        def check(counts):
            expect(counts == self.accepted_counts(aut, n), "growth counts differ from accepted word counts")

        return Item("growth", run, check, input=(pair, n))

    def accepted_counts(self, aut: A.CosetAutomaton, n: int) -> list[int]:
        """Accepted words of each length 0..n, by a sparse walk over `aut.step`.

        An independent twin of `growth.transfer_counts`. Each acceptor is
        walked once, to the longest length any item of the run asks for.
        """
        got = self.walks.get(id(aut))
        if got is None or got[0] is not aut:
            longest = max(n, self.check_terms, self.bands[-1][1], self.counted_bands[-1][1])
            rows = [
                Counter(aut.step(s, letter) for letter in aut.alphabet)
                for s in range(aut.n_states)
            ]
            vec = {A.START: 1}
            counts = []
            for _ in range(longest + 1):
                counts.append(sum(c for s, c in vec.items() if aut.accepted(s)))
                nxt: Counter[int] = Counter()
                for s, c in vec.items():
                    for target, mult in rows[s].items():
                        nxt[target] += c * mult
                vec = nxt
            got = self.walks[id(aut)] = (aut, counts)
        return got[1][: n + 1]


# -- tables ----------------------------------------------------------------------


class Tables(Workload):
    """Build+validate, load (from a shuffled saved file)+validate, save, isomorphism.

    Each structure gets one item of each kind. The saved text of each table
    is reloaded with its simples and product lines shuffled by the seed, so
    the loaded table numbers its simples differently and the isomorphism
    test has a real search to do. The `save` and `isomorphic` items of a
    structure use the table its `load` item loaded, so they run after it.
    """

    name = "tables"
    structures = (
        ("braid:3", "braid:4")
        + tuple(f"dihedral:{m}" for m in range(3, 21))
        + tuple(f"abelian:{n}" for n in range(2, 7))
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        self.saved: dict[str, str] = {}

    def setup(self):
        return {d: S.table_from_descriptor(d) for d in self.structures}

    def items(self, env) -> list[Item]:
        rng = rng_for(self.seed, self.name)
        groups = []
        for d in self.structures:
            ref = env[d]
            text = shuffled_text(rng, S.save_table(ref))
            slot: dict[str, K.GarsideTable] = {}
            groups.append(
                [
                    labelled(self.validate_item(d, ref), d),
                    labelled(self.load_item(ref, text, slot), d),
                    labelled(self.save_item(ref, slot), d),
                    labelled(self.isomorphic_item(ref, slot), d),
                ]
            )
        rng.shuffle(groups)
        return [item for group in groups for item in group]

    @staticmethod
    def validate_item(d: str, ref) -> Item:
        def run():
            t = S.table_from_descriptor(d)
            return t, S.validate_table(t)

        def check(out):
            t, violations = out
            expect(not violations, "built-in table has violations")
            expect(S.tables_isomorphic(ref, t), "rebuilt table differs from the reference")

        return Item("validate", run, check, input=d)

    @staticmethod
    def load_item(ref, text: str, slot) -> Item:
        def run():
            t = S.load_table(text)
            slot["loaded"] = t
            return t, S.validate_table(t)

        def check(out):
            t, violations = out
            expect(not violations, "loaded table has violations")
            expect(S.tables_isomorphic(ref, t), "loaded table differs from the reference")

        return Item("load", run, check, input=text)

    def save_item(self, ref, slot) -> Item:
        def run():
            return S.save_table(slot["loaded"])

        def check(text):
            expect(canonical_lines(text) == canonical_lines(S.save_table(ref)), "saved text differs")
            name = ref.name
            if name not in self.saved:
                expect(S.tables_isomorphic(ref, S.load_table(text)), "saved text does not reload")
                self.saved[name] = text

        return Item("save", run, check, input=ref.name)

    @staticmethod
    def isomorphic_item(ref, slot) -> Item:
        def run():
            return S.tables_isomorphic(ref, slot["loaded"])

        def check(same):
            expect(same is True, "isomorphic tables reported as different")

        return Item("isomorphic", run, check, input=ref.name)


def shuffled_text(rng: random.Random, text: str) -> str:
    """The saved structure with its simples list and product lines shuffled."""
    name, simples, delta, *products = text.splitlines()
    names = simples.split()[1:]
    rng.shuffle(names)
    rng.shuffle(products)
    return "\n".join([name, "simples: " + " ".join(names), delta] + products) + "\n"


def canonical_lines(text: str) -> tuple[str, frozenset[str], frozenset[str]]:
    """Header and product lines of a saved structure, order-free."""
    name, simples, delta, *products = text.splitlines()
    return name + delta, frozenset(simples.split()[1:]), frozenset(products)


WORKLOADS = {w.name: w for w in (KernelForms, CosetProjection, GrowthSeries, Tables)}
