"""Brute-force reference computations used by the tests and the benchmark.

Everything here recomputes results from definitions rather than from the
kernel's algorithms: greedy heads are found by exhaustive search over all
simples, divisor sets by recursive enumeration, coset partitions by pairwise
subgroup-membership tests, lengths by breadth-first search, braid tables by
composing every pair of permutations. The only kernel
facilities the oracles rely on are the raw tables and canonical Element
equality (ball searches use Element multiplication as the edge relation;
the word-level normal form below never does, so the kernel normaliser is
validated against a fully independent path first).

These functions are deliberately naive. They are budget guarded and meant
for desk-scale radii only.
"""

from __future__ import annotations

import dataclasses
import itertools
import weakref
from fractions import Fraction
from typing import Iterable, Sequence

from .automaton import SINK, START, CosetAutomaton
from .budget import Budget, ensure_budget
from .errors import DomainError, StructureError
from .cosets import ProjectionSet, coset_representative, is_hn_reduced, projection
from .kernel import (
    Element, GarsideTable, SignedLetter, greedy_letters, identity, invert, multiply,
    signed_generators, simple,
)
from .parabolic import ParabolicData
from .structures import BRAID_ATOM_LETTERS, MAX_VIOLATIONS

Key = tuple[int, tuple[int, ...]]


# -- word-level divisibility and greedy forms (kernel-free) -----------------


_join_tables: "weakref.WeakKeyDictionary[GarsideTable, list[int]]" = (
    weakref.WeakKeyDictionary()
)


def _join_table(table: GarsideTable) -> list[int]:
    """Left joins of all pairs of simples, row-major, computed once per table.

    The join of u and v is the common upper bound of least grade, lowest
    index first (every simple divides D, so one exists); it must divide
    every other common upper bound, else the pair has no join and
    StructureError is raised.
    """
    joins = _join_tables.get(table)
    if joins is None:
        n = table.n_simples
        order = sorted(range(n), key=lambda w: table.grade[w])
        # uppers[u]: the multiples w of u, as bits at w's place in `order`.
        uppers = [0] * n
        for bit, w in enumerate(order):
            for u in range(n):
                if table.left_divides(u, w):
                    uppers[u] |= 1 << bit
        joins = []
        for u in range(n):
            for v in range(n):
                common = uppers[u] & uppers[v]
                best = order[(common & -common).bit_length() - 1]
                if common & ~uppers[best]:
                    raise StructureError(
                        f"join of {table.simples[u]}, {table.simples[v]} is not unique"
                    )
                joins.append(best)
        _join_tables[table] = joins
    return joins


def join_l(table: GarsideTable, u: int, v: int) -> int:
    """Least common upper bound of u, v for <=_L."""
    return _join_table(table)[u * table.n_simples + v]


def simple_divides_word(table: GarsideTable, s: int, word: Sequence[int]) -> bool:
    """Whether the simple s left-divides the product of the word's simples.

    Folds the classical recursion s <= u * w  iff  u\\(s v u) <= w over the
    word, using only meet, join and quotient lookups.
    """
    joins = _join_table(table)
    n = table.n_simples
    cur = s
    for u in word:
        cur = table.lquot(u, joins[cur * n + u])
    return cur == table.unit


def word_quotient(table: GarsideTable, s: int, word: Sequence[int]) -> list[int]:
    """A word for s^-1 * (product of word); requires s to divide it."""
    joins = _join_table(table)
    n = table.n_simples
    out: list[int] = []
    cur = s
    for u in word:
        j = joins[cur * n + u]
        out.append(table.lquot(cur, j))
        cur = table.lquot(u, j)
    if cur != table.unit:
        raise DomainError("simple does not left-divide the word")
    return [u for u in out if u != table.unit]


def word_divides_word(table: GarsideTable, p: Sequence[int], w: Sequence[int]) -> bool:
    """Whether the product of p left-divides the product of w (both positive)."""
    rest = [u for u in w if u != table.unit]
    for s in p:
        if s == table.unit:
            continue
        if not simple_divides_word(table, s, rest):
            return False
        rest = word_quotient(table, s, rest)
    return True


def greedy_word(table: GarsideTable, word: Sequence[int]) -> list[int]:
    """Left greedy normal form of a positive word, by definition.

    Each head is the maximal simple divisor of the remaining word, found by
    scanning every simple; no local transfer rule is involved. Leading D
    factors appear explicitly in the output.
    """
    rest = [u for u in word if u != table.unit]
    out: list[int] = []
    while rest:
        divisors = [
            s
            for s in range(table.n_simples)
            if s != table.unit and simple_divides_word(table, s, rest)
        ]
        head = max(divisors, key=lambda s: table.grade[s])
        for s in divisors:
            if not table.left_divides(s, head):
                raise StructureError("simple divisors of a word have no maximum")
        out.append(head)
        rest = word_quotient(table, head, rest)
    return out


def canonical_key(table: GarsideTable, letters: Iterable[SignedLetter]) -> Key:
    """Oracle canonical form (delta power, greedy body) of a signed word."""
    factors: list[int] = []
    pre: list[int] = []
    for s, sign in letters:
        table.check_simple(s)
        if sign == 1:
            factors.append(s)
            pre.append(0)
        elif sign == -1:
            factors.append(table.phi(table.sigma(s)))
            pre.append(-1)
        else:
            raise StructureError(f"letter sign must be +1 or -1, got {sign!r}")
    power = 0
    for i in range(len(factors) - 1, -1, -1):
        factors[i] = table.phi_pow(factors[i], -power)
        power += pre[i]
    normal = greedy_word(table, factors)
    d = 0
    while d < len(normal) and normal[d] == table.delta:
        d += 1
    return power + d, tuple(normal[d:])


def key_to_element(table: GarsideTable, key: Key) -> Element:
    return Element(table, key[0], key[1])


def is_canonical(x: Element) -> bool:
    """Whether the fields of x are a canonical form, by table lookups alone.

    The body must be a tuple of proper simples (neither the unit nor D)
    whose consecutive pairs are left greedy: sigma(u_i) meet u_{i+1} = 1.
    Kernel results skip the constructor's check, so tests assert this.
    """
    t = x.table
    body = x.body
    if not (isinstance(x.delta_power, int) and isinstance(body, tuple)):
        return False
    for u in body:
        if not (isinstance(u, int) and 0 <= u < t.n_simples) or u in (t.unit, t.delta):
            return False
    return all(t.meet_l(t.sigma(u), v) == t.unit for u, v in zip(body, body[1:]))


def element_letters(x: Element) -> list[SignedLetter]:
    """A signed word spelling the canonical form of x."""
    t = x.table
    sign = 1 if x.delta_power >= 0 else -1
    letters: list[SignedLetter] = [(t.delta, sign)] * abs(x.delta_power)
    letters.extend((u, 1) for u in x.body)
    return letters


# -- breadth-first search lengths -------------------------------------------


@dataclasses.dataclass
class BallIndex:
    """Exact word lengths over the symmetric simple alphabet, up to a radius."""

    table: GarsideTable
    radius: int
    dist: dict[Element, int]

    def elements_of_length(self, n: int) -> list[Element]:
        out = [x for x, d in self.dist.items() if d == n]
        out.sort(key=Element.sort_key)
        return out

    def __contains__(self, x: Element) -> bool:
        return x in self.dist

    def length(self, x: Element) -> int:
        try:
            return self.dist[x]
        except KeyError:
            raise DomainError("element outside the computed ball") from None


def bfs_lengths(table: GarsideTable, radius: int, budget: Budget | None = None) -> BallIndex:
    """Distances from the identity in the Cayley graph, out to the radius."""
    return BallIndex(table, radius, subgroup_ball(table, range(table.n_simples), radius, budget))


def subgroup_ball(
    table: GarsideTable,
    gen_simples: Iterable[int],
    radius: int,
    budget: Budget | None = None,
) -> dict[Element, int]:
    """BFS distances inside the subgroup generated by the given simples."""
    budget = ensure_budget(budget)
    gens = signed_generators(table, gen_simples)
    dist: dict[Element, int] = {identity(table): 0}
    frontier = [identity(table)]
    for step in range(1, radius + 1):
        nxt: list[Element] = []
        for x in frontier:
            for g in gens:
                budget.charge()
                y = multiply(x, g)
                if y not in dist:
                    dist[y] = step
                    nxt.append(y)
        frontier = nxt
    return dist


def positive_monoid_ball(
    table: GarsideTable,
    gen_simples: Iterable[int],
    max_grade: int,
    budget: Budget | None = None,
) -> set[Element]:
    """All products of the given simples with total grade up to max_grade."""
    budget = ensure_budget(budget)
    gens = [simple(table, s) for s in gen_simples if s != table.unit]

    def total_grade(x: Element) -> int:
        return x.delta_power * table.grade[table.delta] + sum(
            table.grade[u] for u in x.body
        )

    seen = {identity(table)}
    frontier = [identity(table)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                budget.charge()
                y = multiply(x, g)
                if y not in seen and total_grade(y) <= max_grade:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# -- divisor sets, meets, joins, tails ---------------------------------------


def _positive_word(x: Element) -> list[int]:
    if x.delta_power < 0:
        raise DomainError("a positive element is required")
    return list(x.positive_factors())


def left_divisors(x: Element, budget: Budget | None = None) -> set[Element]:
    """All left divisors of a positive element, as canonical elements."""
    budget = ensure_budget(budget)
    t = x.table
    seen_words: set[Key] = set()
    out: set[Element] = set()
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), tuple(_positive_word(x)))]
    while stack:
        prefix, rest = stack.pop()
        key = canonical_key(t, [(u, 1) for u in prefix])
        if key in seen_words:
            continue
        seen_words.add(key)
        out.add(key_to_element(t, key))
        for s in range(t.n_simples):
            if s == t.unit:
                continue
            budget.charge()
            if simple_divides_word(t, s, rest):
                stack.append((prefix + (s,), tuple(word_quotient(t, s, rest))))
    return out


def brute_meet(x: Element, y: Element, budget: Budget | None = None) -> Element:
    """Left meet of two positive elements via exhaustive divisor sets."""
    common = left_divisors(x, budget) & left_divisors(y, budget)
    t = x.table
    best = max(
        common,
        key=lambda d: (d.delta_power + len(d.body), sum(t.grade[u] for u in d.positive_factors())),
    )
    for d in common:
        if not word_divides_word(t, _positive_word(d), _positive_word(best)):
            raise StructureError("common divisors have no maximum")
    return best


def brute_join(x: Element, y: Element, budget: Budget | None = None) -> Element:
    """Left join of two positive elements via bounded multiple enumeration."""
    budget = ensure_budget(budget)
    t = x.table
    sup = max(x.delta_power + len(x.body), y.delta_power + len(y.body))
    bound = t.grade[t.delta] * sup
    ball = positive_monoid_ball(t, t.atoms, bound, budget)
    xw = _positive_word(x)
    yw = _positive_word(y)
    common = [
        z
        for z in ball
        if word_divides_word(t, xw, _positive_word(z))
        and word_divides_word(t, yw, _positive_word(z))
    ]
    if not common:
        raise StructureError("no common multiple found within the grade bound")
    best = min(
        common,
        key=lambda z: (sum(t.grade[u] for u in z.positive_factors()), z.sort_key()),
    )
    for z in common:
        if not word_divides_word(t, _positive_word(best), _positive_word(z)):
            raise StructureError("common multiples have no minimum in the bound")
    return best


def brute_tail(x: Element, div_delta: Iterable[int], budget: Budget | None = None) -> Element:
    """Largest left divisor of a positive x inside the submonoid N.

    N membership is decided by generating the submonoid of the given simples
    up to the grade of x, straight from the definition.
    """
    budget = ensure_budget(budget)
    t = x.table
    max_grade = x.delta_power * t.grade[t.delta] + sum(t.grade[u] for u in x.body)
    n_ball = positive_monoid_ball(t, div_delta, max_grade, budget)
    candidates = left_divisors(x, budget) & n_ball
    best = max(
        candidates,
        key=lambda d: sum(t.grade[u] for u in d.positive_factors()),
    )
    for d in candidates:
        if not word_divides_word(t, _positive_word(d), _positive_word(best)):
            raise StructureError("N-divisors have no maximum")
    return best


# -- table construction -----------------------------------------------------------


def permutation_braid(n: int) -> GarsideTable:
    """Slow twin of `structures.build_braid`: every pair of permutations.

    Composes all n!^2 pairs and keeps u·v when its inversion count is the
    sum of theirs; each simple is named by peeling its smallest left
    descent until the identity remains, which spells the lexicographically
    least reduced word.
    """
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    inv = [_inversions(p) for p in perms]
    ident = tuple(range(n))
    w0 = tuple(range(n - 1, -1, -1))

    names = [_braid_name(p, ident, w0) for p in perms]
    products: dict[tuple[int, int], int] = {}
    for iu, pu in enumerate(perms):
        if pu == ident:
            continue
        for iv, pv in enumerate(perms):
            if pv == ident:
                continue
            w = tuple(pv[pu[i]] for i in range(n))
            iw = index[w]
            if inv[iw] == inv[iu] + inv[iv]:
                products[(iu, iv)] = iw
    return GarsideTable(f"braid:{n}", names, index[ident], index[w0], products)


def _inversions(p: Sequence[int]) -> int:
    return sum(
        1
        for i in range(len(p))
        for j in range(i + 1, len(p))
        if p[i] > p[j]
    )


def _braid_name(p: tuple[int, ...], ident: tuple[int, ...], w0: tuple[int, ...]) -> str:
    if p == ident:
        return "1"
    if p == w0:
        return "D"
    word = []
    cur = list(p)
    while cur != list(ident):
        i = next(k for k in range(len(cur) - 1) if cur[k] > cur[k + 1])
        word.append(BRAID_ATOM_LETTERS[i])
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
    return "".join(word)


# -- table validation -------------------------------------------------------------


def dense_validate_table(table: GarsideTable) -> list[str]:
    """Slow twin of `structures.validate_table`: every triple and every pair.

    Loops over all n^3 triples for partial associativity and all n^2 pairs
    for phi and the grade, through `table.product`, and reports in the same
    order with the same cut at `MAX_VIOLATIONS`.
    """
    out: list[str] = []
    n = table.n_simples
    names = table.simples

    def report(msg: str) -> bool:
        out.append(msg)
        return len(out) >= MAX_VIOLATIONS

    for u in range(n):
        for v in range(n):
            uv = table.product(u, v)
            for w in range(n):
                vw = table.product(v, w)
                left = table.product(uv, w) if uv is not None else None
                right = table.product(u, vw) if vw is not None else None
                if left is not None or right is not None:
                    if left != right:
                        if report(
                            "associativity: "
                            f"({names[u]} {names[v]}) {names[w]} != "
                            f"{names[u]} ({names[v]} {names[w]})"
                        ):
                            return out

    for u in range(n):
        for v in range(n):
            w = table.product(u, v)
            pw = table.product(table.phi(u), table.phi(v))
            if (w is None) != (pw is None) or (w is not None and table.phi(w) != pw):
                if report(f"phi: not multiplicative at {names[u]}, {names[v]}"):
                    return out

    for u in range(n):
        for v in range(n):
            w = table.product(u, v)
            if w is not None and table.grade[u] + table.grade[v] != table.grade[w]:
                if report(f"grading: not additive at {names[u]} * {names[v]}"):
                    return out

    return out


# -- table isomorphism ----------------------------------------------------------


def brute_isomorphic(t1: GarsideTable, t2: GarsideTable) -> bool:
    """Slow twin of `structures.tables_isomorphic`: every bijection fixing 1 and D.

    Tries all (n-2)! bijections of the other simples and accepts the first
    that carries every product of t1, defined or not, to the product of
    the images in t2. Grades are not consulted.
    """
    n = t1.n_simples
    if n != t2.n_simples:
        return False
    rest1 = [u for u in range(n) if u not in (t1.unit, t1.delta)]
    rest2 = [v for v in range(n) if v not in (t2.unit, t2.delta)]
    for images in itertools.permutations(rest2):
        m = dict(zip(rest1, images))
        m.update({t1.unit: t2.unit, t1.delta: t2.delta, None: None})
        if all(
            t2.product(m[a], m[b]) == m[t1.product(a, b)]
            for a in range(n)
            for b in range(n)
        ):
            return True
    return False


# -- parabolic helpers ---------------------------------------------------------


def conjugate_by_delta_sub(p: ParabolicData, x: Element, k: int = 1) -> Element:
    """delta_sub^k * x * delta_sub^-k, for elements of H."""
    d = p.delta_element() ** k
    return multiply(multiply(d, x), invert(d))


def positive_in_submonoid(a: Element, p: ParabolicData) -> bool:
    """Whether a positive element lies in N (all greedy factors divide delta_sub)."""
    if a.delta_power < 0:
        raise DomainError("positive_in_submonoid requires a positive element")
    return all(u in p.div_delta for u in a.positive_factors())


# -- coset partitions --------------------------------------------------------


@dataclasses.dataclass
class CosetClass:
    """One right-coset intersected with the ball."""

    members: tuple[Element, ...]
    min_length: int
    boundary_contact: bool


@dataclasses.dataclass
class CosetPartition:
    table: GarsideTable
    radius: int
    classes: list[CosetClass]

    def class_of(self, x: Element) -> CosetClass:
        for cls in self.classes:
            if x in cls.members:
                return cls
        raise DomainError("element outside the partitioned ball")

    def counts_by_length(self, up_to: int) -> list[int]:
        out = [0] * (up_to + 1)
        for cls in self.classes:
            if cls.min_length <= up_to:
                out[cls.min_length] += 1
        return out


def brute_coset_partition(
    table: GarsideTable,
    div_delta: Iterable[int],
    radius: int,
    budget: Budget | None = None,
) -> CosetPartition:
    """Partition the ball into right-cosets of the subgroup H = <div_delta>.

    Starts from a union-find closure under left multiplication by the
    subgroup generators inside the ball, then repairs fragments by testing
    representatives pairwise with y * x^-1 in H, so each class is exactly
    one coset intersected with the ball and its min length is exact.
    """
    budget = ensure_budget(budget)
    gen_ids = [s for s in div_delta if s != table.unit]
    ball = bfs_lengths(table, radius, budget)
    elements = sorted(ball.dist, key=Element.sort_key)
    index = {x: i for i, x in enumerate(elements)}

    parent = list(range(len(elements)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    gens = signed_generators(table, gen_ids)

    contact = [False] * len(elements)
    for x, i in index.items():
        for g in gens:
            budget.charge()
            y = multiply(g, x)
            j = index.get(y)
            if j is None:
                contact[i] = True
            else:
                union(i, j)

    # Repair fragments: merge classes whose representatives differ by an
    # element of H. Membership is a lookup in an H-ball wide enough for any
    # quotient of two ball elements.
    h_ball = set(subgroup_ball(table, gen_ids, 2 * radius + 4, budget))
    reps = sorted({find(i) for i in range(len(elements))})
    for a_pos in range(len(reps)):
        for b_pos in range(a_pos + 1, len(reps)):
            i, j = reps[a_pos], reps[b_pos]
            if find(i) == find(j):
                continue
            budget.charge()
            q = multiply(elements[j], invert(elements[i]))
            if q in h_ball:
                union(i, j)

    groups: dict[int, list[int]] = {}
    for i in range(len(elements)):
        groups.setdefault(find(i), []).append(i)
    classes = []
    for members in groups.values():
        elems = tuple(sorted((elements[i] for i in members), key=Element.sort_key))
        classes.append(
            CosetClass(
                members=elems,
                min_length=min(ball.dist[e] for e in elems),
                boundary_contact=any(contact[i] for i in members),
            )
        )
    classes.sort(key=lambda c: (c.min_length, c.members[0].sort_key()))
    return CosetPartition(table, radius, classes)


def brute_projection(
    x: Element,
    div_delta: Iterable[int],
    radius: int,
    budget: Budget | None = None,
) -> tuple[set[Element], int]:
    """Nearest subgroup elements to x, scanning H out to the given radius.

    Returns (projection set, distance). The scan is the definition: every
    subgroup element in the ball competes directly, with no representative
    or completeness-bound shortcuts. Distances use the canonical length
    formula, which is validated against BFS separately.
    """
    budget = ensure_budget(budget)
    h_ball = subgroup_ball(x.table, div_delta, radius, budget)
    best: dict[Element, int] = {}
    for beta in h_ball:
        budget.charge()
        best[beta] = multiply(invert(beta), x).length()
    dist = min(best.values())
    members = {beta for beta, d in best.items() if d == dist}
    return members, dist


def ball_projection(x: Element, p: ParabolicData, budget: Budget | None = None) -> ProjectionSet:
    """Slow twin of `cosets.projection`: scan the H-ball of radius 2 lg(Hx).

    With theta the representative, every shortest element is gamma = beta *
    theta with beta in H, and lg(beta) <= lg(beta theta) + lg(theta^-1) =
    2 lg(theta), lg the length of G. The BFS `subgroup_ball` over
    div(delta_sub) reaches exactly these beta, since lg_H = lg on H (ball
    theorem of `cosets._walk`, checked against this BFS by the tests), so the
    scan is complete and shares no walk with `projection`. The members are
    x gamma^-1 = h beta^-1 with h = x theta^-1, distinct by cancellation. The
    ball grows exponentially with its radius.
    """
    theta = coset_representative(x, p)
    level = theta.length()
    h = multiply(x, invert(theta))
    ball = subgroup_ball(p.table, p.generator_simples(), 2 * level, budget)
    members = [multiply(h, invert(b)) for b in ball if multiply(b, theta).length() == level]
    return ProjectionSet(tuple(sorted(members, key=Element.sort_key)), level)


def min_set(x: Element, p: ParabolicData, budget: Budget | None = None) -> list[Element]:
    """All shortest elements of the coset H x, sorted canonically.

    They are gamma = m^-1 x over the members m of `cosets.projection`, which
    are x gamma^-1 over exactly these gamma (completeness is proved there).
    """
    members = projection(x, p, budget).members
    return sorted((multiply(invert(m), x) for m in members), key=Element.sort_key)


def element_to_word(aut: CosetAutomaton, theta: Element) -> tuple[SignedLetter, ...]:
    """The accepted word spelling a transversal element.

    The word is the left greedy normal form read with inverse letters first;
    elements outside the transversal have no accepted spelling and are
    refused.
    """
    if not is_hn_reduced(theta, aut.parabolic):
        raise DomainError("element is not a reduced coset representative")
    word = greedy_letters(theta)
    if not aut.accepts(word):
        raise StructureError("normal form word rejected by the automaton")
    return word


def enumerate_accepted(aut: CosetAutomaton, n: int) -> list[tuple[SignedLetter, ...]]:
    """All accepted words of length exactly n, lexicographic by letter index.

    The slow twin of `growth.transfer_counts`: it lists the words one by one.
    """
    if n < 0:
        raise DomainError("word length must be non-negative")
    n_letters = len(aut.alphabet)
    out: list[tuple[SignedLetter, ...]] = []
    word: list[SignedLetter] = []

    def walk(state: int, remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(word))
            return
        base = state * n_letters
        for j in range(n_letters):
            target = aut.transition[base + j]
            if target == SINK:
                continue
            word.append(aut.alphabet[j])
            walk(target, remaining - 1)
            word.pop()

    walk(START, n)
    return out


# -- growth: dense twin of the transfer counts -----------------------------------


def dense_transfer_counts(aut: CosetAutomaton, n_max: int) -> list[int]:
    """e(0..n_max) from the full n x n count matrix of the acceptor.

    Every state, the sink and unreachable ones included, is advanced each
    term; e(n) sums the accepting states. No lumping, no sparsity.
    """
    n = aut.n_states
    k = len(aut.alphabet)
    m = [[0] * n for _ in range(n)]
    for state in range(n):
        for j in range(k):
            m[state][aut.transition[state * k + j]] += 1
    vec = [0] * n
    vec[START] = 1
    out = []
    for _ in range(n_max + 1):
        out.append(sum(vec[s] for s in range(n) if aut.accepted(s)))
        vec = [sum(vec[s] * m[s][t] for s in range(n) if vec[s]) for t in range(n)]
    return out


# -- growth: Cayley-Hamilton twin of the rational series -------------------------


def reachable_count_matrix(aut: CosetAutomaton) -> list[list[int]]:
    """Transition counts between the states reachable from the start state.

    Entry [i][j] counts the letters taking the i-th reachable state to the
    j-th, states in ascending order; built straight from `aut.transition`.
    """
    k = len(aut.alphabet)
    rows = [aut.transition[s * k : (s + 1) * k] for s in range(aut.n_states)]
    seen = {START}
    stack = [START]
    while stack:
        for t in rows[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    states = sorted(seen)
    return [[rows[s].count(t) for t in states] for s in states]


def reversed_charpoly(matrix: list[list[int]]) -> tuple[int, ...]:
    """Coefficients of det(I - t M), ascending in t, exact integers.

    Computed by the Faddeev-LeVerrier recursion over rationals; the result
    is integral because the input matrix is. By Cayley-Hamilton it is a
    denominator of every series u^T (I - tM)^-1 v, so the minimal one
    divides it.
    """
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    coeffs = [Fraction(1)]  # charpoly det(lambda I - M), leading first
    aux = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            aux[i][i] += coeffs[-1]
        prod = [
            [sum(m[i][j] * aux[j][l] for j in range(n)) for l in range(n)]
            for i in range(n)
        ]
        trace = sum(prod[i][i] for i in range(n))
        coeffs.append(-trace / k)
        aux = prod
    # charpoly(lambda) = sum coeffs[i] lambda^(n-i); det(I - tM) = t^n charpoly(1/t).
    rev = [int(c) for c in coeffs]
    if any(Fraction(x) != c for x, c in zip(rev, coeffs)):
        raise StructureError("characteristic polynomial was not integral")
    while rev and rev[-1] == 0:
        rev.pop()
    return tuple(rev)


def poly_mul(p: Sequence, q: Sequence) -> list:
    """Product of two coefficient lists, ascending powers."""
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poly_divmod_exact(p: Sequence[int], q: Sequence[int]) -> tuple[list[Fraction], list[Fraction]]:
    """Long division over the rationals; exact remainder returned."""
    num = [Fraction(c) for c in p]
    den = [Fraction(c) for c in q]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise DomainError("division by the zero polynomial")
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        coef = num[i + len(den) - 1] / den[-1]
        quot[i] = coef
        if coef:
            for j, d in enumerate(den):
                num[i + j] -= coef * d
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def poly_divides(q: Sequence[int], p: Sequence[int]) -> bool:
    """Whether q divides p exactly over the rationals."""
    _, rem = poly_divmod_exact(p, q)
    return not rem
