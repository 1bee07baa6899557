"""Garside structure tables and canonical group elements.

A Garside group is presented here by the finite lattice of divisors of its
Garside element D: a table of simple elements with a partial product, the
left meet table, the right complement map sigma (u * sigma(u) = D) and the
conjugation phi(u) = D u D^-1. All group-level computation (normal forms,
multiplication, inversion, length, the factored views) is driven by these
tables, so one kernel serves braid groups, dihedral Artin groups, free
abelian groups and user-supplied tables alike.

Elements are stored in a single canonical shape: a power of D followed by
the left greedy normal sequence of proper simple factors, with the D power
fully extracted. Two elements are equal iff their fields coincide, which
gives O(1) equality and hashing. Tables and elements are immutable after
construction and every operation is a pure function, so values can be
shared between threads without locks.

Every normal form comes from one normaliser, `_normalize_factors`, which
appends one simple at a time and restores greediness with one right-to-left
sweep of pair transfers (the domino rule; Epstein et al., Word Processing
in Groups, ch. 9; Dehornoy et al., Foundations of Garside Theory).
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, StructureError

# A letter of the symmetric alphabet: (simple id, +1 or -1).
SignedLetter = tuple[int, int]


# The constructor refuses larger tables before allocating its n^2 lists;
# abelian:10, the largest built-in, has 2^10 simples and builds and
# validates in about 0.7 s.
MAX_SIMPLES = 1024


class GarsideTable:
    """Dense lookup tables over the simple elements of a Garside structure.

    A Garside structure is fixed by the partial product of its simples
    (Dehornoy et al., Foundations of Garside Theory, ch. VI), so the
    constructor takes only the names, the unit, D and the products
    ``{(u, v): w}`` that are again simple (unit products are implied), and
    derives the left-hand tables once: one loop over the product fills the
    left quotient table and the left divisor bitsets, the meets are the
    maxima of the common divisor sets, sigma(u) = u\\D, phi = (sigma o
    sigma)^-1, and their inverse permutations. It raises StructureError
    when two products collide, left cancellation fails, a pair of simples
    has no greatest common left divisor, a simple has no complement, sigma
    is not injective or the product has a cycle. What the derived tables
    cannot show, `structures.validate_table` checks.

    No right-hand table is stored: `reversed()` runs this constructor on
    the transposed product, and on every table `structures.load_table`
    accepts it succeeds (theorem). Take left cancellation, left meets and
    sigma a permutation (checked here) and partial associativity
    (validated). If u v = u' v = w, then sigma(u) = v sigma(w) = sigma(u'),
    so u = u': right cancellation holds. And u x = u' iff sigma(u) =
    x sigma(u'), so sigma is an order anti-isomorphism from <=_L to <=_R,
    and the right meets are the images of the left joins, which exist by
    the theorem in `validate_table`. An unvalidated table has no such
    promise: its `reversed()` may raise StructureError.

    The divisor bitsets hold bit p for the simple at position p of the order
    ``sorted(range(n), key=lambda s: (grade[s], -s))``. A proper divisor has
    a smaller grade than its multiple, so it sits at a lower bit, and the
    meet of u and v is the simple at the top bit of their common divisor
    set, provided every other common divisor divides it. Among common
    divisors of equal grade the top bit is the one of lowest id, the one a
    scan of the simples in descending grade order finds first, so the
    meets, and the tables refused as not a lattice, are those of that scan.
    Each unordered pair costs one AND of two n-bit integers, not a scan.

    ``grade`` is the longest-chain length of each simple over the product.
    It is finite on every table the constructor accepts, and additive
    (grade of a product is the sum of the grades whenever the product is
    defined) on every table accepted by the validator; the oracles order
    simples by it.
    """

    def __init__(
        self,
        name: str,
        simples: Sequence[str],
        unit: int,
        delta: int,
        products: Mapping[tuple[int, int], int],
    ):
        n = len(simples)
        if n > MAX_SIMPLES:
            raise StructureError(f"{n} simples exceed the limit of {MAX_SIMPLES}")
        if not (0 <= unit < n and 0 <= delta < n):
            raise StructureError("unit or delta index out of range")
        if n > 1 and unit == delta:
            raise StructureError("unit and delta must differ in a non-trivial table")

        product = [-1] * (n * n)
        for u in range(n):
            product[u * n + unit] = u
            product[unit * n + u] = u
        for (u, v), w in products.items():
            slot = u * n + v
            if product[slot] not in (-1, w):
                raise StructureError(
                    f"conflicting products for {simples[u]} * {simples[v]}"
                )
            product[slot] = w

        # Grade = atom count, computed as the longest-chain fixed point: start
        # non-units at 1 and push each product up to the sum of its factors. A
        # chain has at most n simples, so without a cycle in the product the
        # loop settles within n passes; the validator rejects tables where
        # additivity still fails afterwards.
        grade = [1] * n
        grade[unit] = 0
        for _ in range(n + 1):
            changed = False
            for (u, v), w in products.items():
                if u != unit and v != unit and grade[u] + grade[v] > grade[w]:
                    grade[w] = grade[u] + grade[v]
                    changed = True
            if not changed:
                break

        # bit[s] marks s in the divisor bitsets; see the class docstring.
        order = sorted(range(n), key=lambda s: (grade[s], -s))
        bit = [0] * n
        for pos, s in enumerate(order):
            bit[s] = 1 << pos

        # lquot[u][w] = v iff u*v = w; a second entry for one slot is a
        # cancellation failure. u <=_L w iff some u*v = w (the cofactor of a
        # simple divisor is itself simple, so one product suffices).
        lquot = [-1] * (n * n)
        div = [0] * n  # bitset of left divisors of w
        for u in range(n):
            base = u * n
            for v in range(n):
                w = product[base + v]
                if w < 0:
                    continue
                if lquot[base + w] >= 0:
                    raise StructureError(
                        f"left cancellation fails at {simples[u]} * ? = {simples[w]}"
                    )
                lquot[base + w] = v
                div[w] |= bit[u]

        # The meet is the common divisor at the top bit, provided every other
        # common divisor divides it. The common set always holds the unit,
        # and it is symmetric in u and v, so each unordered pair is read once.
        meet_l = [0] * (n * n)
        for u in range(n):
            div_u = div[u]
            for v in range(u + 1):
                common = div_u & div[v]
                best = order[common.bit_length() - 1]
                if common & ~div[best]:
                    raise StructureError(
                        "meet_l: common divisors have no maximum (not a lattice)"
                    )
                meet_l[u * n + v] = meet_l[v * n + u] = best

        sigma = [lquot[u * n + delta] for u in range(n)]
        sigma_inv = [-1] * n
        for u in range(n):
            if sigma[u] < 0:
                raise StructureError(f"no complement: {simples[u]} * ? = delta")
            if sigma_inv[sigma[u]] >= 0:
                raise StructureError(f"sigma is not injective: ? * {simples[sigma[u]]} = delta")
            sigma_inv[sigma[u]] = u
        # Last, so that a table the checks above refuse keeps their message.
        if changed:
            raise StructureError("the product has a cycle: the grade does not settle")
        phi = [sigma_inv[sigma_inv[u]] for u in range(n)]

        # The order of phi is the lcm of its cycle lengths.
        phi_order = 1
        seen = [False] * n
        for start in range(n):
            length = 0
            u = start
            while not seen[u]:
                seen[u] = True
                u = phi[u]
                length += 1
            if length:
                phi_order = lcm(phi_order, length)

        self.name = name
        self.simples = list(simples)
        self.unit = unit
        self.delta = delta
        # An atom has no left divisor but the unit and itself.
        self.atoms = tuple(
            s for s in range(n) if s != unit and not div[s] & ~(bit[unit] | bit[s])
        )
        self.grade = grade
        self._product = product
        self._meet_l = meet_l
        self._sigma = sigma
        self._sigma_inv = sigma_inv
        self._phi = phi
        self._phi_inv = [sigma[sigma[u]] for u in range(n)]
        self._lquot = lquot
        self.phi_order = phi_order
        self._phi_pow_cache: dict[int, list[int]] = {}
        # Coset acceptors by delta_sub, filled by `automaton.build_automaton`.
        self._acceptors: dict[int, object] = {}
        self._reversed: GarsideTable | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n_simples(self) -> int:
        return len(self.simples)

    def check_simple(self, u: int) -> None:
        if not (isinstance(u, int) and 0 <= u < len(self.simples)):
            raise StructureError(f"invalid simple id {u!r}")

    def display(self, u: int) -> str:
        return self.simples[u]

    def product(self, u: int, v: int) -> int | None:
        w = self._product[u * len(self.simples) + v]
        return None if w < 0 else w

    def meet_l(self, u: int, v: int) -> int:
        return self._meet_l[u * len(self.simples) + v]

    def left_divides(self, u: int, w: int) -> bool:
        """u <=_L w, both simple."""
        return self._meet_l[u * len(self.simples) + w] == u

    def lquot(self, u: int, w: int) -> int:
        """The v with u*v = w; requires u <=_L w."""
        v = self._lquot[u * len(self.simples) + w]
        if v < 0:
            raise StructureError(
                f"{self.simples[u]} does not left-divide {self.simples[w]}"
            )
        return v

    def sigma(self, u: int) -> int:
        return self._sigma[u]

    def sigma_inv(self, u: int) -> int:
        return self._sigma_inv[u]

    def phi(self, u: int) -> int:
        return self._phi[u]

    def phi_pow(self, u: int, k: int) -> int:
        """phi^k(u) with k reduced modulo the order of phi."""
        return self._phi_perm(k)[u]

    def _phi_perm(self, k: int) -> list[int]:
        """phi^k as a list indexed by simple, memoised per k mod the order."""
        k %= self.phi_order
        perm = self._phi_pow_cache.get(k)
        if perm is None:
            perm = list(range(len(self.simples)))
            for _ in range(k):
                perm = [self._phi[x] for x in perm]
            self._phi_pow_cache[k] = perm
        return perm

    def reversed(self) -> "GarsideTable":
        """The opposite structure: products reversed, left and right swapped.

        Built by the constructor from the transposed product and cached both
        ways, so right-handed computations (right greedy forms, right
        orthogonal forms) reuse the left-handed machinery verbatim. See the
        class docstring for when it raises StructureError.
        """
        if self._reversed is None:
            n = len(self.simples)
            # Slot k = u*n + v holds u*v, which is v*u in the reversed table.
            transposed = {(k % n, k // n): w for k, w in enumerate(self._product) if w >= 0}
            rev = GarsideTable(self.name + "~rev", self.simples, self.unit, self.delta, transposed)
            rev._reversed = self
            self._reversed = rev
        return self._reversed

    def __repr__(self):
        return f"GarsideTable({self.name!r}, {len(self.simples)} simples)"


# -- canonical elements ----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Element:
    """A group element in canonical form D^delta_power * body.

    The body is the left greedy normal sequence of the D-free part: no
    factor is the unit or D, and sigma(u_i) meet u_{i+1} is trivial for all
    consecutive pairs. The public constructor checks this, so an Element can
    always be trusted to be canonical; the kernel builds its own results
    through `_make`, whose callers produce greedy bodies by construction.
    Equality and hashing compare the fields; `GarsideTable` defines no
    ``__eq__``, so elements are equal only over the same table instance.
    """

    table: GarsideTable
    delta_power: int
    body: tuple[int, ...]

    def __post_init__(self):
        t = self.table
        for u in self.body:
            t.check_simple(u)
            if u == t.unit or u == t.delta:
                raise StructureError("body factors must be proper simples")
        for i in range(len(self.body) - 1):
            if t.meet_l(t.sigma(self.body[i]), self.body[i + 1]) != t.unit:
                raise StructureError("body is not left greedy")

    def sort_key(self):
        return (self.delta_power, self.body)

    @property
    def is_identity(self) -> bool:
        return self.delta_power == 0 and not self.body

    def length(self) -> int:
        """Word length over the symmetric generating set of simples.

        Equals max(k + p, -p, k) for the canonical form D^p u_1..u_k.
        """
        k = len(self.body)
        p = self.delta_power
        return max(k + p, -p, k)

    def factor_count(self) -> int:
        """Number of greedy factors of a positive element, D powers included."""
        if self.delta_power < 0:
            raise DomainError("factor_count is defined for positive elements only")
        return self.delta_power + len(self.body)

    def positive_factors(self) -> tuple[int, ...]:
        """Greedy factor sequence of a positive element, leading D factors explicit."""
        if self.delta_power < 0:
            raise DomainError("positive_factors requires a positive element")
        return (self.table.delta,) * self.delta_power + self.body

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def inverse(self) -> "Element":
        return invert(self)

    def __pow__(self, exp: int) -> "Element":
        acc = identity(self.table)
        if exp == 0:
            return acc
        base = self if exp > 0 else self.inverse()
        exp = abs(exp)
        while exp:
            if exp & 1:
                acc = acc * base
            exp >>= 1
            base = base * base
        return acc

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{format_element(self)}>"


def _make(table: GarsideTable, delta_power: int, body: tuple[int, ...]) -> Element:
    """An Element whose body is canonical by construction; skips the O(k) check."""
    x = object.__new__(Element)
    object.__setattr__(x, "table", table)
    object.__setattr__(x, "delta_power", delta_power)
    object.__setattr__(x, "body", body)
    return x


def identity(table: GarsideTable) -> Element:
    return _make(table, 0, ())


def delta_power(table: GarsideTable, p: int) -> Element:
    return _make(table, p, ())


def simple(table: GarsideTable, u: int) -> Element:
    """The positive element given by one simple."""
    table.check_simple(u)
    if u == table.unit:
        return _make(table, 0, ())
    if u == table.delta:
        return _make(table, 1, ())
    return _make(table, 0, (u,))


# -- normalisation ---------------------------------------------------------


def _normalize_factors(table: GarsideTable, factors: list[int]) -> tuple[int, tuple[int, ...]]:
    """Left greedy normal form of a product of simples.

    Returns (d, body) with product = D^d * body, the body greedy and free of
    unit and D factors. Each non-unit factor is appended to a greedy
    sequence, and one right-to-left sweep of pair transfers makes the
    sequence greedy again: the pair (u, v) becomes its own greedy form
    (u x, x\\v) with x = sigma(u) meet v, and the sweep steps one pair left.
    It stops at the first pair with x = 1, since every pair left of it is
    unchanged and greedy (the domino rule). A D that forms moves to the
    front through the same rule, as (u, D) becomes (D, phi^-1(u)). Only the
    appended factor can become the unit, and it is then dropped: any other
    v has the old right neighbour of u, which meets sigma(u) trivially, as
    a left divisor.

    Bound (theorem): appending one simple to a greedy sequence of k factors
    takes at most k pair transfers, one per pair, so a product of n simples
    takes at most n(n-1)/2 transfers in all.
    """
    n = len(table.simples)
    unit = table.unit
    delta = table.delta
    meet_l = table._meet_l
    sigma = table._sigma
    product = table._product
    lquot = table._lquot
    work: list[int] = []
    for f in factors:
        if f == unit:
            continue
        work.append(f)
        i = len(work) - 2
        while i >= 0:
            u = work[i]
            v = work[i + 1]
            x = meet_l[sigma[u] * n + v]
            if x == unit:
                break
            head = product[u * n + x]
            rest = lquot[x * n + v]
            if head < 0 or rest < 0:
                raise StructureError("corrupt table: pair transfer undefined")
            work[i] = head
            work[i + 1] = rest
            i -= 1
        if work[-1] == unit:
            work.pop()
    d = 0
    while d < len(work) and work[d] == delta:
        d += 1
    return d, tuple(work[d:])


def normalize(table: GarsideTable, word: Iterable[SignedLetter]) -> Element:
    """Canonical form of a signed word over the simples.

    Negative letters are rewritten with u^-1 = D^-1 * phi(sigma(u)); one
    right-to-left pass commutes the D powers to the front with phi twists,
    and the remaining positive sequence is normalised. Each letter's id is
    checked, since words come from callers.
    """
    phi = table._phi
    sigma = table._sigma
    factors: list[int] = []
    power = 0
    twist = table._phi_perm(0)
    for s, sign in reversed(list(word)):
        table.check_simple(s)
        if sign == 1:
            factors.append(twist[s])
        elif sign == -1:
            factors.append(twist[phi[sigma[s]]])
            power -= 1
            twist = table._phi_perm(-power)
        else:
            raise StructureError(f"letter sign must be +1 or -1, got {sign!r}")
    factors.reverse()
    d, body = _normalize_factors(table, factors)
    return _make(table, power + d, body)


def multiply(x: Element, y: Element) -> Element:
    if x.table is not y.table:
        raise StructureError("cannot multiply elements over different tables")
    t = x.table
    q = y.delta_power
    if q % t.phi_order:
        twist = t._phi_perm(-q)
        factors = [twist[u] for u in x.body]
    else:
        factors = list(x.body)
    factors.extend(y.body)
    d, body = _normalize_factors(t, factors)
    return _make(t, x.delta_power + q + d, body)


def invert(x: Element) -> Element:
    """The inverse by complements, with no normaliser pass.

    Theorem: for x = D^p u_1 ... u_k in canonical form, x^-1 = D^-(p+k)
    w_k ... w_1 with w_i = phi^(p+i)(sigma(u_i)), and that body is greedy.
    Proof: u^-1 = sigma(u) D^-1 and y D^-m = D^-m phi^m(y), and sigma(u_i)
    has i + p powers of D^-1 to its right. Each w_i is proper as u_i is.
    sigma commutes with phi and sigma o sigma = phi^-1, so sigma(w_(i+1))
    meet w_i = phi^(p+i)(u_(i+1) meet sigma(u_i)) = 1, because x is greedy.
    """
    t = x.table
    p = x.delta_power
    sigma = t._sigma
    body = tuple(t._phi_perm(p + i)[sigma[u]] for i, u in reversed(list(enumerate(x.body, 1))))
    return _make(t, -(p + len(body)), body)


def conjugate_by_delta(x: Element, k: int = 1) -> Element:
    """phi^k(x) = D^k x D^-k. Preserves greedy bodies factor by factor."""
    twist = x.table._phi_perm(k)
    return _make(x.table, x.delta_power, tuple(twist[u] for u in x.body))


def right_delta_positive_part(x: Element) -> Element:
    """The positive part a of the right D-form x = a * D^p: phi^p of the body."""
    twist = x.table._phi_perm(x.delta_power)
    return _make(x.table, 0, tuple(twist[u] for u in x.body))


# -- head meets ------------------------------------------------------------


def head_simple(a: Element) -> int:
    """First greedy factor of a positive element (D if the D power is >= 1)."""
    if a.delta_power < 0:
        raise DomainError("head_simple requires a positive element")
    if a.delta_power >= 1:
        return a.table.delta
    return a.body[0] if a.body else a.table.unit


def meet_with_simple(a: Element, s: int) -> int:
    """Meet of a positive element with one simple.

    The meet of a positive element with any simple equals the meet of its
    first greedy factor with that simple, so this is a single table lookup.
    """
    a.table.check_simple(s)
    return a.table.meet_l(head_simple(a), s)


def has_left_divisor(a: Element, s: int) -> bool:
    """Whether the simple s left-divides the positive element a."""
    return meet_with_simple(a, s) == s


def strip_left_simple(a: Element, s: int) -> Element:
    """The positive element s^-1 * a; requires s to left-divide a."""
    if not has_left_divisor(a, s):
        raise DomainError(
            f"{a.table.display(s)} does not left-divide {format_element(a)}"
        )
    return multiply(invert(simple(a.table, s)), a)


# -- factored views --------------------------------------------------------


class Form(Enum):
    LEFT_GREEDY = "left-greedy"
    RIGHT_GREEDY = "right-greedy"
    LEFT_ORTHOGONAL = "left-orthogonal"
    RIGHT_ORTHOGONAL = "right-orthogonal"
    LEFT_DELTA = "left-delta"
    RIGHT_DELTA = "right-delta"


@dataclasses.dataclass(frozen=True)
class NormalFormView:
    """One of the six factored presentations of an element.

    Payload shapes by variant:
      LEFT_DELTA        (p, body)            element = D^p * body
      RIGHT_DELTA       (body, p)            element = body * D^p
      LEFT_ORTHOGONAL   (b, a) Elements      element = b^-1 * a, meet_L(a, b) = 1
      RIGHT_ORTHOGONAL  (a, b) Elements      element = a * b^-1, meet_R(a, b) = 1
      LEFT_GREEDY       (letters,)           signed letters, negatives first
      RIGHT_GREEDY      (letters,)           signed letters, positives first
    """

    table: GarsideTable
    variant: Form
    payload: tuple

    def remultiply(self) -> Element:
        """Rebuild the source element from the view."""
        t = self.table
        if self.variant is Form.LEFT_DELTA:
            p, body = self.payload
            return multiply(delta_power(t, p), normalize(t, [(u, 1) for u in body]))
        if self.variant is Form.RIGHT_DELTA:
            body, p = self.payload
            return multiply(normalize(t, [(u, 1) for u in body]), delta_power(t, p))
        if self.variant is Form.LEFT_ORTHOGONAL:
            b, a = self.payload
            return multiply(invert(b), a)
        if self.variant is Form.RIGHT_ORTHOGONAL:
            a, b = self.payload
            return multiply(a, invert(b))
        (letters,) = self.payload
        return normalize(t, letters)


def left_orthogonal(x: Element) -> tuple[Element, Element]:
    """The pair (b, a) with x = b^-1 * a, both positive, meeting trivially."""
    t = x.table
    if x.delta_power >= 0:
        return identity(t), x
    q = -x.delta_power
    body = x.body
    k = len(body)
    m = min(k, q)
    r = q - m
    vs = []
    for i in range(r + 1, q + 1):
        w = body[q - i]
        vs.append(t.sigma_inv(t.phi_pow(w, -i)))
    b = _make(t, r, tuple(vs))
    a = _make(t, 0, body[q:]) if k > q else identity(t)
    return b, a


def to_reversed(x: Element) -> Element:
    """The same group element, canonical over the reversed table."""
    t = x.table
    rt = t.reversed()
    p = x.delta_power
    twist = t._phi_perm(p)
    d, body = _normalize_factors(rt, [twist[u] for u in reversed(x.body)])
    return _make(rt, p + d, body)


def from_reversed(xr: Element) -> Element:
    """Translate an element of the reversed table back to the original."""
    rt = xr.table
    t = rt.reversed()
    zs = list(xr.body)
    zs.reverse()
    d, body = _normalize_factors(t, zs)
    q = xr.delta_power
    twist = t._phi_perm(-q)
    return _make(t, d + q, tuple(twist[u] for u in body))


def right_orthogonal(x: Element) -> tuple[Element, Element]:
    """The pair (a, b) with x = a * b^-1, both positive, right meet trivial."""
    xr = to_reversed(x)
    br, ar = left_orthogonal(xr)
    return from_reversed(ar), from_reversed(br)


def greedy_letters(x: Element) -> tuple[SignedLetter, ...]:
    """Left greedy normal form as signed letters, negative letters first."""
    b, a = left_orthogonal(x)
    neg = list(b.positive_factors())
    pos = list(a.positive_factors())
    letters = [(v, -1) for v in reversed(neg)]
    letters.extend((u, 1) for u in pos)
    return tuple(letters)


def may_follow(table: GarsideTable, prev: SignedLetter, nxt: SignedLetter) -> bool:
    """Whether nxt may follow prev in a symmetric greedy word.

    The words passing this at every pair are the `greedy_letters` words of
    x = b^-1 a: b and a greedy, their heads, and so b and a, meeting trivially.
    """
    (u, eu), (v, ev) = prev, nxt
    if eu == 1:
        return ev == 1 and table.meet_l(table.sigma(u), v) == table.unit
    if ev == 1:
        return table.meet_l(u, v) == table.unit
    return table.meet_l(table.sigma(v), u) == table.unit


def right_greedy_letters(x: Element) -> tuple[SignedLetter, ...]:
    """Right greedy normal form as signed letters, positive letters first."""
    return greedy_letters(to_reversed(x))[::-1]


def view(x: Element, variant: Form) -> NormalFormView:
    """Compute one factored view of x; remultiplying restores x."""
    t = x.table
    if variant is Form.LEFT_DELTA:
        payload: tuple = (x.delta_power, x.body)
    elif variant is Form.RIGHT_DELTA:
        payload = (right_delta_positive_part(x).body, x.delta_power)
    elif variant is Form.LEFT_ORTHOGONAL:
        payload = left_orthogonal(x)
    elif variant is Form.RIGHT_ORTHOGONAL:
        payload = right_orthogonal(x)
    elif variant is Form.LEFT_GREEDY:
        payload = (greedy_letters(x),)
    elif variant is Form.RIGHT_GREEDY:
        payload = (right_greedy_letters(x),)
    else:
        raise DomainError(f"unknown view variant {variant!r}")
    return NormalFormView(t, variant, payload)


# -- formatting ------------------------------------------------------------


def format_letter(table: GarsideTable, letter: SignedLetter) -> str:
    s, sign = letter
    name = "D" if s == table.delta else table.display(s)
    return name if sign == 1 else f"{name}^-1"


def format_word(table: GarsideTable, letters: Sequence[SignedLetter]) -> str:
    if not letters:
        return "1"
    return ".".join(format_letter(table, l) for l in letters)


def format_element(x: Element) -> str:
    """Canonical printable form: D power first, then the body, dot separated."""
    t = x.table
    parts = []
    if x.delta_power == 1:
        parts.append("D")
    elif x.delta_power != 0:
        parts.append(f"D^{x.delta_power}")
    parts.extend(t.display(u) for u in x.body)
    return ".".join(parts) if parts else "1"
