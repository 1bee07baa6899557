"""Builders, loader and validator for Garside tables.

Three families are built in: braid groups on n strands (simples are the n!
permutation braids, D the half twist), dihedral Artin groups I2(m) (simples
are the alternating prefixes of the two relator words, 2m in total) and free
abelian groups Z^n (simples are the 2^n square-free monomials). User tables
come from a line-oriented text format documented in the README.

Every provider produces the same raw data, a list of simple names plus the
partial product, and hands it to the one table constructor,
`kernel.GarsideTable`, which derives grades, meets, complements and
conjugation from it and rejects products that break them. The validator
checks the three axioms the derived tables cannot show: partial
associativity, phi multiplicative and an additive grade.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Sequence

from .errors import StructureError
from .kernel import GarsideTable

BRAID_ATOM_LETTERS = "abcde"
ABELIAN_ATOM_LETTERS = ["x", "y", "z", "w"]
# `validate_table` stops after this many violations.
MAX_VIOLATIONS = 20


# -- braid groups ----------------------------------------------------------


def build_braid(n: int) -> GarsideTable:
    """Classical Garside structure on the braid group with n strands.

    Simples are the n! permutation braids with D the half twist; products,
    meets and complements all derive from inversion counts. The n <= 6
    guard keeps the dense tables at desk scale: braid:6 (720 simples)
    builds and validates in about 2 s, braid:7 would have 5040.
    """
    if not (2 <= n <= 6):
        raise StructureError("braid strand count must be in 2..6")
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
    # Lexicographically least reduced word: repeatedly peel the smallest
    # descent as the first Artin letter.
    word = []
    cur = list(p)
    while cur != list(ident):
        i = next(k for k in range(len(cur) - 1) if cur[k] > cur[k + 1])
        word.append(BRAID_ATOM_LETTERS[i])
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
    return "".join(word)


# -- dihedral Artin groups -------------------------------------------------


def build_dihedral(m: int) -> GarsideTable:
    """Garside structure on the dihedral Artin group I2(m).

    Simples are the unit, the 2(m-1) proper alternating words in s and t,
    and D, the alternating word of length m (both spellings coincide).
    """
    if not (3 <= m <= 50):
        raise StructureError("dihedral parameter must be in 3..50")

    def alt(first: str, length: int) -> str:
        other = "t" if first == "s" else "s"
        return "".join(first if i % 2 == 0 else other for i in range(length))

    names = ["1"]
    for length in range(1, m):
        names.append(alt("s", length))
        names.append(alt("t", length))
    names.append("D")
    index = {w: i for i, w in enumerate(names)}
    unit = index["1"]
    delta = index["D"]

    def simple_of(word: str) -> int | None:
        if len(word) == m:
            return delta
        return index.get(word)

    products: dict[tuple[int, int], int] = {}
    proper = [w for w in names if w not in ("1", "D")]
    for u in proper:
        for v in proper:
            if u[-1] == v[0]:
                continue
            if len(u) + len(v) > m:
                continue
            w = simple_of(u + v)
            if w is not None:
                products[(index[u], index[v])] = w
    return GarsideTable(f"dihedral:{m}", names, unit, delta, products)


# -- free abelian groups ---------------------------------------------------


def build_free_abelian(n: int) -> GarsideTable:
    """Free abelian group Z^n with D the product of all generators.

    Simples are square-free monomials, indexed by subsets; products are
    defined on disjoint supports, the meet is intersection, sigma the
    complement and phi the identity.
    """
    if not (1 <= n <= 10):
        raise StructureError("abelian rank must be in 1..10")
    letters = (
        ABELIAN_ATOM_LETTERS[:n]
        if n <= len(ABELIAN_ATOM_LETTERS)
        else [f"x{i + 1}" for i in range(n)]
    )
    full = (1 << n) - 1

    def name_of(mask: int) -> str:
        if mask == 0:
            return "1"
        if mask == full:
            return "D"
        return "".join(letters[i] for i in range(n) if mask >> i & 1)

    names = [name_of(mask) for mask in range(1 << n)]
    products = {
        (u, v): u | v
        for u in range(1 << n)
        for v in range(1 << n)
        if u and v and not (u & v)
    }
    return GarsideTable(f"abelian:{n}", names, 0, full, products)


# -- text format -----------------------------------------------------------


@dataclasses.dataclass
class StructureFile:
    """Parsed form of the plain-text structure format."""

    name: str
    simples: list[str]
    delta: str
    products: list[tuple[str, str, str]]


def parse_structure_text(text: str) -> StructureFile:
    """Parse the line-oriented structure format.

    Header lines `name:`, `simples:` (space separated) and `delta:` are
    followed by one `u v = w` product per line; `#` starts a comment. The
    name "1" is reserved for the unit and must be listed.
    """
    name = ""
    simples: list[str] | None = None
    delta: str | None = None
    products: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("name:"):
            name = line[len("name:"):].strip()
        elif line.startswith("simples:"):
            simples = line[len("simples:"):].split()
        elif line.startswith("delta:"):
            delta = line[len("delta:"):].strip()
        else:
            head, sep, w = line.partition("=")
            uv = head.split()
            if not sep or len(uv) != 2 or len(w.split()) != 1:
                raise StructureError(f"line {lineno}: expected `u v = w`, got {raw!r}")
            products.append((uv[0], uv[1], w.strip()))
    if simples is None:
        raise StructureError("missing simples: line")
    if delta is None:
        raise StructureError("missing delta: line")
    if len(set(simples)) != len(simples):
        raise StructureError("simple names are not unique")
    if "1" not in simples:
        raise StructureError('the unit must be listed under the reserved name "1"')
    if delta not in simples:
        raise StructureError(f"delta {delta!r} is not a listed simple")
    return StructureFile(name or "user", simples, delta, products)


def load_table(text: str) -> GarsideTable:
    """Build and validate a GarsideTable from structure-format text."""
    sf = parse_structure_text(text)
    index = {s: i for i, s in enumerate(sf.simples)}
    products: dict[tuple[int, int], int] = {}
    for u, v, w in sf.products:
        for s in (u, v, w):
            if s not in index:
                raise StructureError(f"unknown simple {s!r} in product line")
        if products.setdefault((index[u], index[v]), index[w]) != index[w]:
            raise StructureError(f"conflicting products for {u} * {v}")
    table = GarsideTable(sf.name, sf.simples, index["1"], index[sf.delta], products)
    violations = validate_table(table)
    if violations:
        raise StructureError(
            "table fails validation: " + "; ".join(violations[:5])
        )
    return table


def save_table(table: GarsideTable) -> str:
    """Emit the structure in the text format (unit products implied)."""
    lines = [f"name: {table.name}"]
    lines.append("simples: " + " ".join(table.simples))
    lines.append(f"delta: {table.simples[table.delta]}")
    n = table.n_simples
    for u in range(n):
        if u == table.unit:
            continue
        for v in range(n):
            if v == table.unit:
                continue
            w = table.product(u, v)
            if w is not None:
                lines.append(
                    f"{table.simples[u]} {table.simples[v]} = {table.simples[w]}"
                )
    return "\n".join(lines) + "\n"


# -- validation ------------------------------------------------------------


def validate_table(table: GarsideTable) -> list[str]:
    """Check what the derived tables cannot show; [] means the table is valid.

    The constructor derives the meets, sigma and phi from the product and
    rejects what breaks them, so the unit laws, cancellation, balance, the
    meets, the complement and phi = (sigma o sigma)^-1 hold on every table.
    Three axioms are left to check: partial associativity (a one-sided
    defined triple is also an error), phi multiplicative, and an additive
    grade (which implies Noetherianity for a finite table).

    Joins need no check (theorem): once the product is associative and the
    grade additive, left divisibility is a partial order on the finite set
    of simples with top D (balance) and a meet for every pair, so the
    common upper bounds of u and v form a non-empty set whose meet is an
    upper bound of u and v below all of them: their join.

    The work is proportional to the defined products, not to n^3. A triple
    (u, v, w) can fail associativity only if (uv)w or u(vw) is defined, so
    for each u it walks the triples with (uv)w defined (v in the row of u,
    w in the row of uv) and the triples with u(vw) defined but (uv)w not
    (x in the row of u, v * w = x one of the factorisations of x). The two
    sets are disjoint and cover every triple a check of all n^3 would
    report, in particular the one where uv is defined and (uv)w is not
    while u(vw) is. A pair can fail phi only if uv or phi(u)phi(v) is
    defined, and the grade only if uv is. Violations are reported in
    ascending (u, v, w) and (u, v) order, so the list is the one the n^3
    loop of `oracle.dense_validate_table` gives, cut at `MAX_VIOLATIONS`.
    """
    out: list[str] = []
    n = table.n_simples
    names = table.simples
    product = table._product
    grade = table.grade
    phi = table._phi
    phi_inv = table._phi_inv

    # rows[u]: (v, uv) for every defined uv, by ascending v;
    # factors[x]: (v, w) for every v * w = x.
    rows: list[list[tuple[int, int]]] = []
    factors: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u in range(n):
        row = [(v, w) for v, w in enumerate(product[u * n : (u + 1) * n]) if w >= 0]
        rows.append(row)
        for v, w in row:
            factors[w].append((u, v))

    def report(msg: str) -> bool:
        out.append(msg)
        return len(out) >= MAX_VIOLATIONS

    for u in range(n):
        bad = []
        for v, uv in rows[u]:
            for w, uvw in rows[uv]:
                vw = product[v * n + w]
                if vw < 0 or product[u * n + vw] != uvw:
                    bad.append((v, w))
        for x, _ in rows[u]:
            for v, w in factors[x]:
                uv = product[u * n + v]
                if uv < 0 or product[uv * n + w] < 0:
                    bad.append((v, w))
        for v, w in sorted(bad):
            if report(
                "associativity: "
                f"({names[u]} {names[v]}) {names[w]} != "
                f"{names[u]} ({names[v]} {names[w]})"
            ):
                return out

    for u in range(n):
        pu = phi[u]
        pairs = {v for v, _ in rows[u]} | {phi_inv[b] for b, _ in rows[pu]}
        for v in sorted(pairs):
            w = product[u * n + v]
            if (phi[w] if w >= 0 else -1) != product[pu * n + phi[v]]:
                if report(f"phi: not multiplicative at {names[u]}, {names[v]}"):
                    return out

    for u in range(n):
        for v, w in rows[u]:
            if grade[u] + grade[v] != grade[w]:
                if report(f"grading: not additive at {names[u]} * {names[v]}"):
                    return out

    return out


# -- isomorphism -----------------------------------------------------------


def tables_isomorphic(t1: GarsideTable, t2: GarsideTable) -> bool:
    """Whether a bijection of the simples fixing 1 and D preserves the product.

    Nothing else needs comparing: a Garside structure is fixed by the
    product of its simples (Dehornoy et al., Foundations of Garside Theory,
    ch. VI), so such a bijection also carries meets, sigma and phi over.
    It preserves the longest-chain grade too, which `GarsideTable` reads
    off the product, whenever that chain length is finite (on every table
    the validator accepts), so each simple is matched only with simples of
    its grade. The search maps simples in grade order and prunes on whether
    products are defined; a complete map counts only when all n^2 products
    agree, so a True answer is a checked isomorphism.
    """
    n = t1.n_simples
    if n != t2.n_simples:
        return False
    if sorted(t1.grade) != sorted(t2.grade):
        return False

    order = sorted(range(n), key=lambda u: (t1.grade[u], t1.simples[u]))
    candidates = [
        [v for v in range(n) if t2.grade[v] == t1.grade[u]] for u in range(n)
    ]

    mapping = [-1] * n
    used = [False] * n

    def consistent(u: int, v: int) -> bool:
        if (u == t1.unit) != (v == t2.unit) or (u == t1.delta) != (v == t2.delta):
            return False
        for x in range(n):
            y = mapping[x]
            if y >= 0 and (
                (t1.product(u, x) is None) != (t2.product(v, y) is None)
                or (t1.product(x, u) is None) != (t2.product(y, v) is None)
            ):
                return False
        return True

    def is_isomorphism() -> bool:
        for a in range(n):
            for b in range(n):
                w = t1.product(a, b)
                if t2.product(mapping[a], mapping[b]) != (None if w is None else mapping[w]):
                    return False
        return True

    def extend(pos: int) -> bool:
        if pos == n:
            return is_isomorphism()
        u = order[pos]
        for v in candidates[u]:
            if used[v] or not consistent(u, v):
                continue
            mapping[u] = v
            used[v] = True
            if extend(pos + 1):
                return True
            mapping[u] = -1
            used[v] = False
        return False

    return extend(0)


# -- structure descriptor strings --------------------------------------------


def table_from_descriptor(descriptor: str) -> GarsideTable:
    """Build a table from a descriptor: braid:n, dihedral:m, abelian:n, file:path."""
    kind, sep, arg = descriptor.partition(":")
    if sep and kind in ("braid", "dihedral", "abelian"):
        try:
            value = int(arg)
        except ValueError:
            raise StructureError(f"bad structure parameter in {descriptor!r}") from None
        if kind == "braid":
            return build_braid(value)
        if kind == "dihedral":
            return build_dihedral(value)
        return build_free_abelian(value)
    path = arg if sep and kind == "file" else descriptor
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StructureError(f"cannot read structure file {path!r}: {exc}") from None
    return load_table(text)
