"""Builders, loader and validator for Garside tables.

Three families are built in, each a spherical Artin group whose simples are
the elements of a finite Coxeter group W: braid groups on n strands (A_(n-1),
the n! permutation braids), dihedral Artin groups I2(m) (2m simples) and free
abelian groups Z^n (A1^n, the 2^n square-free monomials). User tables come
from a line-oriented text format documented in the README.

Every provider produces the same raw data, a list of simple names plus the
partial product, and hands it to the one table constructor,
`kernel.GarsideTable`, which derives grades, left meets, complements and
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
# `validate_table` stops after this many violations.
MAX_VIOLATIONS = 20


# -- built-in families -------------------------------------------------------


def _coxeter_table(
    name: str, letters: Sequence[str], up: Sequence[Sequence[int]], unit: int, delta: int
) -> GarsideTable:
    """The table of a spherical Artin group, given by its finite Coxeter group W.

    ``up[x][i]`` is the id of x·s_i when that step adds one to the length,
    else -1, and ``letters[i]`` names s_i. The simples are the elements of
    W, and u·v is simple iff l(uv) = l(u) + l(v) (Brieskorn–Saito 1972;
    Deligne 1972). A BFS over `up` from the unit, letters in index order,
    first reaches each simple y along its shortlex-least reduced word, its
    name; the step x·s_i = y that reached it makes y a child of x.

    For each u != 1, v walks this tree from its root 1 carrying w = u·v,
    and steps to a child v·s_i when w·s_i goes up. This finds exactly the
    defined products (theorem): for v = v's_i reduced, l(uv) <= l(uv') + 1
    <= l(u) + l(v') + 1 = l(u) + l(v), so lengths add for (u, v) iff they
    add for (u, v') and (uv')s_i goes up; induct on l(v), with v' the
    parent of v. Each u tries each child of a reached v once, so the work
    is O((P + n)·r) for P defined products, n simples and r letters, not
    O(n^2).
    """
    words = {unit: ""}
    children: list[list[tuple[int, int]]] = [[] for _ in up]
    queue = [unit]
    for x in queue:
        for i, y in enumerate(up[x]):
            if y >= 0 and y not in words:
                words[y] = words[x] + letters[i]
                children[x].append((i, y))
                queue.append(y)
    words.update({unit: "1", delta: "D"})

    products: dict[tuple[int, int], int] = {}
    for u in queue[1:]:  # every simple but the unit
        walk = [(unit, u)]
        for v, w in walk:
            for i, v2 in children[v]:
                w2 = up[w][i]
                if w2 >= 0:
                    products[(u, v2)] = w2
                    walk.append((v2, w2))
    return GarsideTable(name, [words[x] for x in range(len(up))], unit, delta, products)


def build_braid(n: int) -> GarsideTable:
    """Classical Garside structure on the braid group with n strands.

    Simples are the n! permutation braids, D the half twist. Permutations
    multiply as ``(u·v)[k] = v[u[k]]``, so p·s_i swaps the values i and i+1
    of p, and goes up iff i comes before i+1. The n <= 6 guard keeps the
    dense tables at desk scale: braid:6 (720 simples) builds in about
    0.13 s and validates in 0.17 s, braid:7 would have 5040.
    """
    if not (2 <= n <= 6):
        raise StructureError("braid strand count must be in 2..6")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    up = [[-1] * (n - 1) for _ in perms]
    for p, row in zip(perms, up):
        for i in range(n - 1):
            if p.index(i) < p.index(i + 1):
                row[i] = index[tuple(2 * i + 1 - x if x in (i, i + 1) else x for x in p)]
    return _coxeter_table(f"braid:{n}", BRAID_ATOM_LETTERS, up, 0, len(perms) - 1)


def build_dihedral(m: int) -> GarsideTable:
    """Garside structure on the dihedral Artin group I2(m).

    Simples are the unit, the 2(m-1) proper alternating words in s and t,
    and D, the alternating word of length m (both spellings coincide). The
    word of length k that starts with s has id 2k-1, the one that starts
    with t has 2k, and word x ends in s iff x // 2 is even.
    """
    if not (3 <= m <= 50):
        raise StructureError("dihedral parameter must be in 3..50")
    top = 2 * m - 1
    up = [[1, 2]] + [
        [-1 if i == x // 2 % 2 else min(x + 2, top) for i in (0, 1)]
        for x in range(1, top)
    ] + [[-1, -1]]
    return _coxeter_table(f"dihedral:{m}", "st", up, 0, top)


def build_free_abelian(n: int) -> GarsideTable:
    """Free abelian group Z^n (type A1^n) with D the product of all generators.

    Simples are the square-free monomials, with id the bit mask of their
    support; x·s_i sets bit i if it is clear. The meet is intersection,
    sigma the complement and phi the identity.
    """
    if not (1 <= n <= 10):
        raise StructureError("abelian rank must be in 1..10")
    letters = "xyzw"[:n] if n <= 4 else [f"x{i + 1}" for i in range(n)]
    up = [[-1 if x >> i & 1 else x | 1 << i for i in range(n)] for x in range(1 << n)]
    return _coxeter_table(f"abelian:{n}", letters, up, 0, (1 << n) - 1)


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
    names = table.simples
    lines = [f"name: {table.name}", "simples: " + " ".join(names), f"delta: {names[table.delta]}"]
    n = table.n_simples
    for k, w in enumerate(table._product):  # slot k = u*n + v holds u*v
        if w >= 0:
            u, v = divmod(k, n)
            if table.unit not in (u, v):
                lines.append(f"{names[u]} {names[v]} = {names[w]}")
    return "\n".join(lines) + "\n"


# -- validation ------------------------------------------------------------


def validate_table(table: GarsideTable) -> list[str]:
    """Check what the derived tables cannot show; [] means the table is valid.

    The constructor derives the left meets, sigma and phi from the product
    and rejects what breaks them, so the unit laws, left cancellation,
    balance, the left meets, the complement and phi = (sigma o sigma)^-1
    hold on every table. Three axioms are left to check: partial
    associativity (a one-sided defined triple is also an error), phi
    multiplicative, and an additive grade (which implies Noetherianity for
    a finite table). Right cancellation and the right meets then follow by
    the theorem in `kernel.GarsideTable`.

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
    product of its simples, and generated by its atoms (Dehornoy et al.,
    Foundations of Garside Theory, ch. VI). Theorem: such a bijection
    exists iff, for some bijection of the atoms, the map it forces below
    carries all n^2 products over; so at most r! maps are tried for r
    atoms, and D and bijectivity need no check. The proof uses only what
    the constructor checks (left cancellation, u\\D for every u, a
    settled grade: grade[u*v] >= grade[u] + grade[v] for u, v != 1), so it
    holds on unvalidated tables too.
    (1) An isomorphism maps atoms to atoms. The atoms, the simples with no
    left divisor but 1 and themselves, are by left cancellation those that
    are not a product of two non-units.
    (2) Any other non-unit w is u*v with u, v != 1 (one such split is kept
    per w), so grade[w] > grade[u], grade[v], and m(w) = m(u)*m(v) is
    forced in grade order; an undefined product ends the attempt.
    (3) If all products agree, the image of m holds 1 and t2's atoms and
    is closed under t2's defined products, so by (2) in t2 it is onto.
    (4) D is the only simple that every simple left-divides: for another
    such w, D*v = w and w*v' = D with v, v' != 1 give grade[w] > grade[D] >
    grade[w]. A bijection that preserves the product preserves
    divisibility, so m(D) = D.
    """
    n = t1.n_simples
    if n != t2.n_simples or len(t1.atoms) != len(t2.atoms):
        return False
    p1, p2 = t1._product, t2._product
    split: dict[int, tuple[int, int]] = {}
    for k, w in enumerate(p1):  # slot k = u*n + v holds u*v
        if w >= 0:
            u, v = divmod(k, n)
            if t1.unit not in (u, v):
                split.setdefault(w, (u, v))
    steps = sorted(split.items(), key=lambda item: t1.grade[item[0]])
    for images in itertools.permutations(t2.atoms):
        m = [-1] * n
        m[t1.unit] = t2.unit
        for a, b in zip(t1.atoms, images):
            m[a] = b
        for w, (u, v) in steps:
            m[w] = p2[m[u] * n + m[v]]
            if m[w] < 0:
                break
        else:
            image = [p2[m[a] * n + m[b]] for a in range(n) for b in range(n)]
            if image == [-1 if w < 0 else m[w] for w in p1]:
                return True
    return False


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
