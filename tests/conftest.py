import functools
import itertools

import pytest

from garside import kernel as K
from garside import oracle as O
from garside.budget import Budget
from garside.errors import StructureError
from garside.parabolic import make_parabolic
from garside.structures import (
    build_braid,
    build_dihedral,
    build_free_abelian,
    load_table,
    save_table,
    table_from_descriptor,
)


class B3:
    """Braid group on 3 strands with the names used throughout the tests."""

    def __init__(self):
        self.table = build_braid(3)
        ids = {name: i for i, name in enumerate(self.table.simples)}
        self.one = ids["1"]
        self.a = ids["a"]
        self.b = ids["b"]
        self.ab = ids["ab"]
        self.ba = ids["ba"]
        self.D = ids["D"]

    def el(self, expr: str) -> K.Element:
        from garside.cli import parse_element

        return parse_element(self.table, expr)


@pytest.fixture(scope="session")
def b3() -> B3:
    return B3()


@pytest.fixture(scope="session")
def b3_parabolic(b3):
    return make_parabolic(b3.table, b3.a)


@pytest.fixture(scope="session")
def i24():
    return build_dihedral(4)


@pytest.fixture(scope="session")
def i24_parabolic(i24):
    return make_parabolic(i24, i24.simples.index("s"))


@pytest.fixture(scope="session")
def z2():
    return build_free_abelian(2)


@pytest.fixture(scope="session")
def b3_ball4(b3):
    return O.bfs_lengths(b3.table, 4, Budget(10**7))


@pytest.fixture(scope="session")
def i24_ball3(i24):
    return O.bfs_lengths(i24, 3, Budget(10**7))


def signed_letters(table):
    return [(s, e) for s in range(table.n_simples) if s != table.unit for e in (1, -1)]


def signed_words(table, max_len):
    letters = signed_letters(table)
    for length in range(max_len + 1):
        yield from itertools.product(letters, repeat=length)


def positives_up_to(ball, max_len):
    """Positive elements of word length at most max_len, from a ball index."""
    return [
        x
        for x, d in sorted(ball.dist.items(), key=lambda kv: kv[0].sort_key())
        if d <= max_len and x.delta_power >= 0
    ]


def cyclic_text(n):
    """Structure file of <a1..an | a1 a2 = a2 a3 = ... = an a1 = D>, phi of order n for odd n."""
    names = [f"a{i}" for i in range(1, n + 1)]
    lines = [f"name: cyclic:{n}", "simples: 1 " + " ".join(names) + " D", "delta: D"]
    lines += [f"{names[i]} {names[(i + 1) % n]} = D" for i in range(n)]
    return "\n".join(lines) + "\n"


# Structures the normal-form theorems are checked on: phi has order at most
# 2 on the built-ins and order n on cyclic:n.
THEOREM_STRUCTURES = (
    "braid:3", "braid:4", "braid:5",
    "dihedral:3", "dihedral:4", "dihedral:5", "dihedral:6", "dihedral:7",
    "abelian:2", "abelian:3", "abelian:4",
    "cyclic:3", "cyclic:5", "cyclic:7",
)


@functools.lru_cache(maxsize=None)
def any_table(descriptor):
    """A built-in structure, or cyclic:n loaded from its structure file."""
    if descriptor.startswith("cyclic:"):
        return load_table(cyclic_text(int(descriptor.partition(":")[2])))
    return table_from_descriptor(descriptor)


def all_parabolics(table):
    """Every parabolic of the table, the improper one (delta_sub = D) included."""
    out = []
    for s in range(table.n_simples):
        if s == table.unit:
            continue
        try:
            out.append(make_parabolic(table, s))
        except StructureError:
            pass
    return out


# Saved tables that the mutation fuzzes start from.
MUTATION_SOURCES = (
    "braid:3", "braid:4", "dihedral:3", "dihedral:4", "dihedral:5",
    "abelian:2", "abelian:3", "cyclic:3", "cyclic:5",
)


def mutation_source(descriptor):
    if descriptor.startswith("cyclic:"):
        return cyclic_text(int(descriptor.partition(":")[2]))
    return save_table(table_from_descriptor(descriptor))


def mutate_products(text, rng):
    """One to three product-line mutations: drop, retarget, add or swap targets."""
    lines = text.splitlines()
    head = [line for line in lines if ":" in line]
    products = [line for line in lines if "=" in line]
    names = next(line for line in head if line.startswith("simples:")).split()[1:]
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("drop", "retarget", "add", "swap"))
        if op == "drop" and products:
            products.pop(rng.randrange(len(products)))
        elif op == "retarget" and products:
            i = rng.randrange(len(products))
            products[i] = products[i].split("=")[0] + "= " + rng.choice(names)
        elif op == "add":
            products.append(f"{rng.choice(names)} {rng.choice(names)} = {rng.choice(names)}")
        elif op == "swap" and len(products) > 1:
            i, j = rng.sample(range(len(products)), 2)
            (ui, wi), (uj, wj) = products[i].split("="), products[j].split("=")
            products[i], products[j] = ui + "=" + wj, uj + "=" + wi
    return "\n".join(head + products) + "\n"
