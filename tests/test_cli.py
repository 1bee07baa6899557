"""End-to-end command line tests via the real entry point."""

import hashlib
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from garside.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_OK,
    MAX_EXPRESSION_LETTERS,
    MAX_GROWTH_TERMS,
    MAX_WITNESS_K,
    main,
    parse_element,
)
from garside.errors import StructureError

from conftest import MUTATION_SOURCES, mutate_products, mutation_source


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_element_grammar(b3):
    t = b3.table
    assert parse_element(t, "1").is_identity
    assert parse_element(t, "D^-1").delta_power == -1
    assert parse_element(t, "b.a^-1") == parse_element(t, "b.a^-1")
    assert parse_element(t, "a^3") == parse_element(t, "a.a.a")
    assert parse_element(t, "ab") .body == (b3.ab,)
    with pytest.raises(StructureError):
        parse_element(t, "q")
    with pytest.raises(StructureError):
        parse_element(t, "a^x")
    with pytest.raises(StructureError):
        parse_element(t, "")


def test_growth_output(capsys):
    code, out, _ = run(
        capsys, "--structure", "braid:3", "--parabolic", "a", "growth", "--max-n", "1"
    )
    assert code == EXIT_OK
    assert out == "0,1\n1,4\n"


def test_growth_csv_file(capsys, tmp_path):
    target = tmp_path / "e.csv"
    code, out, _ = run(
        capsys,
        "--structure", "braid:3", "--parabolic", "a",
        "growth", "--max-n", "3", "--csv", str(target),
    )
    assert code == EXIT_OK
    assert target.read_text() == "0,1\n1,4\n2,10\n3,24\n"


def test_growth_output_is_byte_stable(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(
            capsys,
            "--structure", "braid:3", "--parabolic", "a", "growth", "--max-n", "6",
        )
        outs.add(out)
    assert len(outs) == 1


def test_nf_output(capsys):
    code, out, _ = run(capsys, "--structure", "braid:3", "nf", "D^-1")
    assert code == EXIT_OK
    assert "element: D^-1" in out
    assert "length: 1" in out
    code, out, _ = run(capsys, "--structure", "braid:3", "nf", "b.a^-1")
    assert "element: D^-1.a.ab" in out
    assert "left-orthogonal: b=ba a=ab" in out


def test_coset_commands(capsys):
    code, out, _ = run(
        capsys, "--structure", "braid:3", "--parabolic", "a", "coset-length", "b.a.b"
    )
    assert code == EXIT_OK
    assert out.strip() == "1"
    code, out, _ = run(
        capsys, "--structure", "braid:3", "--parabolic", "a", "coset-rep", "D"
    )
    assert out.strip() == "ba"


def test_series_output(capsys):
    code, out, _ = run(capsys, "--structure", "abelian:2", "--parabolic", "x", "series")
    assert code == EXIT_OK
    assert "numerator = 1 + 1*t" in out
    assert "denominator = 1 - 1*t" in out


def test_series_byte_stable(capsys):
    outs = {
        run(capsys, "--structure", "braid:3", "--parabolic", "a", "series")[1]
        for _ in range(2)
    }
    assert len(outs) == 1


def test_project_command(capsys):
    code, out, _ = run(
        capsys, "--structure", "braid:3", "--parabolic", "a", "project", "ba"
    )
    assert code == EXIT_OK
    assert "distance: 1" in out
    assert "members: D^-1.ab 1" in out
    assert "diameter: 1" in out


# Full `project` stdout, frozen from the release that computed the diameter
# with a second projection search.
PROJECT_PINNED = [
    ("braid:3", "a", "ba", "distance: 1\nmembers: D^-1.ab 1\ndiameter: 1\n"),
    ("braid:3", "a", "b.a^-1", "distance: 2\nmembers: D^-1.ab 1\ndiameter: 1\n"),
    ("braid:3", "a", "a.b.b.a^-1.b^-1", "distance: 3\nmembers: 1 a\ndiameter: 1\n"),
    ("braid:3", "a", "D^-1.b", "distance: 1\nmembers: 1 a\ndiameter: 1\n"),
    (
        "braid:4", "aba", "c.b.c.b",
        "distance: 2\nmembers: D^-2.bacba.abc D^-2.bacba.abac D^-2.bacba.abacb"
        " D^-1.abc D^-1.abcb D^-1.abac D^-1.abac.a D^-1.abac.ab D^-1.abcba"
        " D^-1.abacb 1 b\ndiameter: 3\n",
    ),
    (
        "braid:4", "aba", "b.c",
        "distance: 1\nmembers: D^-1.abac D^-1.abac.a D^-1.abac.ab D^-1.abacb 1 b"
        "\ndiameter: 2\n",
    ),
    (
        "braid:4", "aba", "c.a^-1.b",
        "distance: 1\nmembers: D^-2.bacba.abc D^-2.bacba.abac D^-2.bacba.abacb"
        " D^-1.abc D^-1.abac D^-1.abacb\ndiameter: 2\n",
    ),
    (
        "braid:4", "aba", "c^-1.b.a.c",
        "distance: 2\nmembers: D^-1.abacb D^-1.abacb.b D^-1.abacb.ba 1 b a ba ab"
        " aba\ndiameter: 3\n",
    ),
    (
        "braid:4", "aba", "b.c.b^-1.c",
        "distance: 3\nmembers: D^-2.bcba.abcba D^-2.bcba.abcba.a D^-2.bcba.abcba.ab"
        " D^-1.abac D^-1.abac.a D^-1.abac.ab D^-1.abacb D^-1.abacb.b D^-1.abacb.ba"
        " 1 b a ba ab aba\ndiameter: 4\n",
    ),
]


@pytest.mark.parametrize("structure,parabolic,expr,want", PROJECT_PINNED)
def test_project_output_pinned(capsys, structure, parabolic, expr, want):
    code, out, _ = run(
        capsys, "--structure", structure, "--parabolic", parabolic, "project", expr
    )
    assert code == EXIT_OK
    assert out == want


def test_project_rank_three_parabolic(capsys, monkeypatch):
    # braid:5/abacba: the H-ball scan of radius 6 ran out of the default
    # budget here; the interval walk takes well under a second.
    monkeypatch.delenv("GARSIDE_BUDGET", raising=False)
    code, out, err = run(
        capsys, "--structure", "braid:5", "--parabolic", "abacba", "project", "d.d.d"
    )
    assert code == EXIT_OK and err == ""
    distance, members, diameter = out.splitlines()
    assert distance == "distance: 3"
    assert len(members.split()) == 1 + 192
    assert diameter == "diameter: 6"
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "f3ddc0f465e6d2ba588852110ea5f6c71d0bb95e7ef77581d00fc90602d9559c"
    )


def test_project_diameter_is_budgeted(capsys, monkeypatch):
    # braid:5/abacba, d^5: the projection (936 members) charges 10,028 nodes
    # and its diameter one per pair, 437,580 more. A budget of 25,000 stops
    # the diameter after 16 rows, before anything is printed: about 0.2 s
    # in process, where the full diameter takes about 3-5 s.
    monkeypatch.setenv("GARSIDE_BUDGET", "25000")
    start = time.perf_counter()
    code, out, err = run(
        capsys, "--structure", "braid:5", "--parabolic", "abacba", "project", "d^5"
    )
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("error: enumeration budget exceeded (25001 > 25000 nodes)")
    assert time.perf_counter() - start < 1.0


def test_automaton_files(capsys, tmp_path):
    dot = tmp_path / "a.dot"
    table = tmp_path / "a.txt"
    code, out, _ = run(
        capsys,
        "--structure", "braid:3", "--parabolic", "a",
        "automaton", "--dot", str(dot), "--table", str(table),
    )
    assert code == EXIT_OK
    assert out == f"automaton: 12 states, 10 letters\nwrote {dot}\nwrote {table}\n"
    assert dot.read_text().startswith("digraph")
    assert "x0 b -> b" in table.read_text()


def test_validate_commands(capsys):
    code, out, _ = run(capsys, "--structure", "dihedral:4", "--parabolic", "s", "validate")
    assert code == EXIT_OK
    assert "table ok" in out and "parabolic ok" in out
    code, _, err = run(capsys, "--structure", "braid:3", "--parabolic", "ab", "validate")
    assert code == EXIT_ERROR
    assert "balanced" in err


def test_unknown_structure_exit_code(capsys):
    code, _, err = run(capsys, "--structure", "braid:99", "validate")
    assert code == EXIT_ERROR


def test_unknown_subcommand_exit_code(capsys):
    # There is no `verify`: the oracle agreement checks live in the test suite.
    code, out, err = run(capsys, "--structure", "braid:3", "verify")
    assert code == EXIT_ERROR
    assert out == ""
    assert "No such command 'verify'" in err
    assert "Traceback" not in err


def test_missing_parabolic_exit_code(capsys):
    code, _, err = run(capsys, "--structure", "braid:3", "coset-length", "b")
    assert code == EXIT_ERROR
    assert "--parabolic" in err


def test_audit_command(capsys, tmp_path):
    csv = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys,
        "--structure", "braid:3", "--parabolic", "a",
        "audit-fellow", "--max-len", "1", "--csv", str(csv),
    )
    assert code == EXIT_OK
    assert "K_obs" in out and "PASS" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "alpha,u,beta,best_beta_prime,distance"
    assert len(lines) > 1


def test_audit_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("GARSIDE_BUDGET", "40")
    code, out, _ = run(
        capsys,
        "--structure", "braid:3", "--parabolic", "a",
        "audit-fellow", "--max-len", "2",
    )
    assert code == EXIT_BUDGET


def test_audit_negative_radius_exit_code(capsys):
    code, out, err = run(
        capsys,
        "--structure", "braid:3", "--parabolic", "a",
        "audit-fellow", "--max-len", "-3",
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert "radius" in err
    assert "Traceback" not in err


# `audit-fellow --csv` output, frozen from the release that kept the letters
# and generators in two lists and compared sorted key pairs: exit code, the
# stdout lines before `wrote`, and the SHA-256 of the CSV. A budget (None
# for the default) that runs out mid-audit pins the partial rows too. The
# one at 300 moved when `projection` began to charge one node per positivity
# test instead of one per H-ball edge, and again when it began to charge
# |generators| per member its walk extends; the second change also
# completed the audit at 2000, so the mid-budget pin is at 1000.
AUDIT_PINNED = [
    ("braid:3", "a", 1, None, EXIT_OK,
     "fellow-projection audit: K_obs = 1 (bound 5), 316 rows, PASS\n"
     "witness: alpha=D^-1 u=b beta=D^-1.ab partner=1 distance=1\n",
     "5bb08834a7ede39dc43c2c5dad565fb4738323e0416922383fcf675905c85cfc"),
    ("braid:3", "a", 2, None, EXIT_OK,
     "fellow-projection audit: K_obs = 1 (bound 5), 1386 rows, PASS\n"
     "witness: alpha=D^-3.ba u=b beta=a partner=1 distance=1\n",
     "aa49a2661d062553be5f48002a178eaea47311b30c1d2a684493597fd6f7dbf8"),
    ("dihedral:4", "s", 2, None, EXIT_OK,
     "fellow-projection audit: K_obs = 1 (bound 5), 3666 rows, PASS\n"
     "witness: alpha=D^-2 u=s beta=D^-2.tst.tst partner=D^-1.tst distance=1\n",
     "739882f210c3cce86aa79d8fe35299536d2cbdd7a80d2a9e29ad994bb0b30e3e"),
    ("abelian:2", "x", 2, None, EXIT_OK,
     "fellow-projection audit: K_obs = 1 (bound 5), 324 rows, PASS\n"
     "witness: alpha=D^-2 u=x beta=D^-2.y.y partner=D^-1.y distance=1\n",
     "a23de3f1771c50b46005014eaa5708ca65abaf30e18a14992258e94755e30176"),
    ("braid:3", "a", 2, 40, EXIT_BUDGET,
     "fellow-projection audit: K_obs = 0 (bound 5), 0 rows, PARTIAL\n",
     "b79f32916eb4442fbcdfe93802d2643ad13f71ef654087f122aaee4922e46b79"),
    ("braid:3", "a", 2, 300, EXIT_BUDGET,
     "fellow-projection audit: K_obs = 1 (bound 5), 145 rows, PARTIAL\n"
     "witness: alpha=D^-3.ba u=b beta=a partner=1 distance=1\n",
     "dff62cff49b7a1d1ccef2a505eaf96ad3925f4a9b6ff7a9f664ee5dbc74ade77"),
    ("braid:3", "a", 2, 1000, EXIT_BUDGET,
     "fellow-projection audit: K_obs = 1 (bound 5), 733 rows, PARTIAL\n"
     "witness: alpha=D^-3.ba u=b beta=a partner=1 distance=1\n",
     "b277d27de14071142af214da705695e13971ac9346e43b40ce15e27a9904c214"),
]


def audit_pinned_id(case):
    """The case's options, exit code and summary line, with no newline."""
    structure, parabolic, radius, budget, code, head, _ = case
    return f"{structure}-{parabolic}-{radius}-{budget}-{code}-{head.splitlines()[0]}"


@pytest.mark.parametrize(
    "structure,parabolic,radius,budget,code,head,digest",
    AUDIT_PINNED,
    ids=[audit_pinned_id(case) for case in AUDIT_PINNED],
)
def test_audit_csv_pinned(
    capsys, monkeypatch, tmp_path, structure, parabolic, radius, budget, code, head, digest
):
    if budget is None:
        monkeypatch.delenv("GARSIDE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("GARSIDE_BUDGET", str(budget))
    csv = tmp_path / "rows.csv"
    got, out, _ = run(
        capsys,
        "--structure", structure, "--parabolic", parabolic,
        "audit-fellow", "--max-len", str(radius), "--csv", str(csv),
    )
    assert got == code
    assert out == head + f"wrote {csv}\n"
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5", ""])
def test_bad_budget_exit_code(capsys, monkeypatch, value):
    monkeypatch.setenv("GARSIDE_BUDGET", value)
    code, _, err = run(
        capsys, "--structure", "braid:3", "--parabolic", "a", "project", "b.a",
    )
    assert code == EXIT_ERROR
    assert "GARSIDE_BUDGET" in err


@pytest.mark.parametrize("expr", ["D^1000000000", "a^-600000.b^600000"])
def test_oversized_expression_exit_code(capsys, b3, expr):
    with pytest.raises(StructureError):
        parse_element(b3.table, expr)
    code, _, err = run(capsys, "--structure", "braid:3", "nf", expr)
    assert code == EXIT_ERROR
    assert str(MAX_EXPRESSION_LETTERS) in err


def test_growth_max_n_limit(capsys):
    # Counts on dihedral:50/s grow like 49^n: at n = 3000 a row has more
    # digits than Python will convert to text, so the bound must come first.
    args = ("--structure", "dihedral:50", "--parabolic", "s", "growth", "--max-n")
    code, out, _ = run(capsys, *args, str(MAX_GROWTH_TERMS))
    assert code == EXIT_OK
    rows = out.splitlines()
    assert len(rows) == MAX_GROWTH_TERMS + 1
    assert rows[-1].startswith(f"{MAX_GROWTH_TERMS},")
    for n in (MAX_GROWTH_TERMS + 1, 3000):
        code, out, err = run(capsys, *args, str(n))
        assert code == EXIT_ERROR
        assert out == ""
        assert str(MAX_GROWTH_TERMS) in err
        assert "Traceback" not in err
    for n in (-1, -3):
        code, out, err = run(capsys, *args, str(n))
        assert code == EXIT_ERROR
        assert out == ""
        assert "--max-n" in err


def test_unbounded_witness_command(capsys):
    code, out, _ = run(
        capsys,
        "--structure", "braid:3", "--parabolic", "a",
        "unbounded-witness", "--k", "2",
    )
    assert code == EXIT_OK
    assert "verified: yes" in out
    code, _, err = run(
        capsys,
        "--structure", "braid:3", "--parabolic", "D",
        "unbounded-witness", "--k", "2",
    )
    assert code == EXIT_ERROR


def test_unbounded_witness_k_limit(capsys):
    # braid:4/aba has a rank-two parabolic, where a ball search for the
    # projection would run for minutes at the largest k.
    for structure, parabolic in (("braid:3", "a"), ("braid:4", "aba")):
        args = ("--structure", structure, "--parabolic", parabolic, "unbounded-witness", "--k")
        code, out, _ = run(capsys, *args, str(MAX_WITNESS_K))
        assert code == EXIT_OK
        assert f"spread: {MAX_WITNESS_K + 1} > {MAX_WITNESS_K}" in out
        assert "verified: yes" in out
        code, out, err = run(capsys, *args, str(MAX_WITNESS_K + 1))
        assert code == EXIT_ERROR
        assert out == ""
        assert str(MAX_WITNESS_K) in err
        assert "Traceback" not in err


# stdout of `unbounded-witness --k K`, recorded when the certificate still
# searched the H-ball of radius 2(K + 1) for the projection of d_(K+1).
WITNESS_PINNED = [
    ("braid:3", "a", 1, "element: ba.ab\nlength: 2\nprojection contains 1: True\nprojection contains delta^-2: True\nspread: 2 > 1\nverified: yes\n"),
    ("braid:3", "a", 2, "element: ba.ab.ba\nlength: 3\nprojection contains 1: True\nprojection contains delta^-3: True\nspread: 3 > 2\nverified: yes\n"),
    ("braid:3", "a", 3, "element: ba.ab.ba.ab\nlength: 4\nprojection contains 1: True\nprojection contains delta^-4: True\nspread: 4 > 3\nverified: yes\n"),
    ("braid:3", "a", 4, "element: ba.ab.ba.ab.ba\nlength: 5\nprojection contains 1: True\nprojection contains delta^-5: True\nspread: 5 > 4\nverified: yes\n"),
    ("braid:3", "a", 5, "element: ba.ab.ba.ab.ba.ab\nlength: 6\nprojection contains 1: True\nprojection contains delta^-6: True\nspread: 6 > 5\nverified: yes\n"),
    ("braid:3", "a", 6, "element: ba.ab.ba.ab.ba.ab.ba\nlength: 7\nprojection contains 1: True\nprojection contains delta^-7: True\nspread: 7 > 6\nverified: yes\n"),
    ("braid:3", "a", 7, "element: ba.ab.ba.ab.ba.ab.ba.ab\nlength: 8\nprojection contains 1: True\nprojection contains delta^-8: True\nspread: 8 > 7\nverified: yes\n"),
    ("braid:3", "a", 8, "element: ba.ab.ba.ab.ba.ab.ba.ab.ba\nlength: 9\nprojection contains 1: True\nprojection contains delta^-9: True\nspread: 9 > 8\nverified: yes\n"),
    ("dihedral:4", "s", 1, "element: tst.tst\nlength: 2\nprojection contains 1: True\nprojection contains delta^-2: True\nspread: 2 > 1\nverified: yes\n"),
    ("dihedral:4", "s", 2, "element: tst.tst.tst\nlength: 3\nprojection contains 1: True\nprojection contains delta^-3: True\nspread: 3 > 2\nverified: yes\n"),
    ("dihedral:4", "s", 3, "element: tst.tst.tst.tst\nlength: 4\nprojection contains 1: True\nprojection contains delta^-4: True\nspread: 4 > 3\nverified: yes\n"),
    ("dihedral:4", "s", 4, "element: tst.tst.tst.tst.tst\nlength: 5\nprojection contains 1: True\nprojection contains delta^-5: True\nspread: 5 > 4\nverified: yes\n"),
    ("dihedral:4", "s", 5, "element: tst.tst.tst.tst.tst.tst\nlength: 6\nprojection contains 1: True\nprojection contains delta^-6: True\nspread: 6 > 5\nverified: yes\n"),
    ("dihedral:4", "s", 6, "element: tst.tst.tst.tst.tst.tst.tst\nlength: 7\nprojection contains 1: True\nprojection contains delta^-7: True\nspread: 7 > 6\nverified: yes\n"),
    ("dihedral:4", "s", 7, "element: tst.tst.tst.tst.tst.tst.tst.tst\nlength: 8\nprojection contains 1: True\nprojection contains delta^-8: True\nspread: 8 > 7\nverified: yes\n"),
    ("dihedral:4", "s", 8, "element: tst.tst.tst.tst.tst.tst.tst.tst.tst\nlength: 9\nprojection contains 1: True\nprojection contains delta^-9: True\nspread: 9 > 8\nverified: yes\n"),
    ("braid:5", "a", 1, "element: bacbadcba.abacbadcb\nlength: 2\nprojection contains 1: True\nprojection contains delta^-2: True\nspread: 2 > 1\nverified: yes\n"),
    ("braid:5", "a", 2, "element: bacbadcba.abacbadcb.bacbadcba\nlength: 3\nprojection contains 1: True\nprojection contains delta^-3: True\nspread: 3 > 2\nverified: yes\n"),
    ("braid:5", "a", 3, "element: bacbadcba.abacbadcb.bacbadcba.abacbadcb\nlength: 4\nprojection contains 1: True\nprojection contains delta^-4: True\nspread: 4 > 3\nverified: yes\n"),
    ("braid:5", "a", 4, "element: bacbadcba.abacbadcb.bacbadcba.abacbadcb.bacbadcba\nlength: 5\nprojection contains 1: True\nprojection contains delta^-5: True\nspread: 5 > 4\nverified: yes\n"),
    ("braid:5", "a", 5, "element: bacbadcba.abacbadcb.bacbadcba.abacbadcb.bacbadcba.abacbadcb\nlength: 6\nprojection contains 1: True\nprojection contains delta^-6: True\nspread: 6 > 5\nverified: yes\n"),
    ("braid:5", "a", 6, "element: bacbadcba.abacbadcb.bacbadcba.abacbadcb.bacbadcba.abacbadcb.bacbadcba\nlength: 7\nprojection contains 1: True\nprojection contains delta^-7: True\nspread: 7 > 6\nverified: yes\n"),
    ("braid:5", "a", 7, "element: bacbadcba.abacbadcb.bacbadcba.abacbadcb.bacbadcba.abacbadcb.bacbadcba.abacbadcb\nlength: 8\nprojection contains 1: True\nprojection contains delta^-8: True\nspread: 8 > 7\nverified: yes\n"),
    ("braid:5", "a", 8, "element: bacbadcba.abacbadcb.bacbadcba.abacbadcb.bacbadcba.abacbadcb.bacbadcba.abacbadcb.bacbadcba\nlength: 9\nprojection contains 1: True\nprojection contains delta^-9: True\nspread: 9 > 8\nverified: yes\n"),
    ("braid:4", "aba", 1, "element: cba.abc\nlength: 2\nprojection contains 1: True\nprojection contains delta^-2: True\nspread: 2 > 1\nverified: yes\n"),
    ("braid:4", "aba", 2, "element: cba.abc.cba\nlength: 3\nprojection contains 1: True\nprojection contains delta^-3: True\nspread: 3 > 2\nverified: yes\n"),
    ("braid:4", "aba", 3, "element: cba.abc.cba.abc\nlength: 4\nprojection contains 1: True\nprojection contains delta^-4: True\nspread: 4 > 3\nverified: yes\n"),
    ("braid:4", "aba", 4, "element: cba.abc.cba.abc.cba\nlength: 5\nprojection contains 1: True\nprojection contains delta^-5: True\nspread: 5 > 4\nverified: yes\n"),
]


@pytest.mark.parametrize(
    "structure, parabolic, k, want",
    WITNESS_PINNED,
    ids=[f"{s}-{p}-{k}" for s, p, k, _ in WITNESS_PINNED],
)
def test_unbounded_witness_output_pinned(capsys, structure, parabolic, k, want):
    code, out, err = run(
        capsys,
        "--structure", structure, "--parabolic", parabolic,
        "unbounded-witness", "--k", str(k),
    )
    assert code == EXIT_OK
    assert out == want
    assert err == ""


WITNESS_PAIRS = [("braid:3", "a"), ("dihedral:4", "s"), ("braid:5", "a"), ("braid:4", "aba")]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    pair=st.sampled_from(WITNESS_PAIRS + [("braid:3", "D")]),
    k=st.integers(min_value=-3, max_value=120),
)
def test_unbounded_witness_exit_codes_fuzz(capsys, pair, k):
    structure, parabolic = pair
    code, out, err = run(
        capsys,
        "--structure", structure, "--parabolic", parabolic,
        "unbounded-witness", "--k", str(k),
    )
    assert "Traceback" not in out + err
    if parabolic != "D" and 1 <= k <= MAX_WITNESS_K:
        assert code == EXIT_OK
        assert out.endswith("verified: yes\n")
    else:
        assert code == EXIT_ERROR
        assert out == ""


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(source=st.sampled_from(MUTATION_SOURCES), seed=st.integers(0, 2**32 - 1))
def test_validate_mutated_file_exit_codes_fuzz(capsys, tmp_path, source, seed):
    path = tmp_path / "mutant.garside"
    path.write_text(mutate_products(mutation_source(source), random.Random(seed)))
    code, out, err = run(capsys, "--structure", f"file:{path}", "validate")
    assert "Traceback" not in out + err
    assert code in (EXIT_OK, EXIT_ERROR)
    if code == EXIT_OK:
        assert out.startswith("table ok: ") and err == ""
    else:
        assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "command",
    [
        ("automaton", "--dot"),
        ("automaton", "--table"),
        ("growth", "--max-n", "3", "--csv"),
        ("audit-fellow", "--max-len", "1", "--csv"),
    ],
    ids=["automaton-dot", "automaton-table", "growth-csv", "audit-fellow-csv"],
)
def test_unwritable_output_file_exit_code(capsys, tmp_path, command):
    # Files are written before anything is printed, so stdout stays empty.
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run(
        capsys, "--structure", "braid:3", "--parabolic", "a", *command, str(path)
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith(f"error: cannot write file {str(path)!r}: ")
    assert "Traceback" not in err


def test_non_utf8_structure_file_exit_code(capsys, tmp_path):
    path = tmp_path / "latin1.garside"
    path.write_bytes("simples: 1 \u00e4 D\ndelta: D\n".encode("latin-1"))
    code, out, err = run(capsys, "--structure", f"file:{path}", "validate")
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith(f"error: cannot read structure file {str(path)!r}: ")
    assert "Traceback" not in err


# Node budget of the fuzzed ball searches: enough for most short inputs.
FUZZ_BUDGET = 3000

# (structure, parabolic); braid:3/ab is unbalanced, braid:3/D improper.
EXPRESSION_PAIRS = [
    ("braid:3", "a"), ("dihedral:4", "s"), ("braid:4", "aba"), ("braid:3", "ab"), ("braid:3", "D"),
]
# Six simple names per structure; the fuzz adds an unknown or empty name and D.
EXPRESSION_NAMES = {"braid:3": "1 a b ab ba D", "dihedral:4": "1 s t st tst D", "braid:4": "1 a b c aba D"}


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    pair=st.sampled_from(EXPRESSION_PAIRS),
    command=st.sampled_from(["nf", "coset-rep", "coset-length", "project"]),
    tokens=st.lists(
        st.tuples(st.integers(0, 7), st.sampled_from(["", "^-3", "^-1", "^0", "^2", "^3", "^x"])),
        max_size=6,
    ),
    bad_name=st.booleans(),
)
def test_expression_exit_codes_fuzz(capsys, monkeypatch, pair, command, tokens, bad_name):
    # `project` charges one node per positivity test of its interval walk,
    # so a small budget could stop it on a long coset.
    monkeypatch.setenv("GARSIDE_BUDGET", str(FUZZ_BUDGET))
    structure, parabolic = pair
    names = EXPRESSION_NAMES[structure].split() + ["zz" if bad_name else "", "D"]
    expr = ".".join(names[i] + exp for i, exp in tokens)
    code, out, err = run(
        capsys, "--structure", structure, "--parabolic", parabolic, command, expr
    )
    assert "Traceback" not in out + err
    well_formed = bool(tokens) and all(
        names[i] not in ("", "zz") and exp != "^x" for i, exp in tokens
    )
    if well_formed and (command == "nf" or parabolic != "ab"):
        assert code in (EXIT_OK, EXIT_BUDGET)
        if code == EXIT_OK:
            assert err == ""
        else:
            assert command == "project"
            assert out == "" and err.startswith("error: ")
    else:
        assert code == EXIT_ERROR
        assert out == "" and err.startswith("error: ")


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    pair=st.sampled_from([("braid:3", "a"), ("braid:4", "aba"), ("braid:3", "D")]),
    options=st.one_of(
        st.tuples(
            st.just("growth"), st.just("--max-n"), st.integers(-5, MAX_GROWTH_TERMS + 5).map(str)
        ),
        st.tuples(st.just("series")),
        st.tuples(
            st.just("audit-fellow"),
            st.just("--max-len"), st.integers(-3, 3).map(str),
            st.just("--bound"), st.integers(-2, 6).map(str),
        ),
        # `automaton` with each export off, to stdout, to a file or to an
        # unwritable path (FILE and MISSING stand for paths under tmp_path).
        st.tuples(
            st.sampled_from([(), ("--dot", "-"), ("--dot", "FILE"), ("--dot", "MISSING")]),
            st.sampled_from([(), ("--table", "-"), ("--table", "FILE"), ("--table", "MISSING")]),
        ).map(lambda exports: ("automaton",) + exports[0] + exports[1]),
    ),
)
def test_option_exit_codes_fuzz(capsys, monkeypatch, tmp_path, pair, options):
    monkeypatch.setenv("GARSIDE_BUDGET", str(FUZZ_BUDGET))
    structure, parabolic = pair
    paths = {"FILE": str(tmp_path / "out.txt"), "MISSING": str(tmp_path / "missing" / "out.txt")}
    options = tuple(paths.get(word, word) for word in options)
    code, out, err = run(capsys, "--structure", structure, "--parabolic", parabolic, *options)
    assert "Traceback" not in out + err
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_BUDGET)
    if code == EXIT_OK:
        assert err == ""
    else:
        assert err.startswith("error: ")
    if options[0] == "growth":
        max_n = int(options[2])
        if 0 <= max_n <= MAX_GROWTH_TERMS:
            assert code == EXIT_OK
            assert len(out.splitlines()) == max_n + 1
        else:
            assert code == EXIT_ERROR and out == ""
    elif options[0] == "series":
        assert code == EXIT_OK
    elif options[0] == "automaton":
        if paths["MISSING"] in options:
            assert code == EXIT_ERROR and out == ""
            assert err.startswith(f"error: cannot write file {paths['MISSING']!r}: ")
        else:
            assert code == EXIT_OK and out.startswith("automaton: ")
    elif int(options[2]) < 0 or int(options[4]) < 0:
        # A negative radius or bound is refused before any work.
        assert code == EXIT_ERROR and out == ""


def test_structure_file_flag(capsys, tmp_path, b3):
    from garside.structures import save_table

    path = tmp_path / "custom.garside"
    path.write_text(save_table(b3.table))
    code, out, _ = run(capsys, "--structure", f"file:{path}", "validate")
    assert code == EXIT_OK
