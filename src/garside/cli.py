"""Command-line driver for batch computations.

Every invocation selects a structure (built-in family or table file) and
optionally a parabolic simple, then runs one subcommand. All output is
plain text or CSV with stable ordering; exit codes are 0 on success, 1 for
parse or validation errors and 2 when an enumeration budget runs out.
"""

from __future__ import annotations

import sys

import click

from . import kernel as K
from .automaton import build_automaton, dot_text, transition_table_text
from .budget import Budget
from .cosets import (
    audit_rows_csv,
    bounded_projection_witness,
    coset_length,
    coset_representative,
    fellow_projection_audit,
    projection,
)
from .errors import BudgetExceededError, GarsideError, StructureError
from .growth import format_poly, rational_series, transfer_counts
from .kernel import Element, GarsideTable, normalize
from .parabolic import ParabolicData, make_parabolic
from .structures import table_from_descriptor, validate_table

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2

# Largest total |exponent| an element expression may expand to.
MAX_EXPRESSION_LETTERS = 10**6
# Largest `growth --max-n`. e(n) <= |alphabet|^n, so for alphabets of up to
# 10^4 letters every count stays under Python's 4300-digit int-to-str limit.
MAX_GROWTH_TERMS = 1000
# Largest `unbounded-witness --k`. The certificate searches nothing: d_(k+1)
# has k + 1 letters and its membership checks are O(k) kernel operations,
# about 6 ms at k = 100 on braid:3-5 and dihedral:4/50 (Xeon, Python 3.11).
MAX_WITNESS_K = 100


def parse_element(table: GarsideTable, text: str) -> Element:
    """Parse the dot-separated expression grammar into an element.

    Factors are simple names, optionally with an integer exponent as in
    `a^-1` or `D^3`; `D` always means the Garside element and `1` the unit.
    """
    text = text.strip()
    if not text:
        raise StructureError("empty element expression")
    names = {name: i for i, name in enumerate(table.simples)}
    factors: list[tuple[int, int]] = []
    for token in text.split("."):
        token = token.strip()
        if not token:
            raise StructureError(f"empty factor in expression {text!r}")
        base, caret, exp_text = token.partition("^")
        if base == "D":
            sid = table.delta
        elif base in names:
            sid = names[base]
        else:
            raise StructureError(f"unknown simple {base!r} in expression")
        if caret:
            try:
                exp = int(exp_text)
            except ValueError:
                raise StructureError(f"bad exponent in {token!r}") from None
        else:
            exp = 1
        factors.append((sid, exp))
    total = sum(abs(exp) for _, exp in factors)
    if total > MAX_EXPRESSION_LETTERS:
        raise StructureError(
            f"expression expands to {total} letters, more than {MAX_EXPRESSION_LETTERS}"
        )
    letters = [(sid, 1 if exp >= 0 else -1) for sid, exp in factors for _ in range(abs(exp))]
    return normalize(table, letters)


class Context:
    def __init__(self, structure: str, parabolic_name: str | None):
        self.structure_descriptor = structure
        self.parabolic_name = parabolic_name
        self._table: GarsideTable | None = None
        self._parabolic: ParabolicData | None = None

    @property
    def table(self) -> GarsideTable:
        if self._table is None:
            self._table = table_from_descriptor(self.structure_descriptor)
        return self._table

    @property
    def parabolic(self) -> ParabolicData:
        if self._parabolic is None:
            if self.parabolic_name is None:
                raise StructureError(
                    "this subcommand needs --parabolic <simple-name>"
                )
            table = self.table
            name = self.parabolic_name
            if name == "D":
                sid = table.delta
            else:
                try:
                    sid = table.simples.index(name)
                except ValueError:
                    raise StructureError(f"unknown simple {name!r}") from None
            self._parabolic = make_parabolic(table, sid)
        return self._parabolic


@click.group()
@click.option(
    "--structure",
    default="braid:3",
    show_default=True,
    help="braid:n, dihedral:m, abelian:n, file:<path> or a plain path.",
)
@click.option(
    "--parabolic",
    "parabolic_name",
    default=None,
    help="Simple name selecting the parabolic subgroup.",
)
@click.pass_context
def cli(ctx, structure: str, parabolic_name: str | None):
    """Exact computations in Garside groups and their parabolic cosets."""
    ctx.obj = Context(structure, parabolic_name)


@cli.command()
@click.pass_obj
def validate(obj: Context):
    """Check the table axioms and, when selected, the parabolic data."""
    violations = validate_table(obj.table)
    for v in violations:
        click.echo(f"violation: {v}")
    if violations:
        raise StructureError(f"{len(violations)} table violations")
    click.echo(f"table ok: {obj.table.name} ({obj.table.n_simples} simples)")
    if obj.parabolic_name is not None:
        p = obj.parabolic
        kind = "improper (whole group)" if p.improper else "proper"
        click.echo(
            f"parabolic ok: delta = {obj.table.display(p.delta_sub)}, "
            f"{len(p.div_delta)} divisors, {kind}"
        )


@cli.command()
@click.argument("expr")
@click.pass_obj
def nf(obj: Context, expr: str):
    """Print every normal form of an element."""
    t = obj.table
    x = parse_element(t, expr)
    click.echo(f"element: {K.format_element(x)}")
    click.echo(f"length: {x.length()}")
    lg = K.view(x, K.Form.LEFT_GREEDY).payload[0]
    rg = K.view(x, K.Form.RIGHT_GREEDY).payload[0]
    click.echo(f"left-greedy: {K.format_word(t, lg)}")
    click.echo(f"right-greedy: {K.format_word(t, rg)}")
    p, body = K.view(x, K.Form.LEFT_DELTA).payload
    click.echo(f"left-delta: p={p} body={K.format_word(t, [(u, 1) for u in body])}")
    body, p = K.view(x, K.Form.RIGHT_DELTA).payload
    click.echo(f"right-delta: body={K.format_word(t, [(u, 1) for u in body])} p={p}")
    b, a = K.view(x, K.Form.LEFT_ORTHOGONAL).payload
    click.echo(f"left-orthogonal: b={K.format_element(b)} a={K.format_element(a)}")
    a, b = K.view(x, K.Form.RIGHT_ORTHOGONAL).payload
    click.echo(f"right-orthogonal: a={K.format_element(a)} b={K.format_element(b)}")


@cli.command("coset-rep")
@click.argument("expr")
@click.pass_obj
def coset_rep_cmd(obj: Context, expr: str):
    """Reduced representative of the element's right-coset."""
    x = parse_element(obj.table, expr)
    click.echo(K.format_element(coset_representative(x, obj.parabolic)))


@cli.command("coset-length")
@click.argument("expr")
@click.pass_obj
def coset_length_cmd(obj: Context, expr: str):
    """Minimal word length over the element's right-coset."""
    x = parse_element(obj.table, expr)
    click.echo(str(coset_length(x, obj.parabolic)))


@cli.command()
@click.option("--dot", "dot_path", type=click.Path(), default=None, help="Write Graphviz text.")
@click.option("--table", "table_path", type=click.Path(), default=None, help="Write the transition listing.")
@click.pass_obj
def automaton(obj: Context, dot_path: str | None, table_path: str | None):
    """Build the coset acceptor; write DOT and/or transition listings."""
    aut = build_automaton(obj.table, obj.parabolic)
    shown = ""
    if dot_path is not None:
        shown += _write(dot_path, dot_text(aut))
    if table_path is not None:
        shown += _write(table_path, transition_table_text(aut))
    if dot_path is None and table_path is None:
        shown = transition_table_text(aut)
    click.echo(
        f"automaton: {aut.n_states} states, {len(aut.alphabet)} letters"
    )
    click.echo(shown, nl=False)


def _write(path: str, text: str) -> str:
    """Write text to path; return what stdout shows for it.

    That is the text itself for "-", else a `wrote` line. Commands write
    every file before they print, so a write error leaves stdout empty.
    """
    if path == "-":
        return text
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise StructureError(f"cannot write file {path!r}: {exc}") from None
    return f"wrote {path}\n"


@cli.command()
@click.option("--max-n", "max_n", type=int, required=True, help="Largest length to count.")
@click.option("--csv", "csv_path", type=click.Path(), default=None, help="Write n,e(n) rows to a file.")
@click.pass_obj
def growth(obj: Context, max_n: int, csv_path: str | None):
    """Count reduced representatives by length: one `n,e(n)` row per line."""
    if max_n < 0:
        raise StructureError(f"--max-n {max_n} is less than 0")
    if max_n > MAX_GROWTH_TERMS:
        raise StructureError(f"--max-n {max_n} is more than {MAX_GROWTH_TERMS}")
    aut = build_automaton(obj.table, obj.parabolic)
    counts = transfer_counts(aut, max_n)
    lines = "".join(f"{n},{c}\n" for n, c in enumerate(counts))
    if csv_path is not None:
        lines = _write(csv_path, lines)
    click.echo(lines, nl=False)


@cli.command()
@click.pass_obj
def series(obj: Context):
    """Exact rational generating function of the coset growth."""
    aut = build_automaton(obj.table, obj.parabolic)
    rs = rational_series(aut)
    click.echo(f"numerator = {format_poly(rs.numerator)}")
    click.echo(f"denominator = {format_poly(rs.denominator)}")
    rec = ",".join(str(c) for c in rs.recurrence)
    click.echo(f"recurrence = {rec}")
    click.echo(f"guard = {rs.guard}")


@cli.command()
@click.argument("expr")
@click.pass_obj
def project(obj: Context, expr: str):
    """Projection of an element onto the parabolic subgroup."""
    x = parse_element(obj.table, expr)
    p = obj.parabolic
    budget = Budget()
    ps = projection(x, p, budget)
    diameter = ps.diameter(budget)
    click.echo(f"distance: {ps.distance}")
    click.echo(f"members: {' '.join(K.format_element(m) for m in ps.members)}")
    click.echo(f"diameter: {diameter}")


@cli.command("audit-fellow")
@click.option("--max-len", "max_len", type=int, required=True, help="Audit ball radius.")
@click.option("--bound", type=int, default=5, show_default=True, help="Distance bound to check.")
@click.option("--csv", "csv_path", type=click.Path(), default=None, help="Write audit rows.")
@click.pass_obj
def audit_fellow(obj: Context, max_len: int, bound: int, csv_path: str | None):
    """Audit the fellow-projection property over a ball."""
    report = fellow_projection_audit(obj.parabolic, max_len, bound, Budget())
    shown = _write(csv_path, audit_rows_csv(report)) if csv_path is not None else ""
    click.echo(report.summary())
    if report.witness is not None:
        w = report.witness
        click.echo(
            "witness: alpha="
            + K.format_element(w.alpha)
            + f" u={K.format_letter(obj.table, w.letter)}"
            + f" beta={K.format_element(w.beta)}"
            + f" partner={K.format_element(w.best_partner)}"
            + f" distance={w.distance}"
        )
    click.echo(shown, nl=False)
    if report.partial:
        raise BudgetExceededError("audit incomplete: budget exhausted")
    if not report.passed:
        raise StructureError(f"audit failed: K_obs = {report.k_observed} > {bound}")


@cli.command("unbounded-witness")
@click.option("--k", "k_bound", type=int, required=True, help="Bound to defeat.")
@click.pass_obj
def unbounded_witness(obj: Context, k_bound: int):
    """Certificate that no bound K keeps projections of adjacent elements close."""
    if k_bound > MAX_WITNESS_K:
        raise StructureError(f"--k {k_bound} is more than {MAX_WITNESS_K}")
    cert = bounded_projection_witness(obj.parabolic, k_bound)
    click.echo(f"element: {K.format_element(cert.element)}")
    click.echo(f"length: {cert.element_length}")
    click.echo(f"projection contains 1: {cert.contains_identity}")
    click.echo(f"projection contains delta^-{cert.k}: {cert.contains_delta_neg}")
    click.echo(f"spread: {cert.spread} > {k_bound}")
    click.echo("verified: yes" if cert.verified else "verified: no")


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return EXIT_ERROR
    except click.exceptions.Abort:
        return EXIT_ERROR
    except BudgetExceededError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_BUDGET
    except GarsideError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_ERROR
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
