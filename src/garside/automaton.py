"""The finite-state acceptor for reduced coset representatives.

The automaton reads words over the symmetric alphabet of non-trivial
simples. It has one state per letter plus a start state and an absorbing
sink; every state except the sink accepts. The transitions encode the local
greedy conditions together with the initial reducedness tests, so the
accepted language maps bijectively onto the transversal, letter count equal
to element length.

The row of a letter state is `kernel.may_follow` read off the meet table,
half a row at a time, since each of its three cases is a meet row:
  after (u, +1), a letter (v, +1) follows iff meet_l(sigma(u), v) = 1, the
  meet row of sigma(u), and no letter (v, -1) follows;
  after (u, -1), a letter (v, +1) follows iff meet_l(u, v) = 1, the meet
  row of u;
  after (u, -1), a letter (v, -1) follows iff meet_l(sigma(v), u) = 1, that
  is meet_l(u, sigma(v)) = 1 as the meet is symmetric (the table constructor
  fills both triangles): the meet row of u read at sigma(v).
So the positive half is the meet row of one simple w, built once per w and
shared by (sigma^-1(w), +1) and (w, -1). As sigma(D) = 1, w runs over the
unit too, whose meet row is all units: every positive letter follows D. The
negative half is built once per u.

The whole machine is a dense 16-bit array, built eagerly and cached on the
table, one per parabolic. A table has at most `kernel.MAX_SIMPLES` = 1024
simples, so an acceptor has at most 2 + 2 * 1023 = 2048 states, and every
state id fits in 16 bits.
"""

from __future__ import annotations

import dataclasses
from array import array

from .errors import DomainError, StructureError
from .kernel import GarsideTable, SignedLetter, format_letter
from .parabolic import ParabolicData

START = 0
SINK = 1


@dataclasses.dataclass(eq=False)
class CosetAutomaton:
    """Deterministic complete automaton over the signed simple alphabet."""

    table: GarsideTable
    parabolic: ParabolicData
    alphabet: tuple[SignedLetter, ...]
    transition: array  # 16-bit array("H"), flat: state * len(alphabet) + letter -> state
    letter_index: dict[SignedLetter, int]

    @property
    def n_states(self) -> int:
        return 2 + len(self.alphabet)

    def accepted(self, state: int) -> bool:
        return state != SINK

    def step(self, state: int, letter: SignedLetter) -> int:
        idx = self.letter_index.get(letter)
        if idx is None:
            raise DomainError(f"unknown letter {letter!r}")
        return self.transition[state * len(self.alphabet) + idx]

    def state_name(self, state: int) -> str:
        if state == START:
            return "x0"
        if state == SINK:
            return "x1"
        return format_letter(self.table, self.alphabet[state - 2])


def build_automaton(table: GarsideTable, p: ParabolicData) -> CosetAutomaton:
    """Populate the transition table.

    The start row holds the initial reducedness tests, and the row of each
    letter state is `kernel.may_follow`, the rule the ball walk reads too,
    read off the meet table by halves (see the module docstring).
    """
    if p.table is not table:
        raise StructureError("parabolic data belongs to a different table")
    cached = table._acceptors.get(p.delta_sub)
    if cached is not None:
        return cached

    unit = table.unit
    d_sub = p.delta_sub
    omega = p.omega
    simples = [s for s in range(table.n_simples) if s != unit]
    alphabet: tuple[SignedLetter, ...] = tuple(
        [(s, 1) for s in simples] + [(s, -1) for s in simples]
    )
    letter_index = {letter: i for i, letter in enumerate(alphabet)}
    n_letters = len(alphabet)
    transition = array("H", [SINK]) * ((2 + n_letters) * n_letters)

    def admit_initial(letter: SignedLetter) -> bool:
        v, sign = letter
        if sign == 1:
            return table.meet_l(v, d_sub) == unit
        sv = table.sigma(v)
        return table.meet_l(sv, d_sub) == unit and not table.left_divides(omega, sv)

    for j, letter in enumerate(alphabet):
        if admit_initial(letter):
            transition[START * n_letters + j] = 2 + j
    # positive[w] admits the positive letters v with meet_l(w, v) = 1; w runs
    # over every simple, the unit too, as sigma(D) = 1.
    positive = [
        array("H", [2 + j if row[v] == unit else SINK for j, v in enumerate(simples)])
        for row in map(table.meet_row, range(table.n_simples))
    ]
    # Rows are written in place, so the fill never holds a second copy of the
    # table; a (u, +1) row keeps its negative half of sinks.
    m = len(simples)
    for i, u in enumerate(simples):
        base = (2 + i) * n_letters
        transition[base : base + m] = positive[table.sigma(u)]
    # After (u, -1), the negative letter v is read off u's meet row at sigma(v).
    negative = [(2 + m + j, table.sigma(v)) for j, v in enumerate(simples)]
    for i, u in enumerate(simples, start=m):
        base = (2 + i) * n_letters
        row = table.meet_row(u)
        transition[base : base + m] = positive[u]
        transition[base + m : base + n_letters] = array(
            "H", [t if row[sv] == unit else SINK for t, sv in negative]
        )

    aut = CosetAutomaton(
        table=table,
        parabolic=p,
        alphabet=alphabet,
        transition=transition,
        letter_index=letter_index,
    )
    table._acceptors[p.delta_sub] = aut
    return aut


# -- exports -----------------------------------------------------------------


def transition_table_text(aut: CosetAutomaton) -> str:
    """Plain listing, one `state letter -> state` line per transition."""
    lines = []
    for state in range(aut.n_states):
        for j, letter in enumerate(aut.alphabet):
            target = aut.transition[state * len(aut.alphabet) + j]
            lines.append(
                f"{aut.state_name(state)} {format_letter(aut.table, letter)} "
                f"-> {aut.state_name(target)}"
            )
    return "\n".join(lines) + "\n"


def dot_text(aut: CosetAutomaton) -> str:
    """Graphviz source; sink edges are omitted for readability."""
    def node_id(state: int) -> str:
        return f"s{state}"

    lines = ["digraph coset_automaton {", "  rankdir=LR;"]
    order = [START]
    order.extend(2 + j for j, (s, e) in enumerate(aut.alphabet) if e == 1)
    order.extend(2 + j for j, (s, e) in enumerate(aut.alphabet) if e == -1)
    order.append(SINK)
    for state in order:
        shape = "doublecircle" if aut.accepted(state) else "circle"
        lines.append(
            f'  {node_id(state)} [label="{aut.state_name(state)}", shape={shape}];'
        )
    for state in range(aut.n_states):
        if state == SINK:
            continue
        for j, letter in enumerate(aut.alphabet):
            target = aut.transition[state * len(aut.alphabet) + j]
            if target == SINK:
                continue
            label = format_letter(aut.table, letter)
            lines.append(f'  {node_id(state)} -> {node_id(target)} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
