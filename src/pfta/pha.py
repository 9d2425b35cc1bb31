"""Probabilistic Horn theories: definite clauses plus disjoint declarations.

A theory is a set of definite clauses over function-free atoms together
with disjoint declarations.  Each declaration lists ground hypothesis
atoms with probabilities summing to one; exactly one alternative of each
declaration holds.  Explanations are consistent hypothesis sets whose
probability is the product of the chosen alternatives.

A theory holds rules: a `Cells` record that stands for every clause of
one gate head, the cells led by the m-subsets of its inputs, or a
`Clause`, which reads as the record of its single cell.  Every reader
takes a rule one way, through its head, `same`, `other` and `m`, and
`cell_bodies` is the one routine that expands it: `serialize` runs it
over the inputs' texts, the engine over their interned ids, and the
theory's `clauses` view, which analyses never build, over the atoms.

Theories, unification and their text format live here, with the ground
instances of atoms over given constants; the grounder built on those and
every procedure that reads a grounded theory live in `engine`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product, repeat
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

from .errors import TheoryError

STATUS_WORKING = "w"
STATUS_FAILED = "f"

PROB_SUM_TOL = 1e-9

STAGE_DIRECT = "direct"      # one clause per disjunct; bodies may overlap
STAGE_DISJOINT = "disjoint"  # same-head clause bodies mutually exclusive


@dataclass(frozen=True)
class Var:
    """A logical variable; everything else in an argument slot is constant."""

    name: str


class Atom(NamedTuple):
    """A predicate applied to variables, integers, or symbolic constants.

    Atoms key the renderer's, the search's and the interning tables, so
    an atom is a tuple of its fields: built, hashed, compared and pickled
    by the tuple type in C, and equal to the plain tuple `(pred, args)`.
    A lookup of an equal atom built elsewhere thus makes no Python call;
    no table mixes atoms with other tuples, and every engine entry refuses
    a member of an atom argument that is not an `Atom`.  A pickle carries
    the two fields alone, so a salted `str` hash is made where it loads.
    """

    pred: str
    args: tuple = ()

    def is_ground(self) -> bool:
        return not any(isinstance(a, Var) for a in self.args)


@dataclass(frozen=True)
class Clause:
    """Definite clause `head :- body`; an empty body is a fact.

    As a rule it is the record of its single cell: its body is `same`,
    `other` is empty and `m` is the body's length, so a fact has m = 0
    and one empty body.
    """

    head: Atom
    body: tuple[Atom, ...] = ()
    other = ()

    @property
    def same(self) -> tuple[Atom, ...]:
        return self.body

    @property
    def m(self) -> int:
        return len(self.body)


def cell_bodies(same: Sequence, other: Sequence, m: int) -> Iterator[tuple]:
    """The bodies of the cells led by the m-subsets of the n inputs, 0 <= m <= n.

    `same` and `other` hold the inputs' items (atoms, their texts or
    their interned ids) at the cell's status and at the opposite one.  A
    cell's body is its lead, the subset's `same` items in positional
    order, then its trail: the `other` items of the positions before the
    lead's last that are outside the lead, in reverse positional order.
    With `other` empty there are no trails, and the bodies are
    `itertools.combinations` of `same`; either way they come in that
    order of their leads.  A `Clause` is its own single cell: m = n and
    no `other`, so its one body is `same`, empty for a fact.  A record
    with trails has m >= 1.

    The leads grow one position per level, in that order, and each level
    keeps (last position, lead, trail) per prefix, so a prefix's tuples
    are built once and shared by all its extensions.  Extending a prefix
    ending at l by a position p adds `same[p]` to the lead and the gap
    l+1..p-1, from p-1 down, in front of the trail: one slice of `other`
    reversed.  No step walks the body slot by slot in Python, and the
    last level's bodies are made as they are read, so none is kept.
    """
    if not other:
        return combinations(same, m)
    n = len(same)
    reverse = tuple(reversed(other))  # other[j] is reverse[n - 1 - j]
    level = [(-1, (), ())]
    for depth in range(m - 1):
        top = n - m + depth  # the last position a lead's depth-th input can take
        level = [
            (p, lead + (same[p],), reverse[n - p:n - 1 - last] + trail)
            for last, lead, trail in level
            for p in range(last + 1, top + 1)
        ]
    return (
        lead + (same[p],) + reverse[n - p:n - 1 - last] + trail
        for last, lead, trail in level
        for p in range(last + 1, n)
    )


@dataclass(frozen=True)
class Cells:
    """The clauses of one gate head: a body per cell led by an m-subset of its inputs.

    `same` and `other` hold the n inputs' atoms at the cell's status and
    at the opposite one, in the gate's input order, and 1 <= m <= n;
    `other` is empty where no cell has a trail.  `cell_bodies` gives
    the bodies, in clause order.  Every variable of an input must be one
    of the head's, as the translations make it: the engine grounds the
    inputs once for all the cells, so a ground head must ground them.
    """

    head: Atom
    same: tuple[Atom, ...]
    other: tuple[Atom, ...]
    m: int


@dataclass(frozen=True)
class DisjointDeclaration:
    """Exhaustive, mutually exclusive ground alternatives with probabilities."""

    alternatives: tuple[tuple[Atom, float], ...]

    def __post_init__(self):
        if not self.alternatives:
            raise TheoryError("empty disjoint declaration")
        atoms = [a for a, _ in self.alternatives]
        for a in atoms:
            if not a.is_ground():
                raise TheoryError(f"declaration alternative {format_atom(a)} is not ground")
        if len(set(atoms)) != len(atoms):
            raise TheoryError("declaration repeats an alternative")
        for _, p in self.alternatives:
            if not 0.0 <= p <= 1.0:
                raise TheoryError(f"alternative probability {p!r} outside [0, 1]")
        total = sum(p for _, p in self.alternatives)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise TheoryError(f"probabilities sum to {total:g}")


@dataclass(frozen=True, eq=False)
class PhaTheory:
    """Rules plus declarations; `stage` records the compilation discipline.

    A rule is a `Cells` record of one gate head or a `Clause`, read as the
    record of its single cell.  `rule_index` groups the rules by head
    predicate; the engine grounds them from it and text is written from
    them.  `clauses` lists every rule's clauses in rule order, a view
    built on the first read and kept: only equality, the dangling
    predicate error and outside readers build it.  Two theories are equal
    when their clauses, declarations and stage are, however their rules
    hold them.
    """

    rules: tuple[Clause | Cells, ...]
    declarations: tuple[DisjointDeclaration, ...]
    stage: str = STAGE_DIRECT

    def __post_init__(self):
        seen: dict[Atom, int] = {}
        for i, decl in enumerate(self.declarations):
            for atom, _ in decl.alternatives:
                if atom in seen and seen[atom] != i:
                    raise TheoryError(
                        f"hypothesis {format_atom(atom)} appears in two declarations"
                    )
                seen[atom] = i
        known = {r.head.pred for r in self.rules} | {a.pred for a in seen}
        # a record's body atoms are its inputs; only a failure looks for where
        body_atoms = chain.from_iterable(r.same + r.other for r in self.rules)
        if not known.issuperset(map(attrgetter("pred"), body_atoms)):
            for c in self.clauses:
                for b in c.body:
                    if b.pred not in known:
                        raise TheoryError(
                            f"dangling predicate {b.pred} in the body of "
                            f"{format_atom(c.head)}"
                        )

    def __eq__(self, other):
        if not isinstance(other, PhaTheory):
            return NotImplemented
        return ((self.clauses, self.declarations, self.stage)
                == (other.clauses, other.declarations, other.stage))

    def __hash__(self):
        # equal theories share their declarations and stage
        return hash((self.declarations, self.stage))

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        return tuple(chain.from_iterable(
            map(Clause, repeat(r.head), cell_bodies(r.same, r.other, r.m)) for r in self.rules))

    @cached_property
    def rule_index(self) -> dict[str, tuple[Clause | Cells, ...]]:
        out: dict[str, list[Clause | Cells]] = {}
        for r in self.rules:
            out.setdefault(r.head.pred, []).append(r)
        return {k: tuple(v) for k, v in out.items()}


# ---------------------------------------------------------------------------
# substitutions and unification

Subst = dict


def walk(term, subst: Subst):
    """Chase variable bindings to a representative term."""
    while isinstance(term, Var) and term in subst:
        term = subst[term]
    return term


def unify(a: Atom, b: Atom) -> Subst | None:
    """Most general unifier of `a` and `b`, or None."""
    if a.pred != b.pred or len(a.args) != len(b.args):
        return None
    out = {}
    for x, y in zip(a.args, b.args):
        x = walk(x, out)
        y = walk(y, out)
        if x == y:
            continue
        if isinstance(x, Var):
            out[x] = y
        elif isinstance(y, Var):
            out[y] = x
        else:
            return None
    return out


def apply_substitution(atom: Atom, subst: Subst) -> Atom:
    """Replace bound variables in `atom`; unbound variables survive."""
    if not subst or atom.is_ground():
        return atom
    return Atom(atom.pred, tuple(walk(a, subst) for a in atom.args))


# ---------------------------------------------------------------------------
# text format

_VAR_RE = re.compile(r"[A-Z_][A-Za-z_0-9]*$")


def format_term(term) -> str:
    if isinstance(term, Var):
        return term.name
    return str(term)


def format_atom(atom: Atom) -> str:
    if not atom.args:
        return atom.pred
    return atom.pred + "(" + ",".join(format_term(a) for a in atom.args) + ")"


def _format_probability(p: float, precision: int | None) -> str:
    if precision is None:
        return repr(p)
    if p == 0.0:
        return "0.0"
    if p == 1.0:
        return "1.0"
    digits = precision
    while True:
        text = f"{p:.{digits}f}"
        if float(text) not in (0.0, 1.0):
            return text
        digits += 1


def format_clause(clause: Clause) -> str:
    if not clause.body:
        return format_atom(clause.head) + "."
    return f"{format_atom(clause.head)} :- {', '.join(map(format_atom, clause.body))}."


def format_declaration(decl: DisjointDeclaration, precision: int | None = None) -> str:
    alts = ",".join(
        f"{format_atom(a)}:{_format_probability(p, precision)}"
        for a, p in decl.alternatives
    )
    return f"disjoint([{alts}])."


class _AtomTexts(dict):
    """Atom -> its `format_atom` text, rendered the first time it is looked up."""

    def __missing__(self, atom: Atom) -> str:
        text = self[atom] = format_atom(atom)
        return text


def serialize(theory: PhaTheory, precision: int | None = None) -> str:
    """One declaration or clause per line, declarations first.

    With `precision`, probabilities are rendered to that many decimal
    places (more when rounding would collapse them to 0 or 1); otherwise
    they round-trip exactly.  Clauses read as `format_clause` renders
    them, in the order of the theory's `clauses`, but no clause is
    built: each distinct atom is rendered once per call, and a rule's
    lines come from `cell_bodies` run over its inputs' texts, each body
    joined once, with no Python loop per body slot.
    """
    lines = [format_declaration(d, precision) for d in theory.declarations]
    text = _AtomTexts().__getitem__
    for rule in theory.rules:
        # only a fact has m = 0, and its one body is empty
        head = text(rule.head) + (" :- " if rule.m else "")
        bodies = cell_bodies(tuple(map(text, rule.same)), tuple(map(text, rule.other)), rule.m)
        lines.extend(head + ", ".join(body) + "." for body in bodies)
    return "\n".join(lines) + "\n"


class _ItemParser:
    """Recursive-descent parser for one serialized declaration or clause."""

    def __init__(self, text: str, lineno: int):
        self.tokens = re.findall(
            r"-?\d+\.\d+(?:[eE][+-]?\d+)?|-?\d+(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z_0-9]*"
            # `:-` before a digit or `.` is `:` and a negative number
            r"|:-(?![\d.])|[()\[\],:.]|\S",
            text,
        )
        self.lineno = lineno
        self.i = 0

    def error(self, message: str) -> TheoryError:
        return TheoryError(message, self.lineno)

    def next(self) -> str:
        if self.i >= len(self.tokens):
            raise self.error("unexpected end of line")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise self.error(f"expected {text!r}, got {tok!r}")

    def term(self):
        tok = self.next()
        if re.fullmatch(r"-?\d+", tok):
            return int(tok)
        if _VAR_RE.match(tok):
            return Var(tok)
        if re.fullmatch(r"[a-z_][A-Za-z_0-9]*", tok):
            return tok
        raise self.error(f"expected term, got {tok!r}")

    def atom(self) -> Atom:
        pred = self.next()
        if not re.fullmatch(r"[a-z_][A-Za-z_0-9]*", pred):
            raise self.error(f"expected predicate, got {pred!r}")
        args: list = []
        if self.peek() == "(":
            self.next()
            args.append(self.term())
            while self.peek() == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
        return Atom(pred, tuple(args))

    def probability(self) -> float:
        tok = self.next()
        try:
            return float(tok)
        except ValueError:
            raise self.error(f"expected probability, got {tok!r}") from None

    def declaration(self) -> DisjointDeclaration:
        self.expect("(")
        self.expect("[")
        alts: list[tuple[Atom, float]] = []
        while True:
            atom = self.atom()
            self.expect(":")
            alts.append((atom, self.probability()))
            if self.peek() == ",":
                self.next()
                continue
            break
        self.expect("]")
        self.expect(")")
        self.expect(".")
        if self.peek() is not None:
            raise self.error("trailing text after declaration")
        return DisjointDeclaration(tuple(alts))

    def clause(self, head: Atom) -> Clause:
        tok = self.next()
        if tok == ".":
            if self.peek() is not None:
                raise self.error("trailing text after fact")
            return Clause(head)
        if tok != ":-":
            raise self.error(f"expected ':-' or '.', got {tok!r}")
        body = [self.atom()]
        while self.peek() == ",":
            self.next()
            body.append(self.atom())
        self.expect(".")
        if self.peek() is not None:
            raise self.error("trailing text after clause")
        return Clause(head, tuple(body))


def parse_theory(text: str, stage: str = STAGE_DIRECT) -> PhaTheory:
    """Parse serialized theory text back into a PhaTheory."""
    clauses: list[Clause] = []
    declarations: list[DisjointDeclaration] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        p = _ItemParser(line, lineno)
        if p.tokens[:3] == ["disjoint", "(", "["]:
            p.expect("disjoint")
            try:
                declarations.append(p.declaration())
            except TheoryError as exc:
                if exc.line is None:
                    raise TheoryError(str(exc), lineno) from None
                raise
        else:
            clauses.append(p.clause(p.atom()))
    return PhaTheory(tuple(clauses), tuple(declarations), stage)


# ---------------------------------------------------------------------------
# grounding


def theory_constants(theory: PhaTheory) -> set:
    out: set = set()
    for decl in theory.declarations:
        for atom, _ in decl.alternatives:
            out.update(atom.args)
    for r in theory.rules:
        for atom in (r.head, *r.same, *r.other):
            out.update(a for a in atom.args if not isinstance(a, Var))
    return out


def ground_instances(atoms: tuple[Atom, ...], constants: list) -> Iterator[tuple[Atom, ...]]:
    """Every instance of `atoms` with their variables bound to `constants`.

    Variables are bound in order of first appearance and instances come in
    `itertools.product` order; a ground tuple is its only instance.
    """
    vs: list[Var] = []
    for atom in atoms:
        for a in atom.args:
            if isinstance(a, Var) and a not in vs:
                vs.append(a)
    for combo in product(constants, repeat=len(vs)):
        s = dict(zip(vs, combo))
        yield tuple(apply_substitution(a, s) for a in atoms)
