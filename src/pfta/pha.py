"""Probabilistic Horn theories: definite clauses plus disjoint declarations.

A theory is a set of definite clauses over function-free atoms together
with disjoint declarations.  Each declaration lists ground hypothesis
atoms with probabilities summing to one; exactly one alternative of each
declaration holds.  Explanations are consistent hypothesis sets whose
probability is the product of the chosen alternatives.

Theories, unification and their text format live here, with the ground
instances of atoms over given constants; the grounder built on those and
every procedure that reads a grounded theory live in `engine`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple

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
    an atom is a tuple of its fields: built, hashed and pickled by the
    tuple type in C.  Its hash is that of `(pred, args)`, and a pickle
    carries the two fields alone, so a per-process salted `str` hash is
    computed afresh where the atom is loaded.  Equality is strict: an
    atom equals only another atom, never a plain tuple of its fields.
    """

    pred: str
    args: tuple = ()

    def __eq__(self, other) -> bool:
        return isinstance(other, Atom) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def is_ground(self) -> bool:
        return not any(isinstance(a, Var) for a in self.args)


@dataclass(frozen=True)
class Clause:
    """Definite clause `head :- body`; an empty body is a fact."""

    head: Atom
    body: tuple[Atom, ...] = ()


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


@dataclass(frozen=True)
class PhaTheory:
    """Clauses plus declarations; `stage` records the compilation discipline."""

    clauses: tuple[Clause, ...]
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
        known = {c.head.pred for c in self.clauses} | {a.pred for a in seen}
        # the body predicates are collected in C; only a failure looks for where
        body_atoms = chain.from_iterable(map(attrgetter("body"), self.clauses))
        if not known.issuperset(map(attrgetter("pred"), body_atoms)):
            for c in self.clauses:
                for b in c.body:
                    if b.pred not in known:
                        raise TheoryError(
                            f"dangling predicate {b.pred} in the body of "
                            f"{format_atom(c.head)}"
                        )

    @cached_property
    def clause_index(self) -> dict[str, tuple[Clause, ...]]:
        out: dict[str, list[Clause]] = {}
        for c in self.clauses:
            out.setdefault(c.head.pred, []).append(c)
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


def _clause_line(clause: Clause, text: Callable[[Atom], str]) -> str:
    """`clause` on one line, each of its atoms rendered by `text`."""
    if not clause.body:
        return text(clause.head) + "."
    return f"{text(clause.head)} :- {', '.join(map(text, clause.body))}."


def format_clause(clause: Clause) -> str:
    return _clause_line(clause, format_atom)


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
    them, but a stage-2 vote gate repeats a few hundred distinct atoms
    across a hundred thousand body slots, so each distinct atom is
    rendered once per call, and a body is joined from those texts by a
    `map` over it, with no Python loop per slot.
    """
    lines = [format_declaration(d, precision) for d in theory.declarations]
    text = _AtomTexts().__getitem__
    lines.extend(_clause_line(c, text) for c in theory.clauses)
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
    for c in theory.clauses:
        for atom in (c.head, *c.body):
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
