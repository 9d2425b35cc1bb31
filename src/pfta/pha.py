"""Probabilistic Horn theories: definite clauses plus disjoint declarations.

A theory is a set of definite clauses over function-free atoms together
with disjoint declarations.  Each declaration lists ground hypothesis
atoms with probabilities summing to one; exactly one alternative of each
declaration holds.  Explanations are consistent hypothesis sets whose
probability is the product of the chosen alternatives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product
from operator import attrgetter
from typing import Callable, Iterator

from .errors import TheoryError
from .graph import CycleError, postorder

STATUS_WORKING = "w"
STATUS_FAILED = "f"

PROB_SUM_TOL = 1e-9

STAGE_DIRECT = "direct"      # one clause per disjunct; bodies may overlap
STAGE_DISJOINT = "disjoint"  # same-head clause bodies mutually exclusive


@dataclass(frozen=True)
class Var:
    """A logical variable; everything else in an argument slot is constant."""

    name: str


Term = "Var | int | str"


@dataclass(frozen=True, init=False)
class Atom:
    """A predicate applied to variables, integers, or symbolic constants.

    The hash, that of the field tuple, is computed once at construction,
    since atoms key the renderer's, the search's and the interning tables.
    `str` hashes are salted per process, so an atom pickles as its fields
    alone and hashes afresh when it is rebuilt.
    """

    pred: str
    args: tuple = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, pred: str, args: tuple = ()):
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((pred, args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Atom, (self.pred, self.args)

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
    def hypothesis_index(self) -> dict[Atom, tuple[int, float]]:
        """Ground hypothesis atom -> (declaration index, probability)."""
        out: dict[Atom, tuple[int, float]] = {}
        for i, decl in enumerate(self.declarations):
            for atom, p in decl.alternatives:
                out[atom] = (i, p)
        return out

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


def unify(a: Atom, b: Atom, subst: Subst | None = None) -> Subst | None:
    """Most general unifier extending `subst`, or None."""
    if a.pred != b.pred or len(a.args) != len(b.args):
        return None
    out = dict(subst) if subst else {}
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
            r"|:-|[()\[\],:.]|\S",
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
# grounding and the two abduction assumptions


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


def ground_clauses(theory: PhaTheory) -> list[Clause]:
    """All ground instances of the clauses over the theory's constants."""
    constants = sorted(theory_constants(theory), key=repr)
    return [
        Clause(atoms[0], atoms[1:])
        for c in theory.clauses
        for atoms in ground_instances((c.head, *c.body), constants)
    ]


def _relevant_ground_clauses(theory: PhaTheory) -> list[Clause]:
    """Ground instances whose bodies can possibly hold in some world."""
    possible: set[Atom] = set(theory.hypothesis_index)
    clauses = ground_clauses(theory)
    changed = True
    live: list[Clause] = []
    while changed:
        changed = False
        remaining = []
        for c in clauses:
            if all(b in possible for b in c.body):
                live.append(c)
                if c.head not in possible:
                    possible.add(c.head)
                    changed = True
            else:
                remaining.append(c)
        clauses = remaining
    return live


class GroundProgram:
    """Grounded theory compiled to bitmask rules for fast world evaluation.

    Rules whose bodies can never hold are dropped.  When the clause graph
    is acyclic the rest are ordered bodies first, so one pass over them
    computes the forward-chaining closure; a cyclic theory keeps its rules
    as given and the closure repeats that pass until nothing changes.
    """

    def __init__(self, theory: PhaTheory):
        live = _relevant_ground_clauses(theory)
        atom_set = {a for c in live for a in (c.head, *c.body)}
        atom_set.update(theory.hypothesis_index)
        self.atoms: list[Atom] = sorted(atom_set, key=format_atom)
        self.index: dict[Atom, int] = {a: i for i, a in enumerate(self.atoms)}
        seen_instances: set[tuple[int, tuple[int, ...]]] = set()
        rules: list[tuple[int, int, tuple[int, ...], Clause]] = []
        for c in live:
            head_i = self.index[c.head]
            body_i = tuple(sorted(self.index[b] for b in c.body))
            if (head_i, body_i) in seen_instances:
                continue  # identical ground instance from another clause
            seen_instances.add((head_i, body_i))
            body_mask = 0
            for b in body_i:
                body_mask |= 1 << b
            rules.append((head_i, body_mask, body_i, c))
        self.rules = rules
        self.ordered, self.acyclic = self._order_rules()

    def _order_rules(self) -> tuple[list[tuple[int, int, tuple[int, ...], Clause]], bool]:
        deps: dict[int, set[int]] = {}
        for head_i, _, body_i, _ in self.rules:
            deps.setdefault(head_i, set()).update(body_i)
        order = postorder(range(len(self.atoms)), lambda a: deps.get(a, ()))
        try:
            rank = {a: r for r, a in enumerate(order)}
        except CycleError:
            return self.rules, False
        return sorted(self.rules, key=lambda r: rank[r[0]]), True

    def fact_mask(self, facts: set[Atom]) -> int:
        mask = 0
        for a in facts:
            i = self.index.get(a)
            if i is not None:
                mask |= 1 << i
        return mask

    def closure_mask(self, mask: int) -> int:
        while True:
            before = mask
            for head_i, body_mask, _, _ in self.ordered:
                if body_mask & ~mask == 0:
                    mask |= 1 << head_i
            if self.acyclic or mask == before:
                return mask

    def derives(self, facts: set[Atom], goals: list[Atom]) -> bool:
        if any(g not in self.index for g in goals):
            return False
        mask = self.closure_mask(self.fact_mask(facts))
        return all(mask & (1 << self.index[g]) for g in goals)

    def same_head_conflict(self, mask: int) -> tuple[Clause, Clause] | None:
        """Two same-head rules whose bodies both hold in the closed world."""
        mask = self.closure_mask(mask)
        first: dict[int, tuple[int, Clause]] = {}
        for head_i, body_mask, _, clause in self.rules:
            if body_mask & ~mask == 0:
                prev = first.get(head_i)
                if prev is not None and prev[0] != body_mask:
                    return prev[1], clause
                first[head_i] = (body_mask, clause)
        return None


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of checking the two preconditions of the probability rule."""

    assumption1: bool  # no clause head unifies with any hypothesis
    assumption2: bool | None  # ground same-head bodies mutually exclusive
    joint_states: int
    counterexample: str | None = None


def check_assumptions(theory: PhaTheory, max_joint_states: int = 2**20) -> AssumptionReport:
    """Verify the well-formedness assumptions behind the probability rule.

    The first is syntactic.  The second is checked by enumerating every
    joint truth assignment of the declarations on the grounded theory and
    is skipped (reported as None) when there are more than
    `max_joint_states` assignments.
    """
    assumption1 = True
    for c in theory.clauses:
        # hypotheses are ground, so a head needs no renaming apart
        if any(unify(c.head, hyp) is not None for hyp in theory.hypothesis_index):
            assumption1 = False
            break

    joint = 1
    for decl in theory.declarations:
        joint *= len(decl.alternatives)
    if joint > max_joint_states:
        return AssumptionReport(assumption1, None, joint)

    program = GroundProgram(theory)
    choices = [
        tuple(1 << program.index[a] for a, _ in d.alternatives)
        for d in theory.declarations
    ]
    for world in product(*choices):
        mask = 0
        for bit in world:
            mask |= bit
        conflict = program.same_head_conflict(mask)
        if conflict is not None:
            example = (
                f"{format_clause(conflict[0])} and "
                f"{format_clause(conflict[1])} both hold"
            )
            return AssumptionReport(assumption1, False, joint, example)
    return AssumptionReport(assumption1, True, joint)


def entails(theory: PhaTheory, hypotheses: set[Atom], goals: list[Atom]) -> bool:
    """True when the ground `goals` all follow from `hypotheses` alone."""
    return GroundProgram(theory).derives(set(hypotheses), list(goals))
