"""Explanations, exact probabilities and entailment of a goal conjunction,
and the check of the assumptions of the probability rule.

Every procedure below reads one grounder, `AtomTable`: it interns the
ground atoms it meets as integers, grounds each on its first `expand`
(so no atom is unified twice) and lists what goals reach, inputs first,
with `order`, which refuses a cyclic theory as the probability rule does.
It grounds the theory's rules, not its clause view: a ground atom
unifies with each rule head of its predicate once, the rule's inputs
are substituted and interned once, and its bodies are `cell_bodies`
over their ids, so no analysis builds a `Clause` per cell.

`AtomTable` interns every declaration alternative first, in declaration
order, so an alternative's atom id is its bit in every mask and the
alternatives of one declaration hold adjacent bits.  It rejects a
hypothesis that heads a clause: the PHA probability rule assumes none
does, and every procedure rests on that rule.

`ExplanationSearch` is a best-first abductive search.  A search state is
a partial SLD derivation: a tuple of remaining goal ids, a bitmask of the
assumed alternatives, and their probability product, which serves as
the state priority.  The frontier is kept as priority levels, one FIFO
queue of states per distinct priority (replicas share their rates, so a
parametric model has few), and the highest level is served first: states
leave in nonincreasing priority, first pushed first within a priority,
so complete explanations are emitted most probable first.  The sum of
frontier priorities, taken with `math.fsum` and so correctly rounded,
bounds the probability mass still unaccounted for.  That upper bound is
probabilistically valid only for ground goals on theories whose
same-head clause bodies are disjoint (stage "disjoint"); otherwise it is
reported as raw search mass (`sound` is False), as a goal's instances
need not be mutually exclusive.  The search yields bit masks; atoms turn
back into `Atom`s only when an `Explanation` is asked for, so bounded
`probability`, which needs only the bounds, builds none.

`ExactEvaluator` applies the same probability rule without enumerating
explanations, to ground goals on disjoint-stage theories.  Same-head
bodies are mutually exclusive, so P(head) is the sum of P(body) over its
bodies.  P(body) is the product of its atoms' probabilities when their
supports (the declarations each atom depends on) are pairwise disjoint
once the decided declarations are left out; otherwise the atoms sharing
a declaration are split on it, summing P(alternative) * P(atoms | it
holds) over its alternatives.  Hypotheses are the leaves.  No step looks
at a probability, so the decomposition is recorded once as an arithmetic
circuit, and every query, conditioned or with other probabilities, is
one forward pass over it.  Its sums add left to right, so a result has
the same digits on every Python version.

`entails` and `check_assumptions` close a set of atoms over the rules
(head id, body-id mask) of the atoms their roots reach, in one pass over
those rules ordered inputs first.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain, count, product, repeat
from operator import add, and_, itemgetter, or_
from typing import Iterable, Iterator

from .errors import EngineError
from .graph import CycleError, postorder
from .pha import (
    Atom,
    Clause,
    DisjointDeclaration,
    PhaTheory,
    STAGE_DISJOINT,
    Var,
    apply_substitution,
    cell_bodies,
    format_atom,
    format_clause,
    ground_instances,
    theory_constants,
    unify,
)

# the default bound on a search's frontier states and on an exact
# evaluation's memo entries and splits
DEFAULT_BUDGET = 10**6
# the most joint declaration assignments `check_assumptions` closes
MAX_JOINT_STATES = 2**20

# adds floats left to right on every Python: from 3.12 the builtin `sum`
# compensates, which changes the last digits of an exact result
_sum = partial(reduce, add)


@dataclass(frozen=True)
class Explanation:
    """A consistent hypothesis set entailing the goals, with its probability."""

    hypotheses: frozenset[Atom]
    prob: float

    def sorted_atoms(self) -> tuple[Atom, ...]:
        return tuple(sorted(self.hypotheses, key=format_atom))


@dataclass(frozen=True)
class ProbabilityBounds:
    """Running interval around the goal probability."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError(f"malformed bounds [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class StopCriteria:
    """When to stop emitting explanations; bounds combine disjunctively.

    With no bound the search is exhaustive.
    """

    max_explanations: int | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.max_explanations is not None and self.max_explanations < 1:
            raise ValueError("max_explanations must be positive")
        if self.epsilon is not None and not self.epsilon >= 0:
            raise ValueError("epsilon must be nonnegative")

    @property
    def exhaustive(self) -> bool:
        return self.max_explanations is None and self.epsilon is None


EXHAUSTIVE = StopCriteria()


def _atoms(name: str, atoms: Atom | Iterable[Atom]) -> tuple[Atom, ...]:
    """The atom argument `name` as a tuple, a lone `Atom` as a tuple of one."""
    atoms = (atoms,) if isinstance(atoms, Atom) else tuple(atoms)
    if wrong := [a for a in atoms if not isinstance(a, Atom)]:
        raise EngineError(f"{name}: {wrong[0]!r} is not an Atom")
    return atoms


class AtomTable:
    """The ground atoms met while proving `goals`, interned as integers.

    Every declaration alternative is interned first, in declaration order,
    so an atom is an alternative exactly when its id is below
    `len(probs)`, and that id is its bit: `probs` gives its probability and
    `decl_masks` the mask of its declaration's bits.  An atom is grounded
    once, the first time it is expanded: it is unified with each rule
    head of its predicate as written (every expanded atom is ground), the
    rule's inputs, `same` then `other`, are grounded through `ground`,
    and the rule's bodies, `cell_bodies` over each instance's ids, are
    kept for every later use, in clause order.  Only ground atoms are
    interned, so `ground` takes interned atoms as they are; a record's
    inputs are ground once its head is, and a clause body left with
    variables, like a goal that has some, is grounded over the theory's
    and the goals' constants, each instance one body.
    """

    def __init__(self, theory: PhaTheory, goals: tuple[Atom, ...]):
        self.ids: dict[Atom, int] = {}
        self.atoms: list[Atom] = []
        self.probs: list[float] = []
        self.decl_masks: list[int] = []
        for decl in theory.declarations:
            mask = ((1 << len(decl.alternatives)) - 1) << len(self.atoms)
            for atom, p in decl.alternatives:
                self.intern(atom)
                self.probs.append(p)
                self.decl_masks.append(mask)
        known = set(theory.rule_index) | {a.pred for a in self.atoms}
        for g in goals:
            if g.pred not in known:
                raise EngineError(f"unknown predicate {g.pred} in goal {format_atom(g)}")
        self.theory = theory
        self.goals = goals
        # atom id -> its bodies as id tuples
        self.expansions: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._constants: list | None = None

    def intern(self, atom: Atom) -> int:
        """The id of the ground `atom`, a new one on first sight."""
        i = self.ids.get(atom)
        if i is None:
            i = self.ids[atom] = len(self.atoms)
            self.atoms.append(atom)
        return i

    def bit(self, atom: Atom) -> int:
        """The bit of `atom`, which must be a declaration alternative."""
        if (i := self.ids.get(atom, len(self.probs))) < len(self.probs):
            return i
        raise EngineError(f"{format_atom(atom)} is not a hypothesis of the theory")

    def ground(self, atoms: tuple[Atom, ...]) -> list[tuple[int, ...]]:
        """Id tuples of the ground instances of `atoms`."""
        known = tuple(map(self.ids.get, atoms))
        if None not in known:  # only ground atoms are interned
            return [known]
        if all(a.is_ground() for a in atoms):
            return [tuple(map(self.intern, atoms))]
        if self._constants is None:
            constants = theory_constants(self.theory)
            for g in self.goals:
                constants.update(a for a in g.args if not isinstance(a, Var))
            self._constants = sorted(constants, key=repr)
        return [
            tuple(map(self.intern, inst))
            for inst in ground_instances(atoms, self._constants)
        ]

    def expand(self, goal: int) -> tuple[tuple[int, ...], ...]:
        """The clause bodies of atom `goal`, grounded on first use."""
        bodies = self.expansions.get(goal)
        if bodies is not None:
            return bodies
        atom = self.atoms[goal]
        found: list[tuple[int, ...]] = []
        # the goal is ground, so a rule needs no renaming apart, and
        # unifying binds every variable of the head to a constant
        for rule in self.theory.rule_index.get(atom.pred, ()):
            subst = unify(atom, rule.head)
            if subst is None:
                continue
            inputs, n = rule.same + rule.other, len(rule.same)
            if subst:
                inputs = tuple(apply_substitution(b, subst) for b in inputs)
            for ids in self.ground(inputs):
                found.extend(cell_bodies(ids[:n], ids[n:], rule.m))
        if goal < len(self.probs) and found:
            raise EngineError(
                f"hypothesis {format_atom(atom)} heads a clause; "
                "the probability rule requires that none does"
            )
        bodies = self.expansions[goal] = tuple(found)
        return bodies

    def order(self, roots: Iterable[int]) -> list[int]:
        """`graph.postorder` of the atoms `roots` reach through their distinct
        body atoms; raises `EngineError` when an atom depends on itself."""
        try:
            return list(postorder(
                roots, lambda a: dict.fromkeys(chain.from_iterable(self.expand(a)))))
        except CycleError as exc:
            raise EngineError(
                f"cyclic theory: {format_atom(self.atoms[exc.node])} depends on itself"
            ) from None


@dataclass(frozen=True)
class SearchStats:
    """Work of one search so far, counted in states.

    `popped` counts every state taken off the frontier, duplicates
    included; `duplicates` the complete states skipped because their
    hypothesis set was already emitted; `inconsistent` the hypothesis
    steps not pushed because another alternative of the declaration was
    assumed; `peak_frontier` the most states the frontier held at once.
    `emitted` counts the explanations emitted, duplicates left out, also
    when no `Explanation` was built for them.
    """

    popped: int = 0
    pushed: int = 0
    duplicates: int = 0
    inconsistent: int = 0
    peak_frontier: int = 0
    emitted: int = 0


class ExplanationSearch(Iterator[Explanation]):
    """Iterator over explanations of `goals`, most probable first.

    The search itself is one generator, `_emissions`, of the (assumed
    mask, probability) pair of each explanation; only `_explanation`
    turns a mask's bits into `Atom`s, for `__next__` and for the sets
    `minimal_explanations` keeps, so bounded `probability` drains the
    generator and builds none.  The frontier is kept as priority levels:
    a dict from priority to a deque of (goal ids, assumed mask) in push
    order, and a heap of the distinct priorities, entries (-priority,
    creation index, deque), so the heap never compares deques.  A state
    pops from the front of the highest level and its children join the
    back of theirs, so states leave in nonincreasing priority, first
    pushed first within a priority: the order of one heap of states
    tie-broken by push order.  A level leaves the heap once it is found
    empty at the top.  `bounds` adds the `math.fsum` of every frontier
    state's priority to the emitted mass, a sum that does not depend on
    the frontier's layout.  `stats` counts the work done so far.
    """

    def __init__(
        self,
        theory: PhaTheory,
        goals: Atom | Iterable[Atom],
        stop: StopCriteria = EXHAUSTIVE,
        frontier_budget: int = DEFAULT_BUDGET,
    ):
        self.theory = theory
        self.goals = _atoms("goals", goals)
        self.stop = stop
        self.frontier_budget = frontier_budget
        self.sound = _inexact(theory, self.goals) is None

        self._table = table = AtomTable(theory, self.goals)
        self._emitted_probs_sum = 0.0
        self._emitted_count = 0
        self._levels: dict[float, deque] = {}
        self._order: list = []
        initial = table.ground(self.goals)
        if len(initial) > frontier_budget:
            raise EngineError(f"frontier memory budget of {frontier_budget} states exceeded")
        # each atom's clause bodies and, for an alternative, its flag, the
        # mask of the other alternatives of its declaration and its probability
        self._steps: dict[int, tuple] = {}
        for a in table.order(chain.from_iterable(initial)):
            if a < len(table.probs):
                self._steps[a] = (), 1 << a, table.decl_masks[a] ^ (1 << a), table.probs[a]
            else:
                self._steps[a] = table.expand(a), 0, 0, 0.0
        if initial:
            self._levels[1.0] = deque((goals, 0) for goals in initial)
            heapq.heappush(self._order, (-1.0, 0, self._levels[1.0]))
        # states on the frontier and the running sum of their priorities,
        # in push and pop order; `bounds` sums the frontier afresh
        self._size = len(initial)
        self._mass = float(len(initial))
        # popped, duplicates, inconsistent, peak frontier; pushed is popped + size
        self._counts = (0, 0, 0, self._size)
        self._emissions = self._search()

    @property
    def stats(self) -> SearchStats:
        popped, duplicates, inconsistent, peak = self._counts
        return SearchStats(popped, popped + self._size, duplicates, inconsistent, peak,
                           self._emitted_count)

    @property
    def bounds(self) -> ProbabilityBounds:
        lower = self._emitted_probs_sum
        mass = math.fsum(chain.from_iterable(
            repeat(priority, len(states)) for priority, states in self._levels.items()))
        return ProbabilityBounds(lower, lower + mass)

    def _stopped(self) -> bool:
        stop = self.stop
        if (
            stop.max_explanations is not None
            and self._emitted_count >= stop.max_explanations
        ):
            return True
        if stop.epsilon is None:
            return False
        # the running mass drifts from the exact frontier sum only by
        # rounding, so far from epsilon it decides without summing the levels
        if self._mass > stop.epsilon + 1e-9 * max(1.0, self._mass):
            return False
        return self.bounds.width <= stop.epsilon

    def __next__(self) -> Explanation:
        assumed, prob = next(self._emissions)
        return self._explanation(_bits(assumed), prob)

    def _explanation(self, bits: list[int], prob: float) -> Explanation:
        """The `Explanation` that assumes the alternatives at `bits`."""
        return Explanation(frozenset(map(self._table.atoms.__getitem__, bits)), prob)

    def _search(self) -> Iterator[tuple[int, float]]:
        """The (assumed mask, probability) of each explanation, best first,
        until the stop criteria hold.

        A child never outranks its parent (no probability exceeds 1), so
        the top level stays on top until an inner loop has drained it.
        Every goal atom's step is built on construction, so the loop
        grounds nothing.  The emitted mass and count, the frontier size and
        mass and the counters live in locals; they are written back before
        each emission and on exit, for `stats`, `bounds` and `_stopped`.
        """
        if self._stopped():
            return
        levels, order, seen, steps = self._levels, self._order, set(), self._steps
        created = count(1)  # the first level, pushed on construction, is 0
        # looked up as the search starts, so a stand-in for the module can watch the levels
        heappush, heappop = heapq.heappush, heapq.heappop
        budget = self.frontier_budget
        lower, emitted = self._emitted_probs_sum, self._emitted_count
        size, mass = self._size, self._mass
        popped, duplicates, inconsistent, peak = self._counts
        try:
            while order:
                neg_priority, _, level = order[0]
                priority = -neg_priority
                while level:
                    goals, assumed = level.popleft()
                    size -= 1
                    popped += 1
                    mass -= priority
                    if not goals:
                        if assumed in seen:
                            duplicates += 1
                            continue
                        seen.add(assumed)
                        lower += priority
                        emitted += 1
                        self._emitted_probs_sum, self._emitted_count = lower, emitted
                        self._size, self._mass = size, mass
                        self._counts = (popped, duplicates, inconsistent, peak)
                        yield assumed, priority
                        if self._stopped():
                            return
                        continue
                    goal, rest = goals[0], goals[1:]
                    bodies, flag, others, p = steps[goal]
                    if flag:
                        # an alternative heads no clause, so it has no bodies
                        if assumed & flag:
                            level.append((rest, assumed))
                            mass += priority
                        elif assumed & others:
                            inconsistent += 1
                            continue
                        else:
                            child = priority * p
                            target = levels.get(child)
                            if target is None:
                                target = levels[child] = deque()
                                heappush(order, (-child, next(created), target))
                            target.append((rest, assumed | flag))
                            mass += child
                        size += 1
                    else:
                        # children in clause order join the back of their
                        # level: that order fixes which equal-priority state
                        # pops first, hence the emission order and every sum
                        for body in bodies:
                            level.append((body + rest, assumed))
                            mass += priority
                        size += len(bodies)
                    if size > peak:
                        if size > budget:
                            raise EngineError(
                                f"frontier memory budget of {budget} states exceeded")
                        peak = size
                heappop(order)
                del levels[priority]
        finally:
            self._emitted_probs_sum, self._emitted_count = lower, emitted
            self._size, self._mass = size, mass
            self._counts = (popped, duplicates, inconsistent, peak)


@dataclass(frozen=True)
class ExplainResult:
    """Explanations found before the stop criterion, with final bounds and work done."""

    explanations: tuple[Explanation, ...]
    bounds: ProbabilityBounds
    sound: bool
    stats: SearchStats


def explain(
    theory: PhaTheory,
    goals: Atom | Iterable[Atom],
    stop: StopCriteria = EXHAUSTIVE,
    frontier_budget: int = DEFAULT_BUDGET,
) -> ExplainResult:
    """Collect explanations of `goals`, most probable first."""
    search = ExplanationSearch(theory, goals, stop, frontier_budget)
    explanations = tuple(search)
    return ExplainResult(explanations, search.bounds, search.sound, search.stats)


def minimal_explanations(
    theory: PhaTheory,
    goals: Atom | Iterable[Atom],
    stop: StopCriteria = EXHAUSTIVE,
    frontier_budget: int = DEFAULT_BUDGET,
) -> list[Explanation]:
    """Explanations no subset of which explains the goals, best first.

    The filter reads the search's (assumed mask, probability) emissions
    and builds an `Explanation` only for the ones it returns.  Kept
    emission i holds bit i of `holding[b]` for each alternative bit b it
    assumes, and of `alive` until a subset evicts it; `held` is the mask
    of the alternatives some kept one assumes.  A new emission is dropped
    when an alive one assumes nothing outside it; otherwise it evicts the
    alive ones that assume all of it.  A strict superset is never more
    probable than its subset, so one kept earlier can only have tied with
    it.  An emission that assumes nothing held is neither dropped nor
    evicts, and one that assumes a bit nobody holds evicts nothing.
    """
    search = ExplanationSearch(theory, goals, stop, frontier_budget)
    kept: list[tuple[list[int], float]] = []  # (alternative bits, probability)
    holding: dict[int, int] = {}
    alive = held = 0
    for assumed, prob in search._emissions:
        if assumed & held:
            outside = reduce(or_, [m for b, m in holding.items() if not assumed >> b & 1], 0)
            if alive & ~outside:
                continue
        bits = _bits(assumed)
        if not assumed & ~held:
            alive &= ~reduce(and_, [holding[b] for b in bits], alive)
        flag = 1 << len(kept)
        for b in bits:
            holding[b] = holding.get(b, 0) | flag
        held |= assumed
        alive |= flag
        kept.append((bits, prob))
        if not assumed:
            break  # the goals hold outright: every later explanation is a superset
    # the bits of `alive`, lowest first
    return [search._explanation(*e) for e, flag in zip(kept, bin(alive)[:1:-1]) if flag == "1"]


def _bits(mask: int) -> list[int]:
    """The positions of the bits set in `mask`, lowest first."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _inexact(theory: PhaTheory, goals: tuple[Atom, ...]) -> str | None:
    """Why the probability rule does not cover `theory` and `goals`, or None."""
    if theory.stage != STAGE_DISJOINT:
        return ("probability requires a disjoint-stage theory; "
                "recompile with the status-complete translation")
    for g in goals:
        if not g.is_ground():
            return f"probability requires ground goals; {format_atom(g)} has variables"
    return None


class ExactEvaluator:
    """Exact probability of ground `goals` on a disjoint-stage theory.

    Alternatives are the bits of the `AtomTable`, each its atom's id; an
    atom's support is the mask of the alternatives of the declarations it
    depends on, and a context is the pair (chosen alternatives, all
    alternatives of the decided declarations).  A hypothesis is a leaf
    whose value the context gives.  The constructor decomposes once, from the empty context, and
    records the decomposition inputs first: node 0 is 0, node 1 is 1, node
    2 + bit reads alternative `bit`, and each later node sums or multiplies
    earlier ones, a split summing (alternative x part) products.  `budget`
    bounds the memo entries plus the splits of that recording; past it the
    constructor raises `EngineError`.
    """

    def __init__(
        self,
        theory: PhaTheory,
        goals: Atom | Iterable[Atom],
        budget: int = DEFAULT_BUDGET,
    ):
        goals = _atoms("goals", goals)
        if fault := _inexact(theory, goals):
            raise EngineError(fault)
        self.budget = budget
        self._table = table = AtomTable(theory, goals)
        roots = tuple(map(table.intern, goals))
        self._index(roots)
        # (_sum or math.prod, getter of its input values), inputs first
        self._nodes: list[tuple] = []
        self._memo: dict[tuple[int, int], int] = {}
        self._splits = 0
        self._top = self._run(roots)
        del self._memo

    def _index(self, roots: tuple[int, ...]) -> None:
        """The support of every atom the goals reach, in `AtomTable.order`,
        so each atom's body atoms have theirs first."""
        table = self._table
        self._support: dict[int, int] = {}
        for a in table.order(roots):
            if a < len(table.probs):  # a leaf, which `_known` answers
                self._support[a] = table.decl_masks[a]
                continue
            mask = 0
            for body in table.expand(a):
                for b in body:
                    mask |= self._support[b]
            self._support[a] = mask

    def _shared(self, atoms: tuple[int, ...]) -> int:
        """The alternatives in the supports of two or more of `atoms`."""
        seen = shared = 0
        for a in atoms:
            shared |= seen & self._support[a]
            seen |= self._support[a]
        return shared

    def probability(
        self,
        condition: Atom | Iterable[Atom] = (),
        declarations: Iterable[DisjointDeclaration] | None = None,
    ) -> float:
        """P(goals | every hypothesis in `condition` holds), at most 1.

        0 when two of the hypotheses are alternatives of one declaration.
        `declarations`, if given, replace the theory's probabilities; they
        must list its alternatives in order, as `compile.declarations` does
        for the theory's model at another time.
        """
        table = self._table
        values = [0.0, 1.0, *table.probs]
        if declarations is not None:
            pairs = [pair for decl in declarations for pair in decl.alternatives]
            if [a for a, _ in pairs] != table.atoms[:len(table.probs)]:
                raise ValueError("the declarations must list the theory's alternatives in order")
            values[2:] = [p for _, p in pairs]
        chosen = 0
        for bit in map(table.bit, _atoms("condition", condition)):
            mask = table.decl_masks[bit]
            if chosen & mask & ~(1 << bit):
                return 0.0
            chosen |= 1 << bit
            for other in _bits(mask):
                values[2 + other] = float(other == bit)
        for op, inputs in self._nodes:
            values.append(op(inputs(values)))
        # the sum can pass 1 by rounding
        return min(values[self._top], 1.0)

    def _node(self, op, inputs: list[int]) -> int:
        """The node for `op` (_sum or math.prod) of `inputs`, constants folded.

        x + 0 and x * 1 drop the constant, x * 0 is 0 and a node of one
        input is that input; no value of an alternative is looked at.
        """
        unit = int(op is math.prod)
        if unit and 0 in inputs:
            return 0
        inputs = [i for i in inputs if i != unit]
        if len(inputs) < 2:
            return inputs[0] if inputs else unit
        self._nodes.append((op, itemgetter(*inputs)))
        return len(self._nodes) + len(self._table.probs) + 1

    def _run(self, atoms: tuple[int, ...]) -> int:
        """The node of P(atoms), driving the tasks below from an explicit stack.

        A task is a generator that yields the tasks whose nodes it needs
        and is sent each node in turn.
        """
        stack = [self._conjunction(atoms, self._shared(atoms), 0, 0)]
        node = None
        while True:
            try:
                stack.append(stack[-1].send(node))
                node = None
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                node = done.value

    def _check_budget(self) -> None:
        if len(self._memo) + self._splits > self.budget:
            raise EngineError(
                f"exact evaluation budget of {self.budget} memo entries and splits exceeded"
            )

    def _known(self, a: int, chosen: int, decided: int) -> int | None:
        """The node of P(atom a | context) if it is a leaf or memoized, else None."""
        if a >= len(self._table.probs):
            return self._memo.get((a, chosen & self._support[a]))
        return (chosen >> a & 1) if decided & self._support[a] else 2 + a

    def _atom(self, a: int, chosen: int, decided: int):
        """Task: the node of P(atom a | context), the sum over its bodies, memoized."""
        bodies = []
        for body in self._table.expand(a):
            bodies.append((yield self._conjunction(body, self._shared(body), chosen, decided)))
        node = self._memo[a, chosen & self._support[a]] = self._node(_sum, bodies)
        self._check_budget()
        return node

    def _conjunction(self, atoms: tuple[int, ...], shared: int, chosen: int, decided: int):
        """Task: the node of P(all of atoms | context), given the alternatives they share.

        Atoms whose supports overlap outside the decided declarations form
        one part, split on the declaration of the lowest alternative bit
        they share; every part is then independent of the others and the
        product is exact.  A factor that the context makes 0 ends it.
        """
        if shared & ~decided:
            parts = _parts(atoms, self._support, ~decided)
        else:
            parts = [(0, a) for a in atoms]
        factors = []
        for part_shared, part in parts:
            if not part_shared:
                node = self._known(part, chosen, decided)
                if node is None:
                    node = yield self._atom(part, chosen, decided)
            else:
                self._splits += 1
                self._check_budget()
                mask = self._table.decl_masks[(part_shared & -part_shared).bit_length() - 1]
                terms = []
                for bit in _bits(mask):
                    node = yield self._conjunction(
                        part, part_shared, chosen | 1 << bit, decided | mask)
                    terms.append(self._node(math.prod, [2 + bit, node]))
                node = self._node(_sum, terms)
            if not node:
                return 0
            factors.append(node)
        return self._node(math.prod, factors)


def _parts(atoms: tuple[int, ...], support: dict[int, int], free: int) -> list:
    """Group atoms into parts of overlapping free support.

    Returns (shared alternatives, atom) for a lone atom, whose shared mask
    is 0, and (shared alternatives, atom tuple) for a part of several.
    """
    groups: list[list] = []  # [free support, shared, atoms]
    for a in atoms:
        s = support[a] & free
        group = [s, 0, (a,)]
        for g in [g for g in groups if g[0] & s]:
            groups.remove(g)
            group = [group[0] | g[0], group[1] | g[1] | (g[0] & group[0]), g[2] + group[2]]
        groups.append(group)
    return [(shared, members if shared else members[0]) for _, shared, members in groups]


def probability(
    theory: PhaTheory,
    goals: Atom | Iterable[Atom],
    stop: StopCriteria = EXHAUSTIVE,
    frontier_budget: int = DEFAULT_BUDGET,
) -> ProbabilityBounds:
    """Bounds on the probability of the goal conjunction.

    Only meaningful for ground goals on disjoint-stage theories, where
    explanations are mutually exclusive events; others raise `EngineError`.
    Exhaustive stop criteria give the exact value of `ExactEvaluator` as a
    point interval; bounded ones search, and the frontier mass is a sound
    bound on what remains.
    """
    goals = _atoms("goals", goals)
    if stop.exhaustive:  # the evaluator refuses what the rule does not cover
        p = ExactEvaluator(theory, goals).probability()
        return ProbabilityBounds(p, p)
    if fault := _inexact(theory, goals):
        raise EngineError(fault)
    search = ExplanationSearch(theory, goals, stop, frontier_budget)
    for _ in search._emissions:  # the bounds need no `Explanation`s
        pass
    b = search.bounds
    if b.upper > 1.0:
        b = ProbabilityBounds(min(b.lower, 1.0), 1.0)
    return b


# ---------------------------------------------------------------------------
# entailment and the assumptions of the probability rule


def _ground_rules(table: AtomTable, roots: Iterable[int]) -> list[tuple[int, int]]:
    """The (head id, body-id mask) rules of every atom `roots` reach, inputs
    first, so one pass closes a set of atoms; `AtomTable.order` refuses a
    cyclic theory."""
    return [(a, reduce(or_, [1 << b for b in body], 0))
            for a in table.order(roots) for body in table.expand(a)]


def _closure(rules: list[tuple[int, int]], mask: int) -> int:
    """`mask` with every head the inputs-first `rules` derive from it."""
    for head, body in rules:
        if not body & ~mask:
            mask |= 1 << head
    return mask


def entails(theory: PhaTheory, hypotheses: Iterable[Atom], goals: Iterable[Atom]) -> bool:
    """True when the ground `goals` all follow from `hypotheses` alone.

    False for a goal with variables or with a predicate the theory does
    not know.  Raises `EngineError` on a hypothesis no declaration lists
    and, as the search does, on an atom the goals reach that is a
    hypothesis heading a clause or that depends on itself.
    """
    goals = _atoms("goals", goals)
    if not all(g.is_ground() for g in goals):
        return False
    try:
        table = AtomTable(theory, goals)
    except EngineError:  # a goal's predicate is unknown
        return False
    roots = [table.intern(g) for g in goals]
    rules = _ground_rules(table, roots)
    facts = reduce(or_, [1 << table.bit(h) for h in _atoms("hypotheses", hypotheses)], 0)
    mask = _closure(rules, facts)
    return all(mask >> g & 1 for g in roots)


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of checking the two preconditions of the probability rule."""

    assumption1: bool  # no clause head unifies with any hypothesis
    assumption2: bool | None  # ground same-head bodies mutually exclusive
    joint_states: int
    counterexample: str | None = None


def check_assumptions(theory: PhaTheory) -> AssumptionReport:
    """Verify the well-formedness assumptions behind the probability rule.

    The first is syntactic.  The second is checked on the ground rules of
    every clause head instance, by closing every joint assignment of the
    declarations; it is skipped (reported as None) when the first fails,
    as the grounder refuses a hypothesis that heads a clause, or when
    there are more than `MAX_JOINT_STATES` assignments; when it is
    checked, a cyclic theory raises `EngineError`.
    """
    hypotheses = [a for decl in theory.declarations for a, _ in decl.alternatives]
    # hypotheses are ground, so a head needs no renaming apart, and only a
    # head of the hypothesis' predicate can unify with it
    assumption1 = not any(
        unify(r.head, h) is not None
        for h in hypotheses for r in theory.rule_index.get(h.pred, ()))
    joint = math.prod(len(decl.alternatives) for decl in theory.declarations)
    if not assumption1 or joint > MAX_JOINT_STATES:
        return AssumptionReport(assumption1, None, joint)

    table = AtomTable(theory, ())
    heads = [i for r in theory.rules for (i,) in table.ground((r.head,))]
    rules = _ground_rules(table, heads)
    choices = [[1 << table.ids[a] for a, _ in decl.alternatives]
               for decl in theory.declarations]
    # a rule whose body holds an atom that is neither an alternative (the
    # first atom ids) nor the head of a rule never fires, in any assignment
    derivable = reduce(or_, [1 << head for head, _ in rules], (1 << len(table.probs)) - 1)
    rules = [(head, body) for head, body in rules if not body & ~derivable]
    for world in product(*choices):
        mask = _closure(rules, reduce(or_, world, 0))
        first: dict[int, int] = {}
        for head, body in rules:
            if not body & ~mask and first.setdefault(head, body) != body:
                # each body as its clause lists it
                pair = [Clause(table.atoms[head], next(
                    tuple(map(table.atoms.__getitem__, ids)) for ids in table.expand(head)
                    if reduce(or_, [1 << i for i in ids], 0) == b)) for b in (first[head], body)]
                example = " and ".join(map(format_clause, pair)) + " both hold"
                return AssumptionReport(True, False, joint, example)
    return AssumptionReport(True, True, joint)
