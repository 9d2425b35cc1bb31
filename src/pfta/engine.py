"""Best-first abductive search for explanations of a goal conjunction.

A search state is a partial SLD derivation: remaining goals, hypotheses
assumed so far, and their probability product, which serves as the state
priority.  States come off the frontier in nonincreasing priority order,
so complete explanations are emitted most probable first, and the sum of
frontier priorities bounds the probability mass still unaccounted for.
That upper bound is probabilistically valid only for theories whose
same-head clause bodies are disjoint (stage "disjoint"); for direct-stage
theories it is reported as raw search mass (`sound` is False).

Each search interns the ground atoms it meets as integers, and a state is
a tuple of goal ids plus a frozenset of assumed hypothesis ids.  An atom
is grounded once, the first time it is expanded: its clause bodies (found
by unifying it with each clause head of its predicate as written, since
every expanded atom is ground), its hypothesis probability and the ids of
its declaration's other alternatives are kept and reused by every later
state that reaches it, so no state unifies.  Bodies or goals that keep
variables are grounded over the theory's and the goals' constants.  Atoms
turn back into `Atom`s only in emitted explanations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator

from .errors import EngineError
from .pha import (
    Atom,
    PhaTheory,
    STAGE_DISJOINT,
    Var,
    apply_substitution,
    format_atom,
    ground_instances,
    theory_constants,
    unify,
)

DEFAULT_FRONTIER_BUDGET = 10**6


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

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class StopCriteria:
    """When to stop emitting explanations; criteria combine disjunctively."""

    max_explanations: int | None = None
    epsilon: float | None = None
    exhaustive: bool = False

    def __post_init__(self):
        if not self.exhaustive and self.max_explanations is None and self.epsilon is None:
            raise ValueError("stop criteria require a bound or exhaustive=True")
        if self.exhaustive and (self.max_explanations is not None or self.epsilon is not None):
            raise ValueError("an exhaustive search takes no bound")
        if self.max_explanations is not None and self.max_explanations < 1:
            raise ValueError("max_explanations must be positive")
        if self.epsilon is not None and self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


EXHAUSTIVE = StopCriteria(exhaustive=True)


def _as_goal_list(goals: Atom | Iterable[Atom]) -> tuple[Atom, ...]:
    if isinstance(goals, Atom):
        return (goals,)
    return tuple(goals)


class ExplanationSearch(Iterator[Explanation]):
    """Iterator over explanations of `goals`, most probable first."""

    def __init__(
        self,
        theory: PhaTheory,
        goals: Atom | Iterable[Atom],
        stop: StopCriteria = EXHAUSTIVE,
        frontier_budget: int = DEFAULT_FRONTIER_BUDGET,
    ):
        self.theory = theory
        self.goals = _as_goal_list(goals)
        self.stop = stop
        self.frontier_budget = frontier_budget
        self.sound = theory.stage == STAGE_DISJOINT

        known = set(theory.clause_index) | {a.pred for a in theory.hypothesis_index}
        for g in self.goals:
            if g.pred not in known:
                raise EngineError(f"unknown predicate {g.pred} in goal {format_atom(g)}")

        self._seq = count()
        self._emitted_probs_sum = 0.0
        self._emitted_count = 0
        self._seen: set[frozenset[int]] = set()
        self._ids: dict[Atom, int] = {}
        self._atoms: list[Atom] = []
        # goal id -> (clause bodies as id tuples, None or
        # (hypothesis probability, ids of the declaration's other alternatives))
        self._expansions: dict[int, tuple] = {}
        self._constants: list | None = None
        # running sum of frontier priorities; `bounds` recomputes it exactly
        self._mass = 0.0
        # heap entries: (-priority, tiebreak, goal ids, assumed ids)
        self._frontier: list = []
        for goals in self._ground(self.goals):
            self._push(1.0, goals, frozenset())

    def _intern(self, atom: Atom) -> int:
        i = self._ids.get(atom)
        if i is None:
            i = self._ids[atom] = len(self._atoms)
            self._atoms.append(atom)
        return i

    def _ground(self, atoms: tuple[Atom, ...]) -> list[tuple[int, ...]]:
        """Id tuples of the ground instances of `atoms`."""
        if all(a.is_ground() for a in atoms):
            return [tuple(map(self._intern, atoms))]
        if self._constants is None:
            constants = theory_constants(self.theory)
            for g in self.goals:
                constants.update(a for a in g.args if not isinstance(a, Var))
            self._constants = sorted(constants, key=repr)
        return [
            tuple(map(self._intern, inst))
            for inst in ground_instances(atoms, self._constants)
        ]

    def _expand(self, goal: int) -> tuple:
        atom = self._atoms[goal]
        bodies: list[tuple[int, ...]] = []
        # the goal is ground, so a clause needs no renaming apart
        for clause in self.theory.clause_index.get(atom.pred, ()):
            subst = unify(atom, clause.head)
            if subst is not None:
                bodies.extend(
                    self._ground(tuple(apply_substitution(b, subst) for b in clause.body))
                )
        hyp = None
        found = self.theory.hypothesis_index.get(atom)
        if found is not None:
            decl, p = found
            others = frozenset(
                self._intern(a)
                for a, _ in self.theory.declarations[decl].alternatives
                if a != atom
            )
            hyp = (p, others)
        entry = self._expansions[goal] = (tuple(bodies), hyp)
        return entry

    def _push(self, priority: float, goals: tuple[int, ...], assumed: frozenset[int]) -> None:
        if len(self._frontier) >= self.frontier_budget:
            raise EngineError(
                f"frontier memory budget of {self.frontier_budget} states exceeded"
            )
        heapq.heappush(self._frontier, (-priority, next(self._seq), goals, assumed))
        self._mass += priority

    @property
    def bounds(self) -> ProbabilityBounds:
        mass = -sum(entry[0] for entry in self._frontier)
        lower = self._emitted_probs_sum
        return ProbabilityBounds(lower, lower + max(mass, 0.0))

    @property
    def emitted(self) -> int:
        return self._emitted_count

    def _stopped(self) -> bool:
        stop = self.stop
        if stop.exhaustive:
            return False
        if (
            stop.max_explanations is not None
            and self._emitted_count >= stop.max_explanations
        ):
            return True
        if stop.epsilon is None:
            return False
        # the running mass drifts from the exact frontier sum only by
        # rounding, so far from epsilon it decides without summing the heap
        if self._mass > stop.epsilon + 1e-9 * max(1.0, self._mass):
            return False
        return self.bounds.width <= stop.epsilon

    def __next__(self) -> Explanation:
        if self._stopped():
            raise StopIteration
        while self._frontier:
            neg_priority, _, goals, assumed = heapq.heappop(self._frontier)
            priority = -neg_priority
            self._mass -= priority
            if not goals:
                if assumed in self._seen:
                    continue
                self._seen.add(assumed)
                self._emitted_probs_sum += priority
                self._emitted_count += 1
                atoms = frozenset(map(self._atoms.__getitem__, assumed))
                return Explanation(atoms, priority)
            # clause bodies in clause order, then the hypothesis: with the
            # tie-break this order fixes which equal-priority state pops
            # first, hence the emission order and every sum over it
            goal, rest = goals[0], goals[1:]
            bodies, hyp = self._expansions.get(goal) or self._expand(goal)
            for body in bodies:
                self._push(priority, body + rest, assumed)
            if hyp is not None:
                p, others = hyp
                if goal in assumed:
                    self._push(priority, rest, assumed)
                elif others.isdisjoint(assumed):
                    self._push(priority * p, rest, assumed | {goal})
        raise StopIteration


@dataclass(frozen=True)
class ExplainResult:
    """Explanations found before the stop criterion, with final bounds."""

    explanations: tuple[Explanation, ...]
    bounds: ProbabilityBounds
    sound: bool


def explain(
    theory: PhaTheory,
    goals: Atom | Iterable[Atom],
    stop: StopCriteria = EXHAUSTIVE,
    frontier_budget: int = DEFAULT_FRONTIER_BUDGET,
) -> ExplainResult:
    """Collect explanations of `goals`, most probable first."""
    search = ExplanationSearch(theory, goals, stop, frontier_budget)
    explanations = tuple(search)
    return ExplainResult(explanations, search.bounds, search.sound)


def minimal_explanations(
    theory: PhaTheory,
    goals: Atom | Iterable[Atom],
    stop: StopCriteria = EXHAUSTIVE,
    frontier_budget: int = DEFAULT_FRONTIER_BUDGET,
) -> list[Explanation]:
    """Explanations no subset of which explains the goals, best first.

    Emission order guarantees a subset is found before any of its strict
    supersets only when every hypothesis probability is strictly below 1,
    so that is required of the theory's declarations.
    """
    for decl in theory.declarations:
        for atom, p in decl.alternatives:
            if p >= 1.0:
                raise EngineError(
                    f"hypothesis {format_atom(atom)} has probability 1; "
                    "minimality by emission order is not meaningful"
                )
    search = ExplanationSearch(theory, goals, stop, frontier_budget)
    out: list[Explanation] = []
    # each kept explanation is filed under one of its hypotheses, so a
    # kept subset of a new explanation sits in the bucket of one of the
    # new explanation's own hypotheses
    buckets: dict[Atom, list[frozenset[Atom]]] = {}
    for expl in search:
        hyps = expl.hypotheses
        if not hyps:
            out.append(expl)
            break  # the goals hold outright: every later explanation is a superset
        if any(any(map(hyps.issuperset, buckets.get(h, ()))) for h in hyps):
            continue
        out.append(expl)
        home = min(hyps, key=lambda h: len(buckets.get(h, ())))
        buckets.setdefault(home, []).append(hyps)
    return out


def probability(
    theory: PhaTheory,
    goals: Atom | Iterable[Atom],
    stop: StopCriteria = EXHAUSTIVE,
    frontier_budget: int = DEFAULT_FRONTIER_BUDGET,
) -> ProbabilityBounds:
    """Bounds on the probability of the goal conjunction.

    Only meaningful for disjoint-stage theories, where explanations are
    mutually exclusive events and the frontier mass is a sound bound on
    what remains.
    """
    if theory.stage != STAGE_DISJOINT:
        raise EngineError(
            "probability requires a disjoint-stage theory; "
            "recompile with the status-complete translation"
        )
    search = ExplanationSearch(theory, goals, stop, frontier_budget)
    for _ in search:
        pass
    b = search.bounds
    if b.upper > 1.0:
        b = ProbabilityBounds(min(b.lower, 1.0), 1.0)
    return b
