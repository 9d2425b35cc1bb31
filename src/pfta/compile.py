"""Translate parametric fault trees into probabilistic Horn theories.

Two translations share the same disjoint declarations, `declarations`
(one per ground basic event, working/failed alternatives at the mission
time), and differ in clause discipline.  Both take each gate's inputs in
the order the model declares them:

* `compile_direct` emits one clause per disjunct.  Same-head bodies may
  overlap, so explanation probabilities may double-count.
* `compile_disjoint` defines every non-top event as a status-carrying
  predicate whose clauses split the input status space into disjoint
  cells (an ordered expansion with early termination), making explanation
  probabilities directly summable.  The top event keeps a plain failure
  predicate.

Both read every gate as one rule: it fails when at least m =
`Gate.needed(n)` of its n inputs fail.
Both emit one `Cells` record per gate head, holding the head, the inputs'
atoms and m, never a clause per cell: the engine grounds the records and
`serialize` writes text from them; only the theory's `clauses` view, which
no analysis reads, expands them into clauses.
Both walk the gates through `_gates`: an output's parameters stay clause
variables, and every gate kind expands the input it quantifies into replicas.
A gate over `MAX_GATE_CELLS` clauses or `MAX_GATE_ATOMS` body atoms is
refused before its record is built.
Every event atom, the goal `top_atom` included, is written by `event_atom`,
and `ground_events` alone reads a hypothesis back into its ground event.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Iterable

from .errors import TheoryError
from .model import (
    EventNode,
    Gate,
    GroundEvent,
    KIND_BASIC,
    KIND_TOP,
    PftModel,
    failure_probability,
    input_instances,
)
from .pha import (
    Atom,
    Cells,
    DisjointDeclaration,
    PhaTheory,
    STAGE_DIRECT,
    STAGE_DISJOINT,
    STATUS_FAILED,
    STATUS_WORKING,
    Var,
)

# the most clauses a translation emits for one gate, the engine's `DEFAULT_BUDGET` figure
MAX_GATE_CELLS = 10**6
# the most body atoms those clauses hold together: a wide OR's stage-2 cells
# hold quadratically many in few clauses
MAX_GATE_ATOMS = 10**7


def predicate_name(class_name: str) -> str:
    return class_name.lower()


def event_atom(key: tuple[str, tuple], status: str | None = None) -> Atom:
    """The atom of the event instance `key` = (class, arguments), with
    `status` last when it is given: the one writer of an event atom."""
    name, args = key
    return Atom(predicate_name(name), args if status is None else args + (status,))


def top_atom(model: PftModel) -> Atom:
    """The goal: the top event's atom, ground and without a status."""
    return event_atom((model.top.class_name, ()))


def ground_events(model: PftModel, hypotheses: Iterable[Atom]) -> dict[Atom, GroundEvent]:
    """Each hypothesis atom's ground event (class, values), read back from `event_atom`."""
    names = {predicate_name(e.class_name): e.class_name for e in model.events}
    return {a: (names[a.pred], a.args[:-1]) for a in hypotheses}


def declarations(model: PftModel, t: float) -> tuple[DisjointDeclaration, ...]:
    """One declaration per ground basic event, working then failed at time `t`.

    Both translations share these, in model order; at another time they
    replace the probabilities of a stage-2 evaluator's recording.
    """
    decls = []
    for ev in model.events:
        if ev.kind != KIND_BASIC:
            continue
        p = failure_probability(model.rate_map[ev.class_name], t)
        value_sets = [model.param_values(f) for f in ev.formal_params]
        for values in product(*value_sets):
            key = (ev.class_name, values)
            decls.append(DisjointDeclaration(((event_atom(key, STATUS_WORKING), 1.0 - p),
                                              (event_atom(key, STATUS_FAILED), p))))
    return tuple(decls)


def _gate_size(event: EventNode, gate: Gate, n: int, stage: str) -> tuple[int, int]:
    """How many clauses and body atoms a translation emits for a gate over n inputs.

    Stage 1 has a clause of m atoms per m-subset.  In stage 2 the cells
    led by the k-subsets hold k * C(n+1, k+1) atoms, since a cell whose
    lead ends at position p (from 1) holds p.  A non-top gate adds the
    working cells led by the w-subsets, w = n-m+1; for an OR (w = n) that
    is one cell of n atoms, the one `compile_disjoint` writes.
    """
    m = gate.needed(n)
    cells = comb(n, m)
    if stage == STAGE_DIRECT:
        return cells, cells * m
    atoms = m * comb(n + 1, m + 1)
    if event.kind != KIND_TOP:
        w = n - m + 1
        cells, atoms = cells + comb(n, w), atoms + w * comb(n + 1, w + 1)
    return cells, atoms


def _gates(model: PftModel, stage: str) -> list[tuple]:
    """Each gate in model order as (output event, gate, head terms, inputs):
    the output's parameters as clause variables, and the gate's
    `input_instances` under them.

    Every gate's clauses and body atoms are counted first, so a gate over
    `MAX_GATE_CELLS` or `MAX_GATE_ATOMS` is refused before any record is built.
    """
    gates = []
    for ev in model.events:
        if ev.kind == KIND_BASIC:
            continue
        gate = model.gate_map[ev.class_name]
        head_terms = tuple(Var(p.upper()) for p in ev.formal_params)
        inputs = input_instances(model, gate, dict(zip(ev.formal_params, head_terms)))
        cells, atoms = _gate_size(ev, gate, len(inputs), stage)
        for size, unit, limit in ((cells, "clauses", MAX_GATE_CELLS),
                                  (atoms, "body atoms", MAX_GATE_ATOMS)):
            if size > limit:
                raise TheoryError(
                    f"gate {ev.class_name} needs {size} {unit} in the {stage} translation, "
                    f"over the limit of {limit} per gate"
                )
        gates.append((ev, gate, head_terms, inputs))
    return gates


def compile_direct(model: PftModel, t: float) -> PhaTheory:
    """Direct clause translation (stage 1): cut set oriented.

    A gate needing m failures gets one clause per m-subset of its inputs,
    in `itertools.combinations` order: a `Cells` record with leads and
    no trails.  Raises `TheoryError` for a gate over `MAX_GATE_CELLS`
    clauses or `MAX_GATE_ATOMS` body atoms.
    """
    rules: list[Cells] = []
    for ev, gate, head_terms, inputs in _gates(model, STAGE_DIRECT):
        # each replica's atom is built once and shared by every cell; basics carry `f`
        atoms = tuple(event_atom(key, STATUS_FAILED if model.event_map[key[0]].kind == KIND_BASIC
                                 else None) for key in inputs)
        rules.append(Cells(event_atom((ev.class_name, head_terms)), atoms, (),
                           gate.needed(len(atoms))))
    return PhaTheory(tuple(rules), declarations(model, t), STAGE_DIRECT)


def compile_disjoint(model: PftModel, t: float) -> PhaTheory:
    """Status-complete translation (stage 2): probability oriented.

    A gate needing m of its n inputs to fail gets a failure cell per
    m-subset lead, then a working cell per (n-m+1)-subset lead, except
    that an OR has one working cell, which reads every input working from
    the last and has no trail: the lead of all n inputs reversed.  Each
    head's cells are one `Cells` record.  Together the cells partition
    the joint status space of the inputs; the failure cells alone cover
    exactly the failing region.  The top event keeps only its failure
    cells.  Raises `TheoryError` for a gate over `MAX_GATE_CELLS` clauses
    or `MAX_GATE_ATOMS` body atoms.
    """
    rules: list[Cells] = []
    for ev, gate, head_terms, inputs in _gates(model, STAGE_DISJOINT):
        # each expanded input's atom at each status, built once and shared by every cell
        failed = tuple(event_atom(key, STATUS_FAILED) for key in inputs)
        working = tuple(event_atom(key, STATUS_WORKING) for key in inputs)
        head = (ev.class_name, head_terms)
        n, m = len(inputs), gate.needed(len(inputs))
        if ev.kind == KIND_TOP:
            # the top event keeps only its failure cells, under a plain head
            rules.append(Cells(event_atom(head), failed, working, m))
            continue
        rules.append(Cells(event_atom(head, STATUS_FAILED), failed, working, m))
        if gate.kind == "or":
            rules.append(Cells(event_atom(head, STATUS_WORKING), working[::-1], (), n))
        else:
            rules.append(Cells(event_atom(head, STATUS_WORKING), working, failed, n - m + 1))
    return PhaTheory(tuple(rules), declarations(model, t), STAGE_DISJOINT)
