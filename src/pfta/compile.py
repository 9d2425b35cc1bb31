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

Both read every gate as one rule: it fails when at least m of its n
inputs fail, with m = n for AND, 1 for OR and n-k+1 for `vote(k:n)`.
Both walk the gates through `_gates`: an output's parameters stay clause
variables, and every gate kind expands the input it quantifies into replicas.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator, Sequence

from .model import (
    Gate,
    KIND_BASIC,
    KIND_TOP,
    PftModel,
    failure_probability,
    instantiate,
    require_valid,
)
from .pha import (
    Atom,
    Clause,
    DisjointDeclaration,
    PhaTheory,
    STAGE_DIRECT,
    STAGE_DISJOINT,
    STATUS_FAILED,
    STATUS_WORKING,
    Var,
)


def predicate_name(class_name: str) -> str:
    return class_name.lower()


def _needed(gate: Gate, n: int) -> int:
    """How many of the gate's n inputs must fail for it to fail."""
    if gate.kind == "and":
        return n
    if gate.kind == "or":
        return 1
    return n - gate.k + 1


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
        pred = predicate_name(ev.class_name)
        value_sets = [model.param_values(f) for f in ev.formal_params]
        for values in product(*value_sets):
            decls.append(
                DisjointDeclaration(
                    (
                        (Atom(pred, values + (STATUS_WORKING,)), 1.0 - p),
                        (Atom(pred, values + (STATUS_FAILED,)), p),
                    )
                )
            )
    return tuple(decls)


def _direct_atom(model: PftModel, event: str, args: tuple) -> Atom:
    """Atom for an instance in the direct translation; basics carry `f`."""
    if model.event_map[event].kind == KIND_BASIC:
        return Atom(predicate_name(event), args + (STATUS_FAILED,))
    return Atom(predicate_name(event), args)


def _gates(model: PftModel) -> Iterator[tuple]:
    """Each gate in model order as (output event, gate, head terms, inputs):
    the output's parameters as clause variables, and the (class name,
    arguments) of every instance `instantiate` gives of each input."""
    for ev in model.events:
        if ev.kind == KIND_BASIC:
            continue
        gate = model.gate_map[ev.class_name]
        head_terms = tuple(Var(p.upper()) for p in ev.formal_params)
        outer = dict(zip(ev.formal_params, head_terms))
        yield ev, gate, head_terms, [
            (ref.event, args) for ref in gate.inputs for args in instantiate(model, ref, outer)
        ]


def compile_direct(model: PftModel, t: float) -> PhaTheory:
    """Direct clause translation (stage 1): cut set oriented."""
    require_valid(model)
    clauses: list[Clause] = []
    for ev, gate, head_terms, inputs in _gates(model):
        head = Atom(predicate_name(ev.class_name), head_terms)
        # each replica's atom is built once and shared by every clause
        atoms = [_direct_atom(model, event, args) for event, args in inputs]
        clauses.extend(Clause(head, body)
                       for body in combinations(atoms, _needed(gate, len(atoms))))
    return PhaTheory(tuple(clauses), declarations(model, t), STAGE_DIRECT)


def _split_cells(gate: Gate, n: int) -> Iterator[tuple[str, Sequence[int], Sequence[int]]]:
    """Disjoint decision cells of a gate over n ordered inputs.

    Each cell is (gate status, lead, trail): the lead inputs, at the gate's
    status, settle its value; the trail inputs, at the opposite status,
    are those before the last lead input and outside the lead, in reverse
    positional order.  A gate needing m failures has a failure cell per
    m-subset of its inputs and a working cell per (n-m+1)-subset, each
    lead in positional order, except that an OR's one working cell scans
    its inputs from the last.  Together the cells partition the joint
    status space of the inputs; the failure cells, which come first,
    alone cover exactly the failing region.
    """
    m = _needed(gate, n)
    working = [range(n - 1, -1, -1)] if gate.kind == "or" else combinations(range(n), n - m + 1)
    for status, leads in ((STATUS_FAILED, combinations(range(n), m)), (STATUS_WORKING, working)):
        for lead in leads:
            yield status, lead, [j for j in range(lead[-1] - 1, -1, -1) if j not in lead]


def compile_disjoint(model: PftModel, t: float) -> PhaTheory:
    """Status-complete translation (stage 2): probability oriented."""
    require_valid(model)
    clauses: list[Clause] = []
    for ev, gate, head_terms, inputs in _gates(model):
        # each expanded input's atom at each status, built once and shared by every cell
        atoms = {st: [Atom(predicate_name(event), args + (st,)) for event, args in inputs]
                 for st in (STATUS_WORKING, STATUS_FAILED)}
        opposite = {STATUS_WORKING: atoms[STATUS_FAILED], STATUS_FAILED: atoms[STATUS_WORKING]}
        pred = predicate_name(ev.class_name)
        if ev.kind == KIND_TOP:
            # the top event keeps only its failure cells, under a plain head
            heads = {STATUS_FAILED: Atom(pred, head_terms)}
        else:
            heads = {st: Atom(pred, head_terms + (st,)) for st in atoms}
        for status, lead, trail in _split_cells(gate, len(inputs)):
            if status not in heads:
                break
            same, other = atoms[status], opposite[status]
            body = [same[i] for i in lead] + [other[i] for i in trail]
            clauses.append(Clause(heads[status], tuple(body)))
    return PhaTheory(tuple(clauses), declarations(model, t), STAGE_DISJOINT)
