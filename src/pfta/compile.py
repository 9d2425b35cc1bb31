"""Translate parametric fault trees into probabilistic Horn theories.

Two translations share the same disjoint declarations, `declarations`
(one per ground basic event, working/failed alternatives at the mission
time), and differ in clause discipline.  Both take each gate's inputs in
the order the model declares them:

* `compile_direct` emits one clause per disjunct, keeping parameters as
  clause variables wherever possible.  Same-head bodies may overlap, so
  explanation probabilities may double-count.
* `compile_disjoint` defines every non-top event as a status-carrying
  predicate whose clauses split the input status space into disjoint
  cells (an ordered expansion with early termination), making explanation
  probabilities directly summable.  The top event keeps a plain failure
  predicate.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Mapping

from .errors import ModelInvalidError
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


def _head_terms(model: PftModel, class_name: str) -> tuple:
    ev = model.event_map[class_name]
    return tuple(Var(p.upper()) for p in ev.formal_params)


def expand_kofn(
    model: PftModel,
    gate: Gate,
    outer: Mapping[str, object] | None = None,
) -> list[tuple[tuple[str, tuple], ...]]:
    """Rewrite a voting gate as a disjunction of replica conjunctions.

    A gate asking for k working replicas out of n fails when n-k+1 fail;
    the result lists one conjunction per subset of that size, subsets in
    lexicographic order of the replica list.
    """
    if gate.kind != "kofn" or len(gate.inputs) != 1 or gate.k is None:
        raise ModelInvalidError([f"gate {gate.output} is not a well-formed KofN gate"])
    if outer is None:
        outer = {p: Var(p.upper()) for p in model.event_map[gate.output].formal_params}
    ref = gate.inputs[0]
    replicas = [(ref.event, args) for args in instantiate(model, ref, outer)]
    q = len(replicas) - gate.k + 1
    if q < 1:
        raise ModelInvalidError([f"KofN gate {gate.output}: k={gate.k} outside 1..{len(replicas)}"])
    return [tuple(group) for group in combinations(replicas, q)]


def declarations(model: PftModel, t: float) -> tuple[DisjointDeclaration, ...]:
    """One declaration per ground basic event, working then failed at time `t`.

    Both translations share these, in model order; they are also what an
    evaluator of either theory is reweighted with at another time.
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


def compile_direct(model: PftModel, t: float) -> PhaTheory:
    """Direct clause translation (stage 1): cut set oriented."""
    require_valid(model)
    clauses: list[Clause] = []
    for ev in model.events:
        if ev.kind == KIND_BASIC:
            continue
        gate = model.gate_map[ev.class_name]
        head = Atom(predicate_name(ev.class_name), _head_terms(model, ev.class_name))
        outer = {p: v for p, v in zip(ev.formal_params, head.args)}
        if gate.kind == "or":
            # one clause per input: its replica indices stay clause variables
            for ref in gate.inputs:
                args = tuple(a if isinstance(a, int) else Var(a.upper()) for a in ref.args)
                clauses.append(Clause(head, (_direct_atom(model, ref.event, args),)))
        elif gate.kind == "and":
            body = tuple(
                _direct_atom(model, ref.event, args)
                for ref in gate.inputs
                for args in instantiate(model, ref, outer)
            )
            clauses.append(Clause(head, body))
        else:  # kofn
            for group in expand_kofn(model, gate, outer):
                body = [_direct_atom(model, event, args) for event, args in group]
                clauses.append(Clause(head, tuple(body)))
    return PhaTheory(tuple(clauses), declarations(model, t), STAGE_DIRECT)


def _split_cells(kind: str, k: int | None, n: int) -> list[tuple[str, list[tuple[int, str]]]]:
    """Disjoint decision cells of a gate over n ordered inputs.

    Each cell is (gate status, [(input index, input status), ...]) where
    the inputs that settle the gate value come first in positional order
    and the remaining decided inputs follow in reverse positional order.
    Together the cells of a gate partition the joint status space of its
    inputs; the failure cells alone cover exactly the failing region.
    """
    cells: list[tuple[str, list[tuple[int, str]]]] = []
    f, w = STATUS_FAILED, STATUS_WORKING
    if kind == "and":
        cells.append((f, [(i, f) for i in range(n)]))
        for i in range(n):
            cells.append((w, [(i, w)] + [(j, f) for j in range(i - 1, -1, -1)]))
    elif kind == "or":
        for i in range(n):
            cells.append((f, [(i, f)] + [(j, w) for j in range(i - 1, -1, -1)]))
        cells.append((w, [(i, w) for i in range(n - 1, -1, -1)]))
    else:  # kofn with threshold k: fails when n-k+1 replicas fail
        q = n - k + 1
        for subset in combinations(range(n), q):
            rest = [j for j in range(max(subset) - 1, -1, -1) if j not in subset]
            cells.append((f, [(i, f) for i in subset] + [(j, w) for j in rest]))
        for subset in combinations(range(n), k):
            rest = [j for j in range(max(subset) - 1, -1, -1) if j not in subset]
            cells.append((w, [(i, w) for i in subset] + [(j, f) for j in rest]))
    return cells


def compile_disjoint(model: PftModel, t: float) -> PhaTheory:
    """Status-complete translation (stage 2): probability oriented."""
    require_valid(model)
    clauses: list[Clause] = []
    for ev in model.events:
        if ev.kind == KIND_BASIC:
            continue
        gate = model.gate_map[ev.class_name]
        head_terms = _head_terms(model, ev.class_name)
        outer = {p: v for p, v in zip(ev.formal_params, head_terms)}
        # each expanded input's status atoms, built once and shared by every cell
        atoms = [
            {st: Atom(predicate_name(ref.event), args + (st,))
             for st in (STATUS_WORKING, STATUS_FAILED)}
            for ref in gate.inputs
            for args in instantiate(model, ref, outer)
        ]
        pred = predicate_name(ev.class_name)
        for status, picks in _split_cells(gate.kind, gate.k, len(atoms)):
            if ev.kind == KIND_TOP:
                if status != STATUS_FAILED:
                    continue
                head = Atom(pred, head_terms)
            else:
                head = Atom(pred, head_terms + (status,))
            clauses.append(Clause(head, tuple(atoms[i][st] for i, st in picks)))
    return PhaTheory(tuple(clauses), declarations(model, t), STAGE_DISJOINT)
