"""Parametric fault tree model: typed events, gates, replication, rates.

A model is a bipartite DAG of event classes and gates.  Event classes may
carry formal parameters ranging over finite integer types; a gate's
`forall` quantifies a parameter at its input class, which then stands for
one replica per value (a replicator).  Basic event classes fail
independently with exponential rates; the unique top event is ground.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping

from .errors import ModelInvalidError
from .graph import CycleError, postorder

GateKind = str  # "and" | "or" | "kofn"

KIND_BASIC = "basic"
KIND_INTERNAL = "internal"
KIND_TOP = "top"

# a ground event instance: (class name, parameter values)
GroundEvent = tuple[str, tuple[int, ...]]


def format_instance(key: GroundEvent) -> str:
    name, values = key
    if not values:
        return name
    return f"{name}({','.join(str(v) for v in values)})"


@dataclass(frozen=True)
class ParamType:
    """A finite set of integer values usable as replica indices."""

    name: str
    values: tuple[int, ...]


@dataclass(frozen=True)
class Parameter:
    """A named replica index, quantified by exactly one gate (`Gate.forall`)."""

    name: str
    type_name: str


@dataclass(frozen=True)
class EventNode:
    """An event class; replicas are distinguished by parameter values."""

    class_name: str
    kind: str  # KIND_BASIC | KIND_INTERNAL | KIND_TOP
    formal_params: tuple[str, ...] = ()


@dataclass(frozen=True)
class EventRef:
    """A gate input: an event class applied to parameter names or constants."""

    event: str
    args: tuple[int | str, ...] = ()  # int = constant, str = parameter name


@dataclass(frozen=True)
class Gate:
    """One gate; `output` is defined in terms of the ordered `inputs`."""

    kind: GateKind
    output: str
    inputs: tuple[EventRef, ...]
    k: int | None = None  # voting threshold, kind == "kofn" only
    # parameters this gate quantifies at its single input; the one record
    # of where a parameter is declared (`PftModel.declared_at`)
    forall: tuple[str, ...] = ()

    def needed(self, n: int) -> int:
        """How many of n inputs must fail for the gate to fail: all of them
        for AND, one for OR, n-k+1 for `vote(k:n)`."""
        if self.kind == "and":
            return n
        if self.kind == "or":
            return 1
        return n - self.k + 1


@dataclass(frozen=True)
class FailureRate:
    """Constant failure rate (per hour) of a basic event class."""

    event_class: str
    lam: float


@dataclass(frozen=True)
class PftModel:
    """Immutable parametric fault tree, well-formed by construction.

    Building one checks its structure and raises `ModelInvalidError`
    listing every violation, so each analysis may take a model as valid.
    """

    name: str
    types: tuple[ParamType, ...]
    params: tuple[Parameter, ...]
    events: tuple[EventNode, ...]
    gates: tuple[Gate, ...]
    rates: tuple[FailureRate, ...]

    def __post_init__(self) -> None:
        violations = _violations(self)
        if violations:
            raise ModelInvalidError(violations)

    @cached_property
    def type_map(self) -> dict[str, ParamType]:
        return {t.name: t for t in self.types}

    @cached_property
    def param_map(self) -> dict[str, Parameter]:
        return {p.name: p for p in self.params}

    @cached_property
    def event_map(self) -> dict[str, EventNode]:
        return {e.class_name: e for e in self.events}

    @cached_property
    def rate_map(self) -> dict[str, float]:
        return {r.event_class: r.lam for r in self.rates}

    @cached_property
    def gate_map(self) -> dict[str, Gate]:
        """Gate keyed by its output class; at most one per class."""
        return {g.output: g for g in self.gates}

    @cached_property
    def declared_at(self) -> dict[str, str]:
        """Each quantified parameter's replicator: the single input of the
        first gate whose `forall` names it."""
        out: dict[str, str] = {}
        for g in self.gates:
            if len(g.inputs) == 1:
                for p in g.forall:
                    out.setdefault(p, g.inputs[0].event)
        return out

    @cached_property
    def symmetric_types(self) -> frozenset[str]:
        """Types whose values are interchangeable: no event reference names
        one of their constants.  Every replicator ranges over a whole type
        and rates are per class, so permuting such a type's values maps the
        ground tree onto itself."""
        named = {
            self.param_map[formal].type_name
            for g in self.gates
            for ref in g.inputs
            for arg, formal in zip(ref.args, self.event_map[ref.event].formal_params)
            if isinstance(arg, int)
        }
        return frozenset(t.name for t in self.types) - named

    @cached_property
    def top(self) -> EventNode:
        return next(e for e in self.events if e.kind == KIND_TOP)

    def param_values(self, param_name: str) -> tuple[int, ...]:
        return self.type_map[self.param_map[param_name].type_name].values


def failure_probability(lam: float, t: float) -> float:
    """Failure probability 1 - exp(-lam*t) of an exponential component."""
    for name, value in (("failure rate", lam), ("mission time", t)):
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    # 0.0 - x, not -x: a zero rate or time gives +0.0, never -0.0
    return 0.0 - math.expm1(-lam * t)


def _violations(model: PftModel) -> list[str]:
    """Structural well-formedness of a model under construction, as
    human-readable violations."""
    out: list[str] = []
    classes = {e.class_name for e in model.events}

    for t in model.types:
        if not t.values:
            out.append(f"type {t.name} is empty")
        if len(set(t.values)) != len(t.values):
            out.append(f"type {t.name} has repeated values")

    for p in model.params:
        if p.type_name not in model.type_map:
            out.append(f"parameter {p.name} has unknown type {p.type_name}")

    tops = [e for e in model.events if e.kind == KIND_TOP]
    if len(tops) != 1:
        out.append(f"model has {len(tops)} top events, expected exactly 1")
    lowered: dict[str, str] = {}
    for e in model.events:
        low = e.class_name.lower()
        if low in lowered:
            out.append(
                f"event classes {lowered[low]} and {e.class_name} collide "
                "case-insensitively"
            )
        lowered[low] = e.class_name
    gate_outputs = [g.output for g in model.gates]
    if len(set(gate_outputs)) != len(gate_outputs):
        dups = sorted({n for n in gate_outputs if gate_outputs.count(n) > 1})
        out.append("multiple gates share an output: " + ", ".join(dups))
    input_classes = {ref.event for g in model.gates for ref in g.inputs}

    for e in model.events:
        for p in e.formal_params:
            if p not in model.param_map:
                out.append(f"event {e.class_name} uses undeclared parameter {p}")
        if e.kind == KIND_BASIC:
            if e.class_name in model.gate_map:
                out.append(f"basic event {e.class_name} is the output of a gate")
            if e.class_name not in model.rate_map:
                out.append(f"missing failure rate for {e.class_name}")
        else:
            if e.class_name not in model.gate_map:
                out.append(f"event {e.class_name} is not the output of any gate")
            if e.class_name in model.rate_map:
                out.append(f"non-basic event {e.class_name} has a failure rate")
        if e.kind == KIND_TOP:
            if e.formal_params:
                out.append(f"top event {e.class_name} must be ground")
            if e.class_name in input_classes:
                out.append(f"top event {e.class_name} is an input of a gate")

    for r in model.rates:
        if r.event_class not in classes:
            out.append(f"failure rate given for unknown event {r.event_class}")
        if r.lam < 0:
            out.append(f"negative failure rate for {r.event_class}")
        elif not math.isfinite(r.lam):
            out.append(f"non-finite failure rate for {r.event_class}")

    # every parameter is declared by the one gate that quantifies it
    quantifiers = Counter(p for g in model.gates for p in g.forall)
    for p in model.params:
        at = model.declared_at.get(p.name)
        if at is None:
            out.append(f"parameter {p.name} is never declared at a replicator")
        elif quantifiers[p.name] > 1:
            out.append(f"parameter {p.name} is declared at multiple events")
        elif at in classes and p.name not in model.event_map[at].formal_params:
            out.append(
                f"parameter {p.name} declared at {at} "
                "is not one of its formal parameters"
            )

    # the event graph: a class's inputs are the declared classes its gate reads
    def inputs(name: str) -> list[str]:
        gate = model.gate_map.get(name)
        return [ref.event for ref in gate.inputs if ref.event in classes] if gate else []

    try:
        for _ in postorder((e.class_name for e in model.events), inputs):
            pass
    except CycleError:
        out.append("event graph contains a cycle")
        return out  # scope checks below assume an acyclic graph

    for g in model.gates:
        out.extend(_check_gate(model, g, classes))

    # scope: a parameter may only reach descendants of its declaring node
    for p in model.params:
        at = model.declared_at.get(p.name)
        if at not in classes:
            continue
        scope = set(postorder([at], inputs))
        holders = [e.class_name for e in model.events if p.name in e.formal_params]
        # a gate may name the parameter in the ref that introduces it (forall)
        holders.extend(
            g.output for g in model.gates
            if p.name not in g.forall and any(p.name in ref.args for ref in g.inputs)
        )
        if any(name not in scope for name in holders):
            out.append(f"parameter {p.name} used outside the scope of {at}")
    return out


def _check_gate(model: PftModel, g: Gate, classes: set[str]) -> Iterable[str]:
    out: list[str] = []
    if g.output not in classes:
        out.append(f"gate output {g.output} is not a declared event")
        return out
    outer = model.event_map[g.output].formal_params
    for ref in g.inputs:
        if ref.event not in classes:
            out.append(f"gate {g.output} references unknown event {ref.event}")
            continue
        ev = model.event_map[ref.event]
        if len(ref.args) != len(ev.formal_params):
            out.append(
                f"gate {g.output}: {ref.event} takes "
                f"{len(ev.formal_params)} parameters, got {len(ref.args)}"
            )
            continue
        for pos, (arg, formal) in enumerate(zip(ref.args, ev.formal_params)):
            ftype = model.param_map[formal].type_name if formal in model.param_map else None
            if isinstance(arg, int):
                if ftype in model.type_map and arg not in model.type_map[ftype].values:
                    out.append(
                        f"gate {g.output}: constant {arg} is not a value of "
                        f"type {ftype} (position {pos + 1} of {ref.event})"
                    )
            else:
                if arg not in model.param_map:
                    out.append(f"gate {g.output} uses undeclared parameter {arg}")
                    continue
                atype = model.param_map[arg].type_name
                if ftype is not None and atype != ftype:
                    out.append(
                        f"gate {g.output}: parameter {arg} of type {atype} "
                        f"passed where {ref.event} expects {ftype}"
                    )
                # a parameter declared at the input itself is legal in any
                # gate: every gate kind expands the input it quantifies
                if arg not in outer and model.declared_at.get(arg) != ref.event:
                    out.append(
                        f"gate {g.output} uses parameter {arg} that is neither "
                        f"a formal of {g.output} nor declared at {ref.event}"
                    )
    if g.kind == "kofn":
        ref = g.inputs[0] if len(g.inputs) == 1 else None
        declared = [] if ref is None or ref.event not in classes else [
            a for a in ref.args
            if isinstance(a, str) and model.declared_at.get(a) == ref.event
        ]
        if not declared:
            out.append(f"KofN gate {g.output} must have exactly one replicator input")
        else:
            n = 1
            for a in declared:
                param = model.param_map.get(a)
                if param is None or param.type_name not in model.type_map:
                    n = 0
                    break
                n *= len(model.type_map[param.type_name].values)
            if n and (g.k is None or not 1 <= g.k <= n):
                out.append(f"KofN gate {g.output}: k={g.k} outside 1..{n}")
    elif g.k is not None:
        out.append(f"gate {g.output} ({g.kind}) must not carry a voting threshold")
    if g.forall:
        if len(g.inputs) != 1:
            out.append(f"gate {g.output} quantifies over a non-unique input")
        else:
            for pname in g.forall:
                if model.declared_at.get(pname) != g.inputs[0].event:
                    out.append(
                        f"gate {g.output} quantifies {pname}, which is not "
                        f"declared at {g.inputs[0].event}"
                    )
    if not g.inputs:
        out.append(f"gate {g.output} has no inputs")
    return out


def instantiate(
    model: PftModel, ref: EventRef, env: Mapping[str, object]
) -> list[tuple]:
    """Argument tuples of a gate input's instances under `env`.

    `env` maps a parameter to a value or to a clause `Var`; every other
    parameter of the reference is a replica index and is enumerated over
    its type.  Instances follow the Cartesian product of those types in
    the order the parameters first appear in the reference.
    """
    free: list[str] = []
    for arg in ref.args:
        if isinstance(arg, str) and arg not in env and arg not in free:
            free.append(arg)
    out = []
    for combo in product(*(model.param_values(p) for p in free)):
        bind = dict(zip(free, combo))
        out.append(tuple(
            a if isinstance(a, int) else bind[a] if a in bind else env[a]
            for a in ref.args
        ))
    return out
