"""One invariant for every model that `PftModel` accepts: it is either
refused when built, or both text formats write it back unchanged and
every analysis agrees with exhaustive enumeration."""

from __future__ import annotations

from itertools import product

import pytest

from conftest import DATA
from pfta.compile import compile_direct, compile_disjoint
from pfta.dsl import parse_model, serialize_model
from pfta.errors import ModelInvalidError
from pfta.measures import basic_event_posteriors, top_event, unreliability_curve
from pfta.model import (
    EventNode,
    EventRef,
    FailureRate,
    Gate,
    KIND_BASIC,
    KIND_TOP,
    Parameter,
    ParamType,
    PftModel,
    format_instance,
)
from pfta.oracle import top_enumeration, unfold
from pfta.pha import STAGE_DIRECT, STAGE_DISJOINT, parse_theory, serialize
from randmodels import CASE_PARAMETERS, EDGE_MODELS, random_model, shared_model

T = 1e4
_TYPE = ParamType("T", (1, 2))


def _over_x(name: str = "x", types=(_TYPE,), type_name: str = "T", cls: str = "X",
            args=("a", "b")) -> PftModel:
    """`top TE = and forall(a, b) X(args)` over `X(a:T, b:T)`, hand-built."""
    return PftModel(
        name, types, (Parameter("a", type_name), Parameter("b", type_name)),
        (EventNode(cls, KIND_BASIC, ("a", "b")), EventNode("TE", KIND_TOP)),
        (Gate("and", "TE", (EventRef(cls, args),), forall=("a", "b")),),
        (FailureRate(cls, 1e-4),),
    )


def _text(text: str, t: float = T):
    return lambda: (parse_model(text), t)


CORPUS = {
    "multiprocessor": _text((DATA / "multiprocessor.pft").read_text()),
    "two_input_vote": _text((DATA / "two_input_vote.pft").read_text()),
    **{name: _text(text) for name, text in EDGE_MODELS.items()},
    **{f"rand{seed}": (lambda seed=seed: random_model(seed)) for seed in range(60)},
    **{f"shared{seed}": (lambda seed=seed: shared_model(seed)) for seed in range(60)},
    "case-parameters": _text(CASE_PARAMETERS),
    "forall-away-from-its-formal": lambda: (_over_x(args=("a", "a")), T),
    "class-not-an-identifier": lambda: (_over_x(cls="A b"), T),
    "model-name-not-an-identifier": lambda: (_over_x(name="my model"), T),
    "type-named-like-a-class": lambda: (_over_x(types=(ParamType("X", (1, 2)),),
                                                type_name="X"), T),
    "type-declared-twice": lambda: (_over_x(types=(_TYPE, ParamType("T", (1, 2, 3)))), T),
}


def _instances(model: PftModel) -> list[tuple]:
    return [(ev.class_name, values) for ev in model.events if ev.kind == KIND_BASIC
            for values in product(*map(model.param_values, ev.formal_params))]


@pytest.mark.parametrize("name", CORPUS)
def test_an_accepted_model_round_trips_and_agrees_with_enumeration(name):
    try:
        model, t = CORPUS[name]()
    except ModelInvalidError:
        return
    assert parse_model(serialize_model(model)) == model
    for compile_theory, stage in ((compile_direct, STAGE_DIRECT),
                                  (compile_disjoint, STAGE_DISJOINT)):
        theory = compile_theory(model, t)
        assert parse_theory(serialize(theory), stage) == theory
    exact, _, _ = top_enumeration(unfold(model, t))
    assert unreliability_curve(model, [t])[0].bounds.lower == pytest.approx(exact, abs=1e-9)
    # a row stands for the instance it names, or for every instance of its class
    top, instances = top_event(model, t), _instances(model)
    for label, value in basic_event_posteriors(model, t):
        keys = ([k for k in instances if format_instance(k) == label]
                or [k for k in instances if k[0] == label.split("(")[0]])
        assert keys
        for key in keys:
            assert top.posterior([key]) == pytest.approx(value, abs=1e-12), (label, key)
