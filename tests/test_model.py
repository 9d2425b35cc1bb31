from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations

import pytest

from pfta.dsl import parse_model
from pfta.model import (
    EventNode,
    EventRef,
    FailureRate,
    Gate,
    KIND_BASIC,
    KIND_INTERNAL,
    KIND_TOP,
    Parameter,
    ParamType,
    PftModel,
    failure_probability,
    format_instance,
    input_instances,
    instantiate,
)
from pfta.errors import ModelInvalidError
from pfta.oracle import unfold
from pfta.pha import Var
from randmodels import CONSTANT_OF_T, CONSTANT_OF_U, random_model


def test_failure_probability_matches_closed_form():
    assert failure_probability(8e-5, 1e4) == pytest.approx(1 - math.exp(-0.8))
    assert failure_probability(3e-8, 1e4) == pytest.approx(1 - math.exp(-3e-4))


def test_failure_probability_edge_values():
    assert failure_probability(0.0, 1e4) == 0.0
    assert failure_probability(1e-5, 0.0) == 0.0
    assert 0.0 < failure_probability(1e-9, 1.0) < 1e-8


def test_failure_probability_rejects_negative_inputs():
    with pytest.raises(ValueError):
        failure_probability(-1e-5, 10.0)
    with pytest.raises(ValueError):
        failure_probability(1e-5, -10.0)


@pytest.mark.parametrize("lam, t", [
    (math.nan, 10.0), (math.inf, 10.0), (1e-5, math.nan), (1e-5, math.inf), (0.0, math.inf),
])
def test_failure_probability_rejects_non_finite_inputs(lam, t):
    with pytest.raises(ValueError, match="must be finite"):
        failure_probability(lam, t)


def _rejected(build, *args, **kwargs) -> list[str]:
    """The violations that `build(*args, **kwargs)` raises."""
    with pytest.raises(ModelInvalidError) as err:
        build(*args, **kwargs)
    return err.value.violations


def test_fixture_model_is_valid(model):
    # building it again from its fields runs the model check again
    assert replace(model) == model


def test_validate_flags_cycle():
    assert _rejected(
        parse_model,
        "type T={1}\nbasic B rate 1e-3\n"
        "event A = or(C)\nevent C = or(A)\ntop TE = or(B, A)",
    ) == ["event graph contains a cycle"]


def test_validate_counts_top_events():
    assert _rejected(parse_model, "basic B rate 1e-3") == [
        "model has 0 top events, expected exactly 1",
    ]
    assert _rejected(parse_model, "basic B rate 1e-3\ntop TE = or(B)\ntop TF = or(B)") == [
        "model has 2 top events, expected exactly 1",
    ]


def test_validate_flags_negative_rate():
    assert _rejected(parse_model, "basic B rate -2\ntop TE = or(B)") == [
        "negative failure rate for B",
    ]


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_validate_flags_non_finite_rates(rate):
    assert _rejected(
        parse_model, f"basic B rate {rate}\nbasic C rate 1e-3\ntop TE = or(B, C)"
    ) == ["non-finite failure rate for B"]


def test_validate_flags_kofn_k_out_of_range():
    assert _rejected(
        parse_model,
        "type T={1,2,3}\nbasic A(i:T) rate 1e-3\n"
        "top TE = vote(4:3) forall(i:T) A(i)",
    ) == ["KofN gate TE: k=4 outside 1..3"]


def test_validate_flags_two_input_kofn():
    assert _rejected(
        parse_model, "basic A rate 1e-3\nbasic B rate 1e-3\ntop TE = vote(2:2)(A, B)"
    ) == ["KofN gate TE must have exactly one replicator input"]


def test_validate_flags_parameter_used_outside_scope():
    assert _rejected(
        parse_model,
        "type T={1,2}\nbasic A(i:T) rate 1e-3\n"
        "event E = and forall(i:T) A(i)\nevent F = or(A(i))\ntop TE = or(E, F)",
    ) == ["parameter i used outside the scope of A"]


def test_validate_flags_undeclared_parameter_directly():
    # built by hand: the text parser would reject this earlier
    assert _rejected(
        PftModel,
        name="broken",
        types=(ParamType("T", (1, 2)),),
        params=(),
        events=(
            EventNode("A", KIND_BASIC, ("i",)),
            EventNode("TE", KIND_TOP),
        ),
        gates=(Gate("or", "TE", (EventRef("A", ("i",)),)),),
        rates=(FailureRate("A", 1e-3),),
    ) == [
        "event A uses undeclared parameter i",
        "gate TE uses undeclared parameter i",
    ]


def _quantified(*gates: Gate) -> dict:
    """The fields of a hand-built model in which `gates` (over A(i), C(i))
    feed the top."""
    return dict(
        name="declarations",
        types=(ParamType("T", (1, 2)),),
        params=(Parameter("i", "T"),),
        events=(
            EventNode("A", KIND_BASIC, ("i",)),
            EventNode("C", KIND_BASIC, ("i",)),
            *(EventNode(g.output, KIND_INTERNAL) for g in gates),
            EventNode("TE", KIND_TOP),
        ),
        gates=(*gates, Gate("or", "TE", tuple(EventRef(g.output) for g in gates))),
        rates=(FailureRate("A", 1e-3), FailureRate("C", 1e-3)),
    )


def test_validate_flags_a_parameter_no_gate_quantifies():
    assert _rejected(PftModel, **_quantified(Gate("or", "E", (EventRef("A", ("i",)),)))) == [
        "parameter i is never declared at a replicator",
        "gate E uses parameter i that is neither a formal of E nor declared at A",
    ]


def test_validate_flags_a_parameter_two_gates_quantify():
    assert _rejected(PftModel, **_quantified(
        Gate("and", "E", (EventRef("A", ("i",)),), forall=("i",)),
        Gate("and", "F", (EventRef("A", ("i",)),), forall=("i",)),
    )) == [
        "parameter i is declared at multiple events",
        "parameter i used outside the scope of A",  # C(i) holds it too
    ]


def test_validate_flags_a_gate_quantifying_a_parameter_declared_elsewhere():
    # i is declared at A, by the first gate that quantifies it
    assert _rejected(PftModel, **_quantified(
        Gate("and", "E", (EventRef("A", ("i",)),), forall=("i",)),
        Gate("and", "F", (EventRef("C", ("i",)),), forall=("i",)),
    )) == [
        "parameter i is declared at multiple events",
        "gate F uses parameter i that is neither a formal of F nor declared at C",
        "gate F quantifies i, which is not declared at C",
        "parameter i used outside the scope of A",
    ]


def test_building_an_invalid_model_raises_with_all_violations():
    with pytest.raises(ModelInvalidError) as err:
        parse_model("basic B rate -2")
    assert err.value.violations == [
        "model has 0 top events, expected exactly 1",
        "negative failure rate for B",
    ]
    assert str(err.value) == (
        "invalid model: model has 0 top events, expected exactly 1; negative failure rate for B"
    )


# A valid hand-built model: E = and forall(i:T) A(i), TE = or(E, B).
# Each case below replaces some of its fields to plant one defect.
_TYPE = ParamType("T", (1, 2))
_I = Parameter("i", "T")
_A, _B = EventNode("A", KIND_BASIC, ("i",)), EventNode("B", KIND_BASIC)
_E, _TE = EventNode("E", KIND_INTERNAL), EventNode("TE", KIND_TOP)
_GATE_E = Gate("and", "E", (EventRef("A", ("i",)),), forall=("i",))
_GATE_TE = Gate("or", "TE", (EventRef("E"), EventRef("B")))
_RATES = (FailureRate("A", 1e-3), FailureRate("B", 1e-3))
_VALID = dict(
    name="planted",
    types=(_TYPE,),
    params=(_I,),
    events=(_A, _B, _E, _TE),
    gates=(_GATE_E, _GATE_TE),
    rates=_RATES,
)


def _top_over(*refs: EventRef, **kwargs) -> Gate:
    return Gate("or", "TE", (EventRef("E"), EventRef("B"), *refs), **kwargs)


@pytest.mark.parametrize("defect, violations", [
    (dict(types=(_TYPE, ParamType("U", ()))), ["type U is empty"]),
    (dict(types=(_TYPE, ParamType("U", (1, 1)))), ["type U has repeated values"]),
    (dict(params=(_I, Parameter("j", "U"))), [
        "parameter j has unknown type U",
        "parameter j is never declared at a replicator",
    ]),
    (dict(gates=(_GATE_E, _GATE_TE, Gate("or", "E", (EventRef("B"),)))),
     ["multiple gates share an output: E"]),
    (dict(gates=(_GATE_E, _GATE_TE, Gate("or", "B", (EventRef("E"),)))),
     ["basic event B is the output of a gate"]),
    (dict(rates=_RATES[:1]), ["missing failure rate for B"]),
    (dict(events=(_A, _B, _E, _TE, EventNode("F", KIND_INTERNAL))),
     ["event F is not the output of any gate"]),
    (dict(rates=(*_RATES, FailureRate("E", 1e-3))), ["non-basic event E has a failure rate"]),
    (dict(rates=(*_RATES, FailureRate("Z", 1e-3))),
     ["failure rate given for unknown event Z"]),
    (dict(events=(_A, _B, _E, EventNode("TE", KIND_TOP, ("i",)))), [
        "top event TE must be ground",
        "parameter i used outside the scope of A",
    ]),
    (dict(gates=(Gate("and", "E", (EventRef("B"),), forall=("i",)), _GATE_TE)), [
        "parameter i declared at B is not one of its formal parameters",
        "parameter i used outside the scope of B",
    ]),
    (dict(gates=(_GATE_E, _GATE_TE, Gate("or", "X", (EventRef("B"),)))),
     ["gate output X is not a declared event"]),
    (dict(gates=(_GATE_E, _top_over(EventRef("Z")))), ["gate TE references unknown event Z"]),
    (dict(gates=(_GATE_E, _top_over(EventRef("A")))), ["gate TE: A takes 1 parameters, got 0"]),
    (dict(gates=(_GATE_E, _top_over(EventRef("A", (9,))))),
     ["gate TE: constant 9 is not a value of type T (position 1 of A)"]),
    (dict(
        types=(_TYPE, ParamType("U", (1, 2))),
        params=(_I, Parameter("j", "U")),
        events=(_A, _B, _E, EventNode("F", KIND_INTERNAL, ("j",)),
                EventNode("G", KIND_INTERNAL), _TE),
        gates=(_GATE_E, Gate("or", "F", (EventRef("A", ("j",)),)),
               Gate("and", "G", (EventRef("F", ("j",)),), forall=("j",)),
               _top_over(EventRef("G"))),
    ), ["gate F: parameter j of type U passed where A expects T"]),
    (dict(params=(Parameter("i", "U"),), gates=(_GATE_E, _top_over(EventRef("A", (1,))))),
     ["parameter i has unknown type U"]),
    (dict(params=(Parameter("i", "U"),),
          gates=(Gate("kofn", "E", (EventRef("A", ("i",)),), k=1, forall=("i",)), _GATE_TE)),
     ["parameter i has unknown type U"]),
    (dict(gates=(_GATE_E, _top_over(k=1))), ["gate TE (or) must not carry a voting threshold"]),
    (dict(gates=(Gate("and", "E", (EventRef("A", ("i",)), EventRef("B")), forall=("i",)),
                 _GATE_TE)), [
        "parameter i is never declared at a replicator",
        "gate E uses parameter i that is neither a formal of E nor declared at A",
        "gate E quantifies over a non-unique input",
    ]),
    (dict(events=(_A, _B, _E, EventNode("F", KIND_INTERNAL), _TE),
          gates=(_GATE_E, Gate("or", "F", ()), _top_over(EventRef("F")))),
     ["gate F has no inputs"]),
    (dict(events=(EventNode("A", KIND_BASIC, ("i", "i")), _B, _E, _TE),
          gates=(Gate("and", "E", (EventRef("A", ("i", "i")),), forall=("i",)), _GATE_TE)),
     ["event A repeats parameter i"]),
    (dict(params=(_I, Parameter("I", "T")),
          events=(_A, _B, _E, EventNode("C", KIND_BASIC, ("I",)), EventNode("F", KIND_INTERNAL),
                  _TE),
          gates=(_GATE_E, Gate("and", "F", (EventRef("C", ("I",)),), forall=("I",)),
                 _top_over(EventRef("F"))),
          rates=(*_RATES, FailureRate("C", 1e-3))),
     ["parameters i and I collide case-insensitively"]),
    (dict(params=(_I, Parameter("j", "T")),
          events=(EventNode("A", KIND_BASIC, ("i", "j")), _B, _E, _TE),
          gates=(Gate("and", "E", (EventRef("A", ("i", "i")),), forall=("i", "j")), _GATE_TE)),
     ["gate E: forall parameter i must match the formal parameter name j of A"]),
    (dict(events=(EventNode("A b", KIND_BASIC, ("i",)), _B, _E, _TE),
          gates=(Gate("and", "E", (EventRef("A b", ("i",)),), forall=("i",)), _GATE_TE),
          rates=(FailureRate("A b", 1e-3), _RATES[1])),
     ["event class name 'A b' is not an identifier"]),
    (dict(name="my model"), ["model name 'my model' is not an identifier"]),
    (dict(types=(ParamType("A", (1, 2)),), params=(Parameter("i", "A"),)),
     ["type A has the name of an event class"]),
    (dict(types=(_TYPE, _TYPE)), ["type T is declared 2 times"]),
    (dict(types=(ParamType("T", (1, 2.5)),)), ["type T has a value that is not an integer"]),
    (dict(gates=(_GATE_E, Gate("xor", "TE", (EventRef("E"), EventRef("B"))))),
     ["gate TE has unknown kind xor"]),
    (dict(events=(_A, _B, EventNode("E", "module"), _TE)), ["event E has unknown kind module"]),
], ids=[
    "empty-type", "repeated-type-values", "parameter-of-unknown-type",
    "two-gates-on-one-output", "basic-event-as-gate-output", "missing-rate",
    "event-with-no-gate", "rate-on-non-basic-event", "rate-for-unknown-event",
    "parameterized-top", "declared-parameter-not-a-formal", "undeclared-gate-output",
    "unknown-input", "arity-mismatch", "constant-outside-its-type",
    "parameter-type-mismatch", "constant-for-a-parameter-of-unknown-type",
    "vote-over-a-parameter-of-unknown-type", "k-on-non-vote-gate", "forall-over-several-inputs",
    "gate-with-no-inputs", "repeated-formal-parameter", "case-colliding-parameters",
    "forall-argument-away-from-its-formal", "class-name-not-an-identifier",
    "model-name-not-an-identifier", "type-named-like-a-class", "type-declared-twice",
    "non-integer-type-value", "unknown-gate-kind", "unknown-event-kind",
])
def test_each_planted_defect_is_reported_at_construction(defect, violations):
    assert _rejected(PftModel, **{**_VALID, **defect}) == violations


def test_the_planted_defects_start_from_a_valid_model():
    m = PftModel(**_VALID)
    assert m.top == _TE
    assert m.declared_at == {"i": "A"}


def test_instantiate_passes_ground_refs_through(model):
    ref = EventRef("D", (2, 1))
    assert instantiate(model, ref, {}) == [(2, 1)]


def test_instantiate_enumerates_free_parameters(model):
    got = instantiate(model, EventRef("D", ("i", "j")), {})
    assert got == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]


def test_instantiate_respects_environment(model):
    got = instantiate(model, EventRef("D", ("i", "j")), {"i": 3})
    assert got == [(3, 1), (3, 2)]
    got = instantiate(model, EventRef("D", ("i", "j")), {"i": Var("I")})
    assert got == [(Var("I"), 1), (Var("I"), 2)]


def test_instantiate_binds_repeated_parameters_together():
    m = parse_model(
        "type T={1,2,3}\nbasic X(a:T, b:T) rate 1e-3\n"
        "top TE = and forall(a:T, b:T) X(a, b)"
    )
    got = instantiate(m, EventRef("X", ("a", "a")), {})
    assert got == [(1, 1), (2, 2), (3, 3)]


def test_input_instances_follow_the_inputs_in_order(model):
    got = input_instances(model, model.gate_map["S"], {"i": 2})
    assert got == (("P", (2,)), ("MM", (2,)), ("DM", (2,)))


def test_input_instances_expand_a_forall_input_into_its_replicas(model):
    assert input_instances(model, model.gate_map["DM"], {"i": 3}) == (("D", (3, 1)), ("D", (3, 2)))
    got = input_instances(model, model.gate_map["SKN"], {})
    assert got == (("S", (1,)), ("S", (2,)), ("S", (3,)))


def test_input_instances_carry_a_clause_variable_from_the_environment(model):
    got = input_instances(model, model.gate_map["MM"], {"i": Var("I")})
    assert got == (("Mg", ()), ("M", (Var("I"),)))
    got = input_instances(model, model.gate_map["DM"], {"i": Var("I")})
    assert got == (("D", (Var("I"), 1)), ("D", (Var("I"), 2)))


def test_format_instance_renders_like_the_source_labels():
    assert format_instance(("D", (1, 2))) == "D(1,2)"
    assert format_instance(("B", ())) == "B"


def test_parameter_table_records_the_declaring_replicator(model):
    assert model.param_map["i"] == Parameter("i", "T1")
    assert model.param_map["j"] == Parameter("j", "T2")
    assert model.declared_at == {"j": "D", "i": "S"}


def _unfolds_alike_after_swapping(model: PftModel, t: float, type_name: str, a: int, b: int):
    """Whether swapping values a and b of a type maps the unfolded tree onto itself."""
    swap = {a: b, b: a}

    def rename(key):
        name, values = key
        types = [model.param_map[p].type_name for p in model.event_map[name].formal_params]
        return name, tuple(swap.get(v, v) if ty == type_name else v
                           for v, ty in zip(values, types))

    tree = unfold(model, t)
    nodes = {key: (m, sorted(inputs)) for key, m, inputs in tree.nodes}
    renamed = {rename(key): (m, sorted(map(rename, inputs))) for key, m, inputs in tree.nodes}
    return (renamed == nodes and rename(tree.top) == tree.top
            and {rename(key): p for key, p in tree.basics} == dict(tree.basics))


def test_symmetric_types_match_a_swap_of_their_values_on_random_models():
    checked = 0
    for seed in range(60):
        model, t = random_model(seed)
        for name in model.symmetric_types:
            for a, b in combinations(model.type_map[name].values, 2):
                assert _unfolds_alike_after_swapping(model, t, name, a, b), (seed, name, a, b)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("text, symmetric", [
    (CONSTANT_OF_T, set()),
    (CONSTANT_OF_U, {"T"}),
], ids=["constant-of-T", "constant-of-U"])
def test_a_type_with_a_named_constant_is_not_symmetric(text, symmetric):
    model = parse_model(text)
    assert model.symmetric_types == symmetric
    for t in model.types:
        swaps = [_unfolds_alike_after_swapping(model, 1e3, t.name, a, b)
                 for a, b in combinations(t.values, 2)]
        assert all(swaps) if t.name in symmetric else not all(swaps), t.name


def test_every_type_of_the_reference_model_is_symmetric(model):
    assert model.symmetric_types == {"T1", "T2"}
