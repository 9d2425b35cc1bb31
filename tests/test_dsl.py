from __future__ import annotations

import pytest

from pfta.dsl import parse_model, serialize_model
from pfta.errors import DslError, ModelInvalidError
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
)


def test_parse_fixture_structure(model):
    assert model.name == "multiprocessor"
    assert {t.name: t.values for t in model.types} == {
        "T1": (1, 2, 3),
        "T2": (1, 2),
    }
    kinds = {e.class_name: e.kind for e in model.events}
    assert kinds["B"] == KIND_BASIC
    assert kinds["S"] == KIND_INTERNAL
    assert kinds["TE"] == KIND_TOP
    assert model.rate_map["D"] == 8e-5


def test_parse_fixture_gates(model):
    s = model.gate_map["S"]
    assert s.kind == "or"
    assert [r.event for r in s.inputs] == ["P", "MM", "DM"]
    skn = model.gate_map["SKN"]
    assert skn.kind == "kofn"
    assert skn.k == 2
    assert skn.forall == ("i",)
    assert skn.inputs == (EventRef("S", ("i",)),)
    dm = model.gate_map["DM"]
    assert dm.forall == ("j",)


def test_comments_and_blank_lines_are_ignored():
    m = parse_model("-- a comment\n\nbasic B rate 1e-3  -- trailing\ntop TE = or(B)\n")
    assert {e.class_name for e in m.events} == {"B", "TE"}


def test_unknown_event_reports_position():
    with pytest.raises(DslError) as err:
        parse_model("basic B rate 1e-3\ntop TE = or(B, NOPE)")
    assert "unknown event NOPE" in str(err.value)
    assert err.value.line == 2


def test_missing_rate_is_rejected():
    with pytest.raises(DslError, match="missing failure rate for B"):
        parse_model("basic B\ntop TE = or(B)")


def test_constant_outside_type_is_rejected():
    with pytest.raises(DslError, match="constant 5 is not a value of type T"):
        parse_model("type T={1,2}\nbasic A(i:T) rate 1e-3\ntop TE = or(A(5))")


def test_duplicate_event_is_rejected():
    with pytest.raises(DslError, match="duplicate declaration of B"):
        parse_model("basic B rate 1e-3\nbasic B rate 2e-3\ntop TE = or(B)")


def test_parameter_type_mismatch_is_rejected():
    with pytest.raises(DslError, match="type"):
        parse_model(
            "type T={1,2}\ntype U={1,2,3}\n"
            "basic A(i:T) rate 1e-3\nbasic C(u:U) rate 1e-3\n"
            "event E = and forall(u:U) C(u)\n"
            "top TE = vote(1:3) forall(u:U) A(u)"
        )


def test_vote_count_must_match_the_replicas():
    with pytest.raises(DslError, match="disagrees with the 3 replicas"):
        parse_model(
            "type T={1,2,3}\nbasic A(i:T) rate 1e-3\n"
            "top TE = vote(2:4) forall(i:T) A(i)"
        )


def test_forall_parameter_must_be_a_formal_of_the_target():
    with pytest.raises(DslError, match="not a formal parameter"):
        parse_model(
            "type T={1,2}\nbasic A rate 1e-3\n"
            "top TE = and forall(i:T) A"
        )


def test_parameter_cannot_be_declared_twice():
    with pytest.raises(DslError, match="already declared"):
        parse_model(
            "type T={1,2}\nbasic A(i:T) rate 1e-3\nbasic C(i:T) rate 1e-3\n"
            "event E = and forall(i:T) A(i)\n"
            "event F = and forall(i:T) C(i)\n"
            "top TE = or(E, F)"
        )


def test_out_of_scope_parameter_is_rejected_at_parse_time():
    with pytest.raises(DslError, match="not in scope"):
        parse_model(
            "type T={1,2}\nbasic A(i:T) rate 1e-3\nbasic C(i:T) rate 1e-3\n"
            "event E = and forall(i:T) A(i)\nevent F = or(C(i))\n"
            "top TE = or(E, F)"
        )


@pytest.mark.parametrize("e_first", [True, False], ids=["E-first", "F-first"])
def test_scope_errors_do_not_depend_on_declaration_order(e_first):
    quantify = "event E = and forall(i:T) A(i)\n"
    misuse = "event F = or(C(i))\n"
    body = quantify + misuse if e_first else misuse + quantify
    with pytest.raises(DslError) as err:
        parse_model(
            "type T={1,2}\nbasic A(i:T) rate 1e-3\nbasic C(i:T) rate 1e-3\n"
            + body + "top TE = or(E, F)"
        )
    line = 5 if e_first else 4
    assert str(err.value) == f"line {line}, column 14: parameter i is not in scope here"


@pytest.mark.parametrize("text, message", [
    ("type T={1}\ntype U={1}\nbasic A(i:T) rate 1\nbasic C(i:U) rate 1\ntop TE = or(A(1), C(1))",
     "line 4: parameter i used with type U in basic C but previously with type T"),
    ("type T={1,2}\nbasic A(i:T) rate 1e-3\ntop TE = or(A)",
     "line 3, column 13: A takes 1 parameters, got 0"),
    ("type T={1,2}\nbasic A(i:T) rate 1e-3\ntop TE = and forall(j:T) A(j)",
     "line 3, column 26: forall parameter j must match the formal parameter name i of A"),
    ("type T={1,2}\nbasic A(i:T, i:T) rate 1e-3\ntop TE = or(A(1,1))",
     "line 2: parameter i repeated"),
    ("type T={1,1}\nbasic A rate 1e-3\ntop TE = or(A)", "line 1: type T has repeated values"),
], ids=["parameter-with-two-types", "arity", "forall-argument-not-the-formal",
        "repeated-formal", "repeated-type-values"])
def test_malformed_declarations_are_rejected_with_their_position(text, message):
    with pytest.raises(DslError) as err:
        parse_model(text)
    assert str(err.value) == message


def test_two_input_vote_parses_and_fails_validation_not_parsing():
    # the text is well formed, so the error is the model's, not a DslError
    with pytest.raises(ModelInvalidError) as err:
        parse_model("basic A rate 1e-3\nbasic B rate 1e-3\ntop TE = vote(2:2)(A, B)")
    assert err.value.violations == ["KofN gate TE must have exactly one replicator input"]


def test_serialize_round_trips_the_fixture(model, model_text):
    text = serialize_model(model)
    again = parse_model(text)
    assert again == model
    # canonical form: serializing twice is a fixed point
    assert serialize_model(again) == text


def test_serialize_round_trips_generated_models():
    from randmodels import random_model

    for seed in range(20):
        m, _ = random_model(seed)
        assert parse_model(serialize_model(m)) == m


def test_or_forall_parses_and_round_trips():
    from randmodels import QUANTIFIED_OR

    m = parse_model(QUANTIFIED_OR)
    assert m.gate_map["E"] == Gate("or", "E", (EventRef("W", ("i",)),), forall=("i",))
    assert m.declared_at == {"i": "W", "j": "C"}
    text = serialize_model(m)
    assert "event E = or forall(i:T) W(i)\n" in text
    assert parse_model(text) == m


def test_a_hand_built_quantified_or_gate_round_trips():
    m = PftModel(
        name="q",
        types=(ParamType("T", (1, 2, 3)),),
        params=(Parameter("i", "T"),),
        events=(EventNode("A", KIND_BASIC, ("i",)), EventNode("E", KIND_TOP)),
        gates=(Gate("or", "E", (EventRef("A", ("i",)),), forall=("i",)),),
        rates=(FailureRate("A", 1e-4),),
    )
    text = serialize_model(m)
    assert text.endswith("top E = or forall(i:T) A(i)\n")
    assert parse_model(text) == m
