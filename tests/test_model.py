from __future__ import annotations

import math

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
    instantiate,
    require_valid,
    validate,
)
from pfta.errors import ModelInvalidError
from pfta.pha import Var


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


def test_fixture_model_is_valid(model):
    assert validate(model) == []
    require_valid(model)  # should not raise


def test_validate_flags_cycle():
    m = parse_model(
        "type T={1}\nbasic B rate 1e-3\n"
        "event A = or(C)\nevent C = or(A)\ntop TE = or(B, A)"
    )
    assert validate(m) == ["event graph contains a cycle"]


def test_validate_counts_top_events():
    none = parse_model("basic B rate 1e-3")
    assert "model has 0 top events, expected exactly 1" in validate(none)


def test_validate_flags_negative_rate():
    m = parse_model("basic B rate -2\ntop TE = or(B)")
    assert "negative failure rate for B" in validate(m)


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_validate_flags_non_finite_rates(rate):
    m = parse_model(f"basic B rate {rate}\nbasic C rate 1e-3\ntop TE = or(B, C)")
    assert validate(m) == ["non-finite failure rate for B"]


def test_validate_flags_kofn_k_out_of_range():
    m = parse_model(
        "type T={1,2,3}\nbasic A(i:T) rate 1e-3\n"
        "top TE = vote(4:3) forall(i:T) A(i)"
    )
    assert validate(m) == ["KofN gate TE: k=4 outside 1..3"]


def test_validate_flags_two_input_kofn():
    m = parse_model("basic A rate 1e-3\nbasic B rate 1e-3\ntop TE = vote(2:2)(A, B)")
    assert validate(m) == ["KofN gate TE must have exactly one replicator input"]


def test_validate_flags_parameter_used_outside_scope():
    m = parse_model(
        "type T={1,2}\nbasic A(i:T) rate 1e-3\n"
        "event E = and forall(i:T) A(i)\nevent F = or(A(i))\ntop TE = or(E, F)"
    )
    assert validate(m) == ["parameter i used outside the scope of A"]


def test_validate_flags_undeclared_parameter_directly():
    # built by hand: the text parser would reject this earlier
    m = PftModel(
        name="broken",
        types=(ParamType("T", (1, 2)),),
        params=(),
        events=(
            EventNode("A", KIND_BASIC, ("i",)),
            EventNode("TE", KIND_TOP),
        ),
        gates=(Gate("or", "TE", (EventRef("A", ("i",)),)),),
        rates=(FailureRate("A", 1e-3),),
    )
    problems = validate(m)
    assert "event A uses undeclared parameter i" in problems


def _quantified(*gates: Gate) -> PftModel:
    """A hand-built model in which `gates` (over A(i), C(i)) feed the top."""
    return PftModel(
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
    m = _quantified(Gate("or", "E", (EventRef("A", ("i",)),)))
    assert m.declared_at == {}
    assert validate(m) == [
        "parameter i is never declared at a replicator",
        "gate E uses parameter i that is neither a formal of E nor declared at A",
    ]


def test_validate_flags_a_parameter_two_gates_quantify():
    m = _quantified(
        Gate("and", "E", (EventRef("A", ("i",)),), forall=("i",)),
        Gate("and", "F", (EventRef("A", ("i",)),), forall=("i",)),
    )
    assert m.declared_at == {"i": "A"}
    assert validate(m) == [
        "parameter i is declared at multiple events",
        "parameter i used outside the scope of A",  # C(i) holds it too
    ]


def test_validate_flags_a_gate_quantifying_a_parameter_declared_elsewhere():
    m = _quantified(
        Gate("and", "E", (EventRef("A", ("i",)),), forall=("i",)),
        Gate("and", "F", (EventRef("C", ("i",)),), forall=("i",)),
    )
    assert m.declared_at == {"i": "A"}  # the first gate that quantifies it
    assert validate(m) == [
        "parameter i is declared at multiple events",
        "gate F uses parameter i that is neither a formal of F nor declared at C",
        "gate F quantifies i, which is not declared at C",
        "parameter i used outside the scope of A",
    ]


def test_require_valid_raises_with_all_violations():
    m = parse_model("basic B rate -2")
    with pytest.raises(ModelInvalidError) as err:
        require_valid(m)
    assert "negative failure rate for B" in err.value.violations
    assert "model has 0 top events, expected exactly 1" in err.value.violations


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


def test_format_instance_renders_like_the_source_labels():
    assert format_instance(("D", (1, 2))) == "D(1,2)"
    assert format_instance(("B", ())) == "B"


def test_parameter_table_records_the_declaring_replicator(model):
    assert model.param_map["i"] == Parameter("i", "T1")
    assert model.param_map["j"] == Parameter("j", "T2")
    assert model.declared_at == {"j": "D", "i": "S"}
