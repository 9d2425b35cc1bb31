from __future__ import annotations

from itertools import combinations
from math import comb

import pytest

from conftest import DATA
from randmodels import multiprocessor, quantified_or
from pfta.compile import compile_direct, compile_disjoint
from pfta.dsl import parse_model
from pfta.errors import ModelInvalidError
from pfta.measures import minimal_cut_sets, system_unreliability
from pfta.model import EventRef
from pfta.oracle import exact_probability, prime_implicants, unfold
from pfta.pha import (
    STAGE_DIRECT,
    STAGE_DISJOINT,
    Atom,
    format_clause,
    parse_theory,
    serialize,
)

T = 1e4


def test_direct_stage_matches_golden_text(listing_model):
    theory = compile_direct(listing_model, T)
    assert serialize(theory, precision=4) == (DATA / "theory_stage1.pha").read_text()


def test_disjoint_stage_matches_golden_text(model):
    theory = compile_disjoint(model, T)
    assert serialize(theory, precision=4) == (DATA / "theory_stage2.pha").read_text()


def test_direct_stage_shape(model):
    theory = compile_direct(model, T)
    assert theory.stage == STAGE_DIRECT
    assert len(theory.declarations) == 14
    assert len(theory.clauses) == 10


def test_disjoint_stage_shape(model):
    theory = compile_disjoint(model, T)
    assert theory.stage == STAGE_DISJOINT
    assert len(theory.declarations) == 14
    assert len(theory.clauses) == 18


def test_declarations_pair_working_before_failed(model):
    theory = compile_direct(model, T)
    for decl in theory.declarations:
        (w_atom, w_prob), (f_atom, f_prob) = decl.alternatives
        assert w_atom.args[-1] == "w"
        assert f_atom.args[-1] == "f"
        assert w_prob + f_prob == pytest.approx(1.0, abs=1e-12)


def test_declaration_order_follows_the_model(model):
    theory = compile_direct(model, T)
    preds = [decl.alternatives[0][0].pred for decl in theory.declarations]
    assert preds == ["b", "mg", "m", "m", "m", "p", "p", "p",
                     "d", "d", "d", "d", "d", "d"]


def test_or_gate_keeps_replica_variables_free(model):
    theory = compile_direct(model, T)
    s_clauses = [c for c in theory.clauses if c.head.pred == "s"]
    assert [format_clause(c) for c in s_clauses] == [
        "s(I) :- p(I,f).",
        "s(I) :- mm(I).",
        "s(I) :- dm(I).",
    ]


def test_and_gate_folds_the_declared_parameter(model):
    theory = compile_direct(model, T)
    (dm,) = [c for c in theory.clauses if c.head.pred == "dm"]
    assert format_clause(dm) == "dm(I) :- d(I,1,f), d(I,2,f)."


def _direct_bodies(model, pred):
    return [c.body for c in compile_direct(model, T).clauses if c.head.pred == pred]


def test_kofn_expands_to_failure_subsets(model):
    # vote(2:3) fails when 2 of its 3 replicas fail
    replicas = [Atom("s", (i,)) for i in (1, 2, 3)]
    assert _direct_bodies(model, "skn") == [
        (replicas[0], replicas[1]),
        (replicas[0], replicas[2]),
        (replicas[1], replicas[2]),
    ]


def test_kofn_group_count_is_n_minus_k_plus_1_choose_n():
    for card, k in [(3, 1), (3, 2), (3, 3), (4, 2)]:
        values = ", ".join(str(v) for v in range(1, card + 1))
        m = parse_model(
            f"type T={{{values}}}\nbasic A(i:T) rate 1e-4\n"
            f"top TE = vote({k}:{card}) forall(i:T) A(i)"
        )
        replicas = [Atom("a", (i, "f")) for i in range(1, card + 1)]
        bodies = _direct_bodies(m, "te")
        assert bodies == list(combinations(replicas, card - k + 1))
        assert len(bodies) == comb(card, card - k + 1)


def test_direct_kofn_bodies_are_the_failure_groups():
    # stage 1 builds each replica's atom once and lists every failure
    # subset of vote(4:6), in `itertools.combinations` order
    m = multiprocessor(6, 2, 4)
    replicas = [Atom("s", (i,)) for i in range(1, 7)]
    bodies = _direct_bodies(m, "skn")
    assert bodies == list(combinations(replicas, 3))
    assert len(bodies) == comb(6, 3)


def test_disjoint_kofn_has_a_cell_per_failure_and_working_subset():
    m = multiprocessor(6, 2, 4)
    skn = [c for c in compile_disjoint(m, T).clauses if c.head.pred == "skn"]
    statuses = [c.head.args[-1] for c in skn]
    assert statuses == ["f"] * comb(6, 3) + ["w"] * comb(6, 4)
    # each cell leads with its subset at the gate's status, in subset order
    leads = [tuple(a.args[0] for a in c.body if a.args[-1] == c.head.args[-1]) for c in skn]
    assert leads == list(combinations(range(1, 7), 3)) + list(combinations(range(1, 7), 4))


def test_disjoint_top_event_head_carries_no_status(model):
    theory = compile_disjoint(model, T)
    te_clauses = [c for c in theory.clauses if c.head.pred == "te"]
    assert [format_clause(c) for c in te_clauses] == [
        "te :- b(f).",
        "te :- skn(f), b(w).",
    ]


def test_disjoint_same_head_bodies_differ(model):
    theory = compile_disjoint(model, T)
    seen = set()
    for c in theory.clauses:
        key = (format_clause(c),)
        assert key not in seen
        seen.add(key)


def test_compile_rejects_invalid_models():
    broken = parse_model("basic B rate -2\ntop TE = or(B)")
    with pytest.raises(ModelInvalidError):
        compile_direct(broken, T)
    with pytest.raises(ModelInvalidError):
        compile_disjoint(broken, T)


def test_reordered_gate_inputs_only_reorder_clauses(model, listing_model):
    plain = compile_direct(model, T)
    ordered = compile_direct(listing_model, T)
    assert set(plain.clauses) == set(ordered.clauses)
    assert plain.declarations == ordered.declarations


def test_unreplicated_vote_input_is_rejected_at_compile_time():
    m = parse_model("basic A rate 1e-3\nbasic B rate 1e-3\ntop TE = vote(2:2)(A, B)")
    with pytest.raises(ModelInvalidError, match="exactly one replicator input"):
        compile_direct(m, T)


def test_a_quantified_or_input_is_expanded_into_its_replicas():
    m = parse_model("type T = {1, 2, 3}\nbasic A(i:T) rate 1e-4\ntop E = or forall(i:T) A(i)")
    assert [format_clause(c) for c in compile_direct(m, T).clauses] == [
        "e :- a(1,f).",
        "e :- a(2,f).",
        "e :- a(3,f).",
    ]


def test_quantified_or_gates_agree_with_the_oracle():
    m = quantified_or()
    tree = unfold(m, T)
    assert {c.events for c in minimal_cut_sets(m, T)} == set(prime_implicants(tree))
    bounds = system_unreliability(m, T)
    exact = exact_probability(tree, {tree.top: True})
    assert bounds.lower == pytest.approx(exact, abs=1e-12)
    assert bounds.upper == pytest.approx(exact, abs=1e-12)


def test_negative_replica_indices_round_trip_through_theory_text():
    m = parse_model(
        "type T = {-1, 2}\nbasic A(i:T) rate 1e-3\nbasic B rate 2e-3\n"
        "event W(i:T) = or(A(i), B)\ntop TE = vote(1:2) forall(i:T) W(i)"
    )
    for theory in (compile_direct(m, T), compile_disjoint(m, T)):
        text = serialize(theory)
        assert "a(-1,f)" in text
        assert parse_theory(text, theory.stage) == theory
