from __future__ import annotations

import heapq
import math
import re
from dataclasses import astuple, replace
from itertools import count

import pytest

import pfta.engine as engine
from pfta.compile import compile_direct, compile_disjoint, declarations, predicate_name
from pfta.dsl import parse_model
from pfta.engine import (
    EXHAUSTIVE,
    AtomTable,
    ExactEvaluator,
    Explanation,
    ExplanationSearch,
    ProbabilityBounds,
    SearchStats,
    StopCriteria,
    check_assumptions,
    entails,
    explain,
    minimal_explanations,
    probability,
)
from pfta.errors import EngineError
from pfta.measures import CutSet, minimal_cut_sets, top_atom
from pfta.oracle import exact_probability, unfold
from pfta.pha import (
    Atom,
    Clause,
    DisjointDeclaration,
    PhaTheory,
    STAGE_DIRECT,
    STAGE_DISJOINT,
    Var,
    apply_substitution,
    format_atom,
    ground_instances,
    parse_theory,
    theory_constants,
    unify,
)
from randmodels import chain, multiprocessor, random_model

T = 1e4
TE = Atom("te", ())


def _decl(*pairs):
    return DisjointDeclaration(tuple((Atom(n, ()), p) for n, p in pairs))


def _theory(clauses, decls, stage=STAGE_DIRECT):
    return PhaTheory(tuple(clauses), tuple(decls), stage)


GOAL = Atom("g", ())
TWO_WAY = _theory(
    [Clause(GOAL, (Atom("a", ()),)), Clause(GOAL, (Atom("c", ()),))],
    [_decl(("a", 0.3), ("x", 0.7)), _decl(("c", 0.2), ("y", 0.8))],
)


def test_explanations_come_out_most_probable_first():
    result = explain(TWO_WAY, GOAL)
    assert [(set(e.sorted_atoms()), e.prob) for e in result.explanations] == [
        ({Atom("a", ())}, pytest.approx(0.3)),
        ({Atom("c", ())}, pytest.approx(0.2)),
    ]


def test_exhausted_search_is_marked_sound_only_for_disjoint_stage():
    result = explain(TWO_WAY, GOAL)
    assert result.sound is False  # direct-stage bodies may overlap


def test_same_hypothesis_twice_counts_once():
    theory = _theory(
        [Clause(GOAL, (Atom("a", ()), Atom("a", ())))],
        [_decl(("a", 0.5), ("x", 0.5))],
    )
    result = explain(theory, GOAL)
    assert [e.prob for e in result.explanations] == [pytest.approx(0.5)]


def test_alternatives_of_one_declaration_are_inconsistent():
    theory = _theory(
        [Clause(GOAL, (Atom("a", ()), Atom("b", ())))],
        [_decl(("a", 0.4), ("b", 0.6))],
    )
    assert explain(theory, GOAL).explanations == ()


def test_conjunction_multiplies_independent_hypotheses():
    theory = _theory(
        [Clause(GOAL, (Atom("a", ()), Atom("c", ())))],
        [_decl(("a", 0.3), ("x", 0.7)), _decl(("c", 0.2), ("y", 0.8))],
    )
    result = explain(theory, GOAL)
    assert [e.prob for e in result.explanations] == [pytest.approx(0.06)]


def test_max_explanations_stop():
    result = explain(TWO_WAY, GOAL, StopCriteria(max_explanations=1))
    assert len(result.explanations) == 1
    assert result.explanations[0].prob == pytest.approx(0.3)


def test_epsilon_stop_reports_bracketing_bounds():
    result = explain(TWO_WAY, GOAL, StopCriteria(epsilon=0.25))
    assert result.bounds.width <= 0.25
    assert result.bounds.lower >= 0.3


def test_stop_criteria_require_some_bound():
    with pytest.raises(ValueError):
        StopCriteria(max_explanations=0)
    with pytest.raises(ValueError):
        StopCriteria(epsilon=-0.1)


def test_stop_criteria_reject_a_nan_epsilon():
    # `width <= nan` never holds, so a NaN bound would silently run to exhaustion
    with pytest.raises(ValueError, match="epsilon must be nonnegative"):
        StopCriteria(epsilon=float("nan"))


def test_exhaustive_stop_criteria_take_no_bound():
    assert not StopCriteria(max_explanations=5).exhaustive
    assert not StopCriteria(epsilon=1e-3).exhaustive
    assert StopCriteria() == EXHAUSTIVE
    assert EXHAUSTIVE.exhaustive


def test_bounds_are_ordered():
    with pytest.raises(ValueError):
        ProbabilityBounds(0.5, 0.4)


def test_unknown_goal_predicate_is_an_error():
    with pytest.raises(EngineError, match="nope"):
        explain(TWO_WAY, Atom("nope", ()))


def test_frontier_budget_is_enforced(model):
    theory = compile_disjoint(model, T)
    search = ExplanationSearch(theory, TE, EXHAUSTIVE, frontier_budget=3)
    with pytest.raises(EngineError, match="budget"):
        list(search)


def test_minimal_explanations_drop_supersets():
    theory = _theory(
        [Clause(GOAL, (Atom("a", ()),)),
         Clause(GOAL, (Atom("a", ()), Atom("c", ())))],
        [_decl(("a", 0.3), ("x", 0.7)), _decl(("c", 0.2), ("y", 0.8))],
    )
    result = minimal_explanations(theory, GOAL)
    assert [set(e.hypotheses) for e in result] == [{Atom("a", ())}]


def test_a_superset_emitted_first_at_equal_probability_is_evicted():
    # p(h) = 1, so {h, a} and {a} tie at 0.5 and the search emits {h, a}
    # first: its derivation is shorter
    theory = _theory(
        [Clause(GOAL, (Atom("h", ()), Atom("a", ()))),
         Clause(GOAL, (Atom("x", ()),)),
         Clause(Atom("x", ()), (Atom("y", ()),)),
         Clause(Atom("y", ()), (Atom("a", ()),))],
        [DisjointDeclaration(((Atom("h", ()), 1.0),)), _decl(("a", 0.5), ("n", 0.5))],
    )
    emitted = [set(e.hypotheses) for e in ExplanationSearch(theory, GOAL)]
    assert emitted == [{Atom("h", ()), Atom("a", ())}, {Atom("a", ())}]
    result = minimal_explanations(theory, GOAL)
    assert [(set(e.hypotheses), e.prob) for e in result] == [({Atom("a", ())}, 0.5)]


def test_probability_requires_the_disjoint_stage(model):
    theory = compile_direct(model, T)
    with pytest.raises(EngineError, match="disjoint-stage"):
        probability(theory, TE)


def test_probability_on_the_example(model):
    theory = compile_disjoint(model, T)
    bounds = probability(theory, TE)
    assert bounds.lower == bounds.upper
    assert bounds.lower == pytest.approx(0.224528, abs=1e-6)


def test_emission_probabilities_never_increase(model):
    theory = compile_disjoint(model, T)
    probs = [e.prob for e in ExplanationSearch(theory, TE, EXHAUSTIVE)]
    assert len(probs) > 28
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_conditional_goal_lists_conjoin(model):
    theory = compile_disjoint(model, T)
    b_failed = Atom("b", ("f",))
    joint = probability(theory, [b_failed, TE])
    alone = probability(theory, [b_failed])
    # the bus alone downs the system, so the conjunction adds nothing
    assert joint.lower == pytest.approx(alone.lower, rel=1e-12)


# Pinned exactly: the emission order fixes the order of every float sum
# downstream (bounds, cut-set ranks, posteriors), so any change to how the
# search expands or orders states must keep this sequence bit for bit.
REFERENCE_EMISSIONS = [
    ('b(w) d(1,1,f) d(1,2,f) d(2,1,f) d(2,2,f) mg(w) p(1,w) p(2,w)', 0.09100956057174159),
    ('b(w) d(1,1,f) d(1,2,f) d(2,1,w) d(3,1,f) d(3,2,f) mg(w) p(1,w) p(2,w) p(3,w)', 0.04068927573309811),
    ('b(w) d(1,1,w) d(2,1,f) d(2,2,f) d(3,1,f) d(3,2,f) mg(w) p(1,w) p(2,w) p(3,w)', 0.04068927573309811),
    ('b(w) d(1,1,f) d(1,2,f) d(2,1,f) d(2,2,w) d(3,1,f) d(3,2,f) mg(w) p(1,w) p(2,w) p(3,w)', 0.022406405617265136),
    ('b(w) d(1,1,f) d(1,2,w) d(2,1,f) d(2,2,f) d(3,1,f) d(3,2,f) mg(w) p(1,w) p(2,w) p(3,w)', 0.022406405617265136),
    ('b(w) d(2,1,f) d(2,2,f) mg(w) p(1,f) p(2,w)', 0.0015043841258182617),
    ('b(w) d(1,1,f) d(1,2,f) mg(w) p(1,w) p(2,f)', 0.0015043841258182615),
    ('b(w) d(2,1,w) d(3,1,f) d(3,2,f) mg(w) p(1,f) p(2,w) p(3,w)', 0.0006725919795608966),
    ('b(w) d(1,1,w) d(3,1,f) d(3,2,f) mg(w) p(1,w) p(2,f) p(3,w)', 0.0006725919795608966),
    ('b(w) d(1,1,f) d(1,2,f) d(2,1,w) mg(w) p(1,w) p(2,w) p(3,f)', 0.0006725919795608965),
    ('b(w) d(1,1,w) d(2,1,f) d(2,2,f) mg(w) p(1,w) p(2,w) p(3,f)', 0.0006725919795608965),
    ('b(w) d(2,1,f) d(2,2,w) d(3,1,f) d(3,2,f) mg(w) p(1,f) p(2,w) p(3,w)', 0.00037037692211124745),
    ('b(w) d(1,1,f) d(1,2,w) d(3,1,f) d(3,2,f) mg(w) p(1,w) p(2,f) p(3,w)', 0.00037037692211124745),
    ('b(w) d(1,1,f) d(1,2,f) d(2,1,f) d(2,2,w) mg(w) p(1,w) p(2,w) p(3,f)', 0.0003703769221112474),
    ('b(w) d(1,1,f) d(1,2,w) d(2,1,f) d(2,2,f) mg(w) p(1,w) p(2,w) p(3,f)', 0.0003703769221112474),
    ('b(w) d(1,1,f) d(1,2,f) d(2,1,f) d(2,2,f) m(1,w) m(2,w) mg(f) p(1,w) p(2,w)', 2.7290584747185773e-05),
    ('b(w) p(1,f) p(2,f)', 2.4874866301125842e-05),
    ('b(f)', 1.999980000133333e-05),
    ('b(w) d(1,1,f) d(1,2,f) d(2,1,w) d(3,1,f) d(3,2,f) m(1,w) m(2,w) m(3,w) mg(f) p(1,w) p(2,w) p(3,w)', 1.2197631110930114e-05),
    ('b(w) d(1,1,w) d(2,1,f) d(2,2,f) d(3,1,f) d(3,2,f) m(1,w) m(2,w) m(3,w) mg(f) p(1,w) p(2,w) p(3,w)', 1.2197631110930114e-05),
    ('b(w) d(2,1,w) mg(w) p(1,f) p(2,w) p(3,f)', 1.1117916522698473e-05),
    ('b(w) d(1,1,w) mg(w) p(1,w) p(2,f) p(3,f)', 1.1117916522698473e-05),
    ('b(w) d(1,1,f) d(1,2,f) d(2,1,f) d(2,2,w) d(3,1,f) d(3,2,f) m(1,w) m(2,w) m(3,w) mg(f) p(1,w) p(2,w) p(3,w)', 6.716882159171891e-06),
    ('b(w) d(1,1,f) d(1,2,w) d(2,1,f) d(2,2,f) d(3,1,f) d(3,2,f) m(1,w) m(2,w) m(3,w) mg(f) p(1,w) p(2,w) p(3,w)', 6.716882159171891e-06),
    ('b(w) d(2,1,f) d(2,2,w) mg(w) p(1,f) p(2,w) p(3,f)', 6.1223146084126265e-06),
    ('b(w) d(1,1,f) d(1,2,w) mg(w) p(1,w) p(2,f) p(3,f)', 6.1223146084126265e-06),
    ('b(w) d(1,1,f) d(1,2,f) m(1,w) mg(f) p(1,w) p(2,f)', 4.5124754722903757e-07),
    ('b(w) d(2,1,f) d(2,2,f) m(2,w) mg(f) p(1,f) p(2,w)', 4.5124754722903757e-07),
    ('b(w) d(1,1,f) d(1,2,f) d(2,1,w) m(1,w) m(2,w) mg(f) p(1,w) p(2,w) p(3,f)', 2.0168681513427104e-07),
    ('b(w) d(1,1,w) d(2,1,f) d(2,2,f) m(1,w) m(2,w) mg(f) p(1,w) p(2,w) p(3,f)', 2.0168681513427104e-07),
    ('b(w) d(2,1,w) d(3,1,f) d(3,2,f) m(2,w) m(3,w) mg(f) p(1,f) p(2,w) p(3,w)', 2.0168681513427104e-07),
    ('b(w) d(1,1,w) d(3,1,f) d(3,2,f) m(1,w) m(3,w) mg(f) p(1,w) p(2,f) p(3,w)', 2.0168681513427104e-07),
    ('b(w) d(1,1,f) d(1,2,f) d(2,1,f) d(2,2,w) m(1,w) m(2,w) mg(f) p(1,w) p(2,w) p(3,f)', 1.1106308741388747e-07),
    ('b(w) d(1,1,f) d(1,2,w) d(2,1,f) d(2,2,f) m(1,w) m(2,w) mg(f) p(1,w) p(2,w) p(3,f)', 1.1106308741388747e-07),
    ('b(w) d(2,1,f) d(2,2,w) d(3,1,f) d(3,2,f) m(2,w) m(3,w) mg(f) p(1,f) p(2,w) p(3,w)', 1.1106308741388747e-07),
    ('b(w) d(1,1,f) d(1,2,w) d(3,1,f) d(3,2,f) m(1,w) m(3,w) mg(f) p(1,w) p(2,f) p(3,w)', 1.1106308741388747e-07),
    ('b(w) d(1,1,f) d(1,2,f) m(1,w) m(2,f) mg(f) p(1,w) p(2,w)', 2.7003171429339605e-08),
    ('b(w) d(2,1,f) d(2,2,f) m(1,f) m(2,w) mg(f) p(1,w) p(2,w)', 2.7003171429339602e-08),
    ('b(w) d(1,1,f) d(1,2,f) d(2,1,w) m(1,w) m(2,w) m(3,f) mg(f) p(1,w) p(2,w) p(3,w)', 1.2069170630514149e-08),
    ('b(w) d(1,1,w) d(2,1,f) d(2,2,f) m(1,w) m(2,w) m(3,f) mg(f) p(1,w) p(2,w) p(3,w)', 1.2069170630514149e-08),
    ('b(w) d(2,1,w) d(3,1,f) d(3,2,f) m(1,f) m(2,w) m(3,w) mg(f) p(1,w) p(2,w) p(3,w)', 1.2069170630514147e-08),
    ('b(w) d(1,1,w) d(3,1,f) d(3,2,f) m(1,w) m(2,f) m(3,w) mg(f) p(1,w) p(2,w) p(3,w)', 1.2069170630514147e-08),
    ('b(w) d(1,1,f) d(1,2,f) d(2,1,f) d(2,2,w) m(1,w) m(2,w) m(3,f) mg(f) p(1,w) p(2,w) p(3,w)', 6.6461426933512335e-09),
    ('b(w) d(1,1,f) d(1,2,w) d(2,1,f) d(2,2,f) m(1,w) m(2,w) m(3,f) mg(f) p(1,w) p(2,w) p(3,w)', 6.6461426933512335e-09),
    ('b(w) d(2,1,f) d(2,2,w) d(3,1,f) d(3,2,f) m(1,f) m(2,w) m(3,w) mg(f) p(1,w) p(2,w) p(3,w)', 6.646142693351233e-09),
    ('b(w) d(1,1,f) d(1,2,w) d(3,1,f) d(3,2,f) m(1,w) m(2,f) m(3,w) mg(f) p(1,w) p(2,w) p(3,w)', 6.646142693351233e-09),
    ('b(w) d(2,1,w) m(2,w) mg(f) p(1,f) p(2,w) p(3,f)', 3.3348747005928924e-09),
    ('b(w) d(1,1,w) m(1,w) mg(f) p(1,w) p(2,f) p(3,f)', 3.3348747005928924e-09),
    ('b(w) d(2,1,f) d(2,2,w) m(2,w) mg(f) p(1,f) p(2,w) p(3,f)', 1.8364189059147591e-09),
    ('b(w) d(1,1,f) d(1,2,w) m(1,w) mg(f) p(1,w) p(2,f) p(3,f)', 1.8364189059147591e-09),
    ('b(w) m(1,f) mg(f) p(1,w) p(2,f)', 4.4649519194165525e-10),
    ('b(w) m(2,f) mg(f) p(1,f) p(2,w)', 4.464951919416552e-10),
    ('b(w) d(2,1,w) m(1,f) m(2,w) mg(f) p(1,w) p(2,w) p(3,f)', 1.9956273178316053e-10),
    ('b(w) d(1,1,w) m(1,w) m(2,f) mg(f) p(1,w) p(2,w) p(3,f)', 1.9956273178316053e-10),
    ('b(w) d(2,1,w) m(2,w) m(3,f) mg(f) p(1,f) p(2,w) p(3,w)', 1.995627317831605e-10),
    ('b(w) d(1,1,w) m(1,w) m(3,f) mg(f) p(1,w) p(2,f) p(3,w)', 1.995627317831605e-10),
    ('b(w) d(2,1,f) d(2,2,w) m(1,f) m(2,w) mg(f) p(1,w) p(2,w) p(3,f)', 1.0989341623463008e-10),
    ('b(w) d(1,1,f) d(1,2,w) m(1,w) m(2,f) mg(f) p(1,w) p(2,w) p(3,f)', 1.0989341623463008e-10),
    ('b(w) d(2,1,f) d(2,2,w) m(2,w) m(3,f) mg(f) p(1,f) p(2,w) p(3,w)', 1.0989341623463007e-10),
    ('b(w) d(1,1,f) d(1,2,w) m(1,w) m(3,f) mg(f) p(1,w) p(2,f) p(3,w)', 1.0989341623463007e-10),
    ('b(w) m(1,f) m(2,f) mg(f) p(1,w) p(2,w)', 2.6718785031438194e-11),
    ('b(w) d(2,1,w) m(1,f) m(2,w) m(3,f) mg(f) p(1,w) p(2,w) p(3,w)', 1.1942063043531233e-11),
    ('b(w) d(1,1,w) m(1,w) m(2,f) m(3,f) mg(f) p(1,w) p(2,w) p(3,w)', 1.1942063043531233e-11),
    ('b(w) d(2,1,f) d(2,2,w) m(1,f) m(2,w) m(3,f) mg(f) p(1,w) p(2,w) p(3,w)', 6.57614822675879e-12),
    ('b(w) d(1,1,f) d(1,2,w) m(1,w) m(2,f) m(3,f) mg(f) p(1,w) p(2,w) p(3,w)', 6.57614822675879e-12),
]


def test_reference_emission_sequence_is_pinned(model):
    theory = compile_disjoint(model, T)
    emitted = [
        (" ".join(format_atom(a) for a in e.sorted_atoms()), e.prob)
        for e in ExplanationSearch(theory, TE, EXHAUSTIVE)
    ]
    assert emitted == REFERENCE_EMISSIONS


@pytest.mark.parametrize(
    "epsilon, count, lower, upper",
    [
        (0.01, 6, 0.21870530739828636, 0.22689063807014215),
        (0.001, 16, 0.22440885771554045, 0.22456008814558615),
        (0.0001, 19, 0.22446593001295384, 0.2245438957091799),
    ],
)
def test_epsilon_stop_is_pinned(model, epsilon, count, lower, upper):
    result = explain(compile_disjoint(model, T), TE, StopCriteria(epsilon=epsilon))
    assert len(result.explanations) == count
    assert (result.bounds.lower, result.bounds.upper) == (lower, upper)


# Hand-written theory whose clause bodies keep variables after the head
# is bound, so the search grounds them over the constants.
NON_GROUND = parse_theory(
    "disjoint([a(1):0.3,na(1):0.7]).\n"
    "disjoint([a(2):0.4,na(2):0.6]).\n"
    "disjoint([b(1,x):0.2,nb(1,x):0.8]).\n"
    "disjoint([b(2,y):0.5,nb(2,y):0.5]).\n"
    "disjoint([b(2,x):0.1,nb(2,x):0.9]).\n"
    "g :- a(X), b(X,Y).\n"
    "c(X) :- b(X,Y).\n"
)
Z = Var("Z")


@pytest.mark.parametrize(
    "goals, expected",
    [
        (Atom("g", ()), {"a(2) b(2,y)": 0.2, "a(1) b(1,x)": 0.06, "a(2) b(2,x)": 0.04}),
        (Atom("c", (2,)), {"b(2,y)": 0.5, "b(2,x)": 0.1}),
        (Atom("c", (Z,)), {"b(2,y)": 0.5, "b(1,x)": 0.2, "b(2,x)": 0.1}),
        (
            [Atom("a", (Z,)), Atom("c", (Z,))],
            {"a(2) b(2,y)": 0.2, "a(1) b(1,x)": 0.06, "a(2) b(2,x)": 0.04},
        ),
        (Atom("b", (Z, Z)), {}),
    ],
)
def test_non_ground_bodies_and_goals_are_pinned(goals, expected):
    result = explain(NON_GROUND, goals)
    found = {
        " ".join(format_atom(a) for a in e.sorted_atoms()): e.prob
        for e in result.explanations
    }
    assert len(found) == len(result.explanations)
    assert found == pytest.approx(expected, rel=1e-12)


def test_a_goal_with_more_instances_than_the_frontier_budget_is_refused_at_once():
    # c(Z) grounds to four goals, all on the frontier before the first pop
    with pytest.raises(EngineError, match="frontier memory budget of 3 states exceeded"):
        ExplanationSearch(NON_GROUND, Atom("c", (Z,)), EXHAUSTIVE, frontier_budget=3)


# A stage-1 OR whose clause leaves its replica variable free: `s` holds
# when any replica of `a` fails, so its body is grounded over the constants.
FREE_REPLICA = parse_theory(
    "disjoint([a(1,w):0.9,a(1,f):0.1]).\n"
    "disjoint([a(2,w):0.7,a(2,f):0.3]).\n"
    "disjoint([a(3,w):0.8,a(3,f):0.2]).\n"
    "s :- a(I,f).\n"
    "t(J) :- s, a(J,w).\n"
    "u.\n"
    "v(J) :- u, t(J).\n"
)


def test_a_free_replica_variable_is_grounded_over_the_constants():
    table = AtomTable(FREE_REPLICA, (Atom("s"),))
    s = table.intern(Atom("s"))
    bodies, bit = table.expand(s), s if s < len(table.probs) else None
    # every constant, in `repr` order, stands for the variable
    assert [[table.atoms[i] for i in body] for body in bodies] == [
        [Atom("a", (c, "f"))] for c in ("f", "w", 1, 2, 3)]
    assert bit is None
    found = [(format_atom(a), e.prob) for e in explain(FREE_REPLICA, Atom("s")).explanations
             for a in e.sorted_atoms()]
    assert found == [("a(2,f)", 0.3), ("a(3,f)", 0.2), ("a(1,f)", 0.1)]
    found = [(" ".join(map(format_atom, e.sorted_atoms())), e.prob)
             for e in explain(FREE_REPLICA, Atom("t", (2,))).explanations]
    assert found == [("a(2,w) a(3,f)", 0.7 * 0.2), ("a(1,f) a(2,w)", 0.7 * 0.1)]


def _reference_expansion(table, atom):
    """The bodies of the ground `atom`, each body atom substituted and
    every body grounded over the table's constants (a ground body is its
    own only instance), whatever its clause's variables."""
    constants = theory_constants(table.theory)
    for g in table.goals:
        constants.update(a for a in g.args if not isinstance(a, Var))
    constants = sorted(constants, key=repr)
    bodies = []
    for clause in [c for c in table.theory.clauses if c.head.pred == atom.pred]:
        subst = unify(atom, clause.head)
        if subst is not None:
            body = tuple(apply_substitution(b, subst) for b in clause.body)
            bodies.extend(ground_instances(body, constants))
    return bodies


def _expansion_cases():
    for seed in range(60):
        model, t = random_model(seed)
        for compile_theory in (compile_direct, compile_disjoint):
            yield compile_theory(model, t), (top_atom(model),)
    for compile_theory in (compile_direct, compile_disjoint):
        yield compile_theory(multiprocessor(5, 2, 3), T), (TE,)
    yield NON_GROUND, (Atom("g", ()),)
    yield NON_GROUND, (Atom("c", (Z,)),)
    yield FREE_REPLICA, (Atom("t", (2,)),)
    yield FREE_REPLICA, (Atom("v", (3,)),)


def test_every_expansion_matches_grounding_each_body_atom():
    for theory, goals in _expansion_cases():
        table = AtomTable(theory, goals)
        todo = [i for ids in table.ground(goals) for i in ids]
        while todo:
            i = todo.pop()
            if i in table.expansions:
                continue
            bodies = table.expand(i)
            assert [tuple(table.atoms[j] for j in body) for body in bodies] == (
                _reference_expansion(table, table.atoms[i])), format_atom(table.atoms[i])
            todo.extend(j for body in bodies for j in body)


def test_declaration_alternatives_hold_the_first_atom_ids(model):
    # an alternative's atom id is its bit in every mask, and it heads no clause
    for theory, goal in ((compile_direct(model, T), TE), (compile_disjoint(model, T), TE),
                         (NON_GROUND, Atom("g"))):
        table = AtomTable(theory, (goal,))
        table.order([table.intern(goal)])
        assert len(table.atoms) > len(table.probs)
        alternatives = [a for d in theory.declarations for a, _ in d.alternatives]
        assert table.atoms[:len(table.probs)] == alternatives
        for i, atom in enumerate(alternatives):
            assert table.ids[atom] == i
            assert table.expand(i) == ()


# Two instances of c(Z), each of probability 0.5, that are not mutually
# exclusive: P(exists Z. c(Z)) is 0.75, not their sum.
OVERLAPPING_INSTANCES = parse_theory(
    "disjoint([a(1):0.5,na(1):0.5]).\n"
    "disjoint([a(2):0.5,na(2):0.5]).\n"
    "c(X) :- a(X).\n",
    STAGE_DISJOINT,
)


@pytest.mark.parametrize("stop", [EXHAUSTIVE, StopCriteria(epsilon=0.1)])
def test_probability_refuses_a_goal_with_variables(stop):
    goal = Atom("c", (Z,))
    with pytest.raises(EngineError, match=r"c\(Z\) has variables"):
        probability(OVERLAPPING_INSTANCES, goal, stop)
    with pytest.raises(EngineError, match=r"c\(Z\) has variables"):
        ExactEvaluator(OVERLAPPING_INSTANCES, [Atom("c", (1,)), goal])
    assert probability(OVERLAPPING_INSTANCES, Atom("c", (1,)), stop) == ProbabilityBounds(0.5, 0.5)


def test_a_search_for_a_goal_with_variables_is_not_sound():
    result = explain(OVERLAPPING_INSTANCES, Atom("c", (Z,)))
    assert sorted(e.prob for e in result.explanations) == [0.5, 0.5]
    assert result.sound is False
    assert explain(OVERLAPPING_INSTANCES, Atom("c", (2,))).sound is True


def test_a_goal_that_holds_outright_is_the_only_minimal_explanation():
    theory = _theory(
        [Clause(GOAL, ()), Clause(GOAL, (Atom("a", ()),))],
        [_decl(("a", 0.3), ("x", 0.7))],
    )
    result = minimal_explanations(theory, GOAL)
    assert [(e.hypotheses, e.prob) for e in result] == [(frozenset(), 1.0)]


@pytest.mark.parametrize("n, m, k", [(3, 2, 2), (4, 2, 3), (5, 2, 3), (5, 3, 3), (6, 2, 4)])
def test_evaluator_agrees_with_the_exhaustive_search(n, m, k):
    model = multiprocessor(n, m, k)
    theory = compile_disjoint(model, T)
    searched = explain(theory, TE).bounds.lower
    value = ExactEvaluator(theory, TE).probability()
    assert value == pytest.approx(searched, abs=1e-12)
    assert probability(theory, TE) == ProbabilityBounds(value, value)


# A basic event feeding two gates: the top event's bodies share it, and
# the voting cells share `G` through every replica of `S`.
SHARED_INPUT = """
model shared
type T = {1, 2, 3}
basic A rate 4e-5
basic B rate 7e-5
basic C rate 2e-5
basic G rate 3e-5
basic P(i:T) rate 9e-5
event G1 = and(A, B)
event G2 = and(A, C)
event S(i:T) = or(P(i), G)
event V = vote(2:3) forall(i:T) S(i)
top TE = or(G1, G2, V)
"""


def test_evaluator_splits_on_an_event_feeding_two_gates():
    model = parse_model(SHARED_INPUT)
    theory = compile_disjoint(model, T)
    tree = unfold(model, T)
    value = ExactEvaluator(theory, TE).probability()
    assert value == pytest.approx(exact_probability(tree, {tree.top: True}), abs=1e-12)
    assert value == pytest.approx(explain(theory, TE).bounds.lower, abs=1e-12)


def test_evaluator_counts_the_same_event_twice_in_one_body_once():
    theory = _theory(
        [Clause(GOAL, (Atom("a", ()), Atom("c", ()), Atom("a", ())))],
        [_decl(("a", 0.5), ("x", 0.5)), _decl(("c", 0.2), ("y", 0.8))],
        STAGE_DISJOINT,
    )
    assert ExactEvaluator(theory, GOAL).probability() == pytest.approx(0.1, abs=1e-15)
    assert ExactEvaluator(theory, GOAL).probability([Atom("x", ())]) == 0.0


def test_conditioned_queries_match_the_oracle(model):
    theory = compile_disjoint(model, T)
    tree = unfold(model, T)
    evaluator = ExactEvaluator(theory, TE)
    probs = dict(tree.basics)
    for (name, values), p in tree.basics:
        pred = name.lower()
        failed = evaluator.probability([Atom(pred, values + ("f",))])
        working = evaluator.probability([Atom(pred, values + ("w",))])
        key = (name, values)
        assert p * failed == pytest.approx(
            exact_probability(tree, {key: True, tree.top: True}), abs=1e-12)
        assert (1 - p) * working == pytest.approx(
            exact_probability(tree, {key: False, tree.top: True}), abs=1e-12)
    both = [Atom("d", (1, 1, "f")), Atom("mg", ("f",))]
    joint = probs[("D", (1, 1))] * probs[("Mg", ())] * evaluator.probability(both)
    assert joint == pytest.approx(exact_probability(
        tree, {("D", (1, 1)): True, ("Mg", ()): True, tree.top: True}), abs=1e-12)
    # two alternatives of one declaration cannot both hold
    assert evaluator.probability([Atom("b", ("f",)), Atom("b", ("w",))]) == 0.0
    # an interned atom that is no alternative, and one the table never met
    for atom in (Atom("skn", ("f",)), Atom("nope")):
        with pytest.raises(EngineError, match="not a hypothesis"):
            evaluator.probability([atom])


def test_later_queries_leave_the_first_value_unchanged(model):
    evaluator = ExactEvaluator(compile_disjoint(model, T), TE)
    top = evaluator.probability()
    for i in (1, 2, 3):
        evaluator.probability([Atom("p", (i, "f"))])
    evaluator.probability(declarations=compile_disjoint(model, 3 * T).declarations)
    assert evaluator.probability().hex() == top.hex()


def test_declarations_of_another_time_match_a_recompiled_theory(model):
    for seed in range(60):
        rand, t = random_model(seed)
        goal = top_atom(rand)
        evaluator = ExactEvaluator(compile_disjoint(rand, t), goal)
        later = compile_disjoint(rand, 3 * t)
        assert evaluator.probability(declarations=declarations(rand, 3 * t)) == (
            ExactEvaluator(later, goal).probability()), seed
    evaluator = ExactEvaluator(compile_disjoint(model, T), TE)
    with pytest.raises(ValueError, match="alternative"):
        evaluator.probability(declarations=compile_disjoint(model, 3 * T).declarations[1:])


# Z never fails, so a recording that dropped its zero-probability failed
# alternative would give 0 for P(top | Z failed), which is 1.
NEVER_FAILS = """
model never
basic Z rate 0
basic A rate 4e-5
basic C rate 2e-5
event G1 = or(Z, A)
event G2 = or(Z, C)
top TE = and(G1, G2)
"""


def test_the_recording_keeps_alternatives_of_probability_zero():
    model = parse_model(NEVER_FAILS)
    evaluator = ExactEvaluator(compile_disjoint(model, T), TE)
    tree = unfold(model, T)
    certain = replace(tree, basics=tuple(
        (key, 1.0 if key == ("Z", ()) else p) for key, p in tree.basics))
    assert evaluator.probability([Atom("z", ("f",))]) == 1.0
    assert exact_probability(certain, {certain.top: True}) == 1.0


def test_evaluation_budget_is_enforced(model):
    theory = compile_disjoint(model, T)
    with pytest.raises(EngineError, match="evaluation budget of 5 "):
        ExactEvaluator(theory, TE, budget=5)
    with pytest.raises(EngineError, match="evaluation budget of 20 "):
        ExactEvaluator(theory, TE, budget=20)


def test_evaluator_rejects_direct_stage_and_cyclic_theories(model):
    with pytest.raises(EngineError, match="disjoint-stage"):
        ExactEvaluator(compile_direct(model, T), TE)
    cyclic = _theory(
        [Clause(GOAL, (Atom("h", ()),)), Clause(Atom("h", ()), (GOAL, Atom("a", ())))],
        [_decl(("a", 0.5), ("x", 0.5))],
        STAGE_DISJOINT,
    )
    with pytest.raises(EngineError, match="cyclic"):
        ExactEvaluator(cyclic, GOAL)


# a search that grounds as it goes loops forever on the first, whose
# frontier never grows, and fills its frontier budget on the second
CYCLES = {"two-atom": "g :- h.\nh :- g.\n", "growing": "g :- h.\nh :- g.\nh :- a.\n"}
BOUNDED = StopCriteria(max_explanations=1)
CYCLIC_ENTRIES = {
    "search": lambda theory: ExplanationSearch(theory, GOAL, frontier_budget=10),
    "explain": lambda theory: explain(theory, GOAL, frontier_budget=10),
    "minimal": lambda theory: minimal_explanations(theory, GOAL, frontier_budget=10),
    "bounded-probability": lambda theory: probability(theory, GOAL, BOUNDED, 10),
    "evaluator": lambda theory: ExactEvaluator(theory, GOAL),
    "entails": lambda theory: entails(theory, {Atom("a", ())}, [GOAL]),
    "assumptions": lambda theory: check_assumptions(theory),
}


@pytest.mark.parametrize("clauses", CYCLES.values(), ids=CYCLES)
@pytest.mark.parametrize("entry", CYCLIC_ENTRIES.values(), ids=CYCLIC_ENTRIES)
def test_every_engine_entry_refuses_a_cyclic_theory_before_it_searches(entry, clauses):
    theory = parse_theory("disjoint([a:0.5,x:0.5]).\n" + clauses, stage=STAGE_DISJOINT)
    with pytest.raises(EngineError, match="cyclic theory: g depends on itself"):
        entry(theory)


B_FAILED = Atom("b", ("f",))
# every atom argument of the engine: (entry called with it on a stage 2
# theory, the argument's name, an atom it may hold)
ATOM_ENTRIES = {
    "search": (lambda th, atoms: next(ExplanationSearch(th, atoms)), "goals", TE),
    "explain": (lambda th, atoms: explain(th, atoms, BOUNDED), "goals", TE),
    "minimal": (lambda th, atoms: minimal_explanations(th, atoms, BOUNDED), "goals", TE),
    "probability": (lambda th, atoms: probability(th, atoms), "goals", TE),
    "bounded-probability": (lambda th, atoms: probability(th, atoms, BOUNDED), "goals", TE),
    "evaluator": (lambda th, atoms: ExactEvaluator(th, atoms).probability(), "goals", TE),
    "evaluator-condition": (lambda th, atoms: ExactEvaluator(th, TE).probability(atoms),
                            "condition", B_FAILED),
    "entails-goals": (lambda th, atoms: entails(th, [B_FAILED], atoms), "goals", TE),
    "entails-hypotheses": (lambda th, atoms: entails(th, atoms, [TE]), "hypotheses", B_FAILED),
}


@pytest.mark.parametrize("entry", ATOM_ENTRIES)
def test_every_engine_entry_reads_a_lone_atom_as_a_list_of_one(model, entry):
    call, _, atom = ATOM_ENTRIES[entry]
    theory = compile_disjoint(model, T)
    assert call(theory, atom) == call(theory, [atom])


@pytest.mark.parametrize("member", ["b", ("b", ("f",))], ids=["string", "tuple"])
@pytest.mark.parametrize("entry", ATOM_ENTRIES)
def test_every_engine_entry_refuses_a_member_that_is_not_an_atom(model, entry, member):
    # an atom equals the tuple of its fields, so a tuple would be found as one
    call, name, atom = ATOM_ENTRIES[entry]
    theory = compile_disjoint(model, T)
    with pytest.raises(EngineError, match=re.escape(f"{name}: {member!r} is not an Atom")):
        call(theory, [atom, member])


@pytest.mark.parametrize("hypotheses", [
    [Atom("skn", ("f",)), Atom("b", ("w",))],
    [Atom("zzz", ()), B_FAILED],
], ids=["derived-atom", "unknown-atom"])
def test_entails_and_a_condition_refuse_what_no_declaration_lists(model, hypotheses):
    # entails once took the derived skn(f) as a fact and dropped zzz, and
    # answered True for both
    theory = compile_disjoint(model, T)
    refusal = re.escape(f"{format_atom(hypotheses[0])} is not a hypothesis of the theory")
    with pytest.raises(EngineError, match=f"^{refusal}$"):
        entails(theory, hypotheses, [TE])
    with pytest.raises(EngineError, match=f"^{refusal}$"):
        ExactEvaluator(theory, TE).probability(hypotheses)


def test_evaluator_rejects_a_hypothesis_that_heads_a_clause():
    # P(a) = 1 - 0.5 * 0.6 = 0.7, but summing the hypothesis with its
    # clause body gives 0.5 + 0.4 = 0.9: the probability rule assumes
    # that no hypothesis heads a clause
    theory = parse_theory(
        "disjoint([a:0.5,c:0.5]).\ndisjoint([b:0.4,d:0.6]).\na :- b.\n",
        stage=STAGE_DISJOINT,
    )
    goal = Atom("a", ())
    with pytest.raises(EngineError, match="hypothesis a heads a clause"):
        ExactEvaluator(theory, goal)
    with pytest.raises(EngineError, match="hypothesis a heads a clause"):
        probability(theory, goal)


def test_search_rejects_a_hypothesis_that_heads_a_clause():
    # the bounded search once reported [0.9, 0.9] as a sound interval
    # around P(a) = 0.7 on this theory
    text = "disjoint([a:0.5,c:0.5]).\ndisjoint([b:0.4,d:0.6]).\na :- b.\n"
    goal = Atom("a", ())
    disjoint = parse_theory(text, stage=STAGE_DISJOINT)
    for stop in (StopCriteria(max_explanations=5), StopCriteria(epsilon=0)):
        with pytest.raises(EngineError, match="hypothesis a heads a clause"):
            probability(disjoint, goal, stop)
    with pytest.raises(EngineError, match="hypothesis a heads a clause"):
        minimal_explanations(parse_theory(text, stage=STAGE_DIRECT), goal)


def test_evaluator_runs_on_a_chain_deeper_than_the_recursion_limit():
    depth = 3000
    lines = ["model chain", "basic A rate 1e-6"]
    lines += [f"basic X{i} rate 1e-6" for i in range(1, depth + 1)]
    prev = "A"
    for i in range(1, depth):
        lines.append(f"event C{i} = or({prev}, X{i})")
        prev = f"C{i}"
    lines.append(f"top C{depth} = or({prev}, X{depth})")
    model = parse_model("\n".join(lines) + "\n")
    evaluator = ExactEvaluator(compile_disjoint(model, 1.0), top_atom(model))
    q = -math.expm1(-1e-6)  # P(one event failed by t = 1)
    assert evaluator.probability() == pytest.approx(1 - (1 - q) ** (depth + 1), rel=1e-9)


def _brute_force_minimal(theory, goal, stop=EXHAUSTIVE):
    """The emitted explanations with no strict subset among them, in emission order."""
    emitted = list(ExplanationSearch(theory, goal, stop))
    return [e for e in emitted if not any(o.hypotheses < e.hypotheses for o in emitted)]


# Supersets of minimal explanations: {A, B} of {A}, and {G, P(i)} of {G}.
ABSORBED = """
model absorbed
type T = {1, 2, 3}
basic A rate 4e-5
basic B rate 7e-5
basic G rate 3e-5
basic P(i:T) rate 9e-5
event H = and(A, B)
event S(i:T) = or(P(i), G)
event V = vote(2:3) forall(i:T) S(i)
top TE = or(H, A, V)
"""


def test_minimal_explanations_match_a_brute_force_filter():
    for model in (multiprocessor(5, 2, 3), parse_model(ABSORBED)):
        theory = compile_direct(model, T)
        assert minimal_explanations(theory, TE) == _brute_force_minimal(theory, TE)
    emitted = list(ExplanationSearch(theory, TE))
    assert len(_brute_force_minimal(theory, TE)) < len(emitted)  # supersets were dropped


STOPS = [
    EXHAUSTIVE,
    StopCriteria(max_explanations=1),
    StopCriteria(max_explanations=5),
    StopCriteria(max_explanations=20),
    StopCriteria(epsilon=1e-3),
]
STOP_IDS = ["exhaustive", "max1", "max5", "max20", "epsilon"]


def _minimal_cases(model):
    cases = [(model, T), (multiprocessor(5, 2, 3), T), (parse_model(ABSORBED), T)]
    return cases + [random_model(seed) for seed in range(60)]


@pytest.mark.parametrize("stop", STOPS, ids=STOP_IDS)
def test_minimal_explanations_are_the_emitted_sets_with_no_strict_subset(model, stop):
    for case, t in _minimal_cases(model):
        theory, goal = compile_direct(case, t), top_atom(case)
        assert minimal_explanations(theory, goal, stop) == _brute_force_minimal(theory, goal, stop)


@pytest.mark.parametrize("stop", STOPS, ids=STOP_IDS)
def test_cut_sets_are_the_minimal_explanations_as_ground_events(model, stop):
    # the reference maps each explanation's atoms to (class, values), renders
    # the events afresh and ranks by prior, ties by the rendered events; in
    # mp(10,2,9) events sort by value, D(2,1) before D(10,1), not by text
    for case, t in _minimal_cases(model) + [(multiprocessor(10, 2, 9), T)]:
        names = {predicate_name(e.class_name): e.class_name for e in case.events}
        expected = [
            CutSet(frozenset((names[a.pred], a.args[:-1]) for a in e.hypotheses), e.prob)
            for e in _brute_force_minimal(compile_direct(case, t), top_atom(case), stop)
        ]
        expected.sort(key=lambda c: (-c.prior, c.labels))
        got = minimal_cut_sets(case, t, stop)
        assert [(c.events, c.prior, c.labels) for c in got] == \
            [(c.events, c.prior, c.labels) for c in expected]


def test_a_sum_node_adds_left_to_right():
    # the builtin `sum` compensates from Python 3.12 and returns 0.6 here
    theory = _theory(
        [Clause(GOAL, (Atom("a", ()),)), Clause(GOAL, (Atom("b", ()),)),
         Clause(GOAL, (Atom("c", ()),))],
        [_decl(("a", 0.1), ("b", 0.2), ("c", 0.3), ("x", 0.4))],
        STAGE_DISJOINT,
    )
    assert ExactEvaluator(theory, GOAL).probability() == 0.1 + 0.2 + 0.3


def _reference_search(theory, goals, stop):
    """(hypotheses, prob) list, final bounds and states popped of one heap of
    (-priority, push index, goal ids, assumed mask) over `AtomTable`."""
    table = AtomTable(theory, goals)
    heap, seq, seen, emitted, lower, popped = [], count(), set(), [], 0.0, 0
    for ids in table.ground(goals):
        heapq.heappush(heap, (-1.0, next(seq), ids, 0))

    def stopped():
        if stop.max_explanations is not None and len(emitted) >= stop.max_explanations:
            return True
        mass = -sum(e[0] for e in heap)
        return stop.epsilon is not None and (lower + mass) - lower <= stop.epsilon

    check = True
    while heap and not (check and stopped()):
        neg, _, ids, assumed = heapq.heappop(heap)
        popped, check = popped + 1, False
        if not ids:
            if assumed not in seen:
                seen.add(assumed)
                hyps = frozenset(a for i, a in enumerate(table.atoms[:len(table.probs)])
                                 if assumed >> i & 1)
                emitted.append((hyps, -neg))
                lower, check = lower - neg, True
            continue
        bodies = table.expand(ids[0])
        bit = ids[0] if ids[0] < len(table.probs) else None
        children = [(neg, body + ids[1:], assumed) for body in bodies]
        if bit is not None and assumed >> bit & 1:
            children.append((neg, ids[1:], assumed))
        elif bit is not None and not assumed & table.decl_masks[bit]:
            children.append((neg * table.probs[bit], ids[1:], assumed | 1 << bit))
        for child_neg, child_ids, child_assumed in children:
            heapq.heappush(heap, (child_neg, next(seq), child_ids, child_assumed))
    return emitted, ProbabilityBounds(lower, lower + max(-sum(e[0] for e in heap), 0.0)), popped


REFERENCE_STOPS = [StopCriteria(max_explanations=n) for n in (1, 5, 20)] + [
    StopCriteria(epsilon=e) for e in (1e-1, 1e-2, 1e-3)]


def _reference_cases():
    for seed in range(60):
        model, t = random_model(seed)
        yield f"rand{seed}", model, t
    for n, m, k in ((5, 3, 3), (7, 3, 5)):
        yield f"mp({n},{m},{k})", multiprocessor(n, m, k), T


@pytest.mark.parametrize("stage", [compile_direct, compile_disjoint])
def test_priority_levels_pop_in_the_reference_heap_order(stage):
    for name, model, t in _reference_cases():
        theory = stage(model, t)
        goals = (top_atom(model),)
        for stop in REFERENCE_STOPS:
            search = ExplanationSearch(theory, goals, stop)
            emitted = [(e.hypotheses, e.prob) for e in search]
            expected, bounds, popped = _reference_search(theory, goals, stop)
            case = (name, stop)
            assert emitted == expected, case
            assert search.bounds.lower == bounds.lower, case
            assert search.stats.popped == popped, case
            assert search.bounds.upper == pytest.approx(bounds.upper, rel=1e-12, abs=0), case


@pytest.mark.parametrize("model, stop, popped", [
    (multiprocessor(3, 2, 2), EXHAUSTIVE, 127),
    (multiprocessor(3, 2, 2), StopCriteria(max_explanations=5), 71),
    (multiprocessor(4, 2, 2), EXHAUSTIVE, 528),
    (chain(12), EXHAUSTIVE, 38),
], ids=["mp(3,2,2)", "mp(3,2,2)-max5", "mp(4,2,2)", "chain(12)"])
def test_search_stats_count_states(model, stop, popped):
    # the stage-1 cut set searches of the benchmark's tiny workloads, popped
    # counts as a heap of single states counted them
    result = explain(compile_direct(model, T), top_atom(model), stop)
    stats = result.stats
    assert stats.popped == popped
    assert stats.emitted == len(result.explanations)
    assert stats.duplicates == stats.inconsistent == 0  # stage 1 only assumes failures
    if stop.exhaustive:
        assert stats.pushed == stats.popped  # the frontier ran empty
    assert 1 <= stats.peak_frontier <= stats.pushed


def test_search_stats_count_duplicates_and_inconsistent_steps():
    theory = _theory(
        [Clause(GOAL, (Atom("a", ()),)), Clause(GOAL, (Atom("a", ()), Atom("a", ()))),
         Clause(GOAL, (Atom("a", ()), Atom("x", ())))],
        [_decl(("a", 0.3), ("x", 0.7))],
    )
    search = ExplanationSearch(theory, GOAL)
    assert [e.prob for e in search] == [0.3]
    # g, its three bodies, then (), (a) and (x) with a assumed: (a) finds
    # a assumed and completes {a} again, a duplicate; x contradicts a
    assert search.stats == SearchStats(
        popped=8, pushed=8, duplicates=1, inconsistent=1, peak_frontier=3, emitted=1)
    assert search.stats.emitted == 1  # the duplicate {a} is not counted


def _clamped(bounds):
    """`bounds` as bounded `probability` reports them, at most 1."""
    if bounds.upper > 1.0:
        return ProbabilityBounds(min(bounds.lower, 1.0), 1.0)
    return bounds


def test_bounded_probability_equals_the_bounds_of_explain():
    for name, model, t in _reference_cases():
        theory = compile_disjoint(model, t)
        goal = top_atom(model)
        for stop in REFERENCE_STOPS:
            expected = _clamped(explain(theory, goal, stop).bounds)
            assert probability(theory, goal, stop) == expected, (name, stop)


@pytest.mark.parametrize("stage", [compile_direct, compile_disjoint])
def test_search_stats_do_not_depend_on_how_the_search_is_drained(stage):
    for name, model, t in _reference_cases():
        theory = stage(model, t)
        for stop in REFERENCE_STOPS:
            explained = ExplanationSearch(theory, top_atom(model), stop)
            emitted = [(e.hypotheses, e.prob) for e in explained]
            drained = ExplanationSearch(theory, top_atom(model), stop)
            for _ in drained._emissions:
                pass
            case = (name, stop)
            assert astuple(drained.stats) == astuple(explained.stats), case
            assert drained.stats.emitted == len(emitted), case
            assert drained.bounds == explained.bounds, case


def test_bounded_probability_builds_no_explanation(monkeypatch, model):
    theory = compile_disjoint(model, T)
    stop = StopCriteria(epsilon=1e-3)
    expected = probability(theory, TE, stop)

    def refuse(*args):
        raise AssertionError("an Explanation was built")

    monkeypatch.setattr(engine, "Explanation", refuse)
    assert probability(theory, TE, stop) == expected
    assert probability(theory, TE, StopCriteria(max_explanations=20)).lower > 0
    with pytest.raises(AssertionError, match="was built"):
        explain(theory, TE, stop)


def test_bounded_probability_enforces_the_frontier_budget(model):
    theory = compile_disjoint(model, T)
    with pytest.raises(EngineError, match="frontier memory budget of 3 states exceeded"):
        probability(theory, TE, StopCriteria(max_explanations=5), frontier_budget=3)


class _CountingHeapq:
    """Counts the heap calls that reach it, as the benchmark's tracer does."""

    def __init__(self):
        self.pushes = self.pops = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


def test_the_search_reaches_the_heap_through_the_module_attribute(monkeypatch, model):
    # the benchmark's tracer counts the search's levels by swapping
    # `pfta.engine.heapq`; a search that imported the functions themselves
    # would leave its counters at 0
    theory = compile_disjoint(model, T)
    counting = _CountingHeapq()
    monkeypatch.setattr(engine, "heapq", counting)
    probability(theory, TE, StopCriteria(epsilon=1e-3))
    assert counting.pushes > 0 and counting.pops > 0
    counting.pushes = counting.pops = 0
    list(ExplanationSearch(theory, TE, StopCriteria(max_explanations=20)))
    assert counting.pushes > 0 and counting.pops > 0
