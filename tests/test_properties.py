from __future__ import annotations

import math
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from randmodels import quantified_or, random_model, shared_model, shared_models
from pfta.compile import compile_direct, compile_disjoint
from pfta.engine import EXHAUSTIVE, ExactEvaluator, ExplanationSearch, check_assumptions, explain
from pfta.measures import minimal_cut_sets, top_atom, unreliability_curve
from pfta.model import failure_probability
from pfta.oracle import exact_probability, prime_implicants, top_enumeration, unfold
from pfta.pha import Atom, Var

AGREEMENT_TOL = 1e-9
BATTERY_SEEDS = range(60)
# by seed, the random trees and then the models whose ground trees share nodes
BATTERY = {**{seed: partial(random_model, seed) for seed in BATTERY_SEEDS},
           **{f"shared{seed}": partial(shared_model, seed) for seed in BATTERY_SEEDS}}

rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@given(lam=rates, t=times)
def test_failure_probability_stays_in_the_unit_interval(lam, t):
    p = failure_probability(lam, t)
    assert 0.0 <= p <= 1.0


@given(lam=rates, t1=times, t2=times)
def test_failure_probability_is_monotone_in_time(lam, t1, t2):
    lo, hi = sorted((t1, t2))
    assert failure_probability(lam, lo) <= failure_probability(lam, hi)


@given(lam=rates, t=times)
def test_failure_probability_agrees_with_the_direct_formula(lam, t):
    assert failure_probability(lam, t) == pytest.approx(
        1.0 - math.exp(-lam * t), abs=1e-12
    )


@pytest.mark.parametrize("seed", BATTERY)
def test_search_and_enumeration_agree_on_random_models(seed):
    model, t = BATTERY[seed]()
    tree = unfold(model, t)

    exact = exact_probability(tree, {tree.top: True})
    bounds = unreliability_curve(model, [t])[0].bounds
    assert bounds.lower == pytest.approx(exact, abs=AGREEMENT_TOL)
    assert bounds.upper == pytest.approx(exact, abs=AGREEMENT_TOL)

    cut_sets = {c.events for c in minimal_cut_sets(model, t)}
    assert cut_sets == set(prime_implicants(tree, top_enumeration(tree)[2]))


@pytest.mark.parametrize("seed", BATTERY)
def test_evaluator_agrees_with_oracle_and_search_on_random_models(seed):
    _evaluator_agrees(*BATTERY[seed]())


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(shared_models())
def test_evaluator_agrees_with_oracle_and_search_on_drawn_shared_models(drawn):
    _evaluator_agrees(*drawn)


def test_most_shared_models_make_the_evaluator_split():
    # a split is where the evaluator conditions shared nodes, and only
    # shared nodes reach that code
    models = [shared_model(seed) for seed in BATTERY_SEEDS]
    splits = [ExactEvaluator(compile_disjoint(m, t), top_atom(m))._splits for m, t in models]
    assert sum(n > 0 for n in splits) >= 2 * len(splits) / 3


def _evaluator_agrees(model, t):
    tree = unfold(model, t)
    theory = compile_disjoint(model, t)
    evaluator = ExactEvaluator(theory, top_atom(model))
    value = evaluator.probability()
    assert value == pytest.approx(exact_probability(tree, {tree.top: True}), abs=AGREEMENT_TOL)
    assert value == pytest.approx(explain(theory, top_atom(model)).bounds.lower, abs=1e-12)

    # conditioned on each basic event failed, and on consecutive pairs
    probs = dict(tree.basics)
    keys = tree.basic_keys
    for group in [(k,) for k in keys] + list(zip(keys, keys[1:])):
        failed = [Atom(name.lower(), values + ("f",)) for name, values in group]
        joint = math.prod(probs[k] for k in group) * evaluator.probability(failed)
        condition = {k: True for k in group} | {tree.top: True}
        assert joint == pytest.approx(exact_probability(tree, condition), abs=1e-12)


@pytest.mark.parametrize("seed", list(BATTERY)[::6])
def test_status_complete_translation_keeps_both_assumptions(seed):
    model, t = BATTERY[seed]()
    report = check_assumptions(compile_disjoint(model, t))
    assert report.assumption1 is True
    assert report.assumption2 is True


@pytest.mark.parametrize("seed", list(BATTERY)[3::12])
def test_anytime_bounds_always_bracket_the_exact_value(seed):
    model, t = BATTERY[seed]()
    tree = unfold(model, t)
    exact = exact_probability(tree, {tree.top: True})
    theory = compile_disjoint(model, t)
    search = ExplanationSearch(theory, top_atom(model), EXHAUSTIVE)
    for _ in search:
        bounds = search.bounds
        assert bounds.lower <= exact + 1e-12
        assert min(bounds.upper, 1.0) >= exact - 1e-12


def _variables(atom):
    return {a for a in atom.args if isinstance(a, Var)}


@pytest.mark.parametrize("seed", [*BATTERY, "quantified_or"])
def test_no_clause_has_a_variable_outside_its_head(seed):
    # every quantified input is expanded into replicas, whatever the gate kind
    model, t = (quantified_or(), 1e4) if seed == "quantified_or" else BATTERY[seed]()
    for theory in (compile_direct(model, t), compile_disjoint(model, t)):
        for clause in theory.clauses:
            body_vars = set().union(*map(_variables, clause.body))
            assert body_vars <= _variables(clause.head), clause
