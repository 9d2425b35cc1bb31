from __future__ import annotations

from collections import Counter

import pytest

from pfta.dsl import parse_model
from pfta.engine import EXHAUSTIVE, ExplanationSearch, StopCriteria
from pfta.errors import AnalysisError
from pfta.measures import (
    MAX_CURVE_POINTS,
    attach_posteriors,
    basic_event_posteriors,
    curve_times,
    minimal_cut_sets,
    parse_instance,
    top_event,
    unreliability_curve,
)
from pfta.model import format_instance
from pfta.oracle import exact_probability, top_enumeration, unfold
from randmodels import CONSTANT_OF_U, chain, multiprocessor, random_model

T = 1e4

# frozen reference values for the shipped example at t = 10^4 hours
TOP_PROBABILITY = 0.2245283367701036
DISK_QUAD_PRIOR = 0.0919536423197623
DISKS_PLUS_CPU_PRIOR = 0.0015124087760107307
CPU_PAIR_PRIOR = 2.4875363803426872e-05


def test_cut_sets_are_found_and_ranked(model):
    cut_sets = minimal_cut_sets(model, T)
    assert len(cut_sets) == 28
    priors = [c.prior for c in cut_sets]
    assert priors == sorted(priors, reverse=True)
    assert cut_sets[0].prior == pytest.approx(DISK_QUAD_PRIOR, abs=1e-15)
    assert cut_sets[3].prior == pytest.approx(DISKS_PLUS_CPU_PRIOR, abs=1e-15)


def test_tied_cut_sets_order_lexicographically(model):
    quads = [c.labels for c in minimal_cut_sets(model, T)[:3]]
    assert quads == sorted(quads)
    assert quads[0] == ("D(1,1)", "D(1,2)", "D(2,1)", "D(2,2)")


@pytest.mark.parametrize("case, count", [
    (multiprocessor(3, 2, 2), 28), (multiprocessor(4, 2, 2), 109), (chain(12), 13),
], ids=["mp(3,2,2)", "mp(4,2,2)", "chain(12)"])
def test_exhaustive_cut_set_counts(case, count):
    assert len(minimal_cut_sets(case, T)) == count


def test_bounded_cut_sets_of_the_reference_model():
    assert len(minimal_cut_sets(multiprocessor(3, 2, 2), T, StopCriteria(max_explanations=5))) == 5


@pytest.mark.parametrize("stop", [EXHAUSTIVE, StopCriteria(max_explanations=20)],
                         ids=["exhaustive", "bounded"])
def test_cut_sets_build_no_explanation_by_iterating_and_render_each_event_once(monkeypatch,
                                                                              stop):
    case = multiprocessor(5, 2, 3)
    expected = [(c.events, c.prior, c.labels)
                for c in minimal_cut_sets(case, T, stop)]
    rendered = Counter()

    def counting(key):
        rendered[key] += 1
        return format_instance(key)

    def refuse(self):
        raise AssertionError("ExplanationSearch.__next__ was called")

    monkeypatch.setattr("pfta.measures.format_instance", counting)
    monkeypatch.setattr(ExplanationSearch, "__next__", refuse)
    cut_sets = minimal_cut_sets(case, T, stop)
    assert [(c.events, c.prior, c.labels) for c in cut_sets] == expected
    assert set(rendered) == set().union(*(c.events for c in cut_sets))
    assert set(rendered.values()) == {1}


def test_cut_sets_respect_stopping_criteria(model):
    top_five = minimal_cut_sets(model, T, StopCriteria(max_explanations=5))
    assert len(top_five) == 5
    assert all(c.prior >= DISKS_PLUS_CPU_PRIOR - 1e-12 for c in top_five)


def test_system_unreliability_matches_the_frozen_value(model):
    bounds = unreliability_curve(model, [T])[0].bounds
    assert bounds.lower == pytest.approx(TOP_PROBABILITY, abs=1e-12)
    assert bounds.upper == pytest.approx(TOP_PROBABILITY, abs=1e-12)


def test_unreliability_is_zero_at_time_zero(model):
    bounds = unreliability_curve(model, [0.0])[0].bounds
    assert (bounds.lower, bounds.upper) == (0.0, 0.0)


def test_negative_time_is_rejected(model):
    with pytest.raises(AnalysisError, match="mission time"):
        minimal_cut_sets(model, -1.0)
    with pytest.raises(AnalysisError, match="mission time"):
        unreliability_curve(model, [-1.0])
    with pytest.raises(AnalysisError, match="mission time"):
        attach_posteriors(model, minimal_cut_sets(model, T), -1.0)
    with pytest.raises(AnalysisError, match="mission time"):
        basic_event_posteriors(model, -1.0)
    with pytest.raises(AnalysisError, match="mission time"):
        top_event(model, 0.0).posterior(["B"])


def test_curve_times_builds_an_inclusive_grid():
    assert curve_times(0, 20000, 2000) == [2000.0 * i for i in range(11)]
    assert curve_times(5, 6, 0.5) == [5.0, 5.5, 6.0]
    # the grid is counted in steps, so a grid below 1 h stops at its end
    assert curve_times(0, 1e-10, 1e-10) == [0.0, 1e-10]
    assert curve_times(0, 0.3, 0.1) == [0.0, 0.1, 0.2, 0.30000000000000004]
    # and a late start neither adds a point past the end nor drops the end
    assert curve_times(1e9, 1e9 + 10, 1) == [1e9 + i for i in range(11)]
    assert curve_times(1e6, 1000000.01, 0.001) == [1e6 + i * 0.001 for i in range(11)]
    assert curve_times(1e6, 1000000.002, 0.001) == [1e6, 1e6 + 0.001, 1e6 + 0.002]
    with pytest.raises(AnalysisError, match="step"):
        curve_times(0, 10, 0)
    with pytest.raises(AnalysisError, match="precedes"):
        curve_times(10, 0, 2)


def test_curve_times_refuses_a_grid_over_the_point_limit():
    assert len(curve_times(0, MAX_CURVE_POINTS - 1, 1)) == MAX_CURVE_POINTS
    with pytest.raises(AnalysisError, match=f"limit of {MAX_CURVE_POINTS} points"):
        curve_times(0, MAX_CURVE_POINTS, 1)
    with pytest.raises(AnalysisError, match="1e\\+300 points"):
        curve_times(0, 1, 1e-300)


def test_an_oversized_grid_counts_its_points_exactly():
    for t_to, step, size in ((1e9, 1, 1000000001), (1e7, 0.5, 20000001), (1, 1e-9, 1000000001)):
        with pytest.raises(AnalysisError, match=f"grid of {size} points"):
            curve_times(0, t_to, step)


def test_unreliability_curve_is_monotone(model):
    points = unreliability_curve(model, curve_times(0, 20000, 2000))
    lows = [p.bounds.lower for p in points]
    assert len(lows) == 11
    assert lows[0] == 0.0
    assert all(a <= b for a, b in zip(lows, lows[1:]))


def test_parse_instance_accepts_source_style_labels(model):
    assert parse_instance(model, "D(1,2)") == ("D", (1, 2))
    assert parse_instance(model, "B") == ("B", ())
    assert parse_instance(model, " Mg ") == ("Mg", ())


def test_parse_instance_rejects_bad_labels(model):
    with pytest.raises(AnalysisError, match="cannot parse"):
        parse_instance(model, "D(1,")
    with pytest.raises(AnalysisError, match=r"cannot parse event 'D\(a,b\)'"):
        parse_instance(model, "D(a,b)")
    with pytest.raises(AnalysisError, match="not a basic event class"):
        parse_instance(model, "S(1)")
    with pytest.raises(AnalysisError):
        parse_instance(model, "D(1)")  # wrong arity


def test_posterior_equals_prior_over_top_probability(model):
    cut_sets = attach_posteriors(model, minimal_cut_sets(model, T), T)
    for cs in cut_sets:
        assert cs.posterior == pytest.approx(cs.prior / TOP_PROBABILITY, rel=1e-9)


def test_no_cut_sets_need_no_evaluation(monkeypatch, model):
    def refuse(*args):
        raise AssertionError("top_event was called")

    monkeypatch.setattr("pfta.measures.top_event", refuse)
    assert attach_posteriors(model, [], T) == []


def test_cut_set_posterior_accepts_plain_event_sets(model):
    value = top_event(model, T).posterior({("B", ())})
    assert value == pytest.approx(8.91e-5, abs=1e-7)


def test_basic_event_posterior_accepts_text_labels(model):
    top = top_event(model, T)
    assert top.posterior(["D(1,2)"]) == pytest.approx(
        top.posterior([("D", (1, 2))]), abs=1e-15
    )


def test_basic_event_posteriors_label_one_replica_per_class(model):
    table = basic_event_posteriors(model, T)
    assert [label for label, _ in table] == ["B", "Mg", "M(i)", "P(i)", "D(i,j)"]


def test_basic_event_posteriors_list_every_instance_of_an_asymmetric_class():
    # `D(i,3)` names a constant of U, so `D` gets one row per instance and
    # each row is its own exact posterior
    model = parse_model(CONSTANT_OF_U)
    table = basic_event_posteriors(model, 1e3)
    assert [label for label, _ in table] == [
        "B", "D(1,1)", "D(1,2)", "D(1,3)", "D(2,1)", "D(2,2)", "D(2,3)"]
    tree = unfold(model, 1e3)
    top, joints, _ = top_enumeration(tree)
    expected = {format_instance(k): j / top for k, j in zip(tree.basic_keys, joints)}
    for label, value in table:
        assert value == pytest.approx(expected[label], abs=1e-12), label
    assert table[1][1] != table[3][1]


def test_replicas_share_their_posterior(model):
    top = top_event(model, T)
    disks = [top.posterior([("D", (i, j))]) for i in (1, 2, 3) for j in (1, 2)]
    assert max(disks) - min(disks) < 1e-12


def test_top_event_holds_the_exhaustive_measures(model):
    top = top_event(model, T)
    assert top.probability == unreliability_curve(model, [T])[0].bounds.lower
    assert top.probability == pytest.approx(TOP_PROBABILITY, abs=1e-12)
    assert [p.time for p in unreliability_curve(model, [0.0, T])] == [0.0, T]
    cut_sets = attach_posteriors(model, minimal_cut_sets(model, T), T)
    assert len(cut_sets) == 28
    assert cut_sets[0].posterior is not None
    assert len(basic_event_posteriors(model, T)) == 5


def test_posteriors_are_exact_under_bounded_stop_criteria(model):
    bound = StopCriteria(max_explanations=5)
    exhaustive = attach_posteriors(model, minimal_cut_sets(model, T), T)
    bounded = attach_posteriors(model, minimal_cut_sets(model, T, bound), T)
    assert len(bounded) == 5
    expected = {c.events: c.posterior for c in exhaustive}
    assert all(c.posterior == expected[c.events] for c in bounded)
    bounded_top = unreliability_curve(model, [T], bound)[0].bounds.lower
    assert bounded_top < unreliability_curve(model, [T])[0].bounds.lower


def test_basic_posteriors_reject_instances_outside_the_model(model):
    with pytest.raises(AnalysisError, match="not a value of parameter j"):
        basic_event_posteriors(model, T, ["D(1,3)"])
    with pytest.raises(AnalysisError, match="not a basic event class"):
        basic_event_posteriors(model, T, [("S", (1,))])
    with pytest.raises(AnalysisError, match="not a basic event class"):
        top_event(model, T).posterior({("SKN", ())})
    # an integer index is its value; a value with none is refused
    assert basic_event_posteriors(model, T, [("D", (True, 2))]) == basic_event_posteriors(
        model, T, [("D", (1, 2))])
    with pytest.raises(AnalysisError, match="1.0 is not a value of parameter i"):
        basic_event_posteriors(model, T, [("D", (1.0, 2))])


@pytest.mark.parametrize("seed", range(12))
def test_posteriors_match_the_oracle_on_random_models(seed):
    model, t = random_model(seed)
    tree = unfold(model, t)
    top, joints, _ = top_enumeration(tree)

    table = basic_event_posteriors(model, t, tree.basic_keys)
    assert [label for label, _ in table] == [
        f"{name}({','.join(map(str, values))})" if values else name
        for name, values in tree.basic_keys
    ]
    for (_, value), joint in zip(table, joints):
        assert value == pytest.approx(joint / top, abs=1e-12)

    exact = dict(zip(tree.basic_keys, joints / top))
    for label, value in basic_event_posteriors(model, t):
        name = label.split("(")[0]
        first = min(k for k in tree.basic_keys if k[0] == name)
        assert value == pytest.approx(exact[first], abs=1e-12)

    for cs in attach_posteriors(model, minimal_cut_sets(model, t), t):
        condition = {e: True for e in cs.events} | {tree.top: True}
        assert cs.posterior == pytest.approx(
            exact_probability(tree, condition) / top, abs=1e-12)

    # event sets that are not cut sets need P(top | both failed)
    keys = tree.basic_keys
    exact_top = top_event(model, t)
    for pair in zip(keys, keys[1:]):
        condition = {e: True for e in pair} | {tree.top: True}
        assert exact_top.posterior(pair) == pytest.approx(
            exact_probability(tree, condition) / top, abs=1e-12)


ZERO_RATE = """
model zero
type T = {1, 2, 3}
basic A(i:T) rate 1e-4
basic Z rate 0
basic C rate 2e-6
event G = vote(2:3) forall(i:T) A(i)
event H = and(Z, C)
top TE = or(G, H)
"""


@pytest.mark.parametrize("source", ["multiprocessor", "zero-rate", "random"])
def test_curve_matches_per_point_unreliability(source, model):
    if source == "zero-rate":
        model = parse_model(ZERO_RATE)
    elif source == "random":
        model, _ = random_model(3)
    times = [0.0, 1.0, 2500.0, 1e4, 3.3e4, 1e6]
    curve = unreliability_curve(model, times)
    assert [p.time for p in curve] == times
    assert (curve[0].bounds.lower, curve[0].bounds.upper) == (0.0, 0.0)
    for point in curve[1:]:
        single = unreliability_curve(model, [point.time])[0].bounds
        assert point.bounds.lower == point.bounds.upper
        assert point.bounds == single
        tree = unfold(model, point.time)
        assert point.bounds.lower == pytest.approx(
            exact_probability(tree, {tree.top: True}), abs=1e-12)


def test_curve_rejects_negative_times(model):
    with pytest.raises(AnalysisError, match="mission time"):
        unreliability_curve(model, [0.0, -5.0])
    assert unreliability_curve(model, []) == []
