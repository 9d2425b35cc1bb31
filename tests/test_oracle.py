from __future__ import annotations

from collections import Counter
from math import comb

import numpy as np
import pytest

from pfta.dsl import parse_model
from pfta.errors import ModelInvalidError, OracleError
from pfta.model import failure_probability
from pfta.oracle import (
    evaluate,
    exact_probability,
    prime_implicants,
    top_enumeration,
    unfold,
)
from randmodels import multiprocessor, random_model

T = 1e4

# frozen reference values for the shipped example at t = 10^4 hours
TOP_PROBABILITY = 0.2245283367701036
DISK_FAILURE = 0.5506710358827784
BUS_FAILURE = 1.999980000133333e-05


def test_unfold_grounds_every_replica(model):
    tree = unfold(model, T)
    assert tree.top == ("TE", ())
    assert len(tree.basics) == 14
    classes = Counter(key[0] for key in tree.basic_keys)
    assert classes == {"B": 1, "Mg": 1, "M": 3, "P": 3, "D": 6}


def test_unfold_keeps_one_threshold_node_per_gate_instance(model):
    tree = unfold(model, T)
    nodes = {key: (m, inputs) for key, m, inputs in tree.nodes}
    assert len(nodes) == len(tree.nodes) == 11
    # vote(2:3) fails when 2 of its 3 replicas fail; AND needs all, OR one
    assert nodes[("SKN", ())] == (2, (("S", (1,)), ("S", (2,)), ("S", (3,))))
    assert nodes[("DM", (2,))] == (2, (("D", (2, 1)), ("D", (2, 2))))
    assert nodes[("S", (3,))] == (1, (("P", (3,)), ("MM", (3,)), ("DM", (3,))))
    assert nodes[tree.top] == (1, (("B", ()), ("SKN", ())))


def test_a_wide_vote_is_one_node_counted_exactly():
    # 21 events; unfolding vote(10:20) into its failure subsets would take
    # C(20, 11) AND nodes
    wide = parse_model(
        "type T = {" + ", ".join(str(i) for i in range(1, 21)) + "}\n"
        "basic A(i:T) rate 1e-4\nbasic B rate 2e-5\n"
        "event V = vote(10:20) forall(i:T) A(i)\ntop TE = or(B, V)\n"
    )
    t = 5000.0
    tree = unfold(wide, t)
    assert [(key, m) for key, m, _ in tree.nodes] == [(("V", ()), 11), (("TE", ()), 1)]
    p_a, p_b = failure_probability(1e-4, t), failure_probability(2e-5, t)
    # vote(10:20) needs 10 working replicas, so fails when at least 11 fail
    tail = sum(comb(20, j) * p_a**j * (1 - p_a) ** (20 - j) for j in range(11, 21))
    top, _, _ = top_enumeration(tree)
    assert top == pytest.approx(1 - (1 - p_b) * (1 - tail), abs=1e-12)


def test_unfold_probabilities_match_the_rates(model):
    tree = unfold(model, T)
    probs = dict(tree.basics)
    assert probs[("D", (2, 1))] == failure_probability(8e-5, T)
    assert probs[("B", ())] == failure_probability(2e-9, T)


def test_unfold_rejects_invalid_models():
    # an invalid model never reaches the oracle: building it raises
    with pytest.raises(ModelInvalidError) as err:
        parse_model("basic B rate -2\ntop TE = or(B)")
    assert err.value.violations == ["negative failure rate for B"]


def test_evaluate_propagates_statuses(model):
    tree = unfold(model, T)
    quad = {("D", (1, 1)), ("D", (1, 2)), ("D", (2, 1)), ("D", (2, 2))}
    assert evaluate(tree, quad)[tree.top] is True
    assert evaluate(tree, {("B", ())})[tree.top] is True
    assert evaluate(tree, set())[tree.top] is False
    one_module = evaluate(tree, {("D", (1, 1)), ("D", (1, 2))})
    assert one_module[("S", (1,))] is True
    assert one_module[tree.top] is False


def test_exact_probability_of_the_top_event(model):
    tree = unfold(model, T)
    assert exact_probability(tree, {tree.top: True}) == pytest.approx(
        TOP_PROBABILITY, abs=1e-15
    )


def test_exact_probability_marginals_match_inputs(model):
    tree = unfold(model, T)
    assert exact_probability(tree, {("D", (1, 1)): True}) == pytest.approx(
        DISK_FAILURE, abs=1e-12
    )
    # the bus alone downs the system, so conditioning on the top adds nothing
    joint = exact_probability(tree, {("B", ()): True, tree.top: True})
    assert joint == pytest.approx(BUS_FAILURE, abs=1e-15)


def test_exact_probability_of_everything_is_one(model):
    tree = unfold(model, T)
    assert exact_probability(tree, {}) == pytest.approx(1.0, abs=1e-12)


def test_prime_implicants_on_the_example(model):
    tree = unfold(model, T)
    implicants = prime_implicants(tree, top_enumeration(tree)[2])
    assert len(implicants) == 28
    assert Counter(len(s) for s in implicants) == {1: 1, 2: 3, 3: 15, 4: 9}
    assert frozenset({("B", ())}) in implicants


def test_prime_implicants_are_sorted_by_size_then_members(model):
    tree = unfold(model, T)
    implicants = prime_implicants(tree, top_enumeration(tree)[2])
    keys = [(len(s), sorted(s)) for s in implicants]
    assert keys == sorted(keys)


def test_enumeration_bound_is_enforced():
    # refused on the bound before any of the 2^27 worlds is enumerated
    tree = unfold(multiprocessor(5, 3, 3), T)
    message = "^27 ground basic events exceed the enumeration bound 24$"
    with pytest.raises(OracleError, match=message):
        exact_probability(tree, {tree.top: True})
    with pytest.raises(OracleError, match=message):
        top_enumeration(tree)
    with pytest.raises(OracleError, match=message):
        prime_implicants(tree, np.zeros(0, dtype=bool))


def test_enumeration_is_deterministic(model):
    tree = unfold(model, T)
    first = prime_implicants(tree, top_enumeration(tree)[2])
    again = unfold(model, T)
    second = prime_implicants(again, top_enumeration(again)[2])
    assert first == second


def test_a_condition_on_an_unknown_node_names_it(model):
    tree = unfold(model, T)
    with pytest.raises(OracleError, match=r"^X is not a node of the ground tree$"):
        exact_probability(tree, {tree.top: True, ("X", ()): True})
    with pytest.raises(OracleError, match=r"^D\(4,1\) is not a node"):
        exact_probability(tree, {("D", (4, 1)): False})


def _bit_matrix_chunks(tree):
    """The enumeration as it was first written: per chunk of 2^16 worlds, a
    (worlds x N) bit matrix, the row products of its factors, and every
    node's column."""
    n = len(tree.basics)
    probs = np.array([p for _, p in tree.basics])
    for start in range(0, 1 << n, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), 1 << n), dtype=np.int64)
        bits = (idx[:, None] >> np.arange(n)) & 1 == 1
        cols = {key: bits[:, j] for j, key in enumerate(tree.basic_keys)}
        for key, m, inputs in tree.nodes:
            failed = np.zeros(len(bits), dtype=np.int32)
            for i in inputs:
                failed += cols[i]
            cols[key] = failed >= m
        yield bits, np.where(bits, probs, 1.0 - probs).prod(axis=1), cols


def _assert_bit_identical(tree, conditions):
    n = len(tree.basics)
    top, joints, vector = 0.0, np.zeros(n), []
    for bits, weights, cols in _bit_matrix_chunks(tree):
        failed = cols[tree.top]
        top += float(weights[failed].sum())
        joints += [weights[failed & bits[:, j]].sum() for j in range(n)]
        vector.append(failed)
    found_top, found_joints, found_vector = top_enumeration(tree)
    assert found_top == top
    assert found_joints.tolist() == joints.tolist()
    assert np.array_equal(found_vector, np.concatenate(vector))
    for condition in conditions:
        exact = 0.0
        for _, weights, cols in _bit_matrix_chunks(tree):
            sat = np.ones(len(weights), dtype=bool)
            for key, must_fail in condition.items():
                sat &= cols[key] if must_fail else ~cols[key]
            exact += float(weights[sat].sum())
        assert exact_probability(tree, condition) == exact, condition


def test_one_chunk_enumeration_is_bit_identical_to_the_bit_matrix(model):
    tree = unfold(model, T)
    keys = tree.basic_keys
    _assert_bit_identical(tree, [
        {tree.top: True}, {keys[0]: True, tree.top: True}, {keys[-1]: False},
        {("S", (2,)): True, ("D", (1, 1)): False},
    ])


@pytest.mark.parametrize("spec", [(3, 3, 2), (4, 2, 2)])
def test_several_chunk_enumeration_is_bit_identical_to_the_bit_matrix(spec):
    # 17 and 18 events: the bits above 16 are fixed per chunk
    tree = unfold(multiprocessor(*spec), T)
    keys = tree.basic_keys
    assert len(keys) > 16
    _assert_bit_identical(tree, [
        {tree.top: True}, {keys[-1]: True, tree.top: True},
        {keys[16]: False, ("SKN", ()): True}, {keys[3]: True, keys[-1]: False},
    ])


def test_enumeration_of_generated_models_is_bit_identical_to_the_bit_matrix():
    for seed in range(60):
        model, t = random_model(seed)
        tree = unfold(model, t)
        _assert_bit_identical(tree, [{tree.top: True}] + [
            {key: True, tree.top: True} for key in tree.basic_keys])
