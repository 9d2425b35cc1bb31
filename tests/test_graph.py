from __future__ import annotations

import sys
from collections import Counter

import pytest

from pfta.graph import CycleError, postorder

# a reads b and c, which both read d
DIAMOND = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}


def test_diamond_yields_each_node_once_after_its_inputs():
    order = list(postorder(["a"], DIAMOND.__getitem__))
    assert order == ["d", "b", "c", "a"]
    for node, inputs in DIAMOND.items():
        assert all(order.index(i) < order.index(node) for i in inputs)


def test_order_follows_the_roots_and_the_inputs():
    assert list(postorder(["c", "a"], DIAMOND.__getitem__)) == ["d", "c", "b", "a"]
    assert list(postorder(["d", "b", "a"], DIAMOND.__getitem__)) == ["d", "b", "c", "a"]
    reversed_inputs = {node: inputs[::-1] for node, inputs in DIAMOND.items()}
    assert list(postorder(["a"], reversed_inputs.__getitem__)) == ["d", "c", "b", "a"]


def test_inputs_is_called_once_per_node():
    calls = Counter()

    def inputs(node):
        calls[node] += 1
        return DIAMOND[node]

    assert len(list(postorder(["a", "b", "d", "a"], inputs))) == 4
    assert calls == Counter("abcd")


@pytest.mark.parametrize("graph, cycle", [
    ({"a": ["a"]}, {"a"}),
    ({"r": ["a"], "a": ["b"], "b": ["a"]}, {"a", "b"}),
], ids=["self-loop", "two-cycle"])
def test_a_back_edge_raises_naming_a_node_on_the_cycle(graph, cycle):
    with pytest.raises(CycleError) as exc:
        list(postorder(graph, graph.__getitem__))
    assert exc.value.node in cycle


def test_a_chain_deeper_than_the_recursion_limit_is_walked():
    depth = 2 * sys.getrecursionlimit()
    order = list(postorder([0], lambda i: [i + 1] if i < depth else []))
    assert order == list(range(depth, -1, -1))
