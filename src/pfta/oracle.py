"""Ground-truth reference: unfold the tree and enumerate every world.

This path never touches the Horn translation or the search engine.  The
parametric tree is unfolded to a ground DAG with one threshold node per
gate instance: it fails when at least `Gate.needed` of its n inputs fail.
Every probability is obtained by summing complete basic-event
assignments, so it is exact, slow, and an independent check on
everything the engine computes; a tree over `MAX_EVENTS` ground basic
events is refused before any enumeration.  Only the enumeration needs
numpy, so only the functions that enumerate import it, in their bodies:
`import pfta`, unfolding and evaluating a tree, and every command but
`pfta oracle` run without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping

from .errors import OracleError
from .graph import postorder
from .model import (
    GroundEvent as Key,
    KIND_BASIC,
    PftModel,
    failure_probability,
    format_instance,
    input_instances,
)

if TYPE_CHECKING:
    import numpy as np

MAX_EVENTS = 24  # the most ground basic events enumerated, 2^24 worlds
_CHUNK_BITS = 16


@dataclass(frozen=True)
class GroundFaultTree:
    """Ground threshold DAG; `nodes` are topologically ordered (inputs first).

    Each node is (key, m, inputs): the gate instance fails when at least m
    of its inputs fail.
    """

    basics: tuple[tuple[Key, float], ...]
    nodes: tuple[tuple[Key, int, tuple[Key, ...]], ...]
    top: Key

    @property
    def basic_keys(self) -> tuple[Key, ...]:
        return tuple(k for k, _ in self.basics)


def _gate_node(model: PftModel, key: Key) -> tuple[int, tuple[Key, ...]]:
    """The threshold node of a gate instance: (m, inputs)."""
    class_name, values = key
    gate = model.gate_map[class_name]
    env = dict(zip(model.event_map[class_name].formal_params, values))
    inputs = input_instances(model, gate, env)
    return gate.needed(len(inputs)), inputs


def unfold(model: PftModel, t: float) -> GroundFaultTree:
    """Instantiate every replica reachable from the top event."""
    gates: dict[Key, tuple[int, tuple[Key, ...]]] = {}

    def inputs(key: Key) -> tuple[Key, ...]:
        if key not in gates:
            if model.event_map[key[0]].kind == KIND_BASIC:
                return ()
            gates[key] = _gate_node(model, key)
        return gates[key][1]

    top_key: Key = (model.top.class_name, ())
    nodes = []
    basic_probs: dict[Key, float] = {}
    for key in postorder([top_key], inputs):
        if key in gates:
            nodes.append((key, *gates[key]))
        else:
            basic_probs[key] = failure_probability(model.rate_map[key[0]], t)
    order = {e.class_name: i for i, e in enumerate(model.events)}
    basics = tuple(
        (k, basic_probs[k]) for k in sorted(basic_probs, key=lambda k: (order[k[0]], k[1]))
    )
    return GroundFaultTree(basics, tuple(nodes), top_key)


def evaluate(tree: GroundFaultTree, failed: set[Key]) -> dict[Key, bool]:
    """Status of every node (True = failed) for one basic assignment."""
    state: dict[Key, bool] = {k: (k in failed) for k, _ in tree.basics}
    for key, m, inputs in tree.nodes:
        state[key] = sum(state[i] for i in inputs) >= m
    return state


def _check_size(tree: GroundFaultTree) -> int:
    n = len(tree.basics)
    if n > MAX_EVENTS:
        raise OracleError(
            f"{n} ground basic events exceed the enumeration bound {MAX_EVENTS}"
        )
    return n


def _worlds(
    tree: GroundFaultTree,
) -> Iterator[tuple[slice, np.ndarray, dict[Key, np.ndarray | np.bool_]]]:
    """All 2^N basic-event assignments in chunks, by failure bitmask.

    Yields (bitmask range, weights, node statuses) per chunk: the
    probability of each assignment of the range, in order, and every
    node's status under each.  Within a chunk the low bits vary and the
    high bits are fixed, so a low basic event's status is a column built
    once per call and a high one's a single bool.  A weight multiplies the
    events' factors p or 1-p left to right in bit order: the low bits'
    products by doubling, once per call, then each high bit's factor in
    turn.
    """
    import numpy as np

    n = _check_size(tree)
    low = min(n, _CHUNK_BITS)
    keys = tree.basic_keys
    probs = [p for _, p in tree.basics]
    low_weights = np.ones(1)
    for p in probs[:low]:
        low_weights = np.concatenate((low_weights * (1.0 - p), low_weights * p))
    low_cols: dict[Key, np.ndarray] = {}
    for j in range(low):
        low_cols[keys[j]] = col = np.zeros(1 << low, dtype=bool)
        col.reshape(-1, 2, 1 << j)[:, 1, :] = True  # axis 1 is bit j
    for chunk in range(1 << (n - low)):
        weights = low_weights
        cols = dict(low_cols)
        for j in range(low, n):
            fails = chunk >> (j - low) & 1 == 1
            weights = weights * (probs[j] if fails else 1.0 - probs[j])
            cols[keys[j]] = np.bool_(fails)
        for key, m, inputs in tree.nodes:
            count = np.zeros(1 << low, dtype=np.min_scalar_type(len(inputs)))
            for i in inputs:
                count += cols[i]
            cols[key] = count >= m
        yield slice(chunk << low, (chunk + 1) << low), weights, cols


def exact_probability(tree: GroundFaultTree, condition: Mapping[Key, bool]) -> float:
    """Probability that every conditioned node has the stated status.

    Computed by enumerating all 2^N basic-event assignments and summing
    the weights of those satisfying `condition` (True = failed).
    """
    import numpy as np

    nodes = set(tree.basic_keys).union(key for key, _, _ in tree.nodes)
    for key in condition:
        if key not in nodes:
            raise OracleError(f"{format_instance(key)} is not a node of the ground tree")
    total = 0.0
    for _, weights, cols in _worlds(tree):
        sat = np.ones(len(weights), dtype=bool)
        for key, must_fail in condition.items():
            sat &= cols[key] if must_fail else ~cols[key]
        total += float(weights[sat].sum())
    return total


def top_enumeration(tree: GroundFaultTree) -> tuple[float, np.ndarray, np.ndarray]:
    """P(top), its joints with every basic event and the top failure vector.

    One pass over the 2^N basic-event assignments gives P(top failed);
    P(b failed and top failed) for every basic b, in the order of
    `tree.basics`; and the top event's status under every assignment,
    indexed by failure bitmask.  Each sum adds the same worlds in the same
    order as `exact_probability` sums it, so the values agree bit for bit;
    a matrix product sums in blocks and was an order of magnitude less
    accurate on the shipped example.
    """
    import numpy as np

    n = _check_size(tree)
    low = min(n, _CHUNK_BITS)
    top = 0.0
    joints = np.zeros(n)
    vector = np.empty(1 << n, dtype=bool)
    for masks, weights, cols in _worlds(tree):
        failed = cols[tree.top]
        vector[masks] = failed
        chunk_top = weights[failed].sum()
        top += float(chunk_top)
        # axis 1 of the (-1, 2, 2^j) view is bit j of the failure bitmask;
        # a high bit is set in every world of the chunk or in none
        joints += [
            weights.reshape(-1, 2, 1 << j)[:, 1, :][failed.reshape(-1, 2, 1 << j)[:, 1, :]].sum()
            if j < low
            else (chunk_top if masks.start >> j & 1 else 0.0)
            for j in range(n)
        ]
    return top, joints, vector


def prime_implicants(tree: GroundFaultTree, failed: np.ndarray) -> list[frozenset[Key]]:
    """Minimal failure sets of the top event, by exhaustive enumeration.

    `failed` is the top failure vector that `top_enumeration` returns for
    `tree`; the tree is still refused over `MAX_EVENTS`.  Every node is a
    threshold of its inputs, so the tree is coherent and a failing set is
    minimal exactly when dropping any single element makes the top event
    work.  One numpy step per basic event j clears that flag on every
    failing set with bit j whose twin without it fails too; at the
    24-event bound the flags and the step's temporary take about 24 MB
    beside the 16 MB failure vector.
    """
    import numpy as np

    n = _check_size(tree)
    minimal = failed.copy()
    for j in range(n):
        # axis 1 is bit j of the failure bitmask
        minimal.reshape(-1, 2, 1 << j)[:, 1, :] &= ~failed.reshape(-1, 2, 1 << j)[:, 0, :]
    keys = tree.basic_keys
    out = [
        frozenset(keys[j] for j in range(n) if mask >> j & 1)
        for mask in map(int, np.flatnonzero(minimal))
    ]
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out
