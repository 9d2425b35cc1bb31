"""Ground-truth reference: unfold the tree and enumerate every world.

This path never touches the Horn translation or the search engine.  The
parametric tree is unfolded to a ground DAG with one threshold node per
gate instance: it fails when at least m of its n inputs fail (m = n for
AND, 1 for OR, n-k+1 for `vote(k:n)`).  Every probability is obtained by
summing complete basic-event assignments, so it is exact, slow, and an
independent check on everything the engine computes.  Only the
enumeration needs numpy, so only the functions that enumerate import it,
in their bodies: `import pfta`, unfolding and evaluating a tree, and every
command but `pfta oracle` run without loading it.
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
    instantiate,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_EVENTS = 24
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


def _threshold(kind: str, k: int | None, n: int) -> int:
    """Failed inputs, of n, that fail a gate: all, one, or n-k+1 for vote(k:n)."""
    if kind == "and":
        return n
    if kind == "or":
        return 1
    return n - k + 1


def _gate_node(model: PftModel, key: Key) -> tuple[int, tuple[Key, ...]]:
    """The threshold node of a gate instance: (m, inputs)."""
    class_name, values = key
    gate = model.gate_map[class_name]
    env = dict(zip(model.event_map[class_name].formal_params, values))
    inputs = tuple(
        (ref.event, args) for ref in gate.inputs for args in instantiate(model, ref, env)
    )
    return _threshold(gate.kind, gate.k, len(inputs)), inputs


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


def _check_size(tree: GroundFaultTree, max_events: int) -> int:
    n = len(tree.basics)
    if n > max_events:
        raise OracleError(
            f"{n} ground basic events exceed the enumeration bound {max_events}"
        )
    return n


def _node_columns(tree: GroundFaultTree, bits: np.ndarray) -> dict[Key, np.ndarray]:
    """Evaluate all nodes over a chunk of assignments (rows of `bits`)."""
    import numpy as np

    cols: dict[Key, np.ndarray] = {}
    for j, (key, _) in enumerate(tree.basics):
        cols[key] = bits[:, j]
    for key, m, inputs in tree.nodes:
        failed = np.zeros(len(bits), dtype=np.int32)
        for i in inputs:
            failed += cols[i]
        cols[key] = failed >= m
    return cols


def _chunk_bits(n: int, start: int, stop: int) -> np.ndarray:
    import numpy as np

    idx = np.arange(start, stop, dtype=np.int64)
    return (idx[:, None] >> np.arange(n)) & 1 == 1


def _worlds(
    tree: GroundFaultTree, max_events: int
) -> Iterator[tuple[slice, np.ndarray, dict[Key, np.ndarray]]]:
    """All 2^N basic-event assignments in chunks, by failure bitmask.

    Yields (bitmask range, basic statuses, node statuses) per chunk; the
    rows of `bits` are the assignments of the range in order.
    """
    n = _check_size(tree, max_events)
    for start in range(0, 1 << n, 1 << _CHUNK_BITS):
        masks = slice(start, min(start + (1 << _CHUNK_BITS), 1 << n))
        bits = _chunk_bits(n, masks.start, masks.stop)
        yield masks, bits, _node_columns(tree, bits)


def exact_probability(
    tree: GroundFaultTree,
    condition: Mapping[Key, bool],
    max_events: int = DEFAULT_MAX_EVENTS,
) -> float:
    """Probability that every conditioned node has the stated status.

    Computed by enumerating all 2^N basic-event assignments and summing
    the weights of those satisfying `condition` (True = failed).
    """
    import numpy as np

    probs = np.array([p for _, p in tree.basics])
    total = 0.0
    for _, bits, cols in _worlds(tree, max_events):
        weights = np.where(bits, probs, 1.0 - probs).prod(axis=1)
        sat = np.ones(len(bits), dtype=bool)
        for key, must_fail in condition.items():
            sat &= cols[key] if must_fail else ~cols[key]
        total += float(weights[sat].sum())
    return total


def top_joint_probabilities(
    tree: GroundFaultTree, max_events: int = DEFAULT_MAX_EVENTS
) -> tuple[float, np.ndarray]:
    """P(top failed), and P(b failed and top failed) for every basic b.

    The joints follow the order of `tree.basics`; both come from one
    enumeration of the 2^N basic-event assignments.  Each is summed over
    the same worlds in the same order as `exact_probability` sums it, so
    the values agree bit for bit; a matrix product sums in blocks and was
    an order of magnitude less accurate on the shipped example.
    """
    import numpy as np

    n = len(tree.basics)
    probs = np.array([p for _, p in tree.basics])
    top = 0.0
    joints = np.zeros(n)
    for _, bits, cols in _worlds(tree, max_events):
        weights = np.where(bits, probs, 1.0 - probs).prod(axis=1)
        failed = cols[tree.top]
        top += float(weights[failed].sum())
        joints += [weights[failed & bits[:, j]].sum() for j in range(n)]
    return top, joints


def top_failure_vector(tree: GroundFaultTree, max_events: int = DEFAULT_MAX_EVENTS) -> np.ndarray:
    """Top event status for every assignment, indexed by failure bitmask."""
    import numpy as np

    out = np.empty(1 << _check_size(tree, max_events), dtype=bool)
    for masks, _, cols in _worlds(tree, max_events):
        out[masks] = cols[tree.top]
    return out


def prime_implicants(
    tree: GroundFaultTree, max_events: int = DEFAULT_MAX_EVENTS
) -> list[frozenset[Key]]:
    """Minimal failure sets of the top event, by exhaustive enumeration.

    Every node is a threshold of its inputs, so the tree is coherent and
    a failing set is minimal exactly when dropping any single element
    makes the top event work.  One numpy step per basic event j clears
    that flag on every failing set with bit j whose twin without it fails
    too; at the 24-event bound the flags and the step's temporary take
    about 24 MB beside the failure vector.
    """
    import numpy as np

    n = _check_size(tree, max_events)
    failed = top_failure_vector(tree, max_events)
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
