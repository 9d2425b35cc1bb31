"""The one inputs-first walk over a DAG given by an inputs function."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, TypeVar

Node = TypeVar("Node", bound=Hashable)


class CycleError(Exception):
    """The walk met `node` again below itself: a cycle passes through it."""

    def __init__(self, node: Hashable):
        self.node = node
        super().__init__(f"cycle through {node!r}")


def postorder(
    roots: Iterable[Node], inputs: Callable[[Node], Iterable[Node]]
) -> Iterator[Node]:
    """Every node reachable from `roots` once, each after all the nodes it reaches.

    Depth-first from each root in turn, taking a node's inputs in the order
    `inputs` gives them; `inputs` is called once per node, when the walk
    first reaches it.  The walk keeps an explicit stack, so a graph far
    deeper than the interpreter's recursion limit is walked all the same.
    Raises `CycleError` when an input leads back to a node on the path
    from the current root, whose walk is therefore not finished.
    """
    done: set = set()
    on_path: set = set()
    for root in roots:
        if root in done:
            continue
        on_path.add(root)
        stack = [(root, iter(inputs(root)))]
        while stack:
            node, rest = stack[-1]
            for child in rest:
                if child in on_path:
                    raise CycleError(child)
                if child not in done:
                    on_path.add(child)
                    stack.append((child, iter(inputs(child))))
                    break
            else:
                stack.pop()
                on_path.discard(node)
                done.add(node)
                yield node
