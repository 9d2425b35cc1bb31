"""A fixed pure-Python kernel that measures how fast the host runs Python now.

The benchmark runs `kernel()` before, during and after every request and
around every set-up sample, and divides each time it measures by the
kernel's time around it. On a shared host the speed of the same code
swings from one second to the next and drifts by tens of percent over
minutes; a time in kernel units cancels that while still moving with the
code under test, since the kernel imports nothing from pfta and never
changes between the commits being compared.

The kernel does what pfta's hot paths do, on a small working set: it
builds frozen dataclass terms, unifies them through dict substitutions,
renames them apart, runs a best-first search on a heap, dedups states in
a set and formats text. One run takes about 5 ms.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass
from itertools import count

SIZE = 400


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Term:
    pred: str
    args: tuple


def _walk(term, subst):
    while isinstance(term, _Var) and term in subst:
        term = subst[term]
    return term


def _unify(a: _Term, b: _Term, subst: dict) -> dict | None:
    if a.pred != b.pred or len(a.args) != len(b.args):
        return None
    out = dict(subst)
    for x, y in zip(a.args, b.args):
        x, y = _walk(x, out), _walk(y, out)
        if x == y:
            continue
        if isinstance(x, _Var):
            out[x] = y
        elif isinstance(y, _Var):
            out[y] = x
        else:
            return None
    return out


def _rename(term: _Term, fresh: count, mapping: dict) -> _Term:
    args = []
    for a in term.args:
        if isinstance(a, _Var):
            if a not in mapping:
                mapping[a] = _Var(f"{a.name}#{next(fresh)}")
            a = mapping[a]
        args.append(a)
    return _Term(term.pred, tuple(args))


def _work() -> int:
    fresh = count()
    facts = [_Term(f"p{i % 7}", (i % 11, f"c{i % 13}", i % 5)) for i in range(SIZE)]
    goals = [_Term(f"p{i % 7}", (_Var("X"), f"c{(i * 3) % 13}", _Var("Y"))) for i in range(SIZE)]
    heap: list = []
    seen: set = set()
    tick = count()
    for goal in goals:
        goal = _rename(goal, fresh, {})
        first = (len(heap) * 7) % SIZE
        for fact in facts[first:first + 8]:
            subst = _unify(goal, fact, {})
            if subst is not None:
                state = tuple(sorted((v.name, str(t)) for v, t in subst.items()))
                if state not in seen:
                    seen.add(state)
                    heapq.heappush(heap, (len(state), next(tick), state))
    text = []
    while heap:
        _, _, state = heapq.heappop(heap)
        text.append(";".join(f"{k}={v}" for k, v in state))
    return len("\n".join(text))


def kernel() -> float:
    """Seconds one run of the fixed kernel takes right now."""
    # The kernel makes no reference cycles. With the collector off, its time
    # does not depend on how large a heap pfta keeps between requests.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
