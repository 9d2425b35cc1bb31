"""Dependability measures of a model at a mission time.

Qualitative results (minimal cut sets) come from the direct translation;
quantitative ones (unreliability, posteriors, curves) from the
status-complete translation, whose explanations of the top event are
mutually exclusive partial assignments of the basic events.  One
exhaustive search of it gives a `TopExplanations` table, and every exact
measure reads that table.  P(E1..Ek and top) is the sum over the
explanations of P(expl) times, per member, 1 if the explanation holds it
failed, 0 if working and P(Ei failed) if it leaves it open; a basic event
is a one-member cut set.  The explanation set does not depend on the
mission time (every declaration is emitted at any time and the
exhaustive search prunes nothing), so an exhaustive curve reweights the
rows of one table at each grid time.  Bounded unreliability and curves
search with their stop criteria instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .compile import CompileOptions, compile_direct, compile_disjoint, predicate_name
from .engine import (
    EXHAUSTIVE,
    ProbabilityBounds,
    StopCriteria,
    explain,
    minimal_explanations,
    probability,
)
from .errors import AnalysisError
from .model import (
    GroundEvent,
    KIND_BASIC,
    PftModel,
    failure_probability,
    format_instance,
)
from .pha import Atom, STATUS_FAILED


@dataclass(frozen=True)
class CutSet:
    """A minimal failure set with its prior and optional posterior weight."""

    events: frozenset[GroundEvent]
    prior: float
    posterior: float | None = None

    def rendered(self) -> tuple[str, ...]:
        return tuple(format_instance(k) for k in sorted(self.events))


@dataclass(frozen=True)
class UnreliabilityPoint:
    time: float
    bounds: ProbabilityBounds


def top_atom(model: PftModel) -> Atom:
    return Atom(predicate_name(model.top.class_name))


def _class_names(model: PftModel) -> dict[str, str]:
    return {predicate_name(e.class_name): e.class_name for e in model.events}


def _basic_instance(model: PftModel, name: str, values: tuple) -> GroundEvent:
    ev = model.event_map.get(name)
    if ev is None or ev.kind != KIND_BASIC:
        raise AnalysisError(f"{name} is not a basic event class of the model")
    if len(values) != len(ev.formal_params):
        raise AnalysisError(
            f"{name} takes {len(ev.formal_params)} parameter values, got {len(values)}"
        )
    for param, value in zip(ev.formal_params, values):
        if value not in model.param_values(param):
            raise AnalysisError(
                f"{format_instance((name, values))}: {value} is not a value of parameter {param}"
            )
    return (name, tuple(values))


def parse_instance(model: PftModel, text: str) -> GroundEvent:
    """Read a rendered ground event such as `D(1,2)` back into a key."""
    m = re.fullmatch(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?:\(([^()]*)\))?\s*", text)
    if m is None:
        raise AnalysisError(f"cannot parse event {text!r}")
    values: tuple[int, ...] = ()
    if m.group(2) is not None and m.group(2).strip():
        try:
            values = tuple(int(v) for v in m.group(2).split(","))
        except ValueError:
            raise AnalysisError(f"cannot parse event {text!r}") from None
    return _basic_instance(model, m.group(1), values)


def _as_instance(model: PftModel, event: GroundEvent | str) -> GroundEvent:
    if isinstance(event, str):
        return parse_instance(model, event)
    return _basic_instance(model, *event)


def _require_positive_time(t: float) -> None:
    if not t > 0:
        raise AnalysisError(f"mission time must be positive, got {t}")


def minimal_cut_sets(
    model: PftModel,
    t: float,
    stop: StopCriteria = EXHAUSTIVE,
    options: CompileOptions | None = None,
) -> list[CutSet]:
    """Minimal cut sets ranked by prior probability, ties lexicographic."""
    _require_positive_time(t)
    theory = compile_direct(model, t, options)
    expls = minimal_explanations(theory, top_atom(model), stop)
    names = _class_names(model)
    cut_sets = [
        CutSet(frozenset((names[a.pred], a.args[:-1]) for a in e.hypotheses), e.prob)
        for e in expls
    ]
    cut_sets.sort(key=lambda c: (-c.prior, c.rendered()))
    return cut_sets


@dataclass(frozen=True)
class TopExplanations:
    """Every stage-2 explanation of the top event at time `t`.

    Each row is (probability, failed events, working events); `top` is the
    sum of the probabilities in emission order, i.e. the exhaustive
    unreliability bit for bit.  Every exact posterior and every exhaustive
    curve point is read off these rows.
    """

    model: PftModel
    t: float
    top: float
    rows: tuple[tuple[float, frozenset[GroundEvent], frozenset[GroundEvent]], ...]

    def posterior(self, events: Iterable[GroundEvent | str]) -> float:
        """P(every one of `events` failed | top event) at time `t`.

        An explanation contributes its probability times 1 per member it
        holds failed, 0 if it holds one working, and P(e failed) per member
        it leaves open; the factors multiply in sorted member order.
        """
        keys = sorted({_as_instance(self.model, e) for e in events})
        _require_positive_time(self.t)
        if self.top <= 0.0:
            raise AnalysisError("posterior undefined: system unreliability is 0")
        probs = {e: failure_probability(self.model.rate_map[e[0]], self.t) for e in keys}
        joint = 0.0
        for prob, failed, working in self.rows:
            if working.isdisjoint(keys):
                for e in keys:
                    if e not in failed:
                        prob *= probs[e]
                joint += prob
        return joint / self.top

    def curve(self, times: Sequence[float]) -> list[UnreliabilityPoint]:
        """Exact unreliability at each time, by reweighting the rows."""
        rates = self.model.rate_map
        column = {name: i for i, name in enumerate(rates)}
        # counts[e, 0, c] / counts[e, 1, c]: failed / working events of class c
        counts = np.zeros((len(self.rows), 2, len(rates)))
        for row, (_, failed, working) in zip(counts, self.rows):
            for name, _ in failed:
                row[0, column[name]] += 1
            for name, _ in working:
                row[1, column[name]] += 1
        points = []
        for t in times:
            p = np.array([failure_probability(lam, t) for lam in rates.values()])
            value = float((np.stack([p, 1.0 - p]) ** counts).prod(axis=(1, 2)).sum())
            value = min(value, 1.0)
            points.append(UnreliabilityPoint(t, ProbabilityBounds(value, value)))
        return points


def top_explanations(model: PftModel, t: float) -> TopExplanations:
    """One exhaustive search of the stage-2 theory for the top event."""
    result = explain(compile_disjoint(model, t), top_atom(model))
    names = _class_names(model)
    rows = []
    for expl in result.explanations:
        failed, working = [], []
        for a in expl.hypotheses:
            key = (names[a.pred], a.args[:-1])
            (failed if a.args[-1] == STATUS_FAILED else working).append(key)
        rows.append((expl.prob, frozenset(failed), frozenset(working)))
    return TopExplanations(model, t, result.bounds.lower, tuple(rows))


def _labeled(
    model: PftModel, instances: Iterable[GroundEvent | str] | None
) -> list[tuple[str, GroundEvent]]:
    """Row labels and keys: the given instances, or each class's first replica."""
    if instances is not None:
        keys = [_as_instance(model, e) for e in instances]
        return [(format_instance(k), k) for k in keys]
    labeled = []
    for ev in model.events:
        if ev.kind != KIND_BASIC:
            continue
        values = tuple(model.param_values(p)[0] for p in ev.formal_params)
        label = ev.class_name
        if ev.formal_params:
            label += "(" + ",".join(ev.formal_params) + ")"
        labeled.append((label, (ev.class_name, values)))
    return labeled


def system_unreliability(
    model: PftModel, t: float, stop: StopCriteria = EXHAUSTIVE
) -> ProbabilityBounds:
    """Bounds on the probability that the top event occurs by time t."""
    if t == 0:
        return ProbabilityBounds(0.0, 0.0)
    _require_positive_time(t)
    return probability(compile_disjoint(model, t), top_atom(model), stop)


def unreliability_curve(
    model: PftModel, times: Sequence[float], stop: StopCriteria = EXHAUSTIVE
) -> list[UnreliabilityPoint]:
    """Unreliability at each requested mission time.

    An exhaustive curve costs one search; a bounded one searches once per
    time, so that the stop criteria hold at every point.
    """
    for t in times:
        if t != 0:
            _require_positive_time(t)
    if not stop.exhaustive:
        return [UnreliabilityPoint(t, system_unreliability(model, t, stop)) for t in times]
    if not times:
        return []
    return top_explanations(model, max(times)).curve(times)


def curve_times(t_from: float, t_to: float, step: float) -> list[float]:
    """Arithmetic grid from t_from to t_to inclusive (within rounding)."""
    if step <= 0:
        raise AnalysisError(f"step must be positive, got {step}")
    if t_to < t_from:
        raise AnalysisError("curve end time precedes start time")
    times = []
    i = 0
    while True:
        t = t_from + i * step
        if t > t_to + 1e-9 * max(1.0, abs(t_to)):
            break
        times.append(t)
        i += 1
    return times


def basic_event_posteriors(
    model: PftModel,
    t: float,
    instances: Iterable[GroundEvent | str] | None = None,
) -> list[tuple[str, float]]:
    """Posterior table of basic events, all rows from one search.

    By default there is one row per class, computed on its first replica
    and labeled with the class and its formal parameter names, e.g.
    `D(i,j)`; replicas of a class are interchangeable in replica-symmetric
    models, which is what a per-class table presumes.  Given `instances`,
    there is one row per ground instance instead, labeled e.g. `D(1,2)`.
    """
    labeled = _labeled(model, instances)
    _require_positive_time(t)
    table = top_explanations(model, t)
    return [(label, table.posterior([key])) for label, key in labeled]


def attach_posteriors(
    model: PftModel, cut_sets: Sequence[CutSet], t: float
) -> list[CutSet]:
    """Return the cut sets with their posterior weights filled in.

    The posteriors are exact even when the cut sets came from a bounded
    search.
    """
    if not cut_sets:
        return []
    _require_positive_time(t)
    table = top_explanations(model, t)
    return [CutSet(c.events, c.prior, table.posterior(c.events)) for c in cut_sets]
