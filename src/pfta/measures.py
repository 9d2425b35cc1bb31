"""Dependability measures of a model at a mission time.

Qualitative results (minimal cut sets) come from the direct translation;
quantitative ones (unreliability, posteriors, curves) from the
status-complete translation, whose same-head clause bodies are mutually
exclusive.  Every exact measure is one forward pass over a decomposition
of that theory recorded once, by `top_event` alone, without enumerating
explanations: P(top) directly, the posterior of failed events E1..Ek as
P(E1..Ek) * P(top | E1..Ek failed) / P(top) from the same recording, and
the posterior of a minimal cut set, which entails the top event, as its
prior over P(top).  Unreliability at one time is the one-point curve.
The theory's clauses do not depend on the mission time, so an exhaustive
curve records them once and replays the recording with the compiler's
declarations at each time.  Bounded curves search with their stop
criteria instead, and a point at time 0 is 0 without any theory.
No measure builds or parses an atom: `compile` writes the goal and the
hypotheses and reads them back into ground events.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import Iterable, Sequence

from .compile import (compile_direct, compile_disjoint, declarations, event_atom,
                      ground_events, top_atom)
from .engine import (
    EXHAUSTIVE,
    ExactEvaluator,
    ProbabilityBounds,
    StopCriteria,
    minimal_explanations,
    probability,
)
from .errors import AnalysisError
from .model import (
    GroundEvent,
    IDENTIFIER,
    KIND_BASIC,
    PftModel,
    failure_probability,
    format_instance,
)
from .pha import STATUS_FAILED

MAX_CURVE_POINTS = 10**6  # largest grid `curve_times` builds


@dataclass(frozen=True)
class CutSet:
    """A minimal failure set with its prior and optional posterior weight.

    `labels` renders the events in sorted order; when it is not given, it
    is rendered from `events`.
    """

    events: frozenset[GroundEvent]
    prior: float
    posterior: float | None = None
    labels: tuple[str, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.labels is None:
            labels = tuple(format_instance(k) for k in sorted(self.events))
            object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class UnreliabilityPoint:
    time: float
    bounds: ProbabilityBounds


def _basic_instance(model: PftModel, name: str, values: tuple) -> GroundEvent:
    ev = model.event_map.get(name)
    if ev is None or ev.kind != KIND_BASIC:
        raise AnalysisError(f"{name} is not a basic event class of the model")
    if len(values) != len(ev.formal_params):
        raise AnalysisError(
            f"{name} takes {len(ev.formal_params)} parameter values, got {len(values)}"
        )
    indices = []
    for param, value in zip(ev.formal_params, values):
        try:
            indices.append(operator.index(value))
        except TypeError:  # such as 1.0: no parameter has it as a value
            indices.append(None)
        if indices[-1] not in model.param_values(param):
            raise AnalysisError(
                f"{format_instance((name, values))}: {value} is not a value of parameter {param}"
            )
    return (name, tuple(indices))


def parse_instance(model: PftModel, text: str) -> GroundEvent:
    """Read a rendered ground event such as `D(1,2)` back into a key."""
    m = re.fullmatch(rf"\s*({IDENTIFIER.pattern})\s*(?:\(([^()]*)\))?\s*", text)
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
    model: PftModel, t: float, stop: StopCriteria = EXHAUSTIVE
) -> list[CutSet]:
    """Minimal cut sets ranked by prior probability, ties lexicographic.

    Each hypothesis the cut sets assume is mapped once to its rank among
    their ground events in sorted order, the event and its text; a cut
    set's events and labels come from those rows, in rank order.
    """
    _require_positive_time(t)
    theory = compile_direct(model, t)
    expls = minimal_explanations(theory, top_atom(model), stop)
    events = ground_events(model, set().union(*(e.hypotheses for e in expls)))
    rows = {a: (rank, key, format_instance(key))
            for rank, (a, key) in enumerate(sorted(events.items(), key=itemgetter(1)))}
    cut_sets = []
    for e in expls:
        members = sorted(map(rows.__getitem__, e.hypotheses))
        cut_sets.append(CutSet(frozenset([key for _, key, _ in members]), e.prob,
                               labels=tuple([text for _, _, text in members])))
    cut_sets.sort(key=lambda c: (-c.prior, c.labels))
    return cut_sets


@dataclass(frozen=True)
class TopEvent:
    """The exact top-event probability of a model at time `t`, and its posteriors.

    One recorded evaluation of the stage-2 theory answers P(top) and
    every conditioned query.
    """

    model: PftModel
    t: float
    evaluator: ExactEvaluator
    probability: float

    def posterior(self, events: Iterable[GroundEvent | str]) -> float:
        """P(every one of `events` failed | top event) at time `t`.

        That is the product of their failure probabilities, times
        P(top | they failed), over P(top); members multiply in sorted order.
        """
        keys = sorted({_as_instance(self.model, e) for e in events})
        prior = 1.0
        for name, _ in keys:
            prior *= failure_probability(self.model.rate_map[name], self.t)
        failed = [event_atom(key, STATUS_FAILED) for key in keys]
        return _posterior(prior * self.evaluator.probability(failed), self.probability)


def _posterior(joint: float, top: float) -> float:
    if top <= 0.0:
        raise AnalysisError("posterior undefined: system unreliability is 0")
    return joint / top


def top_event(model: PftModel, t: float) -> TopEvent:
    """Exact P(top) at time `t` > 0, from the stage-2 theory without a search."""
    _require_positive_time(t)
    evaluator = ExactEvaluator(compile_disjoint(model, t), top_atom(model))
    return TopEvent(model, t, evaluator, evaluator.probability())


def _labeled(
    model: PftModel, instances: Iterable[GroundEvent | str] | None
) -> list[tuple[str, GroundEvent]]:
    """Row labels and keys: the given instances, or by default each class's
    first replica, or every instance of a class with an asymmetric type."""
    if instances is not None:
        keys = [_as_instance(model, e) for e in instances]
        return [(format_instance(k), k) for k in keys]
    labeled = []
    for ev in model.events:
        if ev.kind != KIND_BASIC:
            continue
        types = {model.param_map[p].type_name for p in ev.formal_params}
        if types <= model.symmetric_types:
            values = tuple(model.param_values(p)[0] for p in ev.formal_params)
            label = format_instance((ev.class_name, ev.formal_params))
            labeled.append((label, (ev.class_name, values)))
        else:
            keys = [(ev.class_name, values)
                    for values in product(*map(model.param_values, ev.formal_params))]
            labeled += [(format_instance(k), k) for k in keys]
    return labeled


def unreliability_curve(
    model: PftModel, times: Sequence[float], stop: StopCriteria = EXHAUSTIVE
) -> list[UnreliabilityPoint]:
    """Unreliability at each requested mission time, [0, 0] at time 0.

    Exhaustive points read one `top_event` at the latest time; earlier ones
    replay its recording with their own declarations.  Bounded points search
    their time's theory, so that the stop criteria hold at every point.
    """
    for t in filter(None, times):
        _require_positive_time(t)
    latest = max(times, default=0.0)
    top = top_event(model, latest) if stop.exhaustive and latest else None
    points = []
    for t in times:
        if not t:
            bounds = ProbabilityBounds(0.0, 0.0)
        elif top is None:
            bounds = probability(compile_disjoint(model, t), top_atom(model), stop)
        else:
            p = (top.probability if t == latest
                 else top.evaluator.probability(declarations=declarations(model, t)))
            bounds = ProbabilityBounds(p, p)
        points.append(UnreliabilityPoint(t, bounds))
    return points


def curve_times(t_from: float, t_to: float, step: float) -> list[float]:
    """Arithmetic grid t_from + i * step up to t_to inclusive, where an end
    that rounding left short of a grid point (by 1e-12 of the step count
    plus 1e-15 of the times' magnitudes, in steps) counts as on it."""
    for name, value in (("start time", t_from), ("end time", t_to), ("step", step)):
        if not math.isfinite(value):
            raise AnalysisError(f"curve {name} must be finite, got {value}")
    if step <= 0:
        raise AnalysisError(f"step must be positive, got {step}")
    if t_to < t_from:
        raise AnalysisError("curve end time precedes start time")
    steps = (t_to - t_from) / step
    steps += 1e-12 * max(1.0, steps) + 1e-15 * (abs(t_from) + abs(t_to)) / step
    # the grid has floor(steps) + 1 points
    if steps >= MAX_CURVE_POINTS:
        size = math.floor(steps) + 1 if steps < 2**53 else f"{steps:.3g}"  # exact below 2**53
        raise AnalysisError(
            f"curve grid of {size} points exceeds the limit of "
            f"{MAX_CURVE_POINTS} points; use a larger step"
        )
    return [t_from + i * step for i in range(math.floor(steps) + 1)]


def basic_event_posteriors(
    model: PftModel,
    t: float,
    instances: Iterable[GroundEvent | str] | None = None,
) -> list[tuple[str, float]]:
    """Posterior table of basic events, all rows from one evaluator.

    By default there is one row per class, computed on its first replica
    and labeled with the class and its formal parameter names, e.g.
    `D(i,j)`: its replicas are interchangeable when every type of its
    parameters is in `PftModel.symmetric_types`.  A class with any other
    type has one row per ground instance instead, labeled e.g. `A(1)`, as
    has every instance in `instances` when those are given.
    """
    labeled = _labeled(model, instances)
    top = top_event(model, t)
    return [(label, top.posterior([key])) for label, key in labeled]


def attach_posteriors(
    model: PftModel, cut_sets: Sequence[CutSet], t: float
) -> list[CutSet]:
    """Return the cut sets with their posterior weights filled in.

    A minimal cut set entails the top event, so its posterior is its prior
    over the exact P(top), even when the cut sets came from a bounded search.
    """
    if not cut_sets:
        return []
    top = top_event(model, t).probability
    return [CutSet(c.events, c.prior, _posterior(c.prior, top), c.labels) for c in cut_sets]
