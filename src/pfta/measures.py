"""Dependability measures of a model at a mission time.

Qualitative results (minimal cut sets) come from the direct translation;
quantitative ones (unreliability, posteriors, curves) from the
status-complete translation, whose explanations of the top event are
mutually exclusive partial assignments of the basic events.  So one
exhaustive search answers every posterior of a request: P(E and top) is
the sum over the explanations of P(expl) times 1 if E is failed in it, 0
if E is working in it and P(E failed) if it leaves E open, and a cut set
multiplies the factors of its members.  The explanation set does not
depend on the mission time (every declaration is emitted at any time and
the exhaustive search prunes nothing), so an exhaustive curve reweights
the explanations of one search at each grid time.
"""

from __future__ import annotations

import re
from collections import defaultdict
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


@dataclass(frozen=True)
class MeasureReport:
    """Everything the command line prints, in one bundle."""

    model_name: str
    time: float
    cut_sets: tuple[CutSet, ...] = ()
    unreliability: ProbabilityBounds | None = None
    curve: tuple[UnreliabilityPoint, ...] = ()
    basic_posteriors: tuple[tuple[str, float], ...] = ()


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


def _require_curve_times(times: Sequence[float]) -> None:
    for t in times:
        if t != 0:
            _require_positive_time(t)


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
class _TopExplanations:
    """Every stage-2 explanation of the top event at time `t`.

    Each row is (probability, failed events, working events); `top` is the
    sum of the probabilities in emission order, i.e. the exhaustive
    unreliability bit for bit.
    """

    t: float
    top: float
    rows: tuple[tuple[float, frozenset[GroundEvent], frozenset[GroundEvent]], ...]


def _top_explanations(model: PftModel, t: float) -> _TopExplanations:
    result = explain(compile_disjoint(model, t), top_atom(model))
    names = _class_names(model)
    rows = []
    for expl in result.explanations:
        failed, working = [], []
        for a in expl.hypotheses:
            key = (names[a.pred], a.args[:-1])
            (failed if a.args[-1] == STATUS_FAILED else working).append(key)
        rows.append((expl.prob, frozenset(failed), frozenset(working)))
    return _TopExplanations(t, result.bounds.lower, tuple(rows))


def _posterior_table(model: PftModel, t: float) -> _TopExplanations:
    _require_positive_time(t)
    table = _top_explanations(model, t)
    if table.top <= 0.0:
        raise AnalysisError("posterior undefined: system unreliability is 0")
    return table


def _exact(value: float) -> ProbabilityBounds:
    value = min(value, 1.0)
    return ProbabilityBounds(value, value)


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


def _basic_rows(
    model: PftModel, table: _TopExplanations, labeled: list[tuple[str, GroundEvent]]
) -> list[tuple[str, float]]:
    """(label, P(event failed | top)) rows, in one pass over the table."""
    mass_f: dict[GroundEvent, float] = defaultdict(float)
    mass_w: dict[GroundEvent, float] = defaultdict(float)
    for prob, failed, working in table.rows:
        for e in failed:
            mass_f[e] += prob
        for e in working:
            mass_w[e] += prob
    out = []
    for label, e in labeled:
        f = mass_f[e]
        # explanations that leave e open hold it failed with its prior
        open_mass = max(table.top - f - mass_w[e], 0.0)
        joint = f + failure_probability(model.rate_map[e[0]], table.t) * open_mass
        out.append((label, joint / table.top))
    return out


def _cut_set_posterior(
    model: PftModel, table: _TopExplanations, events: frozenset[GroundEvent]
) -> float:
    probs = {e: failure_probability(model.rate_map[e[0]], table.t) for e in events}
    joint = 0.0
    for prob, failed, working in table.rows:
        if working.isdisjoint(events):
            for e in events - failed:
                prob *= probs[e]
            joint += prob
    return joint / table.top


def _reweighted_curve(
    model: PftModel, table: _TopExplanations, times: Sequence[float]
) -> list[UnreliabilityPoint]:
    """Exact unreliability at each time from one exhaustive explanation set."""
    rates = model.rate_map
    column = {name: i for i, name in enumerate(rates)}
    # counts[e, 0, c] / counts[e, 1, c]: failed / working events of class c
    counts = np.zeros((len(table.rows), 2, len(rates)))
    for row, (_, failed, working) in zip(counts, table.rows):
        for name, _ in failed:
            row[0, column[name]] += 1
        for name, _ in working:
            row[1, column[name]] += 1
    points = []
    for t in times:
        p = np.array([failure_probability(lam, t) for lam in rates.values()])
        value = (np.stack([p, 1.0 - p]) ** counts).prod(axis=(1, 2)).sum()
        points.append(UnreliabilityPoint(t, _exact(float(value))))
    return points


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
    _require_curve_times(times)
    if not stop.exhaustive:
        return [UnreliabilityPoint(t, system_unreliability(model, t, stop)) for t in times]
    if not times:
        return []
    return _reweighted_curve(model, _top_explanations(model, max(times)), times)


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


def cut_set_posterior(
    model: PftModel, cut_set: Iterable[GroundEvent] | CutSet, t: float
) -> float:
    """P(cut set failed | top event) at time t."""
    if isinstance(cut_set, CutSet):
        events = cut_set.events
    else:
        events = frozenset(_as_instance(model, e) for e in cut_set)
    return _cut_set_posterior(model, _posterior_table(model, t), events)


def basic_event_posterior(model: PftModel, event: GroundEvent | str, t: float) -> float:
    """P(basic event failed | top event) at time t."""
    labeled = _labeled(model, [event])
    return _basic_rows(model, _posterior_table(model, t), labeled)[0][1]


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
    return _basic_rows(model, _posterior_table(model, t), labeled)


def attach_posteriors(
    model: PftModel, cut_sets: Sequence[CutSet], t: float
) -> list[CutSet]:
    """Return the cut sets with their posterior weights filled in.

    The posteriors are exact even when the cut sets came from a bounded
    search.
    """
    if not cut_sets:
        return []
    table = _posterior_table(model, t)
    return [
        CutSet(c.events, c.prior, _cut_set_posterior(model, table, c.events))
        for c in cut_sets
    ]


def measure_report(
    model: PftModel,
    t: float,
    with_posteriors: bool = False,
    curve: Sequence[float] = (),
    stop: StopCriteria = EXHAUSTIVE,
    instances: Iterable[GroundEvent | str] | None = None,
) -> MeasureReport:
    """Assemble the full set of measures for one model and mission time.

    `stop` bounds the cut set search, the unreliability and the curve;
    posteriors are exact whatever it says (`instances` as in
    `basic_event_posteriors`).  Besides the cut set search, an exhaustive
    report runs one search at t for everything else; a bounded one runs a
    bounded search per analysed time, plus one exhaustive search at t when
    it has posteriors.
    """
    _require_curve_times(curve)
    cut_sets = minimal_cut_sets(model, t, stop)
    table = None
    if with_posteriors:
        table = _posterior_table(model, t)
    elif stop.exhaustive:
        table = _top_explanations(model, t)
    if stop.exhaustive:
        unreliability = _exact(table.top)
        points = _reweighted_curve(model, table, curve)
    else:
        unreliability = system_unreliability(model, t, stop)
        points = unreliability_curve(model, curve, stop)
    basic: list[tuple[str, float]] = []
    if with_posteriors:
        cut_sets = [
            CutSet(c.events, c.prior, _cut_set_posterior(model, table, c.events))
            for c in cut_sets
        ]
        basic = _basic_rows(model, table, _labeled(model, instances))
    return MeasureReport(
        model_name=model.name,
        time=t,
        cut_sets=tuple(cut_sets),
        unreliability=unreliability,
        curve=tuple(points),
        basic_posteriors=tuple(basic),
    )
