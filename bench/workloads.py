"""The benchmark's workloads: which requests one pass sends, and in what order.

A pass is a fixed list of request templates. The seed shuffles each pass
and draws every request's mission time, so the same seed always yields
the same request stream. Runs are made of whole passes, which keeps the
mix of commands (and therefore every mean and median) the same from run
to run.

Every analysis request gets a mission time no other request of the run
uses: `measures` memoizes the top-event probability per serialized
theory for the life of the process, and a fresh `pfta` process could
never hit that cache, so a repeated (model, time) pair in one benchmark
process would measure a speed no user sees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from families import basic_probs, model_name

# Mission times are drawn around the paper's 10^4 h. The band is narrow
# because the cost of an --epsilon search grows with the top-event
# probability, i.e. with t; a wide band would make run-to-run means jump.
TIME_BAND = (9900.0, 10100.0)
CURVE_POINTS = 10

REF = ("mp", 3, 2, 2)


@dataclass(frozen=True)
class Template:
    label: str          # per-command metric group, e.g. "mcs_posterior"
    command: str        # pfta subcommand
    model: tuple        # family spec, e.g. ("mp", 3, 2, 2)
    options: tuple = ()  # extra CLI options besides time and output format


@dataclass(frozen=True)
class Request:
    template: Template
    argv: tuple[str, ...]
    times: tuple[float, ...]  # every mission time the request analyses
    basic: str | None = None  # the instance of `posterior --basic`


def _templates(workload: str, tiny: bool) -> list[Template]:
    if workload == "reference":
        return [
            Template("mcs", "mcs", REF),
            Template("mcs_posterior", "mcs", REF, ("--posterior",)),
            # Posteriors are still computed exhaustively under a bound
            # here; kept in the load so that fixing it shows as a gain.
            Template("mcs_posterior", "mcs", REF, ("--posterior", "--max-explanations", "5")),
            Template("unrel", "unrel", REF),
            Template("curve", "curve", REF),
            Template("posterior", "posterior", REF),
            Template("posterior", "posterior", REF, ("--basic",)),
            Template("oracle", "oracle", REF),
        ]
    if workload == "exhaustive-scale":
        models = ([("mp", 3, 2, 2), ("mp", 4, 2, 2), ("chain", 12)] if tiny else
                  [("mp", 4, 2, 2), ("mp", 5, 2, 3), ("mp", 5, 3, 3), ("mp", 6, 2, 4),
                   ("chain", 128)])
        return [Template(cmd, cmd, spec) for spec in models for cmd in ("unrel", "mcs")]
    if workload == "anytime-wide":
        if tiny:
            return [
                Template("unrel", "unrel", ("mp", 6, 2, 4), ("--epsilon", "5e-2")),
                Template("unrel", "unrel", ("mp", 6, 2, 4), ("--max-explanations", "10")),
                Template("mcs", "mcs", ("mp", 7, 2, 5), ("--max-explanations", "5")),
            ]
        return [
            Template("unrel", "unrel", ("mp", 7, 3, 5), ("--epsilon", "1e-2")),
            Template("unrel", "unrel", ("mp", 10, 2, 6), ("--max-explanations", "20")),
            Template("mcs", "mcs", ("mp", 10, 2, 6), ("--max-explanations", "20")),
            Template("mcs", "mcs", ("mp", 11, 2, 7), ("--max-explanations", "5")),
        ]
    if workload == "compile-wide":
        models = [("mp", 6, 2, 4), ("mp", 8, 2, 6)] if tiny else [("mp", 16, 2, 12),
                                                                  ("mp", 17, 2, 13)]
        out = []
        for spec in models:
            out.append(Template("validate", "validate", spec))
            out.append(Template("compile", "compile", spec, ("--stage", "1")))
            out.append(Template("compile", "compile", spec, ("--stage", "2")))
        return out
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("reference", "exhaustive-scale", "anytime-wide", "compile-wide")


class Plan:
    """The seeded request stream of one workload."""

    def __init__(self, workload: str, seed: int, tiny: bool, model_dir: str):
        self.templates = _templates(workload, tiny)
        self.models = sorted({t.model for t in self.templates})
        self.model_dir = model_dir
        self.rng = random.Random(f"{workload}/{seed}/{int(tiny)}")
        self.used: set[tuple[tuple, float]] = set()

    def path(self, spec: tuple) -> str:
        return f"{self.model_dir}/{model_name(spec)}.pft"

    def _time(self, spec: tuple) -> float:
        while True:
            t = self.rng.uniform(*TIME_BAND)
            if (spec, t) not in self.used:
                return t

    def next_pass(self) -> list[Request]:
        order = list(self.templates)
        self.rng.shuffle(order)
        return [self._request(t) for t in order]

    def _request(self, tpl: Template) -> Request:
        path = self.path(tpl.model)
        fmt = ("--format", "csv", "--digits", "17")
        basic = None
        if tpl.command == "validate":
            return Request(tpl, ("validate", path), ())
        if tpl.command == "curve":
            times = ()
            while not times or any((tpl.model, t) in self.used for t in times):
                start = self.rng.uniform(500.0, 1500.0)
                step = self.rng.uniform(1500.0, 2500.0)
                times = tuple(start + i * step for i in range(CURVE_POINTS))
            # the end sits half a step past the last point, clear of rounding
            end = start + (CURVE_POINTS - 0.5) * step
            argv = ("curve", path, "--from", repr(start), "--to", repr(end),
                    "--step", repr(step)) + fmt + tpl.options
        else:
            times = (self._time(tpl.model),)
            options = tpl.options
            if options == ("--basic",):
                basic = self.rng.choice(sorted(basic_probs(tpl.model, 1.0)))
                options = ("--basic", basic)
            argv = (tpl.command, path, "--time", repr(times[0])) + fmt + options
        self.used.update((tpl.model, t) for t in times)
        return Request(tpl, argv, times, basic)


def shared_analysis_pairs(requests: list[Request]) -> list[tuple[tuple, float]]:
    """(model, time) pairs that more than one analysis request analysed."""
    seen: set[tuple[tuple, float]] = set()
    shared = []
    for req in requests:
        if req.template.command in ("validate", "compile"):
            continue
        for t in req.times:
            key = (req.template.model, t)
            if key in seen:
                shared.append(key)
            seen.add(key)
    return shared
