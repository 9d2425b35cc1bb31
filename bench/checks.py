"""Output checks: every pfta answer against the independent references.

`check` names what is wrong with a request's output, or returns None.
Probabilities must match the closed forms of `families` to 1e-9;
bounded answers must bracket them.
"""

from __future__ import annotations

import csv
import io
import math
import re

import families
from workloads import Request

TOL = 1e-9

_DECL = re.compile(
    r"disjoint\(\[([a-z]\w*)(?:\([^)]*\))?:([^,\]]+),\1(?:\([^)]*\))?:([^,\]]+)\]\)\."
)


class Mismatch(Exception):
    """An output that disagrees with the reference."""


def _rows(stdout: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != header:
        raise Mismatch(f"header {rows[:1]} is not {header}")
    return rows[1:]


def _close(got: float, want: float, what: str) -> None:
    if not abs(got - want) <= TOL:
        raise Mismatch(f"{what} = {got!r}, expected {want!r}")


def _check_mcs(req: Request, stdout: str) -> None:
    spec, t = req.template.model, req.times[0]
    probs = families.basic_probs(spec, t)
    kinds = families.cut_set_kinds(spec, t)
    if sum(count for count, _ in kinds.values()) != families.cut_set_count(spec):
        raise Mismatch("reference cut set kinds disagree with the cut set count")
    top = families.unreliability(spec, t)
    rows = _rows(stdout, ["rank", "events", "prior", "posterior"])
    seen: set[frozenset[str]] = set()
    per_kind: dict[tuple, int] = {}
    last = math.inf
    for rank, events, prior, post in rows:
        cs = frozenset(events.split())
        kind = families.cut_set_kind(spec, cs)
        if kind is None or cs in seen:
            raise Mismatch(f"rank {rank}: {events} is not a new minimal cut set")
        seen.add(cs)
        per_kind[kind] = per_kind.get(kind, 0) + 1
        want = math.prod(probs[e] for e in cs)
        _close(float(prior), want, f"prior of {events}")
        if "--posterior" in req.argv:
            _close(float(post), want / top, f"posterior of {events}")
        elif post:
            raise Mismatch(f"unrequested posterior for {events}")
        if float(prior) > last:
            raise Mismatch("cut sets are not ranked by prior")
        last = float(prior)
    if "--max-explanations" not in req.argv:
        if len(rows) != families.cut_set_count(spec):
            raise Mismatch(f"{len(rows)} cut sets, expected {families.cut_set_count(spec)}")
        return
    limit = int(req.argv[req.argv.index("--max-explanations") + 1])
    if not 1 <= len(rows) <= limit:
        raise Mismatch(f"{len(rows)} cut sets under --max-explanations {limit}")
    # best-first emission: every cut set likelier than the least likely one
    # reported must have been reported too
    for kind, (count, prior) in kinds.items():
        if prior > last * (1.0 + TOL) and per_kind.get(kind, 0) != count:
            raise Mismatch(f"{per_kind.get(kind, 0)} of the {count} likelier cut sets "
                           f"of kind {kind} reported")


def _check_bounds(req: Request, t: float, lower: float, upper: float) -> float | None:
    """Check one interval; returns its width when the request was bounded."""
    exact = families.unreliability(req.template.model, t)
    if not 0.0 <= lower <= upper <= 1.0:
        raise Mismatch(f"malformed bounds [{lower!r}, {upper!r}] at t={t!r}")
    bounded = "--epsilon" in req.argv or "--max-explanations" in req.argv
    if not bounded:
        _close(lower, exact, f"lower bound at t={t!r}")
        _close(upper, exact, f"upper bound at t={t!r}")
        return None
    if not lower - TOL <= exact <= upper + TOL:
        raise Mismatch(f"[{lower!r}, {upper!r}] misses {exact!r} at t={t!r}")
    if "--epsilon" in req.argv:
        eps = float(req.argv[req.argv.index("--epsilon") + 1])
        if upper - lower > eps + TOL:
            raise Mismatch(f"width {upper - lower!r} exceeds --epsilon {eps}")
    return upper - lower


def _check_unrel(req: Request, stdout: str) -> float | None:
    (row,) = _rows(stdout, ["time_hours", "lower", "upper"])
    _close(float(row[0]), req.times[0], "time")
    return _check_bounds(req, req.times[0], float(row[1]), float(row[2]))


def _check_curve(req: Request, stdout: str) -> None:
    rows = _rows(stdout, ["time_hours", "lower", "upper"])
    if len(rows) != len(req.times):
        raise Mismatch(f"{len(rows)} curve points, expected {len(req.times)}")
    for (time, lower, upper), t in zip(rows, req.times):
        if not abs(float(time) - t) <= TOL * t:
            raise Mismatch(f"curve time {time}, expected {t!r}")
        _check_bounds(req, t, float(lower), float(upper))


def _check_posterior(req: Request, stdout: str) -> None:
    spec, t = req.template.model, req.times[0]
    rows = _rows(stdout, ["event", "posterior"])
    if req.basic is not None:
        expected = {req.basic: req.basic}
    else:
        # per-class table, computed on the first replica of each class
        expected = {"B": "B", "Mg": "Mg", "M(i)": "M(1)", "P(i)": "P(1)", "D(i,j)": "D(1,1)"}
    if [r[0] for r in rows] != list(expected):
        raise Mismatch(f"rows {[r[0] for r in rows]}, expected {list(expected)}")
    for label, value in rows:
        _close(float(value), families.posterior(spec, t, expected[label]), f"posterior {label}")


def _check_oracle(req: Request, stdout: str) -> None:
    spec, t = req.template.model, req.times[0]
    fields = dict(line.split(":", 1) for line in stdout.splitlines())
    fields = {k.strip(): v.strip() for k, v in fields.items()}
    exact = families.unreliability(spec, t)
    count = str(families.cut_set_count(spec))
    want = {
        "ground basic events": str(len(families.basic_probs(spec, t))),
        "cut sets, search": count,
        "cut sets, enumeration": count,
        "cut set agreement": "yes",
    }
    for key, value in want.items():
        if fields.get(key) != value:
            raise Mismatch(f"oracle {key}: {fields.get(key)!r}, expected {value!r}")
    _close(float(fields["P(top) search"]), exact, "oracle P(top) search")
    _close(float(fields["P(top) enumeration"]), exact, "oracle P(top) enumeration")
    if not float(fields["max probability deviation"]) <= TOL:
        raise Mismatch("oracle deviation above 1e-9")


def _check_compile(req: Request, stdout: str) -> None:
    spec, t = req.template.model, req.times[0]
    stage = int(req.argv[req.argv.index("--stage") + 1])
    want_decls, want_clauses = families.theory_size(spec, stage)
    lines = stdout.splitlines()
    decls = [line for line in lines if line.startswith("disjoint(")]
    if (len(decls), len(lines) - len(decls)) != (want_decls, want_clauses):
        raise Mismatch(
            f"{len(decls)} declarations and {len(lines) - len(decls)} clauses, "
            f"expected {want_decls} and {want_clauses}"
        )
    probs = families.class_probs(t)
    for line in decls:
        m = _DECL.fullmatch(line)
        if m is None or m.group(1) not in probs:
            raise Mismatch(f"malformed declaration {line}")
        p_w, p_f = float(m.group(2)), float(m.group(3))
        if not (abs(p_f - probs[m.group(1)]) <= 1e-12 and abs(p_w + p_f - 1.0) <= 1e-12):
            raise Mismatch(f"wrong probabilities in {line}")


def check(req: Request, rc, stdout: str) -> tuple[str | None, float | None]:
    """(why the output is wrong or None, width of a bounded unrel answer)."""
    if rc != 0:
        return f"exit code {rc}", None
    command = req.template.command
    try:
        if command == "validate":
            if stdout != "OK\n":
                raise Mismatch(f"validate printed {stdout!r}")
        elif command == "mcs":
            _check_mcs(req, stdout)
        elif command == "unrel":
            return None, _check_unrel(req, stdout)
        elif command == "curve":
            _check_curve(req, stdout)
        elif command == "posterior":
            _check_posterior(req, stdout)
        elif command == "oracle":
            _check_oracle(req, stdout)
        elif command == "compile":
            _check_compile(req, stdout)
        else:
            raise Mismatch(f"no check for {command}")
    except (Mismatch, ValueError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}", None
    return None, None
