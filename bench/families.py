"""Model families the benchmark generates, and their exact answers.

Nothing here imports pfta: every expected value comes from a closed form
(or an exhaustive dynamic program over subsystems) written independently
of the library, so a check can fail only when the library is wrong.

Families:

* ``mp(n, m, k)``: the multiprocessor template with n subsystems, m
  disks each and ``vote(k:n)``; ``mp(3, 2, 2)`` is the reference model.
* ``chain(d)``: a d-level OR chain, ``C1 = or(A, X1)``,
  ``Ci = or(C(i-1), Xi)``; its top event fails when any of A, X1..Xd does.
"""

from __future__ import annotations

import math
import re

MP_RATES = {"B": 2e-9, "Mg": 3e-8, "M": 3e-8, "P": 5e-7, "D": 8e-5}
CHAIN_RATE_A = 1e-7


def chain_rate(i: int) -> float:
    return 1e-7 * (1 + i % 7)


def model_name(spec: tuple) -> str:
    return spec[0] + "-" + "-".join(str(v) for v in spec[1:])


def model_text(spec: tuple) -> str:
    if spec[0] == "mp":
        _, n, m, k = spec
        return "\n".join([
            f"model mp_{n}_{m}_{k}",
            "type T1 = {" + ", ".join(str(i) for i in range(1, n + 1)) + "}",
            "type T2 = {" + ", ".join(str(j) for j in range(1, m + 1)) + "}",
            f"basic B rate {MP_RATES['B']!r}",
            f"basic Mg rate {MP_RATES['Mg']!r}",
            f"basic M(i:T1) rate {MP_RATES['M']!r}",
            f"basic P(i:T1) rate {MP_RATES['P']!r}",
            f"basic D(i:T1, j:T2) rate {MP_RATES['D']!r}",
            "event MM(i:T1) = and(Mg, M(i))",
            "event DM(i:T1) = and forall(j:T2) D(i,j)",
            "event S(i:T1) = or(P(i), MM(i), DM(i))",
            f"event SKN = vote({k}:{n}) forall(i:T1) S(i)",
            "top TE = or(B, SKN)",
        ]) + "\n"
    _, d = spec
    lines = [f"model chain_{d}", f"basic A rate {CHAIN_RATE_A!r}"]
    lines += [f"basic X{i} rate {chain_rate(i)!r}" for i in range(1, d + 1)]
    prev = "A"
    for i in range(1, d):
        lines.append(f"event C{i} = or({prev}, X{i})")
        prev = f"C{i}"
    lines.append(f"top C{d} = or({prev}, X{d})")
    return "\n".join(lines) + "\n"


def fail_prob(rate: float, t: float) -> float:
    return 1.0 - math.exp(-rate * t)


def render(name: str, values: tuple = ()) -> str:
    return name if not values else f"{name}({','.join(str(v) for v in values)})"


def basic_probs(spec: tuple, t: float) -> dict[str, float]:
    """Failure probability of every ground basic event, by rendered name."""
    if spec[0] == "mp":
        _, n, m, _ = spec
        out = {"B": fail_prob(MP_RATES["B"], t), "Mg": fail_prob(MP_RATES["Mg"], t)}
        for i in range(1, n + 1):
            out[render("M", (i,))] = fail_prob(MP_RATES["M"], t)
            out[render("P", (i,))] = fail_prob(MP_RATES["P"], t)
            for j in range(1, m + 1):
                out[render("D", (i, j))] = fail_prob(MP_RATES["D"], t)
        return out
    _, d = spec
    out = {"A": fail_prob(CHAIN_RATE_A, t)}
    out.update({f"X{i}": fail_prob(chain_rate(i), t) for i in range(1, d + 1)})
    return out


def _at_least(qs: list[float], r: int) -> float:
    """P(at least r of independent events with probabilities qs occur)."""
    dist = [1.0]
    for q in qs:
        nxt = [0.0] * (len(dist) + 1)
        for j, w in enumerate(dist):
            nxt[j] += w * (1.0 - q)
            nxt[j + 1] += w * q
        dist = nxt
    return sum(dist[r:])


def top_probability(spec: tuple, p: dict[str, float]) -> float:
    """P(top event) for arbitrary (e.g. conditioned) basic probabilities.

    For mp this is 1-(1-pB)(1-[pMg F(q1) + (1-pMg) F(q0)]), F the
    probability that at least n-k+1 subsystems fail, with subsystem i
    failing with q = 1-(1-pP)(1-[Mg failed]pM)(1-prod pD).
    """
    if spec[0] == "mp":
        _, n, m, k = spec
        r = n - k + 1

        def q(i: int, mg_failed: bool) -> float:
            disks = math.prod(p[render("D", (i, j))] for j in range(1, m + 1))
            mem = p[render("M", (i,))] if mg_failed else 0.0
            return 1.0 - (1.0 - p[render("P", (i,))]) * (1.0 - mem) * (1.0 - disks)

        f1 = _at_least([q(i, True) for i in range(1, n + 1)], r)
        f0 = _at_least([q(i, False) for i in range(1, n + 1)], r)
        return 1.0 - (1.0 - p["B"]) * (1.0 - (p["Mg"] * f1 + (1.0 - p["Mg"]) * f0))
    return 1.0 - math.prod(1.0 - v for v in p.values())


def unreliability(spec: tuple, t: float) -> float:
    return top_probability(spec, basic_probs(spec, t))


def posterior(spec: tuple, t: float, event: str) -> float:
    """P(event failed | top event) = p_E P(top | E failed) / P(top)."""
    p = basic_probs(spec, t)
    conditioned = dict(p, **{event: 1.0})
    return p[event] * top_probability(spec, conditioned) / top_probability(spec, p)


_INSTANCE = re.compile(r"([A-Za-z]\w*)(?:\((\d+)(?:,(\d+))?\))?")


def cut_set_kind(spec: tuple, events: frozenset[str]) -> tuple | None:
    """Which kind of minimal cut set `events` is, or None if it is not one.

    An mp cut set is {B}, or n-k+1 distinct subsystems each failed in one
    way (P(i); M(i) with Mg; all its disks), keyed by how many failed each
    way; a chain cut set is one basic event.
    """
    if spec[0] == "chain":
        if len(events) == 1 and next(iter(events)) in basic_probs(spec, 1.0):
            return tuple(events)
        return None
    _, n, m, k = spec
    if events == {"B"}:
        return ("B",)
    local: dict[int, set[tuple[str, int]]] = {}
    for text in events - {"Mg"}:
        match = _INSTANCE.fullmatch(text)
        if match is None or match.group(2) is None:
            return None
        name, i = match.group(1), int(match.group(2))
        j = int(match.group(3)) if match.group(3) else 0
        if not 1 <= i <= n or (name == "D") != (1 <= j <= m):
            return None
        local.setdefault(i, set()).add((name, j))
    modes = {"P": 0, "M": 0, "D": 0}
    for parts in local.values():
        if parts == {("P", 0)}:
            modes["P"] += 1
        elif parts == {("M", 0)}:
            modes["M"] += 1
        elif parts == {("D", j) for j in range(1, m + 1)}:
            modes["D"] += 1
        else:
            return None
    if len(local) != n - k + 1 or ("Mg" in events) != (modes["M"] > 0):
        return None
    return (modes["P"], modes["M"], modes["D"])


def cut_set_kinds(spec: tuple, t: float) -> dict[tuple, tuple[int, float]]:
    """Every kind of minimal cut set: (how many there are, prior of each)."""
    p = basic_probs(spec, t)
    if spec[0] == "chain":
        return {(name,): (1, prob) for name, prob in p.items()}
    _, n, m, k = spec
    r = n - k + 1
    pP, pM, pD = p["P(1)"], p["M(1)"], p["D(1,1)"]
    out = {("B",): (1, p["B"])}
    for a in range(r + 1):
        for b in range(r - a + 1):
            c = r - a - b
            ways = math.comb(n, r) * math.factorial(r) // (
                math.factorial(a) * math.factorial(b) * math.factorial(c))
            prior = pP**a * (p["Mg"] * pM**b if b else 1.0) * pD ** (m * c)
            out[(a, b, c)] = (ways, prior)
    return out


def cut_set_count(spec: tuple) -> int:
    if spec[0] == "mp":
        _, n, _, k = spec
        r = n - k + 1
        return 1 + math.comb(n, r) * 3**r
    return spec[1] + 1


def theory_size(spec: tuple, stage: int) -> tuple[int, int]:
    """(declarations, clauses) of the stage-1 or stage-2 theory of mp."""
    _, n, m, k = spec
    r = n - k + 1
    decls = 2 + 2 * n + n * m
    if stage == 1:
        return decls, math.comb(n, r) + 7
    return decls, math.comb(n, r) + math.comb(n, k) + 10 + m


def class_probs(t: float) -> dict[str, float]:
    """Failure probability per mp basic class, keyed by predicate name."""
    return {name.lower(): fail_prob(rate, t) for name, rate in MP_RATES.items()}
