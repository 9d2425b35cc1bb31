"""Seeded generator of small valid models for engine/oracle agreement tests."""

from __future__ import annotations

import random

from pfta.dsl import parse_model
from pfta.model import PftModel


def random_model(seed: int) -> tuple[PftModel, float]:
    """A small random model plus an analysis time; deterministic per seed.

    Ground basic events stay at or under 12 so the exhaustive oracle is cheap.
    """
    rng = random.Random(seed)
    t = rng.choice([1.0e3, 5.0e3, 1.0e4])

    def rate() -> str:
        # keep failure probabilities in a range where ordering is interesting
        return f"{rng.uniform(0.05, 1.2) / t:.6g}"

    lines: list[str] = [f"model rand{seed}"]
    units: list[str] = []

    if rng.random() < 0.6:
        card = rng.choice([2, 3])
        lines.append(f"type T = {{{', '.join(str(v) for v in range(1, card + 1))}}}")
        if rng.random() < 0.5:
            lines.append(f"basic R(i:T) rate {rate()}")
            lines.append(f"basic Q(i:T) rate {rate()}")
            kind = rng.choice(["or", "and"])
            lines.append(f"event W(i:T) = {kind}(R(i), Q(i))")
            target = "W"
        else:
            lines.append(f"basic R(i:T) rate {rate()}")
            target = "R"
        if rng.random() < 0.5:
            k = rng.randint(1, card)
            lines.append(f"event G0 = vote({k}:{card}) forall(i:T) {target}(i)")
        else:
            lines.append(f"event G0 = and forall(i:T) {target}(i)")
        units.append("G0")

    for i in range(rng.randint(2, 5)):
        lines.append(f"basic B{i} rate {rate()}")
        units.append(f"B{i}")

    for i in range(rng.randint(0, 2)):
        arity = min(len(units), rng.randint(2, 3))
        inputs = rng.sample(units, arity)
        kind = rng.choice(["or", "and"])
        lines.append(f"event L{i} = {kind}({', '.join(inputs)})")
        for name in inputs:
            units.remove(name)
        units.append(f"L{i}")

    kind = rng.choice(["or", "and"])
    lines.append(f"top TE = {kind}({', '.join(units)})")

    # parse_model raises ModelInvalidError should a generated model be invalid
    return parse_model("\n".join(lines) + "\n"), t


def multiprocessor_text(n: int, m: int, k: int) -> str:
    """The shipped multiprocessor template with n subsystems of m disks, vote(k:n)."""
    return f"""\
model mp_{n}_{m}_{k}
type T1 = {{{", ".join(str(i) for i in range(1, n + 1))}}}
type T2 = {{{", ".join(str(j) for j in range(1, m + 1))}}}
basic B rate 2e-9
basic Mg rate 3e-8
basic M(i:T1) rate 3e-8
basic P(i:T1) rate 5e-7
basic D(i:T1, j:T2) rate 8e-5
event MM(i:T1) = and(Mg, M(i))
event DM(i:T1) = and forall(j:T2) D(i,j)
event S(i:T1) = or(P(i), MM(i), DM(i))
event SKN = vote({k}:{n}) forall(i:T1) S(i)
top TE = or(B, SKN)
"""


def multiprocessor(n: int, m: int, k: int) -> PftModel:
    return parse_model(multiprocessor_text(n, m, k))


def chain(depth: int) -> PftModel:
    """A depth-level OR chain over A, X1..Xdepth, rates 1e-7 * (1 + i % 7)."""
    lines = [f"model chain_{depth}", "basic A rate 1e-7"]
    lines += [f"basic X{i} rate {1e-7 * (1 + i % 7)!r}" for i in range(1, depth + 1)]
    prev = "A"
    for i in range(1, depth):
        lines.append(f"event C{i} = or({prev}, X{i})")
        prev = f"C{i}"
    lines.append(f"top C{depth} = or({prev}, X{depth})")
    return parse_model("\n".join(lines) + "\n")


QUANTIFIED_OR = """
model quantified_or
type T = {1, 2, 3}
basic A(i:T) rate 4e-5
basic B rate 2e-5
basic C(j:T) rate 9e-5
event W(i:T) = and(A(i), B)
event E = or forall(i:T) W(i)
event F = or forall(j:T) C(j)
top TE = and(E, F)
"""


def quantified_or() -> PftModel:
    """Two OR gates over quantified inputs, one a replicated AND module."""
    return parse_model(QUANTIFIED_OR)


# a gate names one replica of T on its own (the README's example)
CONSTANT_OF_T = """\
type T = {1, 2}
basic A(i:T) rate 1e-4
basic B rate 1e-6
event E = and forall(i:T) A(i)
top TE = or(A(1), B, E)
"""

# a reference names a constant of U but none of T
CONSTANT_OF_U = """\
type T = {1, 2}
type U = {1, 2, 3}
basic B rate 1e-6
basic D(i:T, j:U) rate 1e-4
event DM(i:T) = and forall(j:U) D(i,j)
event X(i:T) = or(D(i,3), DM(i))
event S = vote(1:2) forall(i:T) X(i)
top TE = or(B, S)
"""

# two parameters that differ only in case would name one clause variable
CASE_PARAMETERS = """\
type T = {1, 2}
basic A(i:T) rate 1e-4
basic B(I:T) rate 2e-4
event E(i:T, I:T) = or(A(i), B(I))
top TE = and forall(i:T, I:T) E(i, I)
"""

# small models at the edges of the language, each named for what it exercises
EDGE_MODELS = {
    # a reference names a constant of T, so T is not symmetric
    "asymmetric": "model asymmetric\n" + CONSTANT_OF_T,
    "unsorted": """\
model unsorted
type T = {3, 1, 2}
basic A(i:T) rate 1e-4
basic B(i:T) rate 3e-4
event E(i:T) = or(A(i), B(i))
top TE = vote(2:3) forall(i:T) E(i)
""",
    "or_forall": QUANTIFIED_OR,
    "zero_rate": """\
model zero_rate
type T = {1, 2}
basic A(i:T) rate 1e-4
basic Z rate 0
event E = and forall(i:T) A(i)
top TE = or(E, Z)
""",
}
