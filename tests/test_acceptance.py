"""Acceptance suite: one test per shipped claim, tolerances pinned.

Each test prints a single summary line on success; the test outcome itself
is the pass/fail verdict for that claim.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from conftest import DATA
from randmodels import random_model
from pfta.compile import compile_direct, compile_disjoint, predicate_name
from pfta.engine import EXHAUSTIVE, ExplanationSearch
from pfta.measures import (
    attach_posteriors,
    basic_event_posteriors,
    curve_times,
    minimal_cut_sets,
    top_atom,
    top_event,
    unreliability_curve,
)
from pfta.oracle import exact_probability, prime_implicants, top_enumeration, unfold
from pfta.pha import Atom, Clause, ground_instances, serialize, theory_constants

T = 1e4

ORACLE_TOL = 1e-9
TABLE_TOL = 1e-5
FINE_TOL = 1e-7
SYMMETRY_TOL = 1e-12

PUBLISHED_TOP = 0.224530
PUBLISHED_PRIORS = {"quad": 0.091954, "disks_cpu": 0.001512, "cpu_pair": 0.000025}
PUBLISHED_BUS_PRIOR = 2.0e-5  # the published table cell disagrees; see note below
PUBLISHED_POSTERIORS = {"quad": 0.409541, "disks_cpu": 0.006736,
                        "cpu_pair": 0.000111, "bus": 0.000089}
PUBLISHED_BASIC_POSTERIORS = {"D(i,j)": 0.8074582, "P(i)": 0.0115368,
                              "M(i)": 3.001e-4, "Mg": 3.003e-4, "B": 8.91e-5}


def _shape(cut_set) -> Counter:
    return Counter(cls for cls, _ in cut_set.events)


def _by_shape(cut_sets):
    groups = {"quad": [], "disks_cpu": [], "cpu_pair": [], "bus": []}
    for cs in cut_sets:
        shape = _shape(cs)
        if shape == {"D": 4}:
            groups["quad"].append(cs)
        elif shape == {"D": 2, "P": 1}:
            groups["disks_cpu"].append(cs)
        elif shape == {"P": 2}:
            groups["cpu_pair"].append(cs)
        elif shape == {"B": 1}:
            groups["bus"].append(cs)
    return groups


def test_criterion_1_golden_compilation(model, listing_model):
    direct = serialize(compile_direct(listing_model, T), precision=4)
    assert direct == (DATA / "theory_stage1.pha").read_text()
    disjoint = serialize(compile_disjoint(model, T), precision=4)
    assert disjoint == (DATA / "theory_stage2.pha").read_text()

    assert sum(line.startswith("disjoint(") for line in direct.splitlines()) == 14
    assert sum(":-" in line for line in direct.splitlines()) == 10
    assert sum(":-" in line for line in disjoint.splitlines()) == 18
    for shown in ("0.5507", "0.0050", "0.0003", "0.00002"):
        assert shown in direct
    print("criterion 1 PASS: both translations reproduce the golden listings")


def test_criterion_2_cut_set_count(model):
    cut_sets = minimal_cut_sets(model, T)
    assert len(cut_sets) == 28
    tree = unfold(model, T)
    oracle_sets = set(prime_implicants(tree, top_enumeration(tree)[2]))
    assert {cs.events for cs in cut_sets} == oracle_sets
    print("criterion 2 PASS: 28 minimal cut sets, set-equal to enumeration")


def test_criterion_3_cut_set_priors(model):
    groups = _by_shape(minimal_cut_sets(model, T))
    assert len(groups["quad"]) == 3
    assert len(groups["disks_cpu"]) == 6
    assert len(groups["cpu_pair"]) == 3
    assert len(groups["bus"]) == 1
    for name, expected in PUBLISHED_PRIORS.items():
        for cs in groups[name]:
            assert cs.prior == pytest.approx(expected, abs=TABLE_TOL)
    # the published {B} row reads 0.00000003, but the same source gives the
    # bus failure probability as 0.00002 and a posterior of 0.000089, both of
    # which demand 2.0e-5; we assert the self-consistent value
    assert groups["bus"][0].prior == pytest.approx(PUBLISHED_BUS_PRIOR, abs=1e-9)
    print("criterion 3 PASS: priors match the published table "
          "(bus row asserted at 2.0e-5)")


def test_criterion_4_system_unreliability(model):
    bounds = unreliability_curve(model, [T])[0].bounds
    assert bounds.lower == pytest.approx(PUBLISHED_TOP, abs=1e-4)
    exact = exact_probability(unfold(model, T), {("TE", ()): True})
    assert bounds.lower == pytest.approx(exact, abs=ORACLE_TOL)
    assert bounds.upper == pytest.approx(exact, abs=ORACLE_TOL)
    print(f"criterion 4 PASS: P(top)={bounds.lower:.6f} "
          f"(published {PUBLISHED_TOP}, enumeration {exact:.15f})")


def test_criterion_5_cut_set_posteriors(model):
    cut_sets = attach_posteriors(model, minimal_cut_sets(model, T), T)
    groups = _by_shape(cut_sets)
    for name, expected in PUBLISHED_POSTERIORS.items():
        for cs in groups[name]:
            assert cs.posterior == pytest.approx(expected, abs=TABLE_TOL)
    ratios = [cs.posterior / cs.prior for cs in cut_sets]
    assert max(ratios) - min(ratios) <= ORACLE_TOL
    print("criterion 5 PASS: posteriors match the published table; "
          "posterior/prior ratio constant across all 28")


def test_criterion_6_basic_event_posteriors(model):
    table = dict(basic_event_posteriors(model, T))
    assert table["D(i,j)"] == pytest.approx(PUBLISHED_BASIC_POSTERIORS["D(i,j)"], abs=TABLE_TOL)
    assert table["P(i)"] == pytest.approx(PUBLISHED_BASIC_POSTERIORS["P(i)"], abs=TABLE_TOL)
    assert table["M(i)"] == pytest.approx(PUBLISHED_BASIC_POSTERIORS["M(i)"], abs=FINE_TOL)
    assert table["Mg"] == pytest.approx(PUBLISHED_BASIC_POSTERIORS["Mg"], abs=FINE_TOL)
    assert table["B"] == pytest.approx(PUBLISHED_BASIC_POSTERIORS["B"], abs=FINE_TOL)

    top = top_event(model, T)
    for replicas in ([("D", (i, j)) for i in (1, 2, 3) for j in (1, 2)],
                     [("P", (i,)) for i in (1, 2, 3)],
                     [("M", (i,)) for i in (1, 2, 3)]):
        values = [top.posterior([key]) for key in replicas]
        assert max(values) - min(values) <= SYMMETRY_TOL
    print("criterion 6 PASS: component posteriors match; replicas symmetric")


def test_criterion_7_unreliability_sweep(model):
    times = curve_times(0, 20000, 2000)
    assert len(times) == 11
    points = unreliability_curve(model, times)
    lows = [p.bounds.lower for p in points]
    assert lows[0] == 0.0
    assert all(a <= b for a, b in zip(lows, lows[1:]))
    for t, low in zip(times, lows):
        exact = exact_probability(unfold(model, t), {("TE", ()): True}) if t else 0.0
        assert low == pytest.approx(exact, abs=ORACLE_TOL)
    print("criterion 7 PASS: 11-point sweep is monotone and matches enumeration")


# --- criterion 8: property suite -------------------------------------------
# Worlds are encoded as bit vectors over the 14 ground basic events; numpy
# columns give the status of every atom in every world at once.


def _world_columns(tree):
    n = len(tree.basics)
    idx = np.arange(1 << n, dtype=np.uint32)
    cols = {key: (idx >> j) & 1 == 1 for j, (key, _) in enumerate(tree.basics)}
    for key, m, inputs in tree.nodes:
        cols[key] = np.add.reduce([cols[k] for k in inputs], dtype=np.int32) >= m
    return cols, 1 << n


def _ground_clauses(theory):
    """Every clause instance over the theory's constants, grounded here
    rather than by the engine that the suite checks."""
    constants = sorted(theory_constants(theory), key=repr)
    return [Clause(atoms[0], atoms[1:]) for c in theory.clauses
            for atoms in ground_instances((c.head, *c.body), constants)]


def _hypothesis_columns(model, theory, node_cols):
    classes = {predicate_name(e.class_name): e.class_name for e in model.events}
    out = {}
    for decl in theory.declarations:
        for atom, _ in decl.alternatives:
            key = (classes[atom.pred], atom.args[:-1])
            failed = node_cols[key]
            out[atom] = failed if atom.args[-1] == "f" else ~failed
    return out


def _derived_columns(clauses, base, n_worlds):
    cols = dict(base)
    changed = True
    while changed:
        changed = False
        for c in clauses:
            parts = [cols.get(b) for b in c.body]
            if any(p is None for p in parts):
                continue
            body = np.logical_and.reduce(parts) if parts \
                else np.ones(n_worlds, dtype=bool)
            prev = cols.get(c.head)
            new = body if prev is None else prev | body
            if prev is None or (new != prev).any():
                cols[c.head] = new
                changed = True
    return cols


def _body_column(clause, cols, n_worlds):
    parts = [cols.get(b, np.zeros(n_worlds, dtype=bool)) for b in clause.body]
    return np.logical_and.reduce(parts) if parts else np.ones(n_worlds, dtype=bool)


def test_criterion_8_property_suite(model):
    tree = unfold(model, T)
    node_cols, n_worlds = _world_columns(tree)
    exact = exact_probability(tree, {tree.top: True})
    disjoint = compile_disjoint(model, T)
    hyp_cols = _hypothesis_columns(model, disjoint, node_cols)
    grounded = _ground_clauses(disjoint)
    derived = _derived_columns(grounded, hyp_cols, n_worlds)

    # (a) per-head exclusivity and exhaustiveness of the disjoint translation
    heads = {}
    for c in grounded:
        if c.head in derived:
            heads.setdefault(c.head, []).append(c)
    for head, clauses in heads.items():
        if len(clauses) > 1:
            bodies = [_body_column(c, derived, n_worlds) for c in clauses]
            assert np.add.reduce(bodies).max() <= 1, f"bodies of {head} overlap"
    for key, _, _ in tree.nodes:
        if key == tree.top:
            continue
        f_col = derived[Atom(predicate_name(key[0]), key[1] + ("f",))]
        w_col = derived[Atom(predicate_name(key[0]), key[1] + ("w",))]
        assert bool(np.all(f_col ^ w_col)), f"statuses of {key} not a partition"

    # (b) anytime bounds bracket the enumerated value at every emission
    search = ExplanationSearch(disjoint, top_atom(model), EXHAUSTIVE)
    probs = []
    for explanation in search:
        probs.append(explanation.prob)
        bounds = search.bounds
        assert bounds.lower <= exact + 1e-12
        assert bounds.upper >= exact - 1e-12

    # (c) explanation probabilities never increase along the emission order
    assert all(a >= b for a, b in zip(probs, probs[1:]))

    # (d) search agrees with enumeration on 60 seeded random models
    for seed in range(60):
        small_model, small_t = random_model(seed)
        small_tree = unfold(small_model, small_t)
        small_exact = exact_probability(small_tree, {small_tree.top: True})
        got = unreliability_curve(small_model, [small_t])[0].bounds
        assert got.lower == pytest.approx(small_exact, abs=ORACLE_TOL)
        assert {c.events for c in minimal_cut_sets(small_model, small_t)} \
            == set(prime_implicants(small_tree, top_enumeration(small_tree)[2]))

    # (e) both translations derive the top event in exactly the same worlds
    direct = compile_direct(model, T)
    direct_cols = _derived_columns(
        _ground_clauses(direct), _hypothesis_columns(model, direct, node_cols), n_worlds
    )
    te = Atom("te", ())
    assert bool(np.array_equal(direct_cols[te], derived[te]))
    assert bool(np.array_equal(derived[te], node_cols[tree.top]))

    print(f"criterion 8 PASS: exclusivity/exhaustiveness over {n_worlds} worlds, "
          f"{len(probs)} bracketing emissions, 60-model agreement, "
          "translations equivalent")
