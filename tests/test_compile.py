from __future__ import annotations

import time
from itertools import combinations, product
from math import comb

import pytest

import pfta.pha
from conftest import DATA
from randmodels import chain, multiprocessor, quantified_or
from pfta.cli import main
from pfta.compile import compile_direct, compile_disjoint
from pfta.dsl import parse_model
from pfta.errors import ModelInvalidError, TheoryError
from pfta.measures import minimal_cut_sets, unreliability_curve
from pfta.model import EventRef
from pfta.oracle import exact_probability, prime_implicants, top_enumeration, unfold
from pfta.pha import (
    STAGE_DIRECT,
    STAGE_DISJOINT,
    Atom,
    PhaTheory,
    format_clause,
    parse_theory,
    serialize,
)

T = 1e4


def test_direct_stage_matches_golden_text(listing_model):
    theory = compile_direct(listing_model, T)
    assert serialize(theory, precision=4) == (DATA / "theory_stage1.pha").read_text()


def test_disjoint_stage_matches_golden_text(model):
    theory = compile_disjoint(model, T)
    assert serialize(theory, precision=4) == (DATA / "theory_stage2.pha").read_text()


def test_direct_stage_shape(model):
    theory = compile_direct(model, T)
    assert theory.stage == STAGE_DIRECT
    assert len(theory.declarations) == 14
    assert len(theory.clauses) == 10


def test_disjoint_stage_shape(model):
    theory = compile_disjoint(model, T)
    assert theory.stage == STAGE_DISJOINT
    assert len(theory.declarations) == 14
    assert len(theory.clauses) == 18


@pytest.mark.parametrize("stage", ["1", "2"])
def test_the_compile_command_builds_no_clause(monkeypatch, capsys, stage):
    argv = ["compile", str(DATA / "multiprocessor.pft"), "--time", "1e4", "--stage", stage]
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("a clause was built")

    monkeypatch.setattr(pfta.pha, "Clause", refuse)
    monkeypatch.setattr(PhaTheory, "clauses", property(refuse))
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    with pytest.raises(AssertionError, match="was built"):
        compile_disjoint(multiprocessor(3, 2, 2), T).clauses


@pytest.mark.parametrize("command", [
    ["unrel", "--time", "1e4"],
    ["unrel", "--time", "1e4", "--epsilon", "1e-3"],
    ["mcs", "--time", "1e4", "--posterior"],
    ["curve", "--from", "0", "--to", "20000", "--step", "2000"],
    ["posterior", "--time", "1e4"],
    ["oracle", "--time", "1e4"],
], ids=" ".join)
def test_the_analysis_commands_build_no_clause(monkeypatch, capsys, command):
    # the engine grounds the theory's records, so no analysis builds its clause view
    argv = [command[0], str(DATA / "multiprocessor.pft"), *command[1:]]
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("a clause was built")

    monkeypatch.setattr(pfta.pha, "Clause", refuse)
    monkeypatch.setattr(PhaTheory, "clauses", property(refuse))
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_a_translation_holds_one_record_per_gate_head():
    m = multiprocessor(17, 2, 13)
    # MM, DM, S and SKN have a failure and a working head; the top TE one
    theory = compile_disjoint(m, T)
    heads = [rule.head for rule in theory.rules]
    assert len(heads) == len(set(heads)) == 9
    assert len(theory.clauses) == 8580
    assert len(compile_direct(m, T).rules) == 5


def test_declarations_pair_working_before_failed(model):
    theory = compile_direct(model, T)
    for decl in theory.declarations:
        (w_atom, w_prob), (f_atom, f_prob) = decl.alternatives
        assert w_atom.args[-1] == "w"
        assert f_atom.args[-1] == "f"
        assert w_prob + f_prob == pytest.approx(1.0, abs=1e-12)


def test_declaration_order_follows_the_model(model):
    theory = compile_direct(model, T)
    preds = [decl.alternatives[0][0].pred for decl in theory.declarations]
    assert preds == ["b", "mg", "m", "m", "m", "p", "p", "p",
                     "d", "d", "d", "d", "d", "d"]


def test_or_gate_keeps_replica_variables_free(model):
    theory = compile_direct(model, T)
    s_clauses = [c for c in theory.clauses if c.head.pred == "s"]
    assert [format_clause(c) for c in s_clauses] == [
        "s(I) :- p(I,f).",
        "s(I) :- mm(I).",
        "s(I) :- dm(I).",
    ]


def test_and_gate_folds_the_declared_parameter(model):
    theory = compile_direct(model, T)
    (dm,) = [c for c in theory.clauses if c.head.pred == "dm"]
    assert format_clause(dm) == "dm(I) :- d(I,1,f), d(I,2,f)."


def _direct_bodies(model, pred):
    return [c.body for c in compile_direct(model, T).clauses if c.head.pred == pred]


def test_kofn_expands_to_failure_subsets(model):
    # vote(2:3) fails when 2 of its 3 replicas fail
    replicas = [Atom("s", (i,)) for i in (1, 2, 3)]
    assert _direct_bodies(model, "skn") == [
        (replicas[0], replicas[1]),
        (replicas[0], replicas[2]),
        (replicas[1], replicas[2]),
    ]


def test_kofn_group_count_is_n_minus_k_plus_1_choose_n():
    for card, k in [(3, 1), (3, 2), (3, 3), (4, 2)]:
        values = ", ".join(str(v) for v in range(1, card + 1))
        m = parse_model(
            f"type T={{{values}}}\nbasic A(i:T) rate 1e-4\n"
            f"top TE = vote({k}:{card}) forall(i:T) A(i)"
        )
        replicas = [Atom("a", (i, "f")) for i in range(1, card + 1)]
        bodies = _direct_bodies(m, "te")
        assert bodies == list(combinations(replicas, card - k + 1))
        assert len(bodies) == comb(card, card - k + 1)


def test_direct_kofn_bodies_are_the_failure_groups():
    # stage 1 builds each replica's atom once and lists every failure
    # subset of vote(4:6), in `itertools.combinations` order
    m = multiprocessor(6, 2, 4)
    replicas = [Atom("s", (i,)) for i in range(1, 7)]
    bodies = _direct_bodies(m, "skn")
    assert bodies == list(combinations(replicas, 3))
    assert len(bodies) == comb(6, 3)


def test_disjoint_kofn_has_a_cell_per_failure_and_working_subset():
    m = multiprocessor(6, 2, 4)
    skn = [c for c in compile_disjoint(m, T).clauses if c.head.pred == "skn"]
    statuses = [c.head.args[-1] for c in skn]
    assert statuses == ["f"] * comb(6, 3) + ["w"] * comb(6, 4)
    # each cell leads with its subset at the gate's status, in subset order
    leads = [tuple(a.args[0] for a in c.body if a.args[-1] == c.head.args[-1]) for c in skn]
    assert leads == list(combinations(range(1, 7), 3)) + list(combinations(range(1, 7), 4))


def test_disjoint_top_event_head_carries_no_status(model):
    theory = compile_disjoint(model, T)
    te_clauses = [c for c in theory.clauses if c.head.pred == "te"]
    assert [format_clause(c) for c in te_clauses] == [
        "te :- b(f).",
        "te :- skn(f), b(w).",
    ]


def test_disjoint_same_head_bodies_differ(model):
    theory = compile_disjoint(model, T)
    seen = set()
    for c in theory.clauses:
        key = (format_clause(c),)
        assert key not in seen
        seen.add(key)


def test_compile_rejects_invalid_models():
    # an invalid model never reaches a translation: building it raises
    with pytest.raises(ModelInvalidError) as err:
        parse_model("basic B rate -2\ntop TE = or(B)")
    assert err.value.violations == ["negative failure rate for B"]


def test_reordered_gate_inputs_only_reorder_clauses(model, listing_model):
    plain = compile_direct(model, T)
    ordered = compile_direct(listing_model, T)
    assert set(plain.clauses) == set(ordered.clauses)
    assert plain.declarations == ordered.declarations


def test_unreplicated_vote_input_is_rejected_at_compile_time():
    # rejected before any translation, when the model is built
    with pytest.raises(ModelInvalidError) as err:
        parse_model("basic A rate 1e-3\nbasic B rate 1e-3\ntop TE = vote(2:2)(A, B)")
    assert err.value.violations == ["KofN gate TE must have exactly one replicator input"]


def test_a_quantified_or_input_is_expanded_into_its_replicas():
    m = parse_model("type T = {1, 2, 3}\nbasic A(i:T) rate 1e-4\ntop E = or forall(i:T) A(i)")
    assert [format_clause(c) for c in compile_direct(m, T).clauses] == [
        "e :- a(1,f).",
        "e :- a(2,f).",
        "e :- a(3,f).",
    ]


def test_quantified_or_gates_agree_with_the_oracle():
    m = quantified_or()
    tree = unfold(m, T)
    implicants = prime_implicants(tree, top_enumeration(tree)[2])
    assert {c.events for c in minimal_cut_sets(m, T)} == set(implicants)
    bounds = unreliability_curve(m, [T])[0].bounds
    exact = exact_probability(tree, {tree.top: True})
    assert bounds.lower == pytest.approx(exact, abs=1e-12)
    assert bounds.upper == pytest.approx(exact, abs=1e-12)


def test_negative_replica_indices_round_trip_through_theory_text():
    m = parse_model(
        "type T = {-1, 2}\nbasic A(i:T) rate 1e-3\nbasic B rate 2e-3\n"
        "event W(i:T) = or(A(i), B)\ntop TE = vote(1:2) forall(i:T) W(i)"
    )
    for theory in (compile_direct(m, T), compile_disjoint(m, T)):
        text = serialize(theory)
        assert "a(-1,f)" in text
        assert parse_theory(text, theory.stage) == theory


def _gate_model(kind: str, n: int) -> str:
    """A gate G of `kind` over n replicas A(1..n), under an OR top so that
    it keeps its working cells."""
    values = ", ".join(str(i) for i in range(1, n + 1))
    return (f"type T = {{{values}}}\nbasic A(i:T) rate 1e-3\nbasic B rate 1e-3\n"
            f"event G = {kind} forall(i:T) A(i)\ntop TE = or(G, B)\n")


def _spec_cells(kind: str, n: int, m: int) -> list[tuple]:
    """(status, lead, trail) of every cell by definition: the trail holds the
    positions before the lead's last that are outside the lead, descending."""
    def trail(lead):
        return tuple(j for j in range(lead[-1] - 1, -1, -1) if j not in lead)

    working = [tuple(range(n - 1, -1, -1))] if kind == "or" else combinations(range(n), n - m + 1)
    return ([("f", lead, trail(lead)) for lead in combinations(range(n), m)]
            + [("w", lead, () if kind == "or" else trail(lead)) for lead in working])


GATE_CASES = ([("and", n, n) for n in range(1, 9)] + [("or", n, 1) for n in range(1, 9)]
              + [(f"vote({k}:{n})", n, n - k + 1) for n in range(1, 9) for k in range(1, n + 1)])


@pytest.mark.parametrize("kind, n, m", GATE_CASES, ids=[f"{c[0]}-{c[1]}" for c in GATE_CASES])
def test_stage_two_cells_match_their_definition(kind, n, m):
    clauses = [c for c in compile_disjoint(parse_model(_gate_model(kind, n)), T).clauses
               if c.head.pred == "g"]
    cells = []
    for c in clauses:
        status = c.head.args[-1]
        positions = [a.args[0] - 1 for a in c.body]
        statuses = [a.args[-1] for a in c.body]
        size = statuses.count(status)
        # the lead, at the head's status, comes before the trail, at the other
        assert statuses == [status] * size + [{"f": "w", "w": "f"}[status]] * (len(c.body) - size)
        cells.append((status, tuple(positions[:size]), tuple(positions[size:])))
    assert cells == _spec_cells(kind.split("(")[0], n, m)

    # the cells partition the status space; the failure cells cover the failing region
    for world in product("wf", repeat=n):
        holding = [c.head.args[-1] for c in clauses
                   if all(world[a.args[0] - 1] == a.args[-1] for a in c.body)]
        assert holding == ["f" if world.count("f") >= m else "w"], world


@pytest.mark.parametrize("compile_theory, translation, cells", [
    (compile_direct, "direct", comb(40, 21)),
    (compile_disjoint, "disjoint", comb(40, 21) + comb(40, 20)),
], ids=["direct", "disjoint"])
def test_a_gate_over_the_cell_limit_is_refused_before_any_clause(compile_theory, translation,
                                                                 cells):
    m = parse_model(_gate_model("vote(20:40)", 40))
    start = time.perf_counter()
    with pytest.raises(TheoryError) as info:
        compile_theory(m, T)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == (f"gate G needs {cells} clauses in the {translation} "
                               f"translation, over the limit of 1000000 per gate")


@pytest.mark.parametrize("text, pred, direct, disjoint", [
    # the wide vote: 167,960 stage-1 clauses, and 352,716 stage-2 cells under the limit
    (_gate_model("vote(10:20)", 20), "g", comb(20, 11), comb(20, 11) + comb(20, 10)),
    (_gate_model("vote(3:7)", 7), "g", comb(7, 5), comb(7, 5) + comb(7, 3)),
    # the top event keeps only its failure cells; an OR has one working cell
    ("type T = {1, 2, 3, 4, 5}\nbasic A(i:T) rate 1e-4\ntop TE = vote(2:5) forall(i:T) A(i)\n",
     "te", comb(5, 4), comb(5, 4)),
    (_gate_model("or", 6), "g", 6, 7),
], ids=["vote(10:20)", "vote(3:7)", "top-vote(2:5)", "or-6"])
def test_the_cell_limit_counts_each_gates_clauses_exactly(monkeypatch, text, pred, direct,
                                                          disjoint):
    m = parse_model(text)
    for compile_theory, cells in ((compile_direct, direct), (compile_disjoint, disjoint)):
        monkeypatch.setattr("pfta.compile.MAX_GATE_CELLS", cells - 1)
        with pytest.raises(TheoryError, match=f"gate {pred.upper()} needs {cells} clauses"):
            compile_theory(m, T)
        if cells < 1000:
            # at the limit the gate compiles, to that many clauses
            monkeypatch.setattr("pfta.compile.MAX_GATE_CELLS", cells)
            heads = [c.head.pred for c in compile_theory(m, T).clauses]
            assert heads.count(pred) == cells


def _top_gate_model(kind: str, n: int) -> str:
    """The gate `kind` over n replicas A(1..n) as the top event, with failure cells only."""
    values = ", ".join(str(i) for i in range(1, n + 1))
    return f"type T = {{{values}}}\nbasic A(i:T) rate 1e-3\ntop TE = {kind} forall(i:T) A(i)\n"


@pytest.mark.parametrize("kind, n, m", GATE_CASES, ids=[f"{c[0]}-{c[1]}" for c in GATE_CASES])
def test_the_atom_limit_counts_each_gates_body_atoms_exactly(monkeypatch, kind, n, m):
    for text, pred in ((_gate_model(kind, n), "g"), (_top_gate_model(kind, n), "te")):
        model = parse_model(text)
        for compile_theory in (compile_direct, compile_disjoint):
            atoms = sum(len(c.body) for c in compile_theory(model, T).clauses
                        if c.head.pred == pred)
            # G comes before TE in model order, so its count is checked first
            monkeypatch.setattr("pfta.compile.MAX_GATE_ATOMS", atoms - 1)
            with pytest.raises(TheoryError, match=f"gate {pred.upper()} needs {atoms} body atoms"):
                compile_theory(model, T)
            monkeypatch.undo()


def test_a_wide_or_over_the_atom_limit_is_refused_before_any_clause():
    # or(20000) has 20,001 stage-2 clauses, but its failure cell j reads
    # j inputs: 200,010,000 body atoms
    values = ", ".join(str(i) for i in range(1, 20001))
    m = parse_model(f"type T = {{{values}}}\nbasic A(i:T) rate 1e-4\n"
                    "event E = or forall(i:T) A(i)\ntop TE = or(E)\n")
    start = time.perf_counter()
    with pytest.raises(TheoryError) as info:
        compile_disjoint(m, T)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == ("gate E needs 200030000 body atoms in the disjoint translation, "
                               "over the limit of 10000000 per gate")
    assert len(compile_direct(m, T).clauses) == 20001


BENCH_MODELS = [(3, 2, 2), (4, 2, 2), (5, 2, 3), (5, 3, 3), (6, 2, 4), (7, 2, 5), (7, 3, 5),
                (8, 2, 6), (10, 2, 6), (11, 2, 7), (16, 2, 12), (17, 2, 13)]


def test_the_atom_limit_refuses_none_of_the_shipped_and_bench_models():
    models = [multiprocessor(*spec) for spec in BENCH_MODELS] + [chain(12), chain(128)]
    # the other data file, two_input_vote.pft, is an invalid model on purpose
    models.append(parse_model((DATA / "multiprocessor.pft").read_text()))
    # the wide vote's gate G holds 6,760,390 stage-2 body atoms, the most of any here
    models.append(parse_model(_gate_model("vote(10:20)", 20)))
    for m in models:
        assert compile_direct(m, T).clauses and compile_disjoint(m, T).clauses
