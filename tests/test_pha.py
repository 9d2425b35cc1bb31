from __future__ import annotations

import ast
import inspect
import os
import pickle
import subprocess
import sys
from functools import partial, reduce
from itertools import chain, product
from operator import or_
from pathlib import Path

import pytest

from randmodels import multiprocessor, random_model, shared_model
from pfta.compile import compile_direct, compile_disjoint
from pfta.dsl import parse_model
from pfta.engine import (
    AssumptionReport,
    AtomTable,
    _closure,
    _ground_rules,
    check_assumptions,
    entails,
)
from pfta.errors import EngineError, ModelInvalidError, TheoryError
from pfta.pha import (
    Atom,
    Clause,
    DisjointDeclaration,
    PhaTheory,
    STAGE_DIRECT,
    STAGE_DISJOINT,
    Var,
    apply_substitution,
    format_atom,
    format_clause,
    format_declaration,
    parse_theory,
    serialize,
    unify,
)

T = 1e4
DATA = Path(__file__).parent / "data"


def _decl(*pairs):
    return DisjointDeclaration(tuple((Atom(n, ()), p) for n, p in pairs))


def test_unify_binds_both_directions():
    subst = unify(Atom("p", (Var("X"), 1)), Atom("p", (2, Var("Y"))))
    assert subst == {Var("X"): 2, Var("Y"): 1}


def test_unify_rejects_constant_clash():
    assert unify(Atom("p", (1,)), Atom("p", (2,))) is None
    assert unify(Atom("p", (1,)), Atom("q", (1,))) is None
    assert unify(Atom("p", (1,)), Atom("p", (1, 2))) is None


def test_unify_chains_variable_bindings():
    subst = unify(Atom("p", (Var("X"), Var("X"))), Atom("p", (Var("Y"), 3)))
    grounded = apply_substitution(Atom("p", (Var("X"), Var("Y"))), subst)
    assert grounded == Atom("p", (3, 3))


def test_declaration_probabilities_must_sum_to_one():
    with pytest.raises(TheoryError, match="sum to 0.8"):
        _decl(("a", 0.4), ("b", 0.4))


def test_declaration_alternatives_must_be_ground():
    with pytest.raises(TheoryError, match="not ground"):
        DisjointDeclaration(((Atom("a", (Var("X"),)), 0.5), (Atom("b", ()), 0.5)))


def test_declaration_alternatives_must_be_distinct():
    with pytest.raises(TheoryError):
        _decl(("a", 0.5), ("a", 0.5))


@pytest.mark.parametrize("alternatives, message", [
    ((), "empty disjoint declaration"),
    (((Atom("a", ()), 1.5), (Atom("b", ()), -0.5)), "alternative probability 1.5 outside [0, 1]"),
], ids=["empty", "probability-outside-0-1"])
def test_malformed_declarations_are_rejected(alternatives, message):
    with pytest.raises(TheoryError) as err:
        DisjointDeclaration(alternatives)
    assert str(err.value) == message


def test_hypothesis_may_appear_in_one_declaration_only():
    with pytest.raises(TheoryError):
        PhaTheory(
            rules=(),
            declarations=(_decl(("a", 0.5), ("b", 0.5)), _decl(("a", 0.3), ("c", 0.7))),
            stage=STAGE_DIRECT,
        )


def test_dangling_body_predicate_is_rejected():
    with pytest.raises(TheoryError, match="dangling predicate nope"):
        PhaTheory(
            rules=(Clause(Atom("g", ()), (Atom("nope", ()),)),),
            declarations=(_decl(("a", 0.5), ("b", 0.5)),),
            stage=STAGE_DIRECT,
        )


def test_format_atom_is_compact():
    assert format_atom(Atom("m", (1, "f"))) == "m(1,f)"
    assert format_atom(Atom("te", ())) == "te"


def test_format_clause_is_one_line():
    c = Clause(Atom("g", (Var("I"),)), (Atom("a", (Var("I"), "f")), Atom("b", ())))
    assert format_clause(c) == "g(I) :- a(I,f), b."


def _atoms(theory):
    return [a for c in theory.clauses for a in (c.head, *c.body)] + [
        a for d in theory.declarations for a, _ in d.alternatives]


def test_equal_atoms_built_apart_hash_equal_and_dedupe(model):
    compiled = compile_disjoint(model, T)
    parsed = parse_theory(serialize(compiled), STAGE_DISJOINT)
    for mine, theirs in zip(_atoms(compiled), _atoms(parsed)):
        assert mine == theirs and mine is not theirs
        assert hash(mine) == hash(theirs) == hash((theirs.pred, theirs.args))
    assert set(_atoms(compiled)) == set(_atoms(parsed))

    # a substitution builds the atom afresh from the clause's variable form
    s_head = next(c.head for c in compiled.clauses if c.head.pred == "s")
    ground = apply_substitution(s_head, {Var("I"): 2})
    assert ground == Atom("s", (2, "f")) and hash(ground) == hash(Atom("s", (2, "f")))
    assert len({ground, Atom("s", (2, "f"))}) == 1


def test_atom_equality_and_repr_ignore_the_stored_hash():
    atom = Atom("p", (1, "f"))
    assert repr(atom) == "Atom(pred='p', args=(1, 'f'))"
    assert atom == Atom("p", (1, "f"))
    assert atom != Atom("p", (1, "w")) and atom != Atom("q", (1, "f"))
    assert atom == ("p", (1, "f"))
    assert Atom("p") == Atom("p", ())


def test_an_atom_hashes_as_the_tuple_of_its_fields():
    # so every set and dict of atoms is ordered as one of their field tuples
    for atom in (Atom("te"), Atom("p", (1, "f")), Atom("s", (Var("I"), "w")),
                 Atom("g", (Var("I"), Var("J")))):
        assert hash(atom) == hash((atom.pred, atom.args))


def test_an_atom_has_no_instance_dict():
    assert not hasattr(Atom("p", (1, "f")), "__dict__")


def test_an_atom_equals_the_tuple_of_its_fields_but_not_a_var():
    atom = Atom("I")
    assert atom != Var("I") and Var("I") != atom
    assert atom == ("I", ()) and ("I", ()) == atom
    assert atom in {Atom("I")} and atom in {("I", ())} and atom not in {Var("I")}


def test_an_atom_compares_and_hashes_in_c_as_a_tuple():
    # a Python-level comparison would run on every lookup of an equal atom
    # built elsewhere, millions of times in one wide search
    atom_class = ast.parse(inspect.getsource(Atom)).body[0]
    defined = {node.name for node in atom_class.body if isinstance(node, ast.FunctionDef)}
    defined |= {node.id for node in ast.walk(atom_class)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert defined & {"__eq__", "__ne__", "__hash__"} == set()
    assert (Atom.__eq__, Atom.__ne__, Atom.__hash__) == (
        tuple.__eq__, tuple.__ne__, tuple.__hash__)


def test_an_unpickled_atom_hashes_in_its_own_process():
    # str hashes are salted per process, so a stored hash must not travel
    atoms = [Atom("p", (1, "f")), Atom("te"), Atom("s", (Var("I"), "w"))]
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    script = (
        "import pickle, sys\n"
        "from pfta.pha import Atom, Var\n"
        "atoms = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = [Atom('p', (1, 'f')), Atom('te'), Atom('s', (Var('I'), 'w'))]\n"
        "assert atoms == fresh\n"
        "assert [hash(a) for a in atoms] == [hash(a) for a in fresh]\n"
        "assert set(atoms) == set(fresh) and all(a in set(fresh) for a in atoms)\n"
        "print(hash('te'))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(atoms), env=env,
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    # the other process did salt its hashes differently
    assert int(done.stdout) != hash("te")


def test_serialize_parse_round_trip(model):
    theory = compile_disjoint(model, T)
    text = serialize(theory)
    again = parse_theory(text, stage=STAGE_DISJOINT)
    assert again.clauses == theory.clauses
    assert again.declarations == theory.declarations
    assert serialize(again) == text


@pytest.mark.parametrize("stage, compile_theory", [
    (STAGE_DIRECT, compile_direct),
    (STAGE_DISJOINT, compile_disjoint),
])
@pytest.mark.parametrize("precision", [None, 4])
def test_serialize_renders_item_by_item(stage, compile_theory, precision):
    # vote(3:5) repeats each replica atom across many bodies; the text must
    # still read as the per-item formatters render each line
    theory = compile_theory(multiprocessor(5, 2, 3), T)
    text = serialize(theory, precision)
    assert text.splitlines() == (
        [format_declaration(d, precision) for d in theory.declarations]
        + [format_clause(c) for c in theory.clauses]
    )
    again = parse_theory(serialize(theory), stage)
    assert again == theory


def _valid_data_models() -> dict:
    """Each valid model file of the test data, analysed at T."""
    models = {}
    for path in sorted(DATA.glob("*.pft")):
        try:
            model = parse_model(path.read_text())
        except ModelInvalidError:
            continue
        models[path.name] = lambda model=model: (model, T)
    return models


AGREEMENT = {**{seed: partial(random_model, seed) for seed in range(60)},
             **{f"shared{seed}": partial(shared_model, seed) for seed in range(60)},
             **_valid_data_models()}


@pytest.mark.parametrize("compile_theory", [compile_direct, compile_disjoint],
                         ids=["stage1", "stage2"])
@pytest.mark.parametrize("name", AGREEMENT)
def test_records_write_the_text_of_their_clause_view(name, compile_theory):
    model, t = AGREEMENT[name]()
    theory = compile_theory(model, t)
    text = serialize(theory)
    assert text == serialize(PhaTheory(theory.clauses, theory.declarations, theory.stage))
    assert parse_theory(text, theory.stage) == theory


def test_serialize_renders_facts_and_propositional_atoms():
    fact = Clause(Atom("g", (Var("X"),)))
    rule = Clause(Atom("h", ()), (Atom("a", ()), Atom("g", (1,)), Atom("a", ())))
    theory = PhaTheory((fact, rule), (_decl(("a", 0.25), ("b", 0.75)),))
    assert serialize(theory) == (
        "disjoint([a:0.25,b:0.75]).\n"
        f"{format_clause(fact)}\n"
        f"{format_clause(rule)}\n"
    )
    assert serialize(theory).splitlines()[1:] == ["g(X).", "h :- a, g(1), a."]


def test_serialize_default_precision_round_trips_probabilities(model):
    theory = compile_direct(model, T)
    again = parse_theory(serialize(theory))
    for mine, parsed in zip(theory.declarations, again.declarations):
        for (_, p), (_, q) in zip(mine.alternatives, parsed.alternatives):
            assert p == q  # exact, not approximate


def test_fixed_precision_grows_until_nonzero():
    theory = PhaTheory(rules=(), declarations=(_decl(("a", 0.99998), ("b", 2e-5)),),
                       stage=STAGE_DIRECT)
    assert serialize(theory, precision=4) == "disjoint([a:0.99998,b:0.00002]).\n"


@pytest.mark.parametrize("body", ["h, a", "a, h", "a, h, a"])
def test_a_counterexample_lists_each_body_as_its_clause_does(body):
    theory = parse_theory(
        "disjoint([a:0.5,na:0.5]).\ndisjoint([b:0.5,nb:0.5]).\ndisjoint([c:0.5,nc:0.5]).\n"
        f"g :- {body}.\ng :- h, b.\nh :- c.\n")
    assert check_assumptions(theory).counterexample == f"g :- {body}. and g :- h, b. both hold"


def test_direct_stage_breaks_body_exclusivity(model):
    report = check_assumptions(compile_direct(model, T))
    assert report.assumption1 is True
    assert report.assumption2 is False
    assert report.counterexample is not None


def test_disjoint_stage_satisfies_both_assumptions(model):
    report = check_assumptions(compile_disjoint(model, T))
    assert report.assumption1 is True
    assert report.assumption2 is True


def _check_over_every_rule(theory):
    """`check_assumptions` closing each joint assignment over every ground
    rule, those that can never fire included, and the count of those."""
    report = check_assumptions(theory)
    if report.assumption2 is None:
        return report, 0
    table = AtomTable(theory, ())
    heads = [i for c in theory.clauses for (i,) in table.ground((c.head,))]
    rules = _ground_rules(table, heads)
    choices = [[1 << table.intern(a) for a, _ in d.alternatives] for d in theory.declarations]
    derivable = reduce(or_, [1 << head for head, _ in rules], reduce(or_, chain(*choices), 0))
    never = sum(1 for _, body in rules if body & ~derivable)
    for world in product(*choices):
        mask = _closure(rules, reduce(or_, world, 0))
        first = {}
        for head, body in rules:
            if not body & ~mask and first.setdefault(head, body) != body:
                # each body as its clause lists it
                pair = [Clause(table.atoms[head], next(
                    tuple(map(table.atoms.__getitem__, ids)) for ids in table.expand(head)
                    if reduce(or_, [1 << i for i in ids], 0) == b)) for b in (first[head], body)]
                example = " and ".join(map(format_clause, pair)) + " both hold"
                return AssumptionReport(True, False, report.joint_states, example), never
    return AssumptionReport(True, True, report.joint_states), never


def test_rules_that_never_fire_leave_every_assumption_report_unchanged(model):
    theories = [stage(model, T) for stage in (compile_direct, compile_disjoint)]
    theories += [parse_theory((DATA / "theory_stage1.pha").read_text(), STAGE_DIRECT),
                 parse_theory((DATA / "theory_stage2.pha").read_text(), STAGE_DISJOINT)]
    for seed in range(60):
        rand, t = random_model(seed)
        theories += [compile_direct(rand, t), compile_disjoint(rand, t)]
    never = 0
    for theory in theories:
        expected, dropped = _check_over_every_rule(theory)
        assert check_assumptions(theory) == expected
        never += dropped
    assert never > 0  # the typed models ground heads that can never hold


def test_head_unifying_with_hypothesis_breaks_assumption_one():
    theory = PhaTheory(
        rules=(Clause(Atom("a", ()), (Atom("b", ()),)),),
        declarations=(_decl(("a", 0.5), ("b", 0.5)),),
        stage=STAGE_DIRECT,
    )
    report = check_assumptions(theory)
    assert report.assumption1 is False
    # the ground rules of a hypothesis that heads a clause are refused, so
    # exclusivity is not checked once the first assumption fails
    assert report.assumption2 is None
    assert report.joint_states == 2
    with pytest.raises(EngineError, match="hypothesis a heads a clause"):
        entails(theory, {Atom("b", ())}, [Atom("a", ())])


@pytest.mark.parametrize("head, holds", [
    (Atom("a", (Var("X"),)), False),
    (Atom("a", (2,)), True),
    (Atom("c", (Var("X"),)), True),
], ids=["variable-head-of-its-predicate", "other-constant", "other-predicate"])
def test_assumption_one_unifies_non_ground_heads_with_the_hypotheses(head, holds):
    theory = PhaTheory(
        rules=(Clause(head, (Atom("b", ()),)),),
        declarations=(DisjointDeclaration(((Atom("a", (1,)), 0.5), (Atom("b", ()), 0.5))),),
        stage=STAGE_DIRECT,
    )
    assert check_assumptions(theory).assumption1 is holds


def test_entails_follows_clauses(model):
    theory = compile_disjoint(model, T)
    te = Atom("te", ())
    bus_only = {Atom("b", ("f",))}
    assert entails(theory, bus_only, [te])
    all_working = {
        alt for decl in theory.declarations for alt, _ in decl.alternatives
        if alt.args and alt.args[-1] == "w"
    }
    assert not entails(theory, all_working, [te])


def test_entails_is_false_for_an_unknown_predicate_or_a_goal_with_variables(model):
    theory = compile_disjoint(model, T)
    bus_only = {Atom("b", ("f",))}
    assert not entails(theory, bus_only, [Atom("nowhere", ())])
    assert not entails(theory, bus_only, [Atom("te", ()), Atom("nowhere", ())])
    assert not entails(theory, bus_only, [Atom("b", (Var("S"),))])
    assert entails(theory, bus_only, [Atom("b", ("f",))])


def test_entails_on_a_chain_deeper_than_the_recursion_limit():
    # e00000 :- e00001, ..., e0NNNN :- a: the walk that orders the rules
    # starts at the top and descends the chain
    depth = 2 * sys.getrecursionlimit()
    names = [f"e{i:05d}" for i in range(depth)] + ["a"]
    clauses = [Clause(Atom(h, ()), (Atom(b, ()),)) for h, b in zip(names, names[1:])]
    theory = PhaTheory(
        rules=tuple(reversed(clauses)),
        declarations=(_decl(("a", 0.5), ("x", 0.5)),),
        stage=STAGE_DIRECT,
    )
    top = Atom(names[0], ())
    assert entails(theory, {Atom("a", ())}, [top])
    assert not entails(theory, {Atom("x", ())}, [top])


def test_entails_needs_every_body_atom():
    theory = PhaTheory(
        rules=(
            Clause(Atom("g", ()), (Atom("a", ()), Atom("h", ()))),
            Clause(Atom("h", ()), (Atom("b", ()),)),
        ),
        declarations=(_decl(("a", 0.5), ("x", 0.5)), _decl(("b", 0.5), ("y", 0.5))),
        stage=STAGE_DIRECT,
    )
    assert entails(theory, {Atom("a", ()), Atom("b", ())}, [Atom("g", ())])
    assert not entails(theory, {Atom("a", ())}, [Atom("g", ())])


# g and h depend on each other in each: the probability rule assumes an
# acyclic theory, so entailment and its assumption check refuse these
CYCLIC_THEORIES = {
    "exclusive": "g :- a, h.\nh :- g, b.\nh :- y.\n",
    "overlapping": "g :- a, h.\nh :- g.\nh :- b.\n",
    "reached-late": "h :- b.\ng :- a, h.\nh :- g.\nh :- k.\nk :- c.\n",
}


@pytest.mark.parametrize("clauses", CYCLIC_THEORIES.values(), ids=CYCLIC_THEORIES)
def test_entails_and_the_assumption_check_refuse_a_cyclic_theory(clauses):
    theory = parse_theory(
        "disjoint([a:0.5,x:0.5]).\ndisjoint([b:0.5,y:0.5]).\ndisjoint([c:0.5,z:0.5]).\n"
        + clauses
    )
    a, b, c, g = (Atom(n, ()) for n in "abcg")
    with pytest.raises(EngineError, match="cyclic theory: [gh] depends on itself"):
        entails(theory, {a, b, c}, [g])
    with pytest.raises(EngineError, match="cyclic theory: [gh] depends on itself"):
        check_assumptions(theory)


def test_parse_theory_reports_line_numbers():
    with pytest.raises(TheoryError) as err:
        parse_theory("disjoint([a:0.5,b:0.5]).\ng :- a\n")
    assert err.value.line == 2


@pytest.mark.parametrize("line, message", [
    ("g :-", "unexpected end of line"),
    ("g :- a b.", "expected '.', got 'b'"),
    ("g(X,+) :- a.", "expected term, got '+'"),
    ("G :- a.", "expected predicate, got 'G'"),
    ("disjoint([c:x,d:0.5]).", "expected probability, got 'x'"),
    ("disjoint([c:0.5,d:0.5]). g.", "trailing text after declaration"),
    ("g. h.", "trailing text after fact"),
    ("g h.", "expected ':-' or '.', got 'h'"),
    ("g :- a. h", "trailing text after clause"),
    ("disjoint([c:0.4,d:0.4]).", "probabilities sum to 0.8"),
], ids=["end-of-line", "missing-comma", "bad-term", "bad-predicate", "bad-probability",
        "after-declaration", "after-fact", "no-neck", "after-clause", "declaration-sum"])
def test_parse_theory_names_each_malformed_line(line, message):
    with pytest.raises(TheoryError) as err:
        parse_theory("disjoint([a:0.5,b:0.5]).\n" + line + "\n")
    assert (err.value.line, str(err.value)) == (2, f"line 2: {message}")


@pytest.mark.parametrize("lines, clause", [
    ("g.", Clause(Atom("g", ()))),
    ("\n  \ng :- c.", Clause(Atom("g", ()), (Atom("c", ()),))),
], ids=["fact", "blank-lines"])
def test_parse_theory_reads_facts_and_skips_blank_lines(lines, clause):
    theory = parse_theory("disjoint([c:0.5,d:0.5]).\n" + lines + "\n")
    assert theory.clauses == (clause,)
    assert len(theory.declarations) == 1


def test_parse_theory_reads_a_negative_probability_as_a_number():
    # `:-` right before a digit is the `:` of an alternative and a sign
    with pytest.raises(TheoryError) as err:
        parse_theory("disjoint([c:0.5,d:-0.5]).")
    assert (err.value.line, str(err.value)) == (
        1, "line 1: alternative probability -0.5 outside [0, 1]")
    g, c, d = (Atom(n, ()) for n in "gcd")
    for line, body in (("g :- c.", (c,)), ("g:-c.", (c,)), ("g :-c, d.", (c, d))):
        theory = parse_theory("disjoint([c:0.5,d:0.5]).\n" + line + "\n")
        assert theory.clauses == (Clause(g, body),)
