from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pfta.cli
import pfta.engine
import pfta.measures
import pfta.oracle
from conftest import DATA
from pfta.cli import MAX_DIGITS, main
from randmodels import CASE_PARAMETERS, CONSTANT_OF_T, multiprocessor_text

MODEL = str(DATA / "multiprocessor.pft")
BROKEN = str(DATA / "two_input_vote.pft")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_validate_ok(capsys):
    code, out, err = _run(capsys, "validate", MODEL)
    assert (code, out, err) == (0, "OK\n", "")


def test_validate_reports_violations_on_stderr(capsys):
    code, out, err = _run(capsys, "validate", BROKEN)
    assert code == 1
    assert out == ""
    assert "KofN gate TE must have exactly one replicator input" in err


@pytest.mark.parametrize("text, violations", [
    ("basic A rate 1e-3\nbasic a rate 1e-3\ntop TE = or(A, a)\n",
     ["event classes A and a collide case-insensitively"]),
    ("basic B rate 1e-3\ntop TE = or(B)\nevent E = or(TE)\n",
     ["top event TE is an input of a gate"]),
    ("basic B rate -2\n",
     ["model has 0 top events, expected exactly 1", "negative failure rate for B"]),
    (CASE_PARAMETERS, ["parameters i and I collide case-insensitively"]),
], ids=["case-collision", "top-as-input", "two-violations", "parameter-case-collision"])
def test_validate_prints_each_violation_on_its_own_line(capsys, tmp_path, text, violations):
    path = tmp_path / "model.pft"
    path.write_text(text)
    err = "".join(f"violation: {v}\n" for v in violations)
    assert _run(capsys, "validate", str(path)) == (1, "", err)


@pytest.mark.parametrize("command", [
    ["compile", "--stage", "1", "--time", "10000"],
    ["compile", "--stage", "2", "--time", "10000"],
    ["mcs", "--time", "10000"],
    ["unrel", "--time", "10000"],
    ["curve", "--from", "0", "--to", "10000", "--step", "5000"],
    ["posterior", "--time", "10000"],
    ["oracle", "--time", "10000"],
], ids=["compile-1", "compile-2", "mcs", "unrel", "curve", "posterior", "oracle"])
def test_no_command_analyses_a_model_whose_parameters_differ_only_in_case(capsys, tmp_path,
                                                                          command):
    path = tmp_path / "model.pft"
    path.write_text(CASE_PARAMETERS)
    err = "error: invalid model: parameters i and I collide case-insensitively\n"
    assert _run(capsys, command[0], str(path), *command[1:]) == (1, "", err)


def test_compile_stage_two_writes_theory_text(capsys, tmp_path):
    target = tmp_path / "theory.pha"
    code, out, _ = _run(capsys, "compile", MODEL, "--stage", "2",
                        "--time", "10000", "--precision", "4", "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == (DATA / "theory_stage2.pha").read_text()


def test_compile_at_time_zero_prints_exact_certainties_at_any_precision(capsys):
    code, out, err = _run(capsys, "compile", MODEL, "--stage", "1", "--time", "0",
                          "--precision", "3")
    assert (code, err) == (0, "")
    declarations = [l for l in out.splitlines() if l.startswith("disjoint(")]
    assert declarations[0] == "disjoint([b(w):1.0,b(f):0.0])."
    assert len(declarations) == 14
    assert all(l.count(":1.0,") == 1 and l.endswith(":0.0]).") for l in declarations)


def test_a_negative_zero_rate_or_time_prints_as_zero(capsys, tmp_path):
    path = tmp_path / "model.pft"
    path.write_text("basic A rate -0.0\nbasic B rate 1e-3\ntop TE = or(A, B)\n")
    model = str(path)
    code, out, _ = _run(capsys, "compile", model, "--stage", "2", "--time", "10")
    assert code == 0 and "a(f):0.0]" in out and "-0" not in out
    for argv, row in ((["mcs"], ["2", "A", "0"]), (["mcs", "--posterior"], ["2", "A", "0", "0"]),
                      (["posterior"], ["A", "0"])):
        code, out, _ = _run(capsys, *argv, model, "--time", "10")
        assert code == 0 and "-0" not in out
        assert row in [line.split() for line in out.splitlines()]
    assert _run(capsys, "unrel", model, "--time", "-0.0") == (
        0, "time_hours  lower  upper\n0           0      0\n", "")


def test_compile_stage_one_counts(capsys):
    code, out, _ = _run(capsys, "compile", MODEL, "--stage", "1", "--time", "10000")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert sum(l.startswith("disjoint(") for l in lines) == 14
    assert sum(":-" in l for l in lines) == 10


def test_mcs_csv_has_the_documented_columns(capsys):
    code, out, _ = _run(capsys, "mcs", MODEL, "--time", "10000", "--format", "csv")
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["rank", "events", "prior", "posterior"]
    assert len(rows) == 29
    assert rows[1][0] == "1"
    assert rows[1][1] == "D(1,1) D(1,2) D(2,1) D(2,2)"
    assert rows[1][3] == ""  # no posterior unless asked


def test_mcs_posterior_fills_the_last_column(capsys):
    code, out, _ = _run(capsys, "mcs", MODEL, "--time", "10000",
                        "--format", "csv", "--posterior")
    rows = _rows(out)
    assert code == 0
    assert float(rows[1][3]) == pytest.approx(0.409541, abs=1e-5)


def test_mcs_table_is_aligned_text(capsys):
    code, out, _ = _run(capsys, "mcs", MODEL, "--time", "10000")
    assert code == 0
    head, first = out.splitlines()[:2]
    assert head.split() == ["rank", "events", "prior", "posterior"]
    assert first.startswith("1     D(1,1)")


def test_unrel_prints_bounds(capsys):
    code, out, _ = _run(capsys, "unrel", MODEL, "--time", "10000")
    assert code == 0
    assert "0.224528" in out


def test_curve_defaults_to_csv(capsys):
    code, out, _ = _run(capsys, "curve", MODEL, "--from", "0", "--to", "20000",
                        "--step", "2000")
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["time_hours", "lower", "upper"]
    assert len(rows) == 12
    assert [float(r[0]) for r in rows[1:]] == [2000.0 * i for i in range(11)]
    assert float(rows[6][1]) == pytest.approx(0.224528, abs=1e-6)


@pytest.mark.parametrize("stop", [("--epsilon", "1e-3"), ("--max-explanations", "3")],
                         ids=["epsilon", "max-explanations"])
def test_bounded_curves_bracket_the_exhaustive_curve(capsys, stop):
    grid = ("--from", "0", "--to", "20000", "--step", "4000", "--digits", "17")
    _, out, _ = _run(capsys, "curve", MODEL, *grid)
    exact = [float(r[1]) for r in _rows(out)[1:]]
    code, out, err = _run(capsys, "curve", MODEL, *grid, *stop)
    assert code == 0, err
    bounds = [(float(r[1]), float(r[2])) for r in _rows(out)[1:]]
    assert len(bounds) == len(exact) == 6
    for (lower, upper), value in zip(bounds, exact):
        assert lower - 1e-12 <= value <= upper + 1e-12
        if stop[0] == "--epsilon":
            assert upper - lower <= 1e-3


def test_outputs_are_byte_deterministic(capsys):
    _, first, _ = _run(capsys, "mcs", MODEL, "--time", "10000", "--format", "csv")
    _, second, _ = _run(capsys, "mcs", MODEL, "--time", "10000", "--format", "csv")
    assert first == second


def test_posterior_table_lists_one_row_per_class(capsys):
    code, out, _ = _run(capsys, "posterior", MODEL, "--time", "10000",
                        "--format", "csv")
    rows = _rows(out)
    assert code == 0
    assert rows[0] == ["event", "posterior"]
    assert [r[0] for r in rows[1:]] == ["B", "Mg", "M(i)", "P(i)", "D(i,j)"]
    assert float(rows[5][1]) == pytest.approx(0.8074582, abs=1e-5)


def test_posterior_single_instance(capsys):
    code, out, _ = _run(capsys, "posterior", MODEL, "--time", "10000",
                        "--basic", "D(2,1)", "--format", "csv")
    rows = _rows(out)
    assert code == 0
    assert rows[1][0] == "D(2,1)"
    assert float(rows[1][1]) == pytest.approx(0.8074582, abs=1e-5)


def test_posterior_table_lists_each_instance_of_a_class_with_a_named_constant(capsys, tmp_path):
    # `A(1)` is named on its own, so the replicas of `A` are not interchangeable
    path = tmp_path / "asym.pft"
    path.write_text(CONSTANT_OF_T)
    code, out, _ = _run(capsys, "posterior", str(path), "--time", "1000")
    assert code == 0
    assert out == ("event  posterior\n"
                   "A(1)   0.990586\n"
                   "A(2)   0.0951626\n"
                   "B      0.0104042\n")


def test_oracle_cross_check_passes(capsys):
    code, out, err = _run(capsys, "oracle", MODEL, "--time", "10000")
    assert code == 0, err
    assert "cut set agreement: yes" in out
    assert "max probability deviation" in out


def test_oracle_disagreement_exits_2_after_the_report(capsys, monkeypatch):
    enumerate_top = pfta.cli.top_enumeration

    def perturbed(tree, *args):
        top, joints, failed = enumerate_top(tree, *args)
        return top * (1 + 1e-6), joints, failed

    monkeypatch.setattr(pfta.cli, "top_enumeration", perturbed)
    code, out, err = _run(capsys, "oracle", MODEL, "--time", "10000")
    assert code == 2
    assert "error: search and enumeration disagree" in err
    assert "cut set agreement: yes" in out
    assert "max probability deviation" in out


def test_oracle_reports_a_zero_search_probability_before_exiting_2(capsys, monkeypatch):
    # no posterior is defined when the search's P(top) is 0, so the
    # per-event deviations are skipped and the P(top) deviation reports it
    exact_top = pfta.cli.top_event

    def zero(model, t):
        return dataclasses.replace(exact_top(model, t), probability=0.0)

    monkeypatch.setattr(pfta.cli, "top_event", zero)
    code, out, err = _run(capsys, "oracle", MODEL, "--time", "10000")
    assert (code, err) == (2, "error: search and enumeration disagree\n")
    assert out == ("ground basic events: 14\n"
                   "P(top) search:      0\n"
                   "P(top) enumeration: 0.224528\n"
                   "cut sets, search:      28\n"
                   "cut sets, enumeration: 28\n"
                   "cut set agreement: yes\n"
                   "max probability deviation: 0.225\n")


@pytest.mark.parametrize("argv, out", [
    (("unrel",), "time_hours  lower  upper\n10000       0      1\n"),
    (("mcs",), "rank  events  prior  posterior\n"),
    (("mcs", "--posterior"), "rank  events  prior  posterior\n"),
], ids=["unrel", "mcs", "mcs-posterior"])
def test_an_epsilon_met_before_the_search_starts_emits_nothing(capsys, argv, out):
    # the whole frontier mass of 1 is already within epsilon = 1
    code, got, err = _run(capsys, argv[0], MODEL, "--time", "10000", "--epsilon", "1", *argv[1:])
    assert (code, got, err) == (0, out, "")


def test_posterior_of_a_model_that_cannot_fail_is_an_analysis_error(capsys, tmp_path):
    path = tmp_path / "never.pft"
    path.write_text("basic A rate 0\nbasic B rate 0\ntop TE = or(A, B)\n")
    code, out, err = _run(capsys, "posterior", str(path), "--time", "10000")
    assert code == 2
    assert out == ""
    assert "posterior undefined: system unreliability is 0" in err


def test_missing_file_is_an_io_error(capsys):
    code, _, err = _run(capsys, "mcs", "no_such_file.pft", "--time", "10")
    assert code == 3
    assert "error:" in err


def test_unparseable_model_is_a_validation_error(capsys, tmp_path):
    bad = tmp_path / "bad.pft"
    bad.write_text("event ???\n")
    code, _, err = _run(capsys, "validate", str(bad))
    assert code == 1
    assert "error:" in err


def test_a_non_utf8_model_is_a_model_error_naming_the_file(capsys, tmp_path):
    path = tmp_path / "latin1.pft"
    path.write_bytes(b"basic B rate 1e-3\ntop TE = or(B) -- \xff\n")
    code, out, err = _run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert f"error: {path} is not UTF-8 text" in err


def test_a_model_saved_with_a_byte_order_mark_validates(capsys, tmp_path):
    path = tmp_path / "bom.pft"
    path.write_bytes(b"\xef\xbb\xbf" + (DATA / "multiprocessor.pft").read_bytes())
    assert _run(capsys, "validate", str(path)) == (0, "OK\n", "")


def test_an_oversized_curve_grid_exits_2_at_once(capsys):
    # the count is exact while a float holds it; past that the message
    # still names the limit, even when the count overflows to inf
    for t_to, step, size in (("1", "1e-9", "1000000002"), ("1000000", "1", "1000001"),
                             ("1e308", "5e-324", "inf")):
        start = time.perf_counter()
        code, out, err = _run(capsys, "curve", MODEL, "--from", "0", "--to", t_to, "--step", step)
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (2, "")
        assert "exceeds the limit of 1000000 points" in err
        assert err.startswith(f"error: curve grid of {size} points ")


WIDE_VOTE = ("type T = {" + ", ".join(str(i) for i in range(1, 41)) + "}\n"
             "basic A(i:T) rate 1e-4\ntop TE = vote(20:40) forall(i:T) A(i)\n")


@pytest.mark.parametrize("argv, translation", [
    (("compile", "--stage", "1", "--time", "1e3"), "direct"),
    (("compile", "--stage", "2", "--time", "1e3"), "disjoint"),
    (("mcs", "--time", "1e3"), "direct"),
    (("mcs", "--time", "1e3", "--max-explanations", "1"), "direct"),
    (("unrel", "--time", "1e3"), "disjoint"),
    (("unrel", "--time", "1e3", "--epsilon", "0.1"), "disjoint"),
    (("curve", "--from", "0", "--to", "10", "--step", "5"), "disjoint"),
    (("posterior", "--time", "1e3"), "disjoint"),
], ids=["compile-1", "compile-2", "mcs", "mcs-bounded", "unrel", "unrel-bounded", "curve",
        "posterior"])
def test_a_gate_over_the_cell_limit_exits_2_at_once(capsys, tmp_path, argv, translation):
    # vote(20:40) needs C(40,21) = 131282408400 clauses in either translation:
    # as the top event it keeps no working cells
    path = tmp_path / "wide.pft"
    path.write_text(WIDE_VOTE)
    start = time.perf_counter()
    code, out, err = _run(capsys, argv[0], str(path), *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: gate TE needs 131282408400 clauses in the {translation} translation, "
                   "over the limit of 1000000 per gate\n")


WIDE_OR = ("type T = {" + ", ".join(str(i) for i in range(1, 20001)) + "}\n"
           "basic A(i:T) rate 1e-4\ntop TE = or forall(i:T) A(i)\n")


@pytest.mark.parametrize("argv", [
    ("unrel", "--time", "1e3"),
    ("unrel", "--time", "1e3", "--max-explanations", "3"),
    ("compile", "--stage", "2", "--time", "1e3"),
], ids=["unrel", "unrel-bounded", "compile-2"])
def test_a_gate_over_the_atom_limit_exits_2_at_once(capsys, tmp_path, argv):
    # 20,000 stage-2 failure cells, cell j reading j inputs: 200,010,000 body atoms
    path = tmp_path / "wide_or.pft"
    path.write_text(WIDE_OR)
    start = time.perf_counter()
    code, out, err = _run(capsys, argv[0], str(path), *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: gate TE needs 200010000 body atoms in the disjoint translation, "
                   "over the limit of 10000000 per gate\n")


@pytest.mark.parametrize("stop", [(), ("--max-explanations", "3")], ids=["exhaustive", "bounded"])
def test_a_time_zero_curve_compiles_nothing(capsys, tmp_path, monkeypatch, stop):
    # the unreliability at time 0 is 0 without a theory, so the widest
    # vote, whose translation is refused at any positive time, still has it
    path = tmp_path / "wide.pft"
    path.write_text(WIDE_VOTE)
    zero = ("--from", "0", "--to", "0", "--step", "1", "--format", "csv")
    zeros = (0, "time_hours,lower,upper\n0,0,0\n", "")
    assert _run(capsys, "curve", str(path), *zero, *stop) == zeros

    def refused(*args, **kwargs):
        raise AssertionError("a time-0 point compiled a theory")
    monkeypatch.setattr(pfta.measures, "compile_disjoint", refused)
    assert _run(capsys, "curve", str(path), *zero, *stop) == zeros
    assert _run(capsys, "unrel", str(path), "--time", "0", "--format", "csv", *stop) == zeros


@pytest.mark.parametrize("options", [
    (), ("--epsilon", "1e-2"), ("--max-explanations", "3"), ("--digits", "17"),
], ids=["exhaustive", "epsilon", "max-explanations", "digits"])
@pytest.mark.parametrize("t", ["0", "2500", "10000", "1e6"])
def test_unrel_prints_the_one_point_curve(capsys, options, t):
    unrel = _run(capsys, "unrel", MODEL, "--time", t, "--format", "csv", *options)
    curve = _run(capsys, "curve", MODEL, "--from", t, "--to", t, "--step", "1", *options)
    assert unrel == curve
    assert unrel[0] == 0 and len(_rows(unrel[1])) == 2


def test_the_oracle_refuses_the_widest_votes_on_its_own_bound(capsys, tmp_path):
    path = tmp_path / "wide.pft"
    path.write_text(WIDE_VOTE)
    start = time.perf_counter()
    code, out, err = _run(capsys, "oracle", str(path), "--time", "1e3")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: 40 ground basic events exceed the enumeration bound 24\n"


def test_zero_mission_time_is_an_analysis_error(capsys):
    code, _, err = _run(capsys, "mcs", MODEL, "--time", "0")
    assert code == 2
    assert "mission time must be positive" in err


CYCLIC = "basic B rate 1e-3\nevent A = or(C)\nevent C = or(A)\ntop TE = or(B, A)\n"


@pytest.mark.parametrize("argv", [
    ("unrel", "--time", "0"),
    ("unrel", "--time", "0", "--max-explanations", "3"),
    ("curve", "--from", "0", "--to", "0", "--step", "1"),
    ("curve", "--from", "0", "--to", "0", "--step", "1", "--max-explanations", "3"),
], ids=["unrel", "unrel-bounded", "curve", "curve-bounded"])
def test_an_invalid_model_is_refused_at_time_zero(capsys, tmp_path, argv):
    # the unreliability at t = 0 is 0 for every valid model, and was once
    # printed for an invalid one without validating it
    path = tmp_path / "cyclic.pft"
    path.write_text(CYCLIC)
    code, out, err = _run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert err == "error: invalid model: event graph contains a cycle\n"


@pytest.mark.parametrize("argv", [
    ("mcs", "--time", "0"),
    ("posterior", "--time", "0"),
    ("posterior", "--time", "1e4", "--basic", "ZZ(9)"),
    ("curve", "--from", "5", "--to", "1", "--step", "1"),
], ids=["mcs-time-zero", "posterior-time-zero", "posterior-unknown-event", "curve-reversed"])
def test_a_model_error_comes_before_an_analysis_error(capsys, tmp_path, argv):
    # the model is checked as it is read, before any argument reaches an analysis
    path = tmp_path / "cyclic.pft"
    path.write_text(CYCLIC)
    code, out, err = _run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert err == "error: invalid model: event graph contains a cycle\n"


def test_a_valid_model_at_time_zero_has_unreliability_zero(capsys):
    code, out, err = _run(capsys, "unrel", MODEL, "--time", "0", "--max-explanations", "3")
    assert (code, out, err) == (0, "time_hours  lower  upper\n0           0      0\n", "")


def test_bad_flags_exit_through_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["compile", MODEL, "--stage", "3", "--time", "10"])


NEGATIVE = "expected a nonnegative integer"
OVER_LIMIT = f"expected at most {MAX_DIGITS} digits"


@pytest.mark.parametrize("argv, option, message", [
    (("compile", MODEL, "--stage", "2", "--time", "1e4", "--precision", "-1"), "--precision",
     NEGATIVE),
    (("unrel", MODEL, "--time", "1e4", "--digits", "-1"), "--digits", NEGATIVE),
    (("unrel", MODEL, "--time", "1e4", "--digits", "abc"), "--digits", NEGATIVE),
    (("compile", MODEL, "--stage", "2", "--time", "1e4", "--precision", "1075"), "--precision",
     OVER_LIMIT),
    (("unrel", MODEL, "--time", "1e4", "--digits", "100000000000"), "--digits", OVER_LIMIT),
], ids=["precision", "digits", "digits-not-a-number", "precision-over-limit",
        "digits-over-limit"])
def test_negative_digit_counts_are_usage_errors(capsys, argv, option, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {option}: {message}, got {argv[-1]}" in err


def test_the_digit_limit_reaches_the_last_digit_of_every_double():
    # the exact expansion of the smallest double, 2**-1074, ends at that place
    assert f"{5e-324:.{MAX_DIGITS}f}"[-1] != "0"
    assert f"{5e-324:.{MAX_DIGITS + 1}f}"[-1] == "0"


VALID_OPTIONS = {
    "validate": (),
    "compile": ("--stage", "2", "--time", "1e4", "--precision", "4"),
    "mcs": ("--time", "1e4", "--posterior", "--max-explanations", "3"),
    "unrel": ("--time", "1e4", "--epsilon", "1e-3", "--format", "csv"),
    "curve": ("--from", "0", "--to", "1e4", "--step", "5e3", "--digits", "17"),
    "posterior": ("--time", "1e4", "--basic", "D(1,2)"),
    "oracle": ("--time", "1e4", "-o", "report.txt"),
}
# a command without the flag reports it as unrecognized, under the top-level usage line
BAD_OPTIONS = (("--digits", "-1"), ("--stage", "3"), ("--time", "nan"))


def _parse(capsys, command, argv):
    """Namespace (or exit code), stdout and stderr of parsing argv with
    the parser built for `command` alone, or for every command if None."""
    try:
        result = pfta.cli._build_parser(command).parse_args(argv)
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


@pytest.mark.parametrize("command", list(pfta.cli._COMMANDS))
def test_the_one_command_parser_parses_as_the_full_parser(capsys, command):
    valid = [command, MODEL, *VALID_OPTIONS[command]]
    results = [(_parse(capsys, command, argv), _parse(capsys, None, argv))
               for argv in [[command, "-h"], valid, *(valid + list(bad) for bad in BAD_OPTIONS)]]
    assert all(one == full for one, full in results)
    (code, out, _), _ = results[0]
    assert code == 0 and out.startswith(f"usage: pfta {command} [-h]")
    (args, out, err), _ = results[1]
    assert args.command == command and (out, err) == ("", "")
    for (code, out, err), _ in results[2:]:
        assert code == 2 and out == "" and err.startswith("usage: pfta ")


USAGE = "usage: pfta [-h] {validate,compile,mcs,unrel,curve,posterior,oracle} ...\n"
UNREL_USAGE = """\
usage: pfta unrel [-h] [-o OUTPUT] [--format {table,csv}] [--digits DIGITS]
                  [--max-explanations MAX_EXPLANATIONS] [--epsilon EPSILON]
                  --time TIME
                  model
"""


@pytest.mark.parametrize("argv, err", [
    (["bogus"], USAGE + "pfta: error: argument command: invalid choice: 'bogus' (choose from "
     "'validate', 'compile', 'mcs', 'unrel', 'curve', 'posterior', 'oracle')\n"),
    ([], USAGE + "pfta: error: the following arguments are required: command\n"),
    (["unrel", MODEL, "--bogus"],
     UNREL_USAGE + "pfta unrel: error: the following arguments are required: --time\n"),
    (["unrel", MODEL, "--time", "1e4", "--bogus"],
     USAGE + "pfta: error: unrecognized arguments: --bogus\n"),
], ids=["bogus-command", "empty", "bogus-flag", "bogus-flag-with-time"])
def test_top_level_usage_errors_are_pinned(capsys, argv, err):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv, parsers", [
    (["unrel", MODEL, "--time", "1e4"], 2),
    (["-h"], 8),
], ids=["unrel", "help"])
def test_main_builds_only_the_named_commands_parser(capsys, monkeypatch, argv, parsers):
    # on a small model, building all seven subparsers was a third of a request
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    try:
        main(argv)
    except SystemExit as exc:
        assert exc.code == 0
    capsys.readouterr()
    assert len(built) == parsers


def test_the_module_entry_point_reads_sys_argv(capsys):
    argv = ["unrel", MODEL, "--time", "10000"]
    src = str(Path(pfta.cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "pfta.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == _run(capsys, *argv)[1]


def test_nan_epsilon_is_an_analysis_error(capsys):
    code, out, err = _run(capsys, "unrel", MODEL, "--time", "1e4", "--epsilon", "nan")
    assert (code, out) == (2, "")
    assert err == "error: epsilon must be nonnegative\n"


@pytest.mark.parametrize("flags, message", [
    (("--from", "0", "--to", "10", "--step", "nan"), "error: curve step must be finite, got nan"),
    (("--from", "nan", "--to", "10", "--step", "1"),
     "argument --from: time must be nonnegative, got nan"),
    (("--from", "0", "--to", "inf", "--step", "1"), "error: curve end time must be finite, got inf"),
    (("--from", "inf", "--to", "10", "--step", "1"),
     "error: curve start time must be finite, got inf"),
    (("--from", "0", "--to", "10", "--step", "inf"), "error: curve step must be finite, got inf"),
], ids=["step-nan", "from-nan", "to-inf", "from-inf", "step-inf"])
def test_a_non_finite_curve_grid_exits_2_naming_the_argument(capsys, flags, message):
    # each of these once built the grid without end, or an unusable one
    try:
        code = main(["curve", MODEL, *flags])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert message in err


RATE_ZERO = "basic B rate 0\nbasic C rate 1e-4\ntop TE = or(B, C)\n"


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_a_non_finite_rate_fails_validation(capsys, tmp_path, rate):
    path = tmp_path / "rate.pft"
    path.write_text(RATE_ZERO.replace("rate 0", f"rate {rate}"))
    code, out, err = _run(capsys, "validate", str(path))
    assert (code, out, err) == (1, "", "violation: non-finite failure rate for B\n")


@pytest.mark.parametrize("argv", [
    ("unrel",), ("mcs",), ("posterior",), ("oracle",), ("compile", "--stage", "2"),
], ids=["unrel", "mcs", "posterior", "oracle", "compile"])
@pytest.mark.parametrize("time, message", [
    ("inf", "error: mission time must be finite and nonnegative, got inf\n"),
    ("nan", "argument --time: time must be nonnegative, got nan\n"),
], ids=["inf", "nan"])
def test_a_non_finite_mission_time_exits_2_naming_it(capsys, tmp_path, argv, time, message):
    # a rate-0 event once turned --time inf into a NaN probability
    path = tmp_path / "rate0.pft"
    path.write_text(RATE_ZERO)
    try:
        code = main([argv[0], str(path), *argv[1:], "--time", time])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.endswith(message)


def test_a_never_failing_event_is_the_last_cut_set(capsys, tmp_path):
    path = tmp_path / "rate0.pft"
    path.write_text(RATE_ZERO)
    code, out, err = _run(capsys, "mcs", str(path), "--time", "1e4", "--format", "csv")
    assert (code, err) == (0, "")
    assert [row[1:3] for row in _rows(out)[1:]] == [["C", "0.632121"], ["B", "0"]]


def test_cut_sets_at_a_time_where_a_disk_surely_failed(capsys):
    # the disks' failure probability rounds to 1 at t = 10^6
    code, out, err = _run(capsys, "mcs", MODEL, "--time", "1000000", "--format", "csv")
    assert (code, err) == (0, "")
    assert len(_rows(out)) == 29
    code, out, err = _run(capsys, "oracle", MODEL, "--time", "1000000")
    assert (code, err) == (0, "")
    assert "cut sets, search:      28\n" in out
    assert "cut set agreement: yes\n" in out


def test_seventeen_digit_outputs_are_pinned(capsys):
    # stdout of every exact analysis at full precision, byte for byte
    fmt = ("--format", "csv", "--digits", "17")
    runs = [
        ("unrel", MODEL, "--time", "10000"),
        ("curve", MODEL, "--from", "0", "--to", "20000", "--step", "2000"),
        ("posterior", MODEL, "--time", "10000"),
        ("posterior", MODEL, "--basic", "D(2,1)", "--time", "10000"),
        ("mcs", MODEL, "--posterior", "--time", "10000"),
        ("oracle", MODEL, "--time", "10000"),
    ]
    outputs = []
    for argv in runs:
        code, out, err = _run(capsys, *argv, *fmt)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert "".join(outputs) == (DATA / "multiprocessor_digits17.txt").read_text()


def test_the_oracle_report_over_several_chunks_is_pinned(capsys, tmp_path):
    # 18 ground events: four chunks of 2^16 worlds, so the high bits vary
    path = tmp_path / "mp_4_2_2.pft"
    path.write_text(multiprocessor_text(4, 2, 2))
    code, out, err = _run(capsys, "oracle", str(path), "--time", "10000",
                          "--format", "csv", "--digits", "17")
    assert (code, err) == (0, "")
    assert out == (DATA / "multiprocessor_4_2_2_oracle_digits17.txt").read_text()


@pytest.mark.parametrize("spec, chunks", [((3, 2, 2), 1), ((4, 2, 2), 4)],
                         ids=["14-events", "18-events"])
def test_the_oracle_enumerates_the_worlds_once(capsys, monkeypatch, tmp_path, spec, chunks):
    # P(top), its joints and the prime implicants all read one pass
    made = []
    worlds = pfta.oracle._worlds

    def counting(*args):
        for chunk in worlds(*args):
            made.append(chunk[0])
            yield chunk

    monkeypatch.setattr(pfta.oracle, "_worlds", counting)
    path = tmp_path / "mp.pft"
    path.write_text(multiprocessor_text(*spec))
    code, _, err = _run(capsys, "oracle", str(path), "--time", "10000")
    assert (code, err) == (0, "")
    # ceil(2^N / 2^16) chunks, each range once, in order
    n = 2 + 2 * spec[0] + spec[0] * spec[1]
    assert [(c.start, c.stop) for c in made] == [
        (i << 16, min((i + 1) << 16, 1 << n)) for i in range(chunks)]


def test_bounded_outputs_on_wide_models_are_pinned(capsys, tmp_path):
    # stdout of the benchmark's bounded searches at default digits, byte for byte
    runs = [
        ((7, 3, 5), ("unrel", "--epsilon", "1e-2")),
        ((10, 2, 6), ("unrel", "--max-explanations", "20")),
        ((10, 2, 6), ("mcs", "--max-explanations", "20")),
        ((11, 2, 7), ("mcs", "--max-explanations", "5")),
    ]
    outputs = []
    for spec, (command, *options) in runs:
        path = tmp_path / ("mp_%d_%d_%d.pft" % spec)
        path.write_text(multiprocessor_text(*spec))
        code, out, err = _run(capsys, command, str(path), *options, "--time", "10000")
        assert (code, err) == (0, "")
        outputs.append(out)
    assert "".join(outputs) == (DATA / "anytime_wide_t1e4.txt").read_text()


@pytest.mark.parametrize("argv, searches", [
    (("mcs", "--posterior"), 1),
    (("mcs", "--posterior", "--max-explanations", "5"), 1),
    (("posterior",), 0),
    (("posterior", "--basic", "D(1,2)"), 0),
    (("curve", "--from", "0", "--to", "20000", "--step", "2000"), 0),
    (("unrel",), 0),
    (("oracle",), 1),
], ids=["mcs-posterior", "mcs-posterior-bounded", "posterior", "posterior-basic", "curve",
        "unrel", "oracle"])
def test_each_analysis_runs_one_search_per_theory(capsys, monkeypatch, argv, searches):
    # exact measures search nothing: one evaluator grounds the stage-2
    # theory once, for every time and every conditioned query
    started = {"search": 0, "evaluator": 0}
    for name, cls in (("search", pfta.engine.ExplanationSearch),
                      ("evaluator", pfta.engine.ExactEvaluator)):
        def counting(self, *args, _name=name, _original=cls.__init__, **kwargs):
            started[_name] += 1
            _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    time = () if argv[0] == "curve" else ("--time", "10000")
    code, _, err = _run(capsys, argv[0], MODEL, *time, *argv[1:])
    assert code == 0, err
    assert started == {"search": searches, "evaluator": 1}


def test_oracle_on_a_deep_chain_names_the_enumeration_bound(capsys, tmp_path):
    depth = 5000
    lines = ["model chain", "basic A rate 1e-7"]
    lines += [f"basic X{i} rate 1e-7" for i in range(1, depth + 1)]
    prev = "A"
    for i in range(1, depth):
        lines.append(f"event C{i} = or({prev}, X{i})")
        prev = f"C{i}"
    lines.append(f"top C{depth} = or({prev}, X{depth})")
    path = tmp_path / "chain.pft"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = _run(capsys, "oracle", str(path), "--time", "10000")
    assert code == 2
    assert out == ""
    assert "5001 ground basic events exceed the enumeration bound 24" in err


@pytest.fixture(scope="module")
def deep_chain(tmp_path_factory):
    """A 5000-level OR chain declared top-first."""
    depth = 5000
    lines = ["model deep", f"top C{depth} = or(C{depth - 1}, X{depth})"]
    lines += [f"event C{i} = or(C{i - 1}, X{i})" for i in range(depth - 1, 1, -1)]
    lines += ["event C1 = or(A, X1)", "basic A rate 1e-7"]
    lines += [f"basic X{i} rate 1e-7" for i in range(1, depth + 1)]
    path = tmp_path_factory.mktemp("deep") / "chain.pft"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["compile", "--stage", "1", "--time", "10000"],
    ["compile", "--stage", "2", "--time", "10000"],
    ["mcs", "--max-explanations", "3", "--time", "10000"],
    ["unrel", "--max-explanations", "3", "--time", "10000"],
    ["unrel", "--time", "10000"],
    # X1 sits at the bottom: conditioning on it re-evaluates every level
    ["posterior", "--basic", "X1", "--time", "10000"],
    ["curve", "--from", "0", "--to", "20000", "--step", "5000"],
], ids=["validate", "compile-1", "compile-2", "mcs", "unrel", "unrel-exact", "posterior",
        "curve"])
def test_deep_chain_declared_top_first_runs(capsys, deep_chain, argv):
    code, _, err = _run(capsys, argv[0], deep_chain, *argv[1:])
    assert code == 0, err
    assert "Traceback" not in err


MP_5_2_3 = """\
model mp_5_2_3
type T1 = {1, 2, 3, 4, 5}
type T2 = {1, 2}
basic B rate 2e-9
basic Mg rate 3e-8
basic M(i:T1) rate 3e-8
basic P(i:T1) rate 5e-7
basic D(i:T1, j:T2) rate 8e-5
event MM(i:T1) = and(Mg, M(i))
event DM(i:T1) = and forall(j:T2) D(i,j)
event S(i:T1) = or(P(i), MM(i), DM(i))
event SKN = vote(3:5) forall(i:T1) S(i)
top TE = or(B, SKN)
"""


def test_posteriors_do_not_depend_on_the_hash_seed(tmp_path):
    """Every digit of a cut set posterior is the same under any string hash seed."""
    path = tmp_path / "mp.pft"
    path.write_text(MP_5_2_3)
    src = str(Path(pfta.engine.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "8"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "pfta.cli", "mcs", str(path), "--posterior",
             "--time", "10000", "--digits", "17"],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


FUZZ_COMMANDS = (
    ("unrel", "--time", "1e4"),
    ("unrel", "--time", "1e4", "--epsilon", "1e-3"),
    ("mcs", "--time", "1e4", "--posterior"),
    ("posterior", "--time", "1e4"),
    ("curve", "--from", "0", "--to", "2e4", "--step", "1e4"),
)


def test_mutated_models_exit_through_the_documented_codes(capsys, model_text, tmp_path):
    """Every mutant of the shipped model either runs or fails with exit
    code 1 (model), 2 (analysis) or 3 (I/O); no exception escapes."""
    rng = random.Random(5)
    alphabet = sorted(set(model_text))
    for n in range(200):
        text = model_text
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(text))
            edit = rng.choice(("delete", "insert", "replace"))
            if edit == "delete":
                text = text[:i] + text[i + 1:]
            elif edit == "insert":
                text = text[:i] + rng.choice(alphabet) + text[i:]
            else:
                text = text[:i] + rng.choice(alphabet) + text[i + 1:]
        path = tmp_path / f"mutant{n}.pft"
        path.write_text(text)
        for command, *options in FUZZ_COMMANDS:
            try:
                code = main([command, str(path), *options])
            except Exception as exc:
                pytest.fail(f"{command} {options} on mutant {n} raised {exc!r}:\n{text}")
            assert code in (0, 1, 2, 3), (command, options, n, text)
        capsys.readouterr()
