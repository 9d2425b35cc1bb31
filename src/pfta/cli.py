"""Command-line front end: validate, compile, analyze, cross-check, export.

Exit codes: 0 success, 1 model parse/validation failure, 2 analysis
failure, 3 I/O failure. Diagnostics go to standard error; results go to
standard output or to the file named with -o.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from typing import Callable, NamedTuple

from .compile import compile_direct, compile_disjoint
from .dsl import parse_model
from .engine import StopCriteria
from .errors import AnalysisError, DslError, EngineError, ModelInvalidError, OracleError, TheoryError
from .measures import (
    attach_posteriors,
    basic_event_posteriors,
    curve_times,
    minimal_cut_sets,
    top_event,
    unreliability_curve,
)
from .model import PftModel
from .oracle import prime_implicants, top_enumeration, unfold
from .pha import serialize

ORACLE_TOL = 1e-9
# the most decimal places any double's exact expansion needs (2**-1074);
# more digits print nothing new
MAX_DIGITS = 1074


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _nonnegative(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"time must be nonnegative, got {text}")
    return value + 0.0  # -0.0 + 0.0 is +0.0


def _digit_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    if value > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_DIGITS} digits, got {text}")
    return value


def _common_options(p: argparse.ArgumentParser, fmt_default: str = "table") -> None:
    p.add_argument("model", help="model file in the fault tree language")
    p.add_argument("-o", "--output", help="write results to this file instead of stdout")
    p.add_argument(
        "--format", choices=("table", "csv"), default=fmt_default,
        help=f"output format (default: {fmt_default})",
    )
    p.add_argument(
        "--digits", type=_digit_count, default=6,
        help="significant digits for displayed probabilities (default: 6)",
    )


def _stopping_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-explanations", type=int, default=None,
        help="stop after this many explanations (default: run to exhaustion)",
    )
    p.add_argument(
        "--epsilon", type=float, default=None,
        help="stop once the probability bounds are this tight",
    )


def _validate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("model")


def _compile_options(p: argparse.ArgumentParser) -> None:
    _common_options(p)
    p.add_argument(
        "--stage", type=int, choices=(1, 2), required=True,
        help="1: one clause per disjunct; 2: status-complete disjoint bodies",
    )
    p.add_argument("--time", type=_nonnegative, required=True, help="mission time in hours")
    p.add_argument(
        "--precision", type=_digit_count, default=None,
        help="decimal digits for declaration probabilities (default: shortest exact form)",
    )


def _mcs_options(p: argparse.ArgumentParser) -> None:
    _common_options(p)
    _stopping_options(p)
    p.add_argument("--time", type=_nonnegative, required=True)
    p.add_argument("--posterior", action="store_true", help="also compute P(cut set | top event)")


def _unrel_options(p: argparse.ArgumentParser) -> None:
    _common_options(p)
    _stopping_options(p)
    p.add_argument("--time", type=_nonnegative, required=True)


def _curve_options(p: argparse.ArgumentParser) -> None:
    _common_options(p, fmt_default="csv")
    _stopping_options(p)
    p.add_argument("--from", dest="t_from", type=_nonnegative, required=True)
    p.add_argument("--to", dest="t_to", type=_nonnegative, required=True)
    p.add_argument("--step", type=float, required=True)


def _posterior_options(p: argparse.ArgumentParser) -> None:
    _common_options(p)
    p.add_argument("--time", type=_nonnegative, required=True)
    p.add_argument(
        "--basic", default=None, metavar="EVENT",
        help="one ground instance such as 'D(1,2)' (default: per-class table)",
    )


def _oracle_options(p: argparse.ArgumentParser) -> None:
    _common_options(p)
    p.add_argument("--time", type=_nonnegative, required=True)


def _load_model(path: str) -> PftModel:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise DslError(f"{path} is not UTF-8 text ({exc.reason})") from None
    return parse_model(text)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in [headers] + rows]
    return "\n".join(lines) + "\n"


def _csv(headers: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


def _render(args, headers: list[str], rows: list[list[str]]) -> str:
    return _csv(headers, rows) if args.format == "csv" else _table(headers, rows)


def _stop(args) -> StopCriteria:
    return StopCriteria(max_explanations=args.max_explanations, epsilon=args.epsilon)


def _cmd_validate(args) -> int:
    try:
        _load_model(args.model)
    except ModelInvalidError as exc:
        for v in exc.violations:
            print(f"violation: {v}", file=sys.stderr)
        return 1
    print("OK")
    return 0


def _cmd_compile(args) -> int:
    model = _load_model(args.model)
    if args.stage == 1:
        theory = compile_direct(model, args.time)
    else:
        theory = compile_disjoint(model, args.time)
    _emit(serialize(theory, args.precision), args.output)
    return 0


def _cmd_mcs(args) -> int:
    model = _load_model(args.model)
    cut_sets = minimal_cut_sets(model, args.time, _stop(args))
    if args.posterior:
        cut_sets = attach_posteriors(model, cut_sets, args.time)
    rows = []
    for rank, cs in enumerate(cut_sets, start=1):
        posterior = "" if cs.posterior is None else _fmt(cs.posterior, args.digits)
        rows.append([str(rank), " ".join(cs.labels), _fmt(cs.prior, args.digits), posterior])
    _emit(_render(args, ["rank", "events", "prior", "posterior"], rows), args.output)
    return 0


def _cmd_unrel(args) -> int:
    return _emit_unreliability(args, _load_model(args.model), [args.time])


def _cmd_curve(args) -> int:
    model = _load_model(args.model)
    return _emit_unreliability(args, model, curve_times(args.t_from, args.t_to, args.step))


def _emit_unreliability(args, model: PftModel, times: list[float]) -> int:
    points = unreliability_curve(model, times, _stop(args))
    rows = [[_fmt(pt.time, 17), _fmt(pt.bounds.lower, args.digits), _fmt(pt.bounds.upper, args.digits)]
            for pt in points]
    _emit(_render(args, ["time_hours", "lower", "upper"], rows), args.output)
    return 0


def _cmd_posterior(args) -> int:
    model = _load_model(args.model)
    instances = None if args.basic is None else [args.basic]
    rows = [[label, _fmt(value, args.digits)]
            for label, value in basic_event_posteriors(model, args.time, instances)]
    _emit(_render(args, ["event", "posterior"], rows), args.output)
    return 0


def _cmd_oracle(args) -> int:
    model = _load_model(args.model)
    tree = unfold(model, args.time)
    te_exact, joints_exact, failed = top_enumeration(tree)
    cut_sets = minimal_cut_sets(model, args.time)
    top = top_event(model, args.time)
    lines = [f"ground basic events: {len(tree.basics)}"]

    # scripts parse the `P(top) search` label; its value is the exact evaluation
    deviations = [abs(top.probability - te_exact)]
    lines.append(f"P(top) search:      {_fmt(top.probability, args.digits)}")
    lines.append(f"P(top) enumeration: {_fmt(te_exact, args.digits)}")

    implicants = prime_implicants(tree, failed)
    search_sets = {cs.events for cs in cut_sets}
    oracle_sets = set(implicants)
    agree = search_sets == oracle_sets
    lines.append(f"cut sets, search:      {len(search_sets)}")
    lines.append(f"cut sets, enumeration: {len(oracle_sets)}")
    lines.append(f"cut set agreement: {'yes' if agree else 'NO'}")

    # a posterior needs a positive P(top) on each side; the P(top)
    # deviation already reports a side that reads 0
    if te_exact > 0 and top.probability > 0:
        for key, joint in zip(tree.basic_keys, joints_exact):
            deviations.append(abs(top.posterior([key]) - joint / te_exact))
    worst = max(deviations)
    lines.append(f"max probability deviation: {_fmt(worst, 3)}")
    _emit("\n".join(lines) + "\n", args.output)
    if not agree or worst > ORACLE_TOL:
        print("error: search and enumeration disagree", file=sys.stderr)
        return 2
    return 0


class _Command(NamedTuple):
    help: str
    add_options: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


_COMMANDS = {
    "validate": _Command(
        "parse a model and report violations", _validate_options, _cmd_validate),
    "compile": _Command(
        "translate a model to a hypothesis theory", _compile_options, _cmd_compile),
    "mcs": _Command(
        "minimal cut sets ranked by prior probability", _mcs_options, _cmd_mcs),
    "unrel": _Command(
        "system unreliability P(top event) at one time", _unrel_options, _cmd_unrel),
    "curve": _Command(
        "unreliability over a range of mission times", _curve_options, _cmd_curve),
    "posterior": _Command(
        "basic event posteriors given the top event", _posterior_options, _cmd_posterior),
    "oracle": _Command(
        "cross-check the engine against exhaustive enumeration", _oracle_options, _cmd_oracle),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for `command` alone, or for every command when it is None.

    Building one subparser costs a fifth of building all seven. With one
    built, the metavar keeps the top-level usage line listing every
    command; with all built it is left unset, so that argparse's
    invalid-choice and missing-command errors still name `command`.
    """
    parser = argparse.ArgumentParser(
        prog="pfta",
        description="Parametric fault tree analysis via probabilistic Horn abduction.",
    )
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if command is None else (command,):
        spec = _COMMANDS[name]
        spec.add_options(sub.add_parser(name, help=spec.help))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        return _COMMANDS[args.command].run(args)
    except (DslError, ModelInvalidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AnalysisError, EngineError, OracleError, TheoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
