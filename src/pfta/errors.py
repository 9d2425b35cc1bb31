"""Exception types shared across the package."""

from __future__ import annotations


class PftaError(Exception):
    """Base class for all errors raised by this package."""


class _LocatedError(PftaError):
    """An error in a text, its message prefixed `line L[, column C]: `
    when the line is known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            column_part = f", column {column}" if column is not None else ""
            message = f"line {line}{column_part}: {message}"
        super().__init__(message)


class DslError(_LocatedError):
    """Syntax or reference error in a fault tree document."""


class ModelInvalidError(PftaError):
    """A `PftModel` was built with structural violations; `violations`
    lists every one, in the order the model check finds them."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid model: " + "; ".join(violations))


class TheoryError(_LocatedError):
    """Malformed theory (bad declaration, dangling predicate, or bad text),
    or one too large to build: a gate over the translation's clause or
    body-atom limit."""


class EngineError(PftaError):
    """Search cannot run: unknown goal, bad stage, budget, or precondition."""


class OracleError(PftaError):
    """Exhaustive enumeration refused: problem exceeds the configured bound."""


class AnalysisError(PftaError):
    """A dependability measure is undefined for the requested inputs."""
