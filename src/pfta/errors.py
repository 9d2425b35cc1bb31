"""Exception types shared across the package."""

from __future__ import annotations


class PftaError(Exception):
    """Base class for all errors raised by this package."""


class DslError(PftaError):
    """Syntax or reference error in a fault tree document."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class ModelInvalidError(PftaError):
    """A `PftModel` was built with structural violations; `violations`
    lists every one, in the order the model check finds them."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid model: " + "; ".join(violations))


class TheoryError(PftaError):
    """Malformed theory (bad declaration, dangling predicate, or bad text),
    or one too large to build: a gate over the translation's clause or
    body-atom limit."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


class EngineError(PftaError):
    """Search cannot run: unknown goal, bad stage, budget, or precondition."""


class OracleError(PftaError):
    """Exhaustive enumeration refused: problem exceeds the configured bound."""


class AnalysisError(PftaError):
    """A dependability measure is undefined for the requested inputs."""
