"""Exception types and diagnostic records shared across the toolchain."""

from __future__ import annotations

from .values import value_type


@value_type
class SourceSpan:
    """Position of a token inside an input text."""

    file: str = "<string>"
    line: int = 1
    column: int = 1

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@value_type
class Diagnostic:
    """A single validation or lint finding.

    ``code`` and ``message`` are stable strings that CI may grep for.
    """

    code: str
    severity: str  # "error" | "warning"
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}[{self.code}] at {self.location}: {self.message}"


class FlowspecError(Exception):
    """Base class for all errors raised by this package."""


class SpannedError(FlowspecError):
    """Malformed input text. Carries a span and a stable code."""

    def __init__(self, code: str, message: str, span: SourceSpan):
        super().__init__(f"{code} at {span}: {message}")
        self.code = code
        self.span = span
        self.reason = message


class ModelSyntaxError(SpannedError):
    """Malformed model text (DSL)."""


class SemanticError(FlowspecError):
    """A structurally parseable model that fails validation."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"invalid model: {lines}")


class XmlError(FlowspecError):
    """Malformed XML input or missing required attributes."""


class UnknownState(FlowspecError):
    """A state path that does not resolve to any node."""

    def __init__(self, path: str):
        super().__init__(f"unknown state: {path}")
        self.path = path


class FeatureSyntaxError(SpannedError):
    """Malformed feature text. Codes: EmptyDocument, MalformedClause, UnknownKeyword."""


class TooManyChoiceBranches(FlowspecError):
    """An or-split with more guarded branches than the scenario budget allows."""

    def __init__(self, count: int, limit: int = 10):
        super().__init__(
            f"or-split has {count} guarded branches; at most {limit} are supported"
        )
        self.count = count
        self.limit = limit


class IllegalGiven(FlowspecError):
    """GIVEN state terms that do not form a legal configuration."""


class NondeterminismConflict(FlowspecError):
    """Two enabled transitions compete for the same state token."""

    def __init__(self, transition_ids):
        self.transition_ids = list(transition_ids)
        super().__init__(
            "conflicting transitions: " + ", ".join(self.transition_ids)
        )


class UnbalancedQuotes(FlowspecError):
    """A step text with an odd number of double quotes."""
