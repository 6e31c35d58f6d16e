"""Exception types shared across the package, one class per kind of fault.

The caller's faults are PreconditionViolated (a call outside its contract)
and ColoringFormatError (a malformed coloring file): CLI exit 2.  A bug's
are InternalError (an asserted invariant, such as the self-check on a
built witness, failed) and UnreachableBranch (a counting step the paper
rules out fired): CLI exit 3.
"""

from __future__ import annotations


class FanRamseyError(Exception):
    """Base class for all package-specific errors."""


class PreconditionViolated(FanRamseyError, ValueError):
    """An operation was called outside its stated contract."""


class ColoringFormatError(FanRamseyError, ValueError):
    """Malformed coloring file.  Carries 1-based line and 0-based offset."""

    def __init__(self, message: str, line: int = 0, offset: int = 0):
        super().__init__(f"{message} (line {line}, offset {offset})")
        self.line = line
        self.offset = offset


class InternalError(FanRamseyError):
    """An internally asserted invariant failed.  Signals a bug."""


class UnreachableBranch(FanRamseyError):
    """An execution path that cannot occur on valid inputs fired.

    Every terminal counting argument in the extractor ends in one of
    these.  Firing one is always a bug report, never an expected outcome;
    the label and details identify the branch for diagnosis.
    """

    def __init__(self, label: str, **details):
        super().__init__(f"unreachable branch fired: {label} {details!r}")
        self.label = label
        self.details = details
