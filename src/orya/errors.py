"""Exception hierarchy shared by all orya modules.

Every domain error carries a stable ``code`` so reports and the CLI can
surface machine-readable refusals.
"""

from __future__ import annotations


class OryaError(Exception):
    """Base class for all domain errors."""

    code = "ERROR"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class UnknownTargetError(OryaError):
    code = "UNKNOWN_TARGET"


class UnknownUnitError(OryaError):
    code = "UNKNOWN_UNIT"


class UnknownProductError(OryaError):
    code = "UNKNOWN_PRODUCT"


class NotDeployedError(OryaError):
    code = "NOT_DEPLOYED"


class DuplicateUnitError(OryaError):
    code = "DUPLICATE_UNIT"


class PropertyTypeChangeError(OryaError):
    """Changing the kind of an existing property without removing it first."""

    code = "TYPE_CHANGE"


class ExpressionSyntaxError(OryaError):
    """Constraint text rejected by the parser.

    ``offset`` is the byte offset of the offending token; ``expected`` is the
    set of token descriptions that would have been accepted there.
    """

    code = "SYNTAX"

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        super().__init__(f"{message} at offset {offset} (expected: {', '.join(sorted(expected))})")
        self.offset = offset
        self.expected = expected


class ProcessTooLargeError(OryaError):
    """A unit's process has more progress points than validation may visit."""

    code = "PROCESS_TOO_LARGE"


class IllegalTransitionError(OryaError):
    code = "ILLEGAL_TRANSITION"

    def __init__(self, state, activity):
        super().__init__(f"activity {activity!s} is illegal in state {state!s}")
        self.state = state
        self.activity = activity


class StoreCorruptError(OryaError):
    code = "CORRUPT"

    def __init__(self, document: str, reason: str):
        super().__init__(f"{document}: {reason}")
        self.document = document
        self.reason = reason


class StoreLockedError(OryaError):
    code = "LOCKED"

    def __init__(self, holder: str):
        super().__init__(f"store locked by writer {holder!r}")
        self.holder = holder


class StoreChangedError(OryaError):
    """Another writer committed since the store was read; nothing was written."""

    code = "LOCKED"


class StepFailure(OryaError):
    """A deployment primitive failed; triggers compensation."""

    code = "STEP_FAILED"
