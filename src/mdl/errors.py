"""Exception types shared across the library.

The CLI maps these onto exit codes (precondition violations -> 2,
resource-guard rejections -> 3, self-check failures -> 4), so library
code should raise the most specific class that applies.
"""

__all__ = ["PreconditionError", "ResourceGuardError", "SelfCheckError"]


class PreconditionError(ValueError):
    """An operation was invoked with arguments outside its contract."""


class ResourceGuardError(RuntimeError):
    """An allocation or enumeration was rejected because it exceeds its guard."""


class SelfCheckError(RuntimeError):
    """An internal dual-route computation disagreed with itself.

    Raised by operations that compute a value both from a closed-form
    identity and from a direct definition-level computation; disagreement
    means a bug, never a user error.
    """
