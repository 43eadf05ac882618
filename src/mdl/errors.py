"""Exception types shared across the library.

Each class carries the CLI's exit code and stderr label for it:
precondition violations exit 2, resource-guard rejections 3 and
self-check failures 4.  Library code should raise the most specific
class that applies.
"""

__all__ = ["PreconditionError", "ResourceGuardError", "SelfCheckError"]


class PreconditionError(ValueError):
    """An operation was invoked with arguments outside its contract."""

    exit_code, label = 2, "precondition violated"


class ResourceGuardError(RuntimeError):
    """An allocation or enumeration was rejected because it exceeds its guard."""

    exit_code, label = 3, "resource guard"


class SelfCheckError(RuntimeError):
    """An internal dual-route computation disagreed with itself.

    The one self-check protocol: the function that computes a value also
    runs its second route, or its bound, and raises this when they
    disagree; records only hold values.  It means a bug, never a user error.
    """

    exit_code, label = 4, "internal self-check failed"
