"""Exception types shared across the package."""


class RlglError(Exception):
    """Base class for all package errors."""


class InvalidIndexError(RlglError, ValueError):
    pass


class InvalidParamsError(RlglError, ValueError):
    pass


class InvalidDampingError(InvalidParamsError):
    pass


class InvalidM0Error(InvalidParamsError):
    pass


class DanglingNodeError(RlglError, ValueError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"node {node} has no out-edges")


class IsolatedNodeError(RlglError, RuntimeError):
    pass


class NotErgodicError(RlglError, RuntimeError):
    pass


class AbsorbingStateError(RlglError, ValueError):
    pass


class AllCashZeroError(RlglError, RuntimeError):
    pass


class ZeroTotalHistoryError(RlglError, RuntimeError):
    pass


class DegenerateHistoryError(ZeroTotalHistoryError):
    """Raised after the total-history guard exhausts its retries."""


class NoConvergenceError(RlglError, RuntimeError):
    """Raised when an iteration hits its step budget.

    The partially completed result object, when available, is attached
    as ``.result`` so callers can still inspect traces.
    """

    def __init__(self, message, result=None):
        self.result = result
        super().__init__(message)


class NotMarkovError(RlglError, RuntimeError):
    pass


class ZeroCashError(RlglError, ValueError):
    pass


class OutOfRangeError(RlglError, ValueError):
    pass


class ConfigError(RlglError, ValueError):
    """Command-line configuration validation failure."""
