"""Exception hierarchy shared across the package.

Each class maps onto one CLI exit code (see ``delq.cli``): validation and
resource-cap problems exit 2, unsolvable/infeasible problems exit 3, and
internal cross-check disagreements exit 4.
"""


class DelqError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DelqError, ValueError):
    """Invalid input: dimension mismatch, asymmetry, non-finite entries,
    measurability violations, or out-of-range indices."""


class ResourceLimitError(DelqError, ValueError):
    """A configured work cap would be exceeded: the tree-depth cap
    (``DELQ_DEPTH_CAP``), which bounds every route that enumerates the
    scenario tree, the oracle included, or the Monte-Carlo path-step cap
    (``DELQ_PATH_STEP_CAP``) on samples x (N - t); or the recursion's P
    array cannot be allocated."""


class UnsolvableError(DelqError, RuntimeError):
    """The requested quantity is undefined because the problem is not
    solvable (or not certified solvable) in the required sense."""


class ConsistencyError(DelqError, RuntimeError):
    """Two independent computations of the same quantity disagree beyond
    tolerance; indicates numerical breakdown, not user error."""
