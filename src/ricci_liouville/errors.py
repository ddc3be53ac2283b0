"""Exception hierarchy shared across the library.

The split mirrors how failures are reported by the command line tool:
parameter and domain problems are usage errors, convergence failures are
numerical errors, and a failed membership test is a negative verdict
rather than a crash.
"""

__all__ = ["ParameterError", "DomainError", "ConvergenceError", "NotInFamilyError"]


class ParameterError(ValueError):
    """Invalid constructor argument or operation parameter."""


class DomainError(ParameterError):
    """Evaluation point lies outside the domain of definition."""


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to converge within its budget."""


class NotInFamilyError(ValueError):
    """Sampled data definitely violates a hypothesis of the metric family.

    Carries the index of the first offending sample so callers can report
    where the classification aborted.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index
