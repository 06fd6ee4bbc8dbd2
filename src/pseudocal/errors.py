"""Exception types shared across the package."""


class PseudocalError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PseudocalError):
    """Input violates a documented precondition (shape, range, finiteness)."""


class InvalidSpecError(InvalidInputError):
    """A synthetic-task ShiftSpec is internally inconsistent."""


class LabelsRequiredError(PseudocalError):
    """The operation needs labels but the batch carries none."""


class OptimizationError(PseudocalError):
    """The temperature fit hit a non-finite gradient or did not converge."""


class DegenerateTargetError(PseudocalError):
    """Pseudo-target synthesis produced no usable pairs.

    When every pseudo label agrees, ``predicted_class`` names the single
    class the model collapsed onto.
    """

    def __init__(self, message: str, predicted_class: int | None = None):
        super().__init__(message)
        self.predicted_class = predicted_class


class EmptyFilterError(PseudocalError):
    """A confidence filter removed every sample."""


class DataAccessError(PseudocalError):
    """A calibration method requested data the task does not provide."""

    def __init__(self, message: str, method: str):
        super().__init__(message)
        self.method = method


class TrainingError(PseudocalError):
    """Training diverged; ``epoch`` is the first epoch with non-finite loss."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch
