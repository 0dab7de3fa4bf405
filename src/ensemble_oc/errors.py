"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid configuration, distribution or scheme parameter."""


class EmptyEnsembleError(ValueError):
    """Operation requires at least one sample."""


class ShapeMismatchError(ValueError):
    """Array shapes inconsistent with the plan or model dimensions."""


class DomainError(ValueError):
    """State or control outside the model's valid region.

    Carries the first offending sample index when it is known (None when
    the offending quantity is shared across samples) and, once raised
    during propagation, the index of the time step being taken.
    """

    def __init__(self, message, sample_index=None, step_index=None):
        super().__init__(message)
        self.sample_index = sample_index
        self.step_index = step_index


class PropagationError(RuntimeError):
    """Non-finite values produced while integrating.

    Carries the sample index and the time-step index of the first failure.
    """

    def __init__(self, message, sample_index=None, step_index=None):
        super().__init__(message)
        self.sample_index = sample_index
        self.step_index = step_index
