"""Shared control-flow exceptions for the stepping machinery."""


class StepFailure(RuntimeError):
    """A single step attempt produced unusable values; the driver should
    reject the attempt and retry with a smaller h."""


class StageCountError(ValueError):
    """The requested step would need more internal stages than the cap."""


class IntegrationAbort(RuntimeError):
    """A driver cannot continue (repeated rejections, a step below
    h_min, or no eigenvalue estimate)."""
