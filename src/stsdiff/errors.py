"""The package's own exception types: a failed step attempt, a stage
count over the cap, and a run that cannot continue."""


class StepFailure(RuntimeError):
    """A single step attempt produced unusable values (a non-finite
    state or Jacobian product, or a Newton or CG solve that failed); the
    driver should reject the attempt and retry with a smaller h."""


class StageCountError(ValueError):
    """The requested step would need more internal stages than the cap."""


class IntegrationAbort(RuntimeError):
    """A driver cannot continue (repeated rejections, a step below
    h_min, or no eigenvalue estimate).  The driver sets stats to its
    RunStats up to the abort, wall time included."""

    stats = None
