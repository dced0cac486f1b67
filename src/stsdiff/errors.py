"""The package's own exception types: a failed step attempt, and a run
that cannot continue."""


class StepFailure(RuntimeError):
    """A single step attempt cannot be used (a non-finite state or
    Jacobian product, a Newton or CG solve that failed, or a step that
    needs more stages than the cap); the driver should reject the
    attempt and retry with a smaller h."""

    stages = 0  # the stages the attempt had fixed before it failed


class IntegrationAbort(RuntimeError):
    """A driver cannot continue (repeated rejections, a step below
    h_min, or no eigenvalue estimate).  The driver sets stats to its
    RunStats up to the abort, wall time included."""

    stats = None
