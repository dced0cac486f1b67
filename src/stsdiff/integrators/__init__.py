from .sts import (
    StsCoefficients,
    hermite_error,
    rkc2_coefficients,
    rkl2_coefficients,
    stability_interval,
    stage_count,
    sts_step,
)
from .ssp import SSP_SCHEMES, ShuOsherScheme, ssp_scheme, ssp_step
from .dirk import (
    DIRK_SCHEMES,
    DirkScheme,
    NewtonConfig,
    cg_solve,
    dirk_step,
    dirk_tableau,
)
