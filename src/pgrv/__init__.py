"""Polya-Gamma random variate generation.

Exact samplers for J*(h, z) (unit-shape alternating-series method,
direct real-shape method for h in [1, 64]), an approximate saddlepoint
sampler for large shapes, analytic moments, and a hybrid dispatcher that
exposes everything through the PG(b, z) = J*(b, z/2)/4 scaling.
"""

from .density import (
    JStarParams,
    density,
    jstar_mean,
    jstar_var,
    sample_gamma_sum,
    trunc_lookup,
    verify_domination,
)
from .errors import (
    ConvergenceError,
    DominationViolationError,
    EnvelopeValidityError,
    IterationCapError,
)
from .pg import (
    Method,
    PgParams,
    choose_method,
    pg_mean,
    pg_var,
    sample_pg,
    sample_pg_batch,
)
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DominationViolationError",
    "EnvelopeValidityError",
    "IterationCapError",
    "JStarParams",
    "Method",
    "PgParams",
    "RngStream",
    "choose_method",
    "density",
    "jstar_mean",
    "jstar_var",
    "pg_mean",
    "pg_var",
    "sample_gamma_sum",
    "sample_pg",
    "sample_pg_batch",
    "trunc_lookup",
    "verify_domination",
    "__version__",
]
