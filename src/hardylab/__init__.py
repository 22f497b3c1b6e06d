"""hardylab: Hardy-criterion laboratory for functional inequalities of
one-dimensional probability measures dmu = exp(-V(x)) dx / Z.

The package evaluates Muckenhoupt-type criteria for Poincare, log-Sobolev,
interpolation (Latala-Oleszkiewicz) and modified/weighted log-Sobolev
inequalities, estimates the associated constants by quadrature and by a
tridiagonal eigensolver, and verifies the resulting concentration bounds
by Monte Carlo on product measures.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BracketError,
    DepthExhaustedError,
    DomainValidationError,
    EnergyGuardError,
    HardyLabError,
    NonIntegrableError,
    ParseError,
)
from .quad import Integral, integrate, truncation_point  # noqa: F401
from .measure import (  # noqa: F401
    Measure1D,
    Potential,
    n_profile,
    normalize,
    quantile,
    sample,
    tail,
)
from .criteria import (  # noqa: F401
    BoundednessVerdict,
    CriterionResult,
    asymptotic_conditions,
    blo,
    bls,
    bmls,
    bp,
    bweighted,
    hyp_mls_check,
    tail_asymptotics,
)
from .functionals import (  # noqa: F401
    InequalityReport,
    TestFunction,
    energy,
    entropy_sq,
    f_r,
    h,
    h_star,
    legendre_numeric,
    lo_lhs,
    luxemburg,
    phi,
    ratio_report,
    variance,
)
from .spectral import TridiagonalOperator, discretize, spectral_gap  # noqa: F401
from .concentration import (  # noqa: F401
    ExperimentReport,
    deviation_experiment,
    enlargement_experiment,
    g_cost,
    lipschitz_gradient_check,
    transport_check,
    two_level_bound,
)
