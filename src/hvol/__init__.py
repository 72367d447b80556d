"""Normalized volumes of monomial valuations on model klt singularities.

Exact closed-form evaluation (``core``), a brute-force lattice-count
oracle (``lattice``), minimization over the weight cone (``optimize``),
reference A-D-E minimizer tables (``tables``), cone interpolation and
divisorial-semistability checks (``fujita``), inequality property suites
(``inequalities``), strict model-file I/O (``modelio``) and a CLI
(``cli``).
"""

from .core import (
    ValuationReport,
    active_monomials,
    ideal_value,
    log_discrepancy,
    normalized_volume,
    skewness,
    volume,
    weighted_order,
)
from .fujita import (
    ConeModel,
    VolumeCurve,
    convexity_check,
    eta,
    f_of_t,
    phi,
    phi_prime_zero,
    vol_w_alpha,
)
from .inequalities import InequalityVerdict, run_suite, skewness_s
from .lattice import (
    ColengthSeries,
    default_radii,
    estimate_volume,
)
from .models import (
    CapacityError,
    DomainError,
    Hypersurface,
    HvolError,
    InternalConsistencyError,
    InvalidCurveError,
    InvalidModelError,
    Model,
    NonKltModelError,
    NonKltWeightError,
    SmoothPoint,
    ToricCone,
    UnsupportedModelError,
    a_singularity,
    d_singularity,
    e_singularity,
    orthant_cone,
)
from .optimize import MinimizationResult, minimize_hvol, symmetrize
from .tables import ReferenceEntry, alpha_star, reference_entry, reference_model, table_rows

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
