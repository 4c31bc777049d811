"""Information geometry of optimal joint measurements on qubit copies.

A numpy library (plus a ``qig`` command-line tool) for the
quantum-information geometry of two-level systems: Helstrom and monotone
metric tensors over the Bloch ball, Fisher information of the optimal
non-separable measurements on N = 2..7 copies, Gill-Massar trace bounds,
volume integrals, Clarke-Barron universal-coding redundancies, and Monte
Carlo validation of the Cramer-Rao machinery.

Conventions used everywhere: states live in the closed unit ball
(r = 1 pure, r = 0 fully mixed); the spherical chart is x-polar,
x = r cos(theta), y = r sin(theta) cos(phi), z = r sin(theta) sin(phi).
"""

from .bloch import (
    BlochCartesian,
    BlochSpherical,
    DegenerateCoordinatesError,
    InfoMatrix,
    InvalidStateError,
    PureStateError,
    congruence_to_spherical,
    jacobian,
    to_cartesian,
    to_spherical,
)
from .infogeo import (
    FITTED_N4,
    FITTED_N6,
    HELSTROM,
    QUASI_BURES,
    YUEN_LAX,
    MetricKind,
    ProbModel,
    ZeroProbabilityError,
    custom_metric,
    fisher_information,
    g_function,
    helstrom_cartesian,
    helstrom_inverse,
    helstrom_spherical,
    monotone_metric,
    product_model,
    pure_helstrom_m2,
    pure_helstrom_m3,
    quadrinomial_model,
)
from .povm import (
    UnsupportedNError,
    fisher_closed_form,
    fisher_spherical_diag,
    fully_mixed_entry11,
    fully_mixed_entry11_limit,
    gm_trace_reference,
    vidal_model,
    vidal_probabilities,
)
from .analysis import (
    CurveTable,
    DominanceReport,
    NonConvergenceError,
    QuadratureSpec,
    curve_sample,
    diagonal_colatitude,
    dominance_boundary_radius,
    dominance_check,
    dominates,
    gm_trace,
    limit_trace,
    min_dominating_scalar,
    modified_trace_reference,
    scaled_curve_intersection,
    scan_dominance,
    trace_limit_reference,
    volume_integral,
    write_curves_csv,
)
from .coding import (
    CLASSICAL_RATIO,
    JEFFREYS,
    QUANTUM_RATIO,
    QUASI_BURES_CONSTANT,
    QUASI_BURES_PRIOR,
    PriorKind,
    classical_info_determinant,
    classical_redundancy,
    custom_prior,
    endpoint_asymptotics,
    nats_to_bits,
    prior_normalization,
    prior_value,
    quantum_info_scalar,
    quantum_redundancy,
    quasi_bures_constant_quadrature,
)
from .estimator import (
    EfficiencyReport,
    EstimationRun,
    MleResult,
    efficiency_report,
    mle_fit,
    sample_counts,
)

__version__ = "0.1.0"
