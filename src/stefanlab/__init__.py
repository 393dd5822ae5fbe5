"""Numerical laboratory for null control of a radial one-phase Stefan problem.

The package studies, at desk scale, the constructive control machinery for
the radially symmetric melting problem: reduction of the ball to a line
field on a moving interval, theta-scheme transport to the fixed reference
domain, penalized HUM control synthesis through a transpose-exact Gramian,
Carleman-weight diagnostics, observability constants, and the fixed-point
coupling between controlled states and the free boundary.
"""

from .domain import (
    BoundaryPath,
    PhysicalSetup,
    ReferenceGrid,
    SpaceTimeField,
    ROLE_ADJOINT,
    ROLE_CONTROL,
    ROLE_SOURCE,
    ROLE_STATE,
    constant_path,
    evaluate_in_ball,
    h1_seminorm,
    lift_radial,
    line_l2_norm,
    norm_equivalence,
    path_from_function,
    project_radial,
    read_field_csv,
    write_field_csv,
)
from .pde import (
    Propagator,
    SchemeConfig,
    boundary_flux,
    solve_adjoint,
    solve_forward,
    solve_semilinear,
)
from .control import (
    HUMConfig,
    HUMOutcome,
    apply_gramian,
    cost_report,
    dense_gramian,
    solve_hum,
)
from .weights import (
    EMPIRICAL_RATIO_BOUND,
    CarlemanConfig,
    CarlemanParams,
    CarlemanReport,
    ProfileReport,
    WeightValues,
    bump_poly,
    bump_poly_dw,
    carleman_sides,
    check_weight_profile,
    weight_functions,
    weight_profile,
    weight_profile_dr,
)
from .observability import (
    ObservabilityConfig,
    ObservabilityEstimate,
    dense_constant,
    estimate_constant,
)
from .stefan import (
    EpsilonRecord,
    FixedPointConfig,
    FixedPointResult,
    IterationRecord,
    LambdaOutcome,
    Nonlinearity,
    coupled_solve,
    fixed_point_iterate,
    integrate_boundary,
    linearize_and_control,
    stefan_rate,
    write_history_csv,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateWeightError,
    EndpointConditionError,
    FieldRoleError,
    GridError,
    InstabilityError,
    OutOfDomainError,
    RadiusBoundsError,
    RadiusBreachError,
)

__version__ = "0.1.0"
