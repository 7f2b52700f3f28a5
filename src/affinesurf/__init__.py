"""Computational toolkit for locally symmetric affine surface connections.

Exact curvature tables and classification of constant and first-order
homogeneous Christoffel charts, geodesic integration with completeness
diagnosis, closed-form Lorentz half-plane geodesics, exponential-map
coverage, Jacobi fields and conjugate points, pseudosphere geometry, and
null spray charts with their shared metric normal form.
"""

from __future__ import annotations

from .catalog import (
    NamedModel,
    format_model_spec,
    get_model,
    model_metric,
    parse_model_spec,
)
from .classify import (
    NormalForm,
    ShearScale,
    classify_type_a,
    classify_type_b,
    pushforward,
    scale_transform,
    shear_transform,
)
from .coverage import (
    REACHED,
    UNKNOWN,
    UNREACHED,
    CoverageMap,
    exp_coverage,
    l2_reach_verdict,
)
from .curvature import (
    ScaledTable,
    curvature_at,
    curvature_table,
    is_flat,
    is_locally_symmetric,
    nabla_ricci_at,
    nabla_ricci_table,
    ricci_at,
    ricci_symmetric_at,
    ricci_table,
)
from .errors import (
    AffineSurfaceError,
    BadNormalizationError,
    ClassificationInconclusiveError,
    DegenerateFitError,
    DifferentiationFailureError,
    DomainError,
    FrameDegenerateError,
    IntegrationError,
    InvalidIVPError,
    InvalidParameterError,
    LiftAmbiguityError,
    NoMetricError,
    NotNullGeodesicError,
    NotTangentError,
    ParamOutOfDomainError,
    UnknownModelError,
)
from .fields import (
    COEFF_NAMES,
    ChristoffelField,
    as_coeffs,
    christoffel_at,
    coeffs_to_tensor,
    tensor_to_coeffs,
)
from .geodesics import (
    GeodesicTrajectory,
    Incomplete,
    exp_map,
    geodesic_rhs,
    integrate_geodesic,
    write_trajectory_csv,
)
from .integrate import IntegrationResult, solve_ode
from .jacobi import JacobiSolution, conjugate_points, integrate_jacobi
from .lorentz import (
    ClosedFormGeodesic,
    causal_type,
    conserved_quantities,
    fit_l2_geodesic,
    hyperbola_residual,
    involution,
    involution_pushforward,
    l2_inner,
    l2_log,
    l2_metric,
    orbit_residual,
)
from .pseudosphere import (
    AmbientGeodesic,
    apex_reach,
    chart_T,
    chart_partials,
    chart_pullback_metric,
    lift_path,
    minkowski_inner,
    pseudosphere_geodesic,
    write_ambient_csv,
)
from .sprays import (
    IsometryReport,
    SpineFindings,
    SprayChart,
    XSquaredMetric,
    build_spray,
    injectivity_gap,
    invert_T_L2,
    invert_T_S2,
    l2_null_spray,
    map_T_L2,
    map_T_S2,
    s2_frame_products,
    s2_null_spray,
    spine_findings,
    spine_sprays,
    spray_metric,
    spray_metric_grid,
    tl2_grid,
    ts2_grid,
    verify_composition,
    verify_isometry,
)
from .svg import SvgCanvas, coverage_svg, polyline_svg

__version__ = "0.1.0"
