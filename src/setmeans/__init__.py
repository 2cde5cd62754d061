"""Convex random sets: exact polytope geometry, expectations of finitely
supported random bodies, and seeded Monte Carlo checks of the sample-mean
limit laws."""

__version__ = "0.1.0"

from .geometry import (
    ConvexBody,
    ConvergenceError,
    DimensionMismatch,
    FaceCertificate,
    GeometryError,
    NormalFan,
    deviation,
    hausdorff,
    hausdorff_via_support,
    hull,
    is_facet_at,
    minkowski_sum,
    nearest_point,
    norm_gradient,
    normal_fan,
    point_distance,
    scale,
    shapley_folkman_gap,
    sphere_grid,
    support,
    support_face,
    translate,
    weighted_sum,
)
from .randomsets import (
    CommutationError,
    DiscreteRandomSet,
    NotExposed,
    Selection,
    expectation,
    expectation_face,
    exposed_selection,
    facet_inheritance,
    nearest_point_selection,
    sample,
    tangent_variance,
)
from .simulate import (
    DegenerateFace,
    ExperimentConfig,
    ExperimentReport,
    IncompatibleSelection,
    InsideBody,
    NoFacet,
    OracleMismatch,
    clt_exposed_experiment,
    clt_facet_experiment,
    clt_hausdorff_experiment,
    clt_tangent_experiment,
    facet_frequency_experiment,
    lln_experiment,
)
