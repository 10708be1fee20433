"""Semi-discrete optimal transport toolkit.

Solves for the piecewise-linear Brenier potential mapping a uniform
measure on a convex domain onto a weighted point cloud, exposes the solved
power diagram and its weighted Delaunay dual, extracts discrete
transport-map singularities, and cross-checks costs against an exact
Kantorovich LP oracle.
"""

from .geometry import (
    Ball,
    Box,
    ConvexPolygon,
    DimensionUnsupportedError,
    DiscreteTargetMeasure,
    DuplicatePointError,
    GeometryError,
    MassMismatchError,
    NonpositiveWeightError,
    PolygonDomain,
    ball_domain,
    box_domain,
    convex_hull_2d,
    disk_domain,
    load_target_csv,
    polygon_area,
    polygon_centroid,
    polygon_domain,
    sample_source,
    validate_target,
)
from .kantorovich import (
    DualPotentials,
    SizeLimitExceededError,
    TransportPlan,
    c_transform,
    cost_matrix,
    solve_lp,
    verify_plan,
    write_cost_csv,
    write_plan_csv,
)
from .potential import (
    BrenierPotential,
    DegenerateHullError,
    DualTriangulation,
    PowerCellStats,
    exact_cell_stats_2d,
    legendre_dual,
    mc_cell_stats,
)
from .singularity import (
    Crossing,
    PointOutsideDomainError,
    SingularityGraph,
    ThresholdNonpositiveError,
    VertexNotFoundError,
    cell_subgradient_extent,
    default_theta,
    detect_singular_facets,
    probe_segment,
    singular_chains,
)
from .solver import (
    FacetMeasuresUnavailableError,
    InitialPointOutsideHError,
    PathLeavesAdmissibleSetError,
    SingularHessianError,
    SolveReport,
    SolverConfig,
    energy,
    gradient,
    hessian,
    solve,
    transport_cost,
)

__version__ = "0.1.0"
