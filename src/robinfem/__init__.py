"""Finite elements for Robin boundary value problems on smooth domains,
discretized on inscribed polygonal meshes without curved elements.

Two schemes share one boundary treatment whose edge weights stay
bounded for every combination of the Robin parameter and the mesh size:
a continuous Galerkin method with a Nitsche-type boundary form, and a
symmetric interior-penalty discontinuous Galerkin method.
"""

from .analysis import ErrorReport, energy_error, eoc, error_report, l2_error
from .assembly import (
    Method,
    ProblemData,
    Scheme,
    SparseSystem,
    assemble,
    assemble_interior_penalty,
    assemble_load,
    assemble_nitsche_boundary,
    assemble_volume,
    consistency_residual,
    norm_matrix,
    robin_weights,
    write_matrix,
)
from .errors import (
    DegenerateProjection,
    DegenerateSequence,
    FormatError,
    IndefiniteMatrix,
    InvalidParameter,
    MissingExactSolution,
    NonManifoldMesh,
    NotConverged,
    NotOnBoundary,
    RobinFemError,
    SchemeMismatch,
    TooLarge,
    UnsupportedOrder,
)
from .felib import (
    DofMap,
    QuadratureRule,
    ReferenceBasis,
    build_dofmap,
    continuous_embedding,
    dof_points,
    edge_rule,
    interpolate,
    reference_basis,
    triangle_rule,
)
from .geometry import (
    Domain,
    DomainKind,
    SkinDiagnostics,
    skin_diagnostics,
    unit_disk,
    unit_square,
)
from .mesh import (
    EdgeTable,
    Mesh,
    build_edge_topology,
    generate_disk_mesh,
    generate_square_mesh,
    level_mesh,
    read_mesh,
    refinement_sequence,
    write_mesh,
)
from .problems import Problem, get_problem, list_problems, problem_names
from .solver import (
    Preconditioner,
    SolveReport,
    SolverConfig,
    SolverMethod,
    min_eigenvalue_dense,
    solve,
)
from .study import StudyConfig, run_convergence, run_single, write_csv, write_svg

__version__ = "0.1.0"
