"""P1 finite element kit for coupled potential/carrier transport.

Three discretizations of the Nernst-Planck operator (plain Galerkin,
streamline-stabilized, edge-averaged exponential fitting) over a shared
assembly interface, an implicit time stepper driven by a decoupling
fixed-point iteration with contraction instrumentation, and diagnostics for
the monotone-matrix structure that underpins discrete positivity.
"""

from .assembly import (
    AssembledNP,
    SchemeConfig,
    assemble_convection,
    assemble_load,
    assemble_np,
    assemble_stiffness,
    apply_dirichlet_rows,
    bernoulli,
    edge_harmonic_average,
    lumped_volumes,
)
from .gummel import (
    ContractionSummary,
    GummelReport,
    State,
    StepProblem,
    contraction_stats,
    gummel_solve,
    gummel_step,
    solve_potential,
)
from .linalg import (
    MMatrixReport,
    NonConvergenceError,
    SparseMatrix,
    column_mmatrix_check,
    interior_submatrix,
    solve_general,
    solve_spd,
    spmv,
)
from .mesh import (
    BoxMesh,
    DegenerateTetError,
    MeshQualityReport,
    build_box_mesh,
    dump_mesh,
    mesh_quality_report,
)
from .timestepper import (
    DiagnosticsRecord,
    TransientAbortError,
    TransientConfig,
    TransientResult,
    bound_constants,
    run_transient,
    write_history,
)

__version__ = "0.1.0"
