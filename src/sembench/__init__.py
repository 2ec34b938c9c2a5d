"""Matrix-free high-order spectral element operators and benchmarks.

The library evaluates mass and stiffness operators on curvilinear
hexahedral meshes without ever assembling a matrix, using sum-factorized
tensor contractions over nodal Lagrange bases.  On top of the kernels sit a
gather-scatter assembly layer, a preconditioned CG solver, and a bake-off
benchmark harness with scalability metrics.
"""

from .assembly import GatherScatter, build_gather_scatter, build_numbering
from .bakeoff import (BP_TABLE, ConfigError, RunConfig, RunResult,
                      build_problem, build_rhs, run, sweep)
from .basis import (Basis1D, BasisError, EvenOddFactor, even_odd_split,
                    lagrange_deriv_matrix, lagrange_interp_matrix, make_basis)
from .krylov import (DivergenceError, PcgRun, SystemApplier, compute_diagonal,
                     make_preconditioner, pcg)
from .mesh import (BoxMesh, GeomFactors, MeshError, box_dims, build_box_mesh,
                   compute_geometric_factors, from_blocks, to_blocks)
from .metrics import (MetricsError, emit_csv, emit_plot_data,
                      extract_metrics, group_metrics, latency_floor,
                      parallel_efficiency, read_csv)
from .operators import (STRATEGIES, MassOperator, StiffnessOperator,
                        bytes_model, flop_model, mass_flop_model,
                        single_contraction_flops)
from .quadrature import (QuadRule1D, gauss_legendre, gauss_lobatto_legendre,
                         legendre_eval, make_rule)
from .tensors import OpCounters, contract_dir
from .verify import assemble_reference_csr

__version__ = "0.1.0"

__all__ = [
    "BP_TABLE", "Basis1D", "BasisError", "BoxMesh", "ConfigError",
    "DivergenceError", "EvenOddFactor", "GatherScatter", "GeomFactors",
    "MassOperator", "MeshError", "MetricsError", "OpCounters", "PcgRun",
    "QuadRule1D", "RunConfig", "RunResult", "STRATEGIES", "StiffnessOperator",
    "SystemApplier", "assemble_reference_csr", "box_dims", "build_box_mesh",
    "build_gather_scatter", "build_numbering", "build_problem", "build_rhs",
    "bytes_model", "compute_diagonal", "compute_geometric_factors",
    "contract_dir", "emit_csv", "emit_plot_data", "even_odd_split",
    "extract_metrics", "flop_model", "from_blocks", "gauss_legendre",
    "gauss_lobatto_legendre", "group_metrics", "lagrange_deriv_matrix",
    "lagrange_interp_matrix", "latency_floor", "legendre_eval", "make_basis",
    "make_preconditioner", "make_rule", "mass_flop_model",
    "parallel_efficiency", "pcg", "read_csv", "run",
    "single_contraction_flops", "sweep", "to_blocks",
]
