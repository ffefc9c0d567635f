"""Decide, certify, and disprove conformal rigidity of finite graphs.

A connected graph is conformally rigid when the uniform edge weighting is
already optimal: no reweighting of total mass |E| can raise the second
Laplacian eigenvalue (lower target) or lower the largest one (upper target).
The package decides this through a pipeline of spectral clustering, symmetry
reduction, isotypic decomposition, and a polyhedral certificate cone with
exact rational arithmetic (a sub-cone behind the multiplicity bound where an
isotypic multiplicity exceeds one), falling back to a perturbation search
that produces explicit witness weights when rigidity fails.
"""

from types import ModuleType as _ModuleType

from .certify import (
    ConeModel,
    ConeSolution,
    ConicCertificate,
    LineSearchFailed,
    ResidualTooLarge,
    assemble_certificate,
    build_cone,
    exact_nonneg_solve,
    find_disproof,
    rationalize,
    rationalize_tight,
    solve_cone_membership,
    subcone_model,
)
from .check import (
    TRANSITIONS,
    Disproof,
    PipelineStatus,
    VerificationReport,
    reverify_report,
    route_is_valid,
    verify_certificate,
    verify_disproof,
)
from .graphcore import (
    DimensionMismatch,
    DisconnectedGraph,
    EdgeOrbitPartition,
    Graph,
    MalformedGraph6,
    WeightVector,
    cartesian_product,
    circulant,
    edge_energy,
    format_edge_list,
    laplacian,
    orbit_energy,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .isotypics import (
    IsotypicComponent,
    IsotypicDecomposition,
    MultiplicityNotOne,
    UnstableSplit,
    all_multiplicity_one,
    isotypic_decompose,
    multiplicity_bound_ok,
    representative_vector,
)
from .pipeline import (
    CertificationReport,
    PipelineConfig,
    emit_report,
    run_pipeline,
)
from .sdpfeas import orbit_laplacian
from .spectra import (
    AmbiguousCluster,
    ConvergenceFailure,
    EigenDecomposition,
    EigenspaceCluster,
    NotSymmetric,
    TargetKind,
    cluster_eigenspace,
    eig_sym,
    laplacian_spectrum,
)
from .symmetry import (
    CapExceeded,
    GroupClosure,
    GroupGenerators,
    Permutation,
    SearchBudgetExceeded,
    VertexOrbitPartition,
    automorphism_generators,
    close_group,
    edge_orbits,
    edge_permutation,
    generators_from_json,
    verify_automorphism,
    vertex_orbits,
)

__version__ = "0.1.0"

# The names imported above; the submodules that importing them binds here
# are not part of the public surface.
__all__ = [name for name, value in dict(globals()).items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
