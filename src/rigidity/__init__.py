"""Decide, certify, and disprove conformal rigidity of finite graphs.

A connected graph is conformally rigid when the uniform edge weighting is
already optimal: no reweighting of total mass |E| can raise the second
Laplacian eigenvalue (lower target) or lower the largest one (upper target).
The package decides this through a pipeline of spectral clustering, symmetry
reduction, isotypic decomposition, and a polyhedral certificate cone with
exact rational arithmetic, with an embedding feasibility SDP only where an
isotypic multiplicity exceeds one, falling back to a perturbation search that
produces explicit witness weights when rigidity fails.
"""

from .certify import (
    ConeModel,
    ConeSolution,
    ConicCertificate,
    Disproof,
    LineSearchFailed,
    ResidualTooLarge,
    TargetKind,
    VerificationReport,
    assemble_certificate,
    build_cone,
    exact_nonneg_solve,
    find_disproof,
    rationalize,
    rationalize_tight,
    solve_cone_membership,
    subcone_model,
    verify_certificate,
    verify_disproof,
)
from .graphcore import (
    DimensionMismatch,
    DisconnectedGraph,
    Graph,
    MalformedGraph6,
    WeightVector,
    cartesian_product,
    circulant,
    edge_energy,
    format_edge_list,
    laplacian,
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
    TRANSITIONS,
    CertificationReport,
    PipelineConfig,
    PipelineStatus,
    emit_report,
    reverify_report,
    route_is_valid,
    run_pipeline,
)
from .sdpfeas import (
    CompressedOperators,
    SdpResult,
    SdpStatus,
    compress_operators,
    expand_gram,
    orbit_laplacian,
    solve_feasibility,
)
from .spectra import (
    AmbiguousCluster,
    ConvergenceFailure,
    EigenDecomposition,
    EigenspaceCluster,
    NotSymmetric,
    Which,
    cluster_eigenspace,
    eig_sym,
    laplacian_spectrum,
)
from .symmetry import (
    CapExceeded,
    EdgeOrbitPartition,
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
    orbit_energy,
    verify_automorphism,
    vertex_orbits,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
