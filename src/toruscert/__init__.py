"""toruscert: exhaustive certification of torus intersection-graph cases.

The engine models pairs of intersection graphs of punctured surfaces on a
torus boundary component, enumerates all candidate reduced graph
configurations for given boundary counts and slope distance, and certifies
emptiness or derives the distance bound for each case.
"""
from toruscert._version import ENGINE_VERSION as __version__
from toruscert.certifier import (
    CaseCertificate,
    CaseParams,
    certify_case,
    derive_delta_bound,
    distance_forcing,
)
from toruscert.embedded import (
    EmbeddedGraph,
    ParallelFamily,
    build_graph,
    expand_decorated,
    reduce_graph,
    trace_faces,
)
from toruscert.enumeration import enumerate_reduced_torus_graphs
from toruscert.fatgraph import FatGraph
from toruscert.homology import (
    GluingMatrix,
    HomologyClass,
    KleinSolution,
    apply_gluing,
    check_fiber_distance,
    slope_distance,
    solve_klein_slopes,
    verify_relations,
)
from toruscert.perms import (
    InducedPermutation,
    OrbitDecomposition,
    edge_orbit_subgraph,
    induced_permutation,
    orbit_count,
)

__all__ = [
    "CaseCertificate",
    "CaseParams",
    "EmbeddedGraph",
    "FatGraph",
    "GluingMatrix",
    "HomologyClass",
    "InducedPermutation",
    "KleinSolution",
    "OrbitDecomposition",
    "ParallelFamily",
    "__version__",
    "apply_gluing",
    "build_graph",
    "certify_case",
    "check_fiber_distance",
    "derive_delta_bound",
    "edge_orbit_subgraph",
    "enumerate_reduced_torus_graphs",
    "expand_decorated",
    "induced_permutation",
    "distance_forcing",
    "orbit_count",
    "reduce_graph",
    "slope_distance",
    "solve_klein_slopes",
    "trace_faces",
    "verify_relations",
]
