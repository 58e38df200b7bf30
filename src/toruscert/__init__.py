"""toruscert: exhaustive certification of torus intersection-graph cases.

The engine models pairs of intersection graphs of punctured surfaces on a
torus boundary component, enumerates all candidate reduced graph
configurations for given boundary counts and slope distance, and certifies
emptiness or derives the distance bound for each case.
"""
from toruscert._version import ENGINE_VERSION as __version__
from toruscert.certifier import CaseCertificate, CaseParams, certify_case

__all__ = ["CaseCertificate", "CaseParams", "__version__", "certify_case"]
