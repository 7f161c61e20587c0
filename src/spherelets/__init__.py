"""Piecewise-spherical manifold approximation.

Fits local data with pieces of spheres instead of tangent planes: a
closed-form spherical analogue of PCA, a PC1-sign partition tree that
assembles the pieces into a manifold estimate with out-of-sample
projection, blur-and-project point-cloud denoising, and a Student-t
embedding driven by local great-circle distances.
"""

__version__ = "0.1.0"

from .denoise import DenoiseConfig, blur_step, denoise
from .embed import (
    EmbedConfig,
    affinities,
    embed,
    knn_distances,
    spherical_knn_distances,
    stsne,
)
from .exceptions import (
    DimensionError,
    DivergenceError,
    InsufficientDataError,
    NonFiniteError,
    ParameterError,
    ParseError,
    SingularProjectionError,
    SphereletsError,
    VersionError,
)
from .model import SphereletModel, fit, load, save
from .numeric import seeded_gaussian
from .partition import build_tree, route
from .spca import Spherelet, fit_sphere, project_sphere

__all__ = [
    "DenoiseConfig",
    "EmbedConfig",
    "Spherelet",
    "SphereletModel",
    "affinities",
    "blur_step",
    "build_tree",
    "denoise",
    "embed",
    "fit",
    "fit_sphere",
    "knn_distances",
    "load",
    "project_sphere",
    "route",
    "save",
    "seeded_gaussian",
    "spherical_knn_distances",
    "stsne",
    "__version__",
]
