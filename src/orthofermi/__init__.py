"""Orthofermion algebras, their representation theory, and the derived
para- and fractional supersymmetries of the orthosupersymmetric oscillator.
"""

from .canonical import (OrthoRep, canonical, cyclic_from, ladder_identity_residuals,
                        ladder_operators, lowering_from, occupied)
from .errors import (ClusteringError, DimensionError, IoError, NotARepresentationError,
                     NotHermitianError, NumericalDegeneracyError, OrderError,
                     OrthofermiError, ParseError, TruncationError)
from .linalg import DEFAULT_TOL, HermEig, haar_unitary, herm_eig, max_abs, orthonormal_range
from .osusy import (CLOSED_FORM_TOL, DEFAULT_CLUSTER_TOL, DEFAULT_GENERATOR_TOL,
                    OsusySystem, SpectralData, SusyGenerators, build_generators,
                    build_system, check_generators, check_relations, closed_form_frac,
                    closed_form_para, eigenspace_reps, run_suite, spectral)
from .reptheory import (Decomposition, decompose, decompose_stack, infer_unit, random_rep,
                        relation_residuals, verify)

__version__ = "0.1.0"

__all__ = [
    "OrthoRep", "canonical", "cyclic_from", "ladder_identity_residuals",
    "ladder_operators", "lowering_from", "occupied",
    "ClusteringError", "DimensionError", "IoError", "NotARepresentationError",
    "NotHermitianError", "NumericalDegeneracyError", "OrderError",
    "OrthofermiError", "ParseError", "TruncationError",
    "DEFAULT_TOL", "HermEig", "haar_unitary",
    "herm_eig", "max_abs", "orthonormal_range",
    "CLOSED_FORM_TOL", "DEFAULT_CLUSTER_TOL", "DEFAULT_GENERATOR_TOL",
    "OsusySystem", "SpectralData", "SusyGenerators", "build_generators",
    "build_system", "check_generators", "check_relations", "closed_form_frac",
    "closed_form_para", "eigenspace_reps", "run_suite", "spectral",
    "Decomposition", "decompose", "decompose_stack", "infer_unit", "random_rep",
    "relation_residuals", "verify",
    "__version__",
]
