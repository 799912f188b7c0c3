"""Exception hierarchy for the orthofermi package."""


class OrthofermiError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(OrthofermiError):
    """Matrix shapes are incompatible with the requested operation."""


class OrderError(OrthofermiError):
    """Invalid orthofermion order p, or two objects of different order were mixed."""


class NotHermitianError(OrthofermiError):
    """A matrix required to be Hermitian is not, beyond the allowed tolerance."""


class TruncationError(OrthofermiError):
    """Boson truncation too small to define the oscillator model."""


class NotARepresentationError(OrthofermiError):
    """Matrices fail the orthofermion algebra relations beyond tolerance."""


class NumericalDegeneracyError(OrthofermiError):
    """A split cannot be certified within tolerance: its copy vectors are not
    orthonormal, its ranks miss the dimension, or its certificate exceeds tol;
    or a stack split at once holds representations of different vacuum ranks."""


class ClusteringError(OrthofermiError):
    """Eigenvalue gap structure does not admit an unambiguous clustering."""


class ParseError(OrthofermiError):
    """Malformed or schema-violating input file."""


class IoError(OrthofermiError):
    """File could not be read or written."""
