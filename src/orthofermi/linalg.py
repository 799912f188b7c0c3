"""Dense matrix substrate.

All operators in this package are plain ``numpy.ndarray`` values, and
everything defers to LAPACK through numpy. One dtype rule, :func:`field`,
holds throughout: an array whose dtype is complex is held as complex128,
any other as float64. The rule reads the dtype, never the values, so a
real system, such as the oscillator in its natural basis, stays real and
its products cost a real product's flops, while a complex input keeps its
imaginary part even when every entry of it is zero. Operators of the
oscillator model are dense n x n arrays, but ``osusy`` only ever multiplies
their diagonal blocks, which it stacks into (count, size, size) arrays. A
representation is a (p, n, n) family of annihilators, held on the rows
that hold an entry, and ``reptheory.decompose_stack`` takes k
representations as one (p, k, n, n) family. So :func:`dagger` and
:func:`herm_eig` act on the last two axes of any (..., n, n) stack,
:func:`orthonormal_range` takes a (k, m, n) stack
of near-projectors and returns their k ranks and one (k, m, min(m, n))
stack of bases from one batched SVD, and :func:`max_abs` takes the maximum
per matrix when given ``axis``. Identity checks throughout the
package are residual based: compute the defect matrix, take
:func:`max_abs`, compare against an explicit tolerance. Sizes read from
input are checked with :func:`is_count` and :func:`check_addressable`
before any array is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotHermitianError, OrderError

#: Default tolerance on residuals of algebraic identities.
DEFAULT_TOL = 1e-10

#: The most bytes one numpy array can span.
MAX_BYTES = np.iinfo(np.intp).max


def is_count(value, least: int) -> bool:
    """Whether ``value`` equals an integer of at least ``least``.

    ``3.0`` counts as 3; bools, NaN, infinities, strings and None never
    count. The order p, the boson levels and the sizes of a random
    representation are checked this way.
    """
    try:
        return not isinstance(value, (bool, np.bool_)) and int(value) == value >= least
    except (TypeError, ValueError, OverflowError):
        return False


def check_order(p: int) -> int:
    """The orthofermion order ``p`` as an int.

    Any value equal to a positive integer is accepted (``3.0`` gives 3);
    everything else, bools, NaN, infinities, strings and None included,
    raises :class:`OrderError`, as does an order too large for numpy to
    address its (p+1) x (p+1) matrices.
    """
    if not is_count(p, 1):
        raise OrderError(f"order p must be a positive integer, got {p!r}")
    check_addressable(OrderError, f"order p = {int(p)}", int(p) + 1, int(p) + 1)
    return int(p)


def check_addressable(error, what: str, *shape: int) -> None:
    """Raise ``error`` when a complex array of ``shape`` would span more bytes
    than one numpy array can address.

    numpy refuses such a size with a ValueError or OverflowError, not with
    the MemoryError of a size that is merely too large for the machine, so
    a size read from the command line or a file is checked before any array
    is made. The arithmetic is on Python ints, so no size can wrap. The size
    is that of complex128, the larger itemsize of :func:`field`'s two, so
    the check holds for a real array of ``shape`` as well.
    """
    if math.prod(shape) * np.dtype(complex).itemsize > MAX_BYTES:
        raise error(f"{what} is too large: a complex array of shape {shape} "
                    f"exceeds numpy's index range")


def field(a) -> np.ndarray:
    """``a`` as an array of the package's one dtype: complex128 when its
    dtype is complex, float64 otherwise; an array already of that dtype is
    returned as it is. Only the dtype is read, never the values."""
    a = np.asarray(a)
    return a.astype(complex if a.dtype.kind == "c" else float, copy=False)


def dagger(a) -> np.ndarray:
    """Conjugate transpose over the last two axes, so stacks keep their order."""
    return np.conj(np.swapaxes(a, -1, -2))


def max_abs(a, axis=None):
    """Maximum entrywise modulus; 0 exactly for empty or zero matrices.

    With ``axis``, the maximum over those axes only, as an array: for a
    (k, n, n) stack, ``axis=(-2, -1)`` gives one value per matrix.
    """
    worst = np.abs(np.asarray(a)).max(axis=axis, initial=0.0)
    return float(worst) if axis is None else worst


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix.

    ``values`` are real and ascending; the columns of ``vectors`` are the
    matching orthonormal eigenvectors, so that
    ``vectors @ diag(values) @ vectors^dagger`` reconstructs the input.
    """

    values: np.ndarray
    vectors: np.ndarray


def herm_eig(a, tol: float = DEFAULT_TOL) -> HermEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    ``a`` may also be a stack of shape (..., n, n); ``values`` then has shape
    (..., n) and ``vectors`` (..., n, n), one decomposition per matrix.
    Raises :class:`NotHermitianError` if ``max_abs(a - a^dagger) > tol``
    for any matrix of the stack. The vectors are real when ``a`` is
    (:func:`field`).
    """
    a = field(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"eigendecomposition needs square matrices, got {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    defect = max_abs(a - dagger(a))
    if defect > tol:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds tol {tol:.3e}")
    values, vectors = np.linalg.eigh(a)
    return HermEig(values=values, vectors=vectors)


def orthonormal_range(a) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the column spaces of a (k, m, n) stack ``a`` of
    near-projectors, as ``(rank, vectors)``.

    One batched SVD gives ``vectors``, the (k, m, min(m, n)) stack of left
    singular vectors, and ``rank``, a (k,) int array: the first ``rank[i]``
    columns of ``vectors[i]`` span the range of matrix i. Each matrix is a
    projector up to residuals, and its rank is counted at the projector gap:
    singular values strictly above 1/2 count. :mod:`~orthofermi.reptheory`
    takes a rank only after Pi^2 = Pi and Pi^dag = Pi, or the Gram check of
    the copies, held within ``tol``. An n x n matrix whose entries are at
    most tol has spectral norm at most n tol, so every eigenvalue l then
    has |l^2 - l| = O(n tol) and lies within O(n tol) of 0 or of 1, and 1/2
    separates the two groups. At a ``tol`` so large that they meet, the
    count can be wrong; the Gram, bookkeeping and certificate checks that
    follow it refuse such a count. A zero matrix has rank 0. ``vectors``
    has one width whatever the ranks, so a stack of mixed ranks stays one
    array. It is real when ``a`` is (:func:`field`).
    """
    a = field(a)
    if a.ndim != 3:
        raise DimensionError(f"expected a (k, m, n) stack of matrices, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return np.count_nonzero(s > 0.5, axis=-1), u


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = d / np.where(np.abs(d) > 0, np.abs(d), 1.0)
    return q * phases
