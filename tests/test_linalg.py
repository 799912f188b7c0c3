import math
import re

import numpy as np
import pytest

from orthofermi import linalg
from orthofermi.errors import DimensionError, NotHermitianError, OrderError
from orthofermi.linalg import check_order


def _unit(i, j, n=2):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def test_herm_eig_diagonal_input():
    eig = linalg.herm_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(eig.values, [1.0, 2.0, 3.0])
    # eigenvectors of a diagonal matrix are basis vectors up to phase
    assert np.allclose(np.abs(eig.vectors), np.eye(3)[:, [1, 2, 0]])


def test_herm_eig_pauli_x_spectrum():
    eig = linalg.herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(eig.values, [-1.0, 1.0])


def test_herm_eig_reconstructs_random_hermitian():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (z + z.conj().T) / 2
    eig = linalg.herm_eig(h)
    rebuilt = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
    assert linalg.max_abs(rebuilt - h) < 1e-10
    assert linalg.max_abs(eig.vectors.conj().T @ eig.vectors - np.eye(6)) < 1e-12


@pytest.mark.parametrize("dim", [2, 8, 17, 64])
def test_herm_eig_residual_contract_up_to_dim_64(dim):
    rng = np.random.default_rng(dim)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (z + z.conj().T) / 2
    tol = 1e-10
    eig = linalg.herm_eig(h, tol)
    rebuilt = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
    assert linalg.max_abs(rebuilt - h) <= 10 * tol * linalg.max_abs(h)
    assert np.all(np.diff(eig.values) >= 0)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _bases(a) -> list[np.ndarray]:
    """The k bases of :func:`linalg.orthonormal_range`, each cut to its rank."""
    rank, vectors = linalg.orthonormal_range(a)
    assert rank.shape == (len(vectors),) and rank.dtype.kind == "i"
    return [v[:, :r] for v, r in zip(vectors, rank)]


def test_orthonormal_range_rank_one_projector():
    [cols] = _bases(np.diag([1.0, 0.0, 0.0]).astype(complex)[None])
    assert cols.shape == (3, 1)
    assert np.allclose(np.abs(cols[:, 0]), [1.0, 0.0, 0.0])


def test_orthonormal_range_zero_matrix():
    [cols] = _bases(np.zeros((1, 3, 3), dtype=complex))
    assert cols.shape == (3, 0)


def test_orthonormal_range_recovers_projector_subspace():
    rng = np.random.default_rng(11)
    u = linalg.haar_unitary(4, rng)
    proj = u @ np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex) @ u.conj().T
    [cols] = _bases(proj[None])
    assert cols.shape == (4, 2)
    # same subspace iff the two orthogonal projectors coincide
    ref = u[:, :2] @ u[:, :2].conj().T
    assert linalg.max_abs(cols @ cols.conj().T - ref) < 1e-12
    assert linalg.max_abs(cols.conj().T @ cols - np.eye(2)) < 1e-12


def test_max_abs_examples():
    assert linalg.max_abs(np.zeros((2, 2))) == 0.0
    assert linalg.max_abs(np.array([[3 + 4j]])) == 5.0
    assert linalg.max_abs(_unit(0, 1) - _unit(0, 1)) == 0.0


def test_haar_unitary_is_unitary_and_seeded():
    u1 = linalg.haar_unitary(5, np.random.default_rng(9))
    u2 = linalg.haar_unitary(5, np.random.default_rng(9))
    assert np.array_equal(u1, u2)
    assert linalg.max_abs(u1.conj().T @ u1 - np.eye(5)) < 1e-13


def test_dagger_keeps_the_stack_order():
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((3, 2, 4, 4)) + 1j * rng.standard_normal((3, 2, 4, 4))
    adj = linalg.dagger(stack)
    for i, j in np.ndindex(3, 2):
        assert np.array_equal(adj[i, j], stack[i, j].conj().T)


def test_herm_eig_on_a_stack_matches_each_matrix():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((3, 4, 5, 5)) + 1j * rng.standard_normal((3, 4, 5, 5))
    h = (z + linalg.dagger(z)) / 2
    eig = linalg.herm_eig(h)
    assert eig.values.shape == (3, 4, 5) and eig.vectors.shape == (3, 4, 5, 5)
    for i, j in np.ndindex(3, 4):
        single = linalg.herm_eig(h[i, j])
        assert linalg.max_abs(eig.values[i, j] - single.values) < 1e-12
        v = eig.vectors[i, j]
        assert linalg.max_abs(v @ np.diag(eig.values[i, j]) @ v.conj().T - h[i, j]) < 1e-12


def test_herm_eig_rejects_a_stack_with_one_non_hermitian_matrix():
    stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(NotHermitianError):
        linalg.herm_eig(stack)


def test_max_abs_over_axes_gives_one_value_per_matrix():
    stack = np.zeros((2, 3, 4, 4), dtype=complex)
    stack[1, 2, 0, 3] = 3 + 4j
    stack[0, 2, 1, 1] = -2.0
    assert np.array_equal(linalg.max_abs(stack, axis=(0, -2, -1)), [0.0, 0.0, 5.0])
    assert np.array_equal(linalg.max_abs(np.zeros((3, 0, 0)), axis=(-2, -1)), [0.0, 0.0, 0.0])


def test_orthonormal_range_of_a_stack_decides_each_rank_on_its_own():
    rng = np.random.default_rng(6)
    ranks = [0, 1, 3, 4]
    stack = []
    for r in ranks:
        z = rng.standard_normal((4, r)) + 1j * rng.standard_normal((4, r))
        stack.append(z @ z.conj().T)
    bases = _bases(np.stack(stack))
    assert [b.shape for b in bases] == [(4, r) for r in ranks]
    for m, basis in zip(stack, bases):
        assert linalg.max_abs(basis - _bases(m[None])[0]) == 0.0


def test_orthonormal_range_of_mixed_ranks_is_one_array_of_full_width():
    # the ranks differ, yet the bases come back as one (k, m, min(m, n)) stack
    a = np.zeros((3, 4, 3))
    a[1, 0, 0] = a[2, 1, 1] = a[2, 2, 2] = 1.0
    rank, vectors = linalg.orthonormal_range(a)
    assert rank.tolist() == [0, 1, 2] and vectors.shape == (3, 4, 3)
    for v in vectors:
        assert linalg.max_abs(v.T @ v - np.eye(3)) < 1e-15


@pytest.mark.parametrize("a", [np.zeros(3), np.zeros((2, 3))], ids=["1-d", "non-square"])
def test_herm_eig_rejects_an_array_that_is_not_square_matrices(a):
    message = f"eigendecomposition needs square matrices, got {a.shape}"
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        linalg.herm_eig(a)


def test_herm_eig_rejects_a_nan_entry():
    a = np.eye(3, dtype=complex)
    a[1, 2] = np.nan
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        linalg.herm_eig(a)


def test_orthonormal_range_rejects_a_single_matrix():
    with pytest.raises(DimensionError,
                       match=r"^expected a \(k, m, n\) stack of matrices, got shape \(2, 2\)$"):
        linalg.orthonormal_range(np.eye(2))


def test_orthonormal_range_rejects_an_inf_entry():
    a = np.zeros((2, 3, 3), dtype=complex)
    a[1, 0, 2] = np.inf
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        linalg.orthonormal_range(a)


@pytest.mark.parametrize("given, want", [
    (np.eye(2, dtype=int), float), (np.eye(2, dtype=bool), float),
    (np.eye(2, dtype=np.float32), float), ([[1, 2], [3, 4]], float),
    (np.eye(2, dtype=np.complex64), complex), ([[1j, 0], [0, 1]], complex),
    (np.eye(2, dtype=complex), complex)])  # complex with a zero imaginary part stays complex
def test_field_holds_complex_as_complex128_and_the_rest_as_float64(given, want):
    assert linalg.field(given).dtype == want
    assert np.array_equal(linalg.field(given), np.asarray(given))


def test_field_returns_an_array_of_its_dtype_as_it_is():
    for a in (np.eye(3), np.eye(3, dtype=complex)):
        assert linalg.field(a) is a


@pytest.mark.parametrize("dtype", [float, complex])
def test_herm_eig_and_orthonormal_range_keep_a_real_input_real(dtype):
    # a real input comes back float64; the same values held as complex128
    # come back complex128, and each side reconstructs its input
    z = np.random.default_rng(8).standard_normal((5, 5)).astype(dtype)
    eig = linalg.herm_eig(z + z.T)
    assert (eig.values.dtype, eig.vectors.dtype) == (np.dtype(float), np.dtype(dtype))
    assert linalg.max_abs(eig.vectors * eig.values @ eig.vectors.conj().T - (z + z.T)) <= 1e-12
    (basis,) = _bases(z[None, :, :3])
    assert basis.shape == (5, 3) and basis.dtype == dtype


def test_herm_eig_and_orthonormal_range_keep_the_imaginary_part_of_a_complex_input():
    u = linalg.haar_unitary(6, np.random.default_rng(9))
    h = u @ np.diag(np.arange(6.0)) @ u.conj().T
    eig = linalg.herm_eig(h)
    assert eig.vectors.dtype == complex and linalg.max_abs(eig.vectors.imag) > 0.1
    assert linalg.max_abs(eig.vectors * eig.values @ eig.vectors.conj().T - h) <= 1e-12
    (basis,) = _bases(u[None, :, :2])
    assert basis.dtype == complex
    assert linalg.max_abs(basis @ basis.conj().T - u[:, :2] @ u[:, :2].conj().T) <= 1e-12


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, None, "3", 2.5, True, 0, -1, 1j])
def test_check_order_rejects_every_non_positive_integer(p):
    with pytest.raises(OrderError):
        check_order(p)


def test_check_order_accepts_integral_values():
    assert check_order(3.0) == 3 and type(check_order(3.0)) is int
    assert check_order(np.int64(4)) == 4
    assert check_order(1) == 1
