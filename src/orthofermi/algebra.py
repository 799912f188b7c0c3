"""The orthofermion algebra of order p as its matrix image.

The canonical representation is faithful, so the algebra generated by
c_1 .. c_p is the full (p+1) x (p+1) matrix algebra: with the vacuum
projector Pi := 1 - sum_g c_g^dag c_g, its (p+1)^2 monomials
{Pi, c_a, c_a^dag, c_a^dag c_b} map to the matrix units

    Pi = E_11, c_a = E_{1,a+1}, c_a^dag = E_{a+1,1}, c_a^dag c_b = E_{a+1,b+1}.

An :class:`AlgebraElement` is held as that image, ``square``, so the
product is the matrix product and :func:`rho0` is a copy. The tests check
this against products of the monomials taken from the defining relations
alone and against the matrices that :func:`~orthofermi.canonical.canonical`
builds. No module of the package imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderError
from .linalg import check_order


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An algebra element of order p, held as its (p+1, p+1) matrix image."""

    square: np.ndarray

    def __mul__(self, other) -> AlgebraElement:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return alg_mul(self, other)


def alg_mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product in the orthofermion algebra: the matrix product of the squares."""
    if x.square.shape != y.square.shape:
        raise OrderError(f"mixed orders p={len(x.square) - 1} and p={len(y.square) - 1}")
    return AlgebraElement(x.square @ y.square)


def rho0(x: AlgebraElement) -> np.ndarray:
    """Canonical matrix image of ``x``: a new array on every call."""
    return x.square.copy()


def basis(p: int) -> list[AlgebraElement]:
    """All (p+1)^2 monomials as float64 matrix units: Pi, the c_a, the
    c_a^dag, then the c_a^dag c_b, a and b in 1..p."""
    n = check_order(p) + 1
    unit = np.arange(n * n).reshape(n, n)  # unit[i, j]: row of E_{i+1,j+1} in eye(n^2)
    order = np.concatenate(([0], unit[0, 1:], unit[1:, 0], unit[1:, 1:].ravel()))
    return [AlgebraElement(square) for square in np.eye(n * n)[order].reshape(-1, n, n)]
