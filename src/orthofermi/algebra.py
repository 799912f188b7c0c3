"""The abstract orthofermion algebra of order p.

An orthofermion species of order p has annihilators c_1 .. c_p subject to

    c_a c_b = 0
    c_a c_b^dag + delta_ab * sum_g c_g^dag c_g = delta_ab * 1

With the vacuum projector Pi := 1 - sum_g c_g^dag c_g these relations close
on the (p+1)^2 monomials {Pi, c_a, c_a^dag, c_a^dag c_b}, so a general
element is a coefficient vector

    x = lam * Pi + sum_a (nu_a c_a + mu_a c_a^dag) + sum_ab sigma_ab c_a^dag c_b.

An element is held as its coefficient square of side p+1,

    [[lam, nu^T],
     [mu,  sigma]],

the monomials being the matrix units Pi = E_11, c_a = E_{1,a+1},
c_a^dag = E_{a+1,1} and c_a^dag c_b = E_{a+1,b+1}. The structure constants
of the monomials are those of the matrix units, so the product of two
elements is the matrix product of their squares and the * operation is the
conjugate transpose: the square is the faithful *-isomorphism :func:`rho0`
onto the full (p+1)x(p+1) matrix algebra.

Validation happens once, in the public constructor
``AlgebraElement(p, lam, nu, mu, sigma)``: it checks the order, converts
the coefficients, refusing text, None and any other value that is no
number, and checks the shapes. The square follows the package's
one dtype rule, :func:`~orthofermi.linalg.field`: it is complex128 when
some coefficient given has a complex dtype and float64 otherwise, so the
monomials, whose coefficients are 0 and 1, are real, like their images
in :func:`~orthofermi.canonical.canonical`. The results of arithmetic on
elements (products, adjoints, sums, differences and scalar multiples) wrap
the fresh square of one array operation, in its operands' common dtype,
and skip that step; no result shares an array with an operand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderError
from .linalg import check_addressable, dagger, field, is_count


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


@dataclass(frozen=True, eq=False, init=False)
class AlgebraElement:
    """An orthofermion-algebra element of order p, held as its coefficient square.

    ``lam`` multiplies the vacuum projector Pi, ``nu[a]`` the annihilator
    c_{a+1}, ``mu[a]`` the creator c_{a+1}^dag and ``sigma[a, b]`` the
    quantum-transfer monomial c_{a+1}^dag c_{b+1}. ``square`` is the
    (p+1, p+1) array [[lam, nu^T], [mu, sigma]]; ``p`` is read off its
    shape, ``lam`` reads as a complex number and ``nu``, ``mu``, ``sigma``
    as views of shapes (p,), (p,), (p, p) into it.

    The constructor validates: it checks ``p`` with :func:`check_order`,
    converts ``lam`` to a number and ``nu``, ``mu``, ``sigma`` to arrays of
    shapes (p,), (p,), (p, p), zeros when omitted, and raises
    :class:`OrderError` on a wrong shape. Text, even ``"1"``, raises
    ValueError, and an array of no number's dtype, such as ``[None]``,
    TypeError. The square is complex128 when the
    dtype of some coefficient given is complex, as ``1+0j``'s is, and
    float64 otherwise; only dtypes are read, never values. Arithmetic
    results are built by :func:`_element` without repeating those checks.
    """

    square: np.ndarray

    def __init__(self, p: int, lam: complex = 0.0, nu=None, mu=None, sigma=None):
        n, lam = check_order(p) + 1, _number(lam)
        given = {name: _coefficients(value)
                 for name, value in (("nu", nu), ("mu", mu), ("sigma", sigma)) if value is not None}
        square = np.zeros((n, n), dtype=np.result_type(lam, *given.values()))
        square[0, 0] = lam
        object.__setattr__(self, "square", square)
        for name, arr in given.items():
            view = getattr(self, name)
            if arr.shape != view.shape:
                raise OrderError(f"{name} must have shape {view.shape}, got {arr.shape}")
            view[...] = arr

    @property
    def p(self) -> int:
        return len(self.square) - 1

    @property
    def lam(self) -> complex:
        return complex(self.square[0, 0])

    @property
    def nu(self) -> np.ndarray:
        return self.square[0, 1:]

    @property
    def mu(self) -> np.ndarray:
        return self.square[1:, 0]

    @property
    def sigma(self) -> np.ndarray:
        return self.square[1:, 1:]

    # -- constructors for the monomial basis --------------------------------

    @classmethod
    def zero(cls, p: int) -> "AlgebraElement":
        return cls(p)

    @classmethod
    def vacuum(cls, p: int) -> "AlgebraElement":
        """The vacuum projector Pi."""
        return cls(p, lam=1.0)

    @classmethod
    def annihilator(cls, p: int, a: int) -> "AlgebraElement":
        """c_a for a in 1..p."""
        x = cls(p)
        x.nu[a - 1] = 1.0
        return x

    @classmethod
    def creator(cls, p: int, a: int) -> "AlgebraElement":
        """c_a^dag for a in 1..p."""
        x = cls(p)
        x.mu[a - 1] = 1.0
        return x

    @classmethod
    def transfer(cls, p: int, a: int, b: int) -> "AlgebraElement":
        """c_a^dag c_b, moving one quantum from slot b to slot a."""
        x = cls(p)
        x.sigma[a - 1, b - 1] = 1.0
        return x

    @classmethod
    def one(cls, p: int) -> "AlgebraElement":
        """The unit, expanded as Pi + sum_a c_a^dag c_a."""
        return _element(np.eye(check_order(p) + 1))

    # -- arithmetic ----------------------------------------------------------

    def _same_order(self, other: "AlgebraElement") -> None:
        if self.square.shape != other.square.shape:
            raise OrderError(f"mixed orders p={self.p} and p={other.p}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._same_order(other)
        return _element(self.square + other.square)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._same_order(other)
        return _element(self.square - other.square)

    def __rmul__(self, scalar: complex) -> "AlgebraElement":
        return _element(_number(scalar) * self.square)

    def __mul__(self, other) -> "AlgebraElement":
        """The algebra product with an element; with a scalar, the same
        multiple as ``scalar * self``."""
        if isinstance(other, AlgebraElement):
            return alg_mul(self, other)
        return self.__rmul__(other)

    def adjoint(self) -> "AlgebraElement":
        return alg_adjoint(self)


def _number(value) -> complex | float:
    """``value`` as a Python float when its dtype is real (bool, integer or
    float) and as a complex otherwise, so that a real scalar leaves a real
    square real. Text, which ``complex`` would parse, is refused with
    ValueError, and ``complex(value)`` refuses any other value that is no
    number, with its TypeError or ValueError."""
    kind = np.asarray(value).dtype.kind
    if kind in "SU":
        raise ValueError(f"not a number: {value!r}")
    number = complex(value)
    return number.real if kind in "biuf" else number


def _coefficients(value) -> np.ndarray:
    """``value`` as an array of :func:`~orthofermi.linalg.field`'s dtype,
    refusing one whose dtype is no number's (bool, integer, float or
    complex): ValueError for text, as ``complex`` refuses it, and TypeError
    for anything else, such as None, which numpy would read as NaN."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biufc":
        raise (ValueError if arr.dtype.kind in "SU" else TypeError)(f"not numbers: {value!r}")
    return field(arr)


def _element(square: np.ndarray) -> AlgebraElement:
    """An element from a fresh (p+1, p+1) square of :func:`~orthofermi.linalg.field`'s
    dtype, p >= 1, unchecked."""
    x = object.__new__(AlgebraElement)
    object.__setattr__(x, "square", square)
    return x


def alg_mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product in the orthofermion algebra: the matrix product of the squares."""
    x._same_order(y)
    return _element(x.square @ y.square)


def alg_adjoint(x: AlgebraElement) -> AlgebraElement:
    """The * operation: the conjugate transpose of the square."""
    return _element(dagger(x.square))


def rho0(x: AlgebraElement) -> np.ndarray:
    """Canonical matrix image of ``x`` on the (p+1)-dimensional Fock space.

    Pi -> E_11, c_a -> E_{1,a+1}, c_a^dag -> E_{a+1,1},
    c_a^dag c_b -> E_{a+1,b+1}; extended linearly. Exact in the coefficients.
    Every call returns a new array.
    """
    return x.square.copy()


def basis(p: int) -> list[AlgebraElement]:
    """All (p+1)^2 monomials: Pi, the c_a, the c_a^dag, then the c_a^dag c_b."""
    p = check_order(p)
    out = [AlgebraElement.vacuum(p)]
    out += [AlgebraElement.annihilator(p, a) for a in range(1, p + 1)]
    out += [AlgebraElement.creator(p, a) for a in range(1, p + 1)]
    out += [AlgebraElement.transfer(p, a, b)
            for a in range(1, p + 1) for b in range(1, p + 1)]
    return out
