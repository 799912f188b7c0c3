"""The abstract orthofermion algebra of order p.

An orthofermion species of order p has annihilators c_1 .. c_p subject to

    c_a c_b = 0
    c_a c_b^dag + delta_ab * sum_g c_g^dag c_g = delta_ab * 1

With the vacuum projector Pi := 1 - sum_g c_g^dag c_g these relations close
on the (p+1)^2 monomials {Pi, c_a, c_a^dag, c_a^dag c_b}, so a general
element is a coefficient vector

    x = lam * Pi + sum_a (nu_a c_a + mu_a c_a^dag) + sum_ab sigma_ab c_a^dag c_b.

Products expand through the structure constants of those monomials, which
coincide with the block rule

    [[lam, nu^T], [mu, sigma]] . [[lam', nu'^T], [mu', sigma']]

i.e. the coefficient square of side p+1 multiplies like a matrix. The map
:func:`rho0` sends the monomials to the matrix units of that square and is a
faithful *-isomorphism onto the full (p+1)x(p+1) matrix algebra.

Validation happens once, in the public constructor
``AlgebraElement(p, lam, nu, mu, sigma)``: it checks the order, converts
every coefficient to complex and checks the shapes. The results of
arithmetic on elements (products, adjoints, sums, differences and scalar
multiples) are built from fresh complex arrays of the right shapes and skip
that step; no result shares an array with an operand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OrderError
from .linalg import check_addressable, is_count


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


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Coefficient vector of an orthofermion-algebra element of order p.

    ``lam`` multiplies the vacuum projector Pi, ``nu[a]`` the annihilator
    c_{a+1}, ``mu[a]`` the creator c_{a+1}^dag and ``sigma[a, b]`` the
    quantum-transfer monomial c_{a+1}^dag c_{b+1}.

    The constructor validates: it checks ``p`` with :func:`check_order`,
    stores ``lam`` as a complex number and ``nu``, ``mu``, ``sigma`` as
    complex copies of shapes (p,), (p,), (p, p), zeros when omitted, and
    raises :class:`OrderError` on a wrong shape. Arithmetic results are
    built by :func:`_element` without repeating those checks.
    """

    p: int
    lam: complex = 0.0
    nu: np.ndarray = field(default=None)
    mu: np.ndarray = field(default=None)
    sigma: np.ndarray = field(default=None)

    def __post_init__(self):
        p = check_order(self.p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lam", complex(self.lam))
        for name, shape in (("nu", (p,)), ("mu", (p,)), ("sigma", (p, p))):
            value = getattr(self, name)
            arr = np.zeros(shape, dtype=complex) if value is None else np.array(value, dtype=complex)
            if arr.shape != shape:
                raise OrderError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)

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
        return cls(p, lam=1.0, sigma=np.eye(p, dtype=complex))

    # -- arithmetic ----------------------------------------------------------

    def _same_order(self, other: "AlgebraElement") -> None:
        if self.p != other.p:
            raise OrderError(f"mixed orders p={self.p} and p={other.p}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._same_order(other)
        return _element(self.p, self.lam + other.lam, self.nu + other.nu,
                        self.mu + other.mu, self.sigma + other.sigma)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._same_order(other)
        return _element(self.p, self.lam - other.lam, self.nu - other.nu,
                        self.mu - other.mu, self.sigma - other.sigma)

    def __rmul__(self, scalar: complex) -> "AlgebraElement":
        s = complex(scalar)
        return _element(self.p, s * self.lam, s * self.nu, s * self.mu, s * self.sigma)

    def __mul__(self, other) -> "AlgebraElement":
        """The algebra product with an element; with a scalar, the same
        multiple as ``scalar * self``."""
        if isinstance(other, AlgebraElement):
            return alg_mul(self, other)
        return self.__rmul__(other)

    def adjoint(self) -> "AlgebraElement":
        return alg_adjoint(self)


def _element(p: int, lam: complex, nu: np.ndarray, mu: np.ndarray,
             sigma: np.ndarray) -> AlgebraElement:
    """An element from coefficients that are already valid, unchecked.

    The caller guarantees a positive int ``p``, a complex ``lam`` and fresh
    complex arrays of shapes (p,), (p,), (p, p); the constructor's checks
    and copies are skipped.
    """
    x = object.__new__(AlgebraElement)
    x.__dict__.update(p=p, lam=lam, nu=nu, mu=mu, sigma=sigma)
    return x


def alg_mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product in the orthofermion algebra, expanded on the monomial basis.

    The structure constants collapse to four coefficient formulas:

        lam''   = lam lam' + nu . mu'
        nu''    = lam nu' + sigma'^T nu
        mu''    = lam' mu + sigma mu'
        sigma'' = outer(mu, nu') + sigma sigma'
    """
    x._same_order(y)
    return _element(x.p,
                    x.lam * y.lam + complex(x.nu.dot(y.mu)),
                    x.lam * y.nu + x.nu.dot(y.sigma),
                    y.lam * x.mu + x.sigma.dot(y.mu),
                    np.multiply.outer(x.mu, y.nu) + x.sigma.dot(y.sigma))


def alg_adjoint(x: AlgebraElement) -> AlgebraElement:
    """The * operation: Pi is fixed, nu and mu swap, sigma conjugate-transposes."""
    return _element(x.p, x.lam.conjugate(), x.mu.conj(), x.nu.conj(), x.sigma.conj().T)


def rho0(x: AlgebraElement) -> np.ndarray:
    """Canonical matrix image of ``x`` on the (p+1)-dimensional Fock space.

    Pi -> E_11, c_a -> E_{1,a+1}, c_a^dag -> E_{a+1,1},
    c_a^dag c_b -> E_{a+1,b+1}; extended linearly. Exact in the coefficients.
    Every call returns a new array.
    """
    m = np.empty((x.p + 1, x.p + 1), dtype=complex)
    m[0, 0] = x.lam
    m[0, 1:] = x.nu
    m[1:, 0] = x.mu
    m[1:, 1:] = x.sigma
    return m


def basis(p: int) -> list[AlgebraElement]:
    """All (p+1)^2 monomials: Pi, the c_a, the c_a^dag, then the c_a^dag c_b."""
    p = check_order(p)
    out = [AlgebraElement.vacuum(p)]
    out += [AlgebraElement.annihilator(p, a) for a in range(1, p + 1)]
    out += [AlgebraElement.creator(p, a) for a in range(1, p + 1)]
    out += [AlgebraElement.transfer(p, a, b)
            for a in range(1, p + 1) for b in range(1, p + 1)]
    return out
