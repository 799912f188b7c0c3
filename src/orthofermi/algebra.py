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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OrderError


def check_order(p: int) -> int:
    """The orthofermion order ``p`` as an int; bools and non-positive values raise."""
    if isinstance(p, bool) or int(p) != p or p < 1:
        raise OrderError(f"order p must be a positive integer, got {p!r}")
    return int(p)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Coefficient vector of an orthofermion-algebra element of order p.

    ``lam`` multiplies the vacuum projector Pi, ``nu[a]`` the annihilator
    c_{a+1}, ``mu[a]`` the creator c_{a+1}^dag and ``sigma[a, b]`` the
    quantum-transfer monomial c_{a+1}^dag c_{b+1}.
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
        self._same_order(other)
        return AlgebraElement(self.p, self.lam + other.lam, self.nu + other.nu,
                              self.mu + other.mu, self.sigma + other.sigma)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_order(other)
        return AlgebraElement(self.p, self.lam - other.lam, self.nu - other.nu,
                              self.mu - other.mu, self.sigma - other.sigma)

    def __rmul__(self, scalar: complex) -> "AlgebraElement":
        s = complex(scalar)
        return AlgebraElement(self.p, s * self.lam, s * self.nu, s * self.mu, s * self.sigma)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return alg_mul(self, other)

    def adjoint(self) -> "AlgebraElement":
        return alg_adjoint(self)


def alg_mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product in the orthofermion algebra, expanded on the monomial basis.

    The structure constants collapse to four coefficient formulas:

        lam''   = lam lam' + nu . mu'
        nu''    = lam nu' + sigma'^T nu
        mu''    = lam' mu + sigma mu'
        sigma'' = outer(mu, nu') + sigma sigma'
    """
    x._same_order(y)
    return AlgebraElement(
        x.p,
        lam=x.lam * y.lam + x.nu @ y.mu,
        nu=x.lam * y.nu + y.sigma.T @ x.nu,
        mu=y.lam * x.mu + x.sigma @ y.mu,
        sigma=np.outer(x.mu, y.nu) + x.sigma @ y.sigma,
    )


def alg_adjoint(x: AlgebraElement) -> AlgebraElement:
    """The * operation: Pi is fixed, nu and mu swap, sigma conjugate-transposes."""
    return AlgebraElement(x.p, np.conj(x.lam), np.conj(x.mu), np.conj(x.nu),
                          np.conj(x.sigma).T)


def rho0(x: AlgebraElement) -> np.ndarray:
    """Canonical matrix image of ``x`` on the (p+1)-dimensional Fock space.

    Pi -> E_11, c_a -> E_{1,a+1}, c_a^dag -> E_{a+1,1},
    c_a^dag c_b -> E_{a+1,b+1}; extended linearly. Exact in the coefficients.
    """
    m = np.zeros((x.p + 1, x.p + 1), dtype=complex)
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
