"""Representations, the canonical irreducible one and its ladder operators.

:class:`OrthoRep` is the package's one representation type: the p
annihilators as one complex (p, n, n) stack, c[a - 1] being c_a.
:func:`canonical` returns one, and :func:`occupied`, :func:`lowering_from`
and :func:`cyclic_from` take such a stack, or a (p, ..., n, n) stack of
such families.

Every sum of quantum-transfer monomials the package forms,
sum_a c_a^dag c_{a+k}, is one call of :func:`transfer`, which multiplies
only on the rows that hold an entry: the row mask :func:`held_rows` reads
where the stack is made, which every kernel takes as ``held``. The vacuum
projector is unit - occupied(c) = unit - transfer(c, 0), and the lowering
operator and the closed forms of its powers below add c_k to
transfer(c, k). :func:`conjugate` forms V^dag c_a V on the same rows. These
public kernels read the mask themselves when their caller passes none.

On the (p+1)-dimensional Fock space with kets |0>, |1>, .., |p> (ket n is
matrix row/column n+1), the annihilators act as the matrix units

    c_a = E_{1, a+1}

so c_a |a> = |0> and c_a kills every other ket. The lowering operator

    L = c_1 + sum_{a=2..p} c_{a-1}^dag c_a

steps |n> -> |n-1> and kills |0>; adding the wrap-around creator gives the
cyclic lowering operator F = L + c_p^dag with F^{p+1} = 1. Every identity
in :func:`ladder_identity_residuals` holds exactly because all matrices
involved have 0/1 integer entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, check_order, rho0
from .errors import DimensionError
from .linalg import dagger, max_abs


@dataclass(frozen=True)
class OrthoRep:
    """Candidate representation: its p annihilators as one (p, n, n) stack.

    ``c`` may be given as any array of that shape or a list of p n x n
    matrices; it is stored as complex128, and the order ``p`` and the
    dimension ``dim`` are read off its shape. Raises :class:`OrderError`
    for p = 0, :class:`DimensionError` for any other shape, matrices of
    unequal shapes or n = 0, and ValueError for a non-finite entry.
    """

    c: np.ndarray

    def __post_init__(self):
        try:
            c = np.asarray(self.c, dtype=complex)
        except ValueError as exc:
            raise DimensionError(f"annihilators must be matrices of one shape: {exc}") from exc
        if c.ndim:
            check_order(len(c))
        if c.ndim != 3 or c.shape[1] != c.shape[2] or not c.shape[1]:
            raise DimensionError(f"expected a (p, n, n) stack of annihilators with n >= 1, "
                                 f"got shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("matrix contains non-finite entries")
        object.__setattr__(self, "c", c)

    @property
    def p(self) -> int:
        return self.c.shape[0]

    @property
    def dim(self) -> int:
        return self.c.shape[1]


def canonical(p: int) -> OrthoRep:
    """The canonical representation: c_a is its :func:`~orthofermi.algebra.rho0`
    image, the matrix unit E_{1,a+1}."""
    p = check_order(p)
    # stacked before the constructor runs, so the p matrices are freed before its checks
    return OrthoRep(np.stack([rho0(AlgebraElement.annihilator(p, a)) for a in range(1, p + 1)]))


def held_rows(c) -> np.ndarray:
    """Mask of the rows that hold a nonzero entry (NaN included) in some
    matrix of a (..., n, n) stack; the stack axes are reduced first, as
    one pass over whole matrices."""
    return c.any(axis=tuple(range(c.ndim - 2))).any(axis=-1)


def as_index(mask: np.ndarray):
    """The positions of ``mask`` as an index; a slice when it keeps all, so
    that indexing with it copies nothing."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def conjugate(c, v, held=None) -> np.ndarray:
    """V^dag c_a V for a (..., n, n) stack ``c`` and unitaries ``v`` that
    broadcast against it, on the rows R that hold an entry of ``c``:
    ``held``, the mask :func:`held_rows` reads, as the caller carries it
    (read here when None).

    A stack whose every row holds an entry forms the dense (V^dag c_a) V,
    so that its values, which reports print, stay those of the dense
    products bitwise; otherwise c_a vanishes off R, and
    V^dag[:, R] (c_a[R, :] V) forms the same matrix up to summation order
    with one full-size product in place of two.
    """
    held = held_rows(c) if held is None else held
    if held.all():
        return (dagger(v) @ c) @ v
    rows = np.flatnonzero(held)
    return dagger(v[..., rows, :]) @ (c[..., rows, :] @ v)


def transfer(c, k: int, held=None) -> np.ndarray:
    """sum_{a=1..p-k} c_a^dag c_{a+k} over a (p, ..., n, n) stack of annihilators.

    Each c_a = c[a - 1] may itself be a stack of shape (..., n, n), one
    matrix per stack position, and so is the result; for
    k >= p the sum is empty and the result exact zeros. Only the rows R
    that hold an entry in some c_a enter, given by ``held``, the mask
    :func:`held_rows` reads, as the caller carries it (read here when
    None); it must be exactly that mask, as it sets the groups: the c_a are
    stacked on R in groups of n // |R|, so each group costs one product of
    at most n rows, and the groups are summed in order of a, starting from
    zero. A stack whose every row holds an entry takes groups of one, so
    its sum is that of the dense products, one c_a at a time.
    """
    c = np.asarray(c)
    p, *lead, _, n = c.shape
    held = held_rows(c) if held is None else held
    r = np.count_nonzero(held)
    size = n // max(r, 1)
    # (..., p, |R|, n): the c_a on the held rows, their index next to the rows
    stacked = c[..., as_index(held), :].transpose(*range(1, c.ndim - 2), 0, -2, -1)
    out = np.zeros((*lead, n, n), dtype=c.dtype)
    for a in range(0, p - k if r else 0, size):
        span = min(size, p - k - a)
        lhs, rhs = (stacked[..., b:b + span, :, :].reshape(*lead, span * r, n) for b in (a, a + k))
        out += dagger(lhs) @ rhs
    return out


def occupied(c, held=None) -> np.ndarray:
    """sum_g c_g^dag c_g over a (p, ..., n, n) stack of annihilators: transfer(c, 0, held).

    Like :func:`lowering_from` and :func:`cyclic_from`, it acts on the last
    two axes: each c_g = c[g - 1] may itself be a stack of shape (..., n, n),
    one matrix per stack position. ``held`` is as in :func:`transfer`.
    """
    return transfer(c, 0, held)


def lowering_from(c, held=None) -> np.ndarray:
    """L = c_1 + sum_{a=2..p} c_{a-1}^dag c_a built from a stack of annihilators."""
    return c[0] + transfer(c, 1, held)


def cyclic_from(c: np.ndarray, held=None) -> np.ndarray:
    """F = L + c_p^dag built from a stack of annihilators."""
    return lowering_from(c, held) + dagger(c[-1])


def ladder_operators(p: int) -> tuple[OrthoRep, np.ndarray, np.ndarray]:
    """The canonical representation, its lowering operator L (kills |0>) and
    its cyclic lowering operator F = L + c_p^dag (a (p+1)-cycle permutation
    matrix), each built once."""
    rep = canonical(p)
    L = lowering_from(rep.c)
    return rep, L, L + dagger(rep.c[-1])


def ladder_identity_residuals(rep: OrthoRep, L: np.ndarray, F: np.ndarray) -> dict[str, float]:
    """Residuals of the ladder-operator identity catalog on the canonical rep.

    ``rep``, ``L`` and ``F`` are what :func:`ladder_operators` returns, so a
    caller that also needs L and F builds them once. Every entry is
    max_abs(LHS - RHS) and equals 0.0 exactly. Conventions that make the
    catalog uniform down to p = 1: c_0 means Pi and L^0 means the identity.
    The sandwich identity L^{p-k} L^dag L^k = L^{p-1} is listed for k in
    1..p-1; at k = p the product instead equals L^{p-1} - c_{p-1}, which is
    covered by its own entry.

    The closed form of L^k, c_k + sum_a c_a^dag c_{a+k}, is c_k plus one
    :func:`transfer` on the rows that hold an entry, read once per call: one
    row for the canonical rep, so every temporary is O(n^2).
    """
    p = rep.p
    eye = np.eye(p + 1, dtype=complex)
    c = rep.c
    rows = held_rows(c)
    pi = eye - occupied(c, rows)
    Ld = L.conj().T
    Lk = [eye]  # Lk[k] = L^k for k in 0..p+2
    for _ in range(p + 2):
        Lk.append(Lk[-1] @ L)

    def c_or_pi(k: int) -> np.ndarray:
        # c_0 denotes the vacuum projector; closes the identities at p = 1
        return pi if k == 0 else c[k - 1]

    res: dict[str, float] = {}
    res["Ldag L = 1 - Pi"] = max_abs(Ld @ L - (eye - pi))
    res["L Ldag = 1 - c_p^dag c_p"] = max_abs(L @ Ld - (eye - c[p - 1].conj().T @ c[p - 1]))

    for k in range(1, p + 3):
        closed = transfer(c, k, rows) + (c[k - 1] if k <= p else 0)
        res[f"L^{k} closed form"] = max_abs(Lk[k] - closed)

    # ssum collects the sandwiches L^{p-k} Ldag L^k of the sum rule, k = 0 and p first
    ssum = Lk[p] @ Ld
    res["L^p Ldag = c_{p-1}"] = max_abs(ssum - c_or_pi(p - 1))
    sandwich = Ld @ Lk[p]
    res["Ldag L^p = L^{p-1} - c_{p-1}"] = max_abs(sandwich - (Lk[p - 1] - c_or_pi(p - 1)))
    ssum += sandwich

    for k in range(1, p + 1):
        res[f"L^{k} Pi = 0"] = max_abs(Lk[k] @ pi)
        res[f"Pi L^{k} = c_{k}"] = max_abs(pi @ Lk[k] - c[k - 1])

    for k in range(1, p):
        sandwich = Lk[p - k] @ Ld @ Lk[k]
        res[f"L^{p - k} Ldag L^{k} = L^{p-1}"] = max_abs(sandwich - Lk[p - 1])
        ssum += sandwich

    res["L^{p+1} = 0"] = max_abs(Lk[p + 1])
    res["sum_k L^{p-k} Ldag L^k = p L^{p-1}"] = max_abs(ssum - p * Lk[p - 1])
    res["F^{p+1} = 1"] = max_abs(np.linalg.matrix_power(F, p + 1) - eye)
    return res
