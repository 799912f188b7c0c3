"""Verification and decomposition of orthofermion representations.

Any family of matrices satisfying the orthofermion relations on an
inner-product space splits, after a unitary change of basis, into copies of
the canonical (p+1)-dimensional representation plus a block on which every
generator acts as zero. :func:`decompose` makes that split constructive:

  1. infer the representative R of the algebra unit from the relations,
  2. take the vacuum projector P = R - sum c^dag c; its range fixes one
     vacuum vector e_i per canonical copy,
  3. grow each copy as (e_i, c_1^dag e_i, .., c_p^dag e_i); the relations
     force these m(p+1) vectors to be orthonormal,
  4. everything orthogonal to them is annihilated by all generators,
  5. stack the vectors into the block-diagonalizing unitary U.

All decisions are residual based; nothing here assumes exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import OrthoRep, canonical, occupied, pi_of
from .errors import DimensionError, NotARepresentationError, NumericalDegeneracyError
from .linalg import (DEFAULT_RANK_TOL, DEFAULT_TOL, as_matrix, dagger, haar_unitary, max_abs,
                     orthonormal_range)


@dataclass(frozen=True)
class Decomposition:
    """Result of splitting a representation into canonical copies.

    ``basis`` is the dim x dim unitary U with
    U^dag c_a U = blockdiag(canonical c_a, repeated ``multiplicity`` times,
    then a zero block of size ``trivial_dim``).
    """

    multiplicity: int
    trivial_dim: int
    basis: np.ndarray
    residuals: dict[str, float]


def infer_unit(rep: OrthoRep, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Representative of the algebra unit, solved from the relations.

    R := c_1 c_1^dag + sum_g c_g^dag c_g. The same R must arise from every
    annihilator index, and R must act as a two-sided unit on the generators;
    both are checked within ``tol``. A representation with all generators
    zero legitimately yields R = 0.
    """
    occ = occupied(rep.c)
    unit = rep.c[0] @ rep.c[0].conj().T + occ
    for a in range(1, rep.p):
        other = rep.c[a] @ rep.c[a].conj().T + occ
        defect = max_abs(other - unit)
        if defect > tol:
            raise NotARepresentationError(
                f"unit candidates from indices 1 and {a + 1} disagree by {defect:.3e}")
    for a, m in enumerate(rep.c):
        defect = max(max_abs(unit @ m - m), max_abs(m @ unit - m))
        if defect > tol:
            raise NotARepresentationError(
                f"inferred unit fails the unit law on c_{a + 1} by {defect:.3e}")
    return unit


def relation_residuals(c, unit: np.ndarray) -> tuple[float, float]:
    """Worst defects of the two defining relations over all index pairs.

    Returns max_abs(c_a c_b) and max_abs(c_a c_b^dag + delta_ab (occ - unit)),
    where occ = sum_g c_g^dag c_g and ``unit`` represents 1. ``c`` holds p
    matrices, or p stacks of shape (..., n, n) with ``unit`` broadcasting
    against each; every c_a multiplies all c_b in one broadcast product.
    """
    c = np.asarray(c)
    c_dag = dagger(c)
    excess = occupied(c) - unit
    nilpotent = mixed = 0.0
    for a in range(len(c)):
        nilpotent = max(nilpotent, max_abs(c[a] @ c))
        products = c[a] @ c_dag
        products[a] += excess
        mixed = max(mixed, max_abs(products))
    return nilpotent, mixed


def verify(rep: OrthoRep, unit: np.ndarray | None = None, tol: float = DEFAULT_TOL) -> dict[str, float]:
    """Residuals of the orthofermion relations for the given matrices.

    ``unit`` is the matrix representing 1; when omitted it is inferred via
    :func:`infer_unit`. Keys cover the two defining relations plus the
    derived vacuum-projector properties; each value is the worst
    max_abs defect over all index combinations.
    """
    if unit is None:
        unit = infer_unit(rep, tol)
    unit = as_matrix(unit)
    pi = pi_of(rep, unit)  # also checks the shape of unit
    c = np.stack(rep.c)
    c_dag = dagger(c)
    res: dict[str, float] = {}
    res["c_a c_b = 0"], res["c_a c_b^dag + d_ab sum c^dag c = d_ab 1"] = relation_residuals(c, unit)
    res["Pi^2 = Pi"] = max_abs(pi @ pi - pi)
    res["Pi^dag = Pi"] = max_abs(dagger(pi) - pi)
    res["Pi c_a = c_a"] = max_abs(pi @ c - c)
    res["c_a^dag Pi = c_a^dag"] = max_abs(c_dag @ pi - c_dag)
    res["c_a Pi = 0"] = max_abs(c @ pi)
    res["Pi c_a^dag = 0"] = max_abs(pi @ c_dag)
    return res


def _expected_blocks(p: int, multiplicity: int, trivial_dim: int) -> list[np.ndarray]:
    """Target block-diagonal annihilators for a decomposed representation."""
    n = multiplicity * (p + 1) + trivial_dim
    model = canonical(p)
    out = []
    for a in range(p):
        m = np.zeros((n, n), dtype=complex)
        for i in range(multiplicity):
            lo = i * (p + 1)
            m[lo:lo + p + 1, lo:lo + p + 1] = model.c[a]
        out.append(m)
    return out


def decompose(rep: OrthoRep, tol: float = DEFAULT_TOL,
              rank_tol: float = DEFAULT_RANK_TOL) -> Decomposition:
    """Split ``rep`` into canonical copies plus a trivial block.

    Requires :func:`verify` to pass within ``tol`` for the inferred unit.
    Numerical rank decisions use ``rank_tol`` (relative). Raises
    :class:`NumericalDegeneracyError` when the grown family of copy vectors
    is not orthonormal within ``tol``, which signals an input sitting too
    close to the rank threshold to classify.
    """
    unit = infer_unit(rep, tol)
    relations = verify(rep, unit, tol)
    worst = max(relations.values())
    if worst > tol:
        raise NotARepresentationError(f"relations fail with residual {worst:.3e} > tol {tol:.3e}")

    n = rep.dim
    pi = pi_of(rep, unit)
    # a projector that is zero within tol has no range; the relative rank
    # threshold alone would otherwise promote roundoff noise to basis vectors
    vacua = orthonormal_range(pi, rank_tol) if max_abs(pi) > tol \
        else np.zeros((n, 0), dtype=complex)
    m = vacua.shape[1]

    if m == 0:
        stray = max(max_abs(mat) for mat in rep.c)
        if stray > tol:
            raise NotARepresentationError(
                f"vacuum projector vanishes but generators have norm {stray:.3e}")
        residuals = {"unitarity": 0.0, "block": stray, "gram": 0.0,
                     "complement annihilation": stray}
        return Decomposition(0, n, np.eye(n, dtype=complex), residuals)

    columns = []
    for i in range(m):
        e = vacua[:, i]
        columns.append(e)
        for mat in rep.c:
            columns.append(mat.conj().T @ e)
    family = np.column_stack(columns)

    gram_defect = max_abs(family.conj().T @ family - np.eye(m * (rep.p + 1)))
    if gram_defect > tol:
        raise NumericalDegeneracyError(
            f"copy vectors fail orthonormality with Gram defect {gram_defect:.3e}")

    residual_proj = np.eye(n) - family @ family.conj().T
    complement = orthonormal_range(residual_proj, rank_tol) if max_abs(residual_proj) > tol \
        else np.zeros((n, 0), dtype=complex)
    t = complement.shape[1]
    if m * (rep.p + 1) + t != n:
        raise NumericalDegeneracyError(
            f"dimension bookkeeping failed: {m} copies of {rep.p + 1} plus {t} != {n}")
    annihilation = 0.0
    if t:
        annihilation = max(
            max(max_abs(mat @ complement), max_abs(mat.conj().T @ complement))
            for mat in rep.c)
        if annihilation > tol:
            raise NotARepresentationError(
                f"complement of the copies is not annihilated, residual {annihilation:.3e}")

    basis = np.hstack([family, complement])
    expected = _expected_blocks(rep.p, m, t)
    residuals = {
        "unitarity": max_abs(basis.conj().T @ basis - np.eye(n)),
        "block": max(max_abs(basis.conj().T @ rep.c[a] @ basis - expected[a])
                     for a in range(rep.p)),
        "gram": gram_defect,
        "complement annihilation": annihilation,
    }
    return Decomposition(m, t, basis, residuals)


def random_rep(p: int, copies: int, trivial: int, seed: int) -> OrthoRep:
    """Scrambled direct sum of canonical copies and a zero block.

    The block-diagonal model is conjugated by a Haar random unitary drawn
    deterministically from ``seed``, so the result passes :func:`verify`
    up to roundoff while hiding the block structure from plain inspection.
    """
    if copies < 0 or trivial < 0 or copies + trivial < 1:
        raise DimensionError("need copies >= 0, trivial >= 0 and copies + trivial >= 1")
    blocks = _expected_blocks(p, copies, trivial)
    n = copies * (p + 1) + trivial
    u = haar_unitary(n, np.random.default_rng(seed))
    return OrthoRep(p=p, dim=n, c=[u @ b @ u.conj().T for b in blocks])
