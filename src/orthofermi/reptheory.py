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

:func:`decompose_stack` runs these steps on k representations of one order
and dimension at once, given as a (p, k, n, n) stack: every check and every
product is one batched call over the stack. The rank decisions of steps 2
and 4 are made per representation, and representations whose vacuum ranks
differ are split into groups of one rank, so that each group keeps one
shape. :func:`decompose`, :func:`verify` and :func:`infer_unit` are the
k = 1 case of the same code. When the representative of 1 is known (the
identity, for an energy eigenspace of ``osusy``), ``unit=`` passes it, with
the same meaning as in :func:`verify`, and step 1 is skipped.

All decisions are residual based; nothing here assumes exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import OrthoRep, canonical, occupied
from .errors import DimensionError, NotARepresentationError, NumericalDegeneracyError
from .linalg import (DEFAULT_RANK_TOL, DEFAULT_TOL, as_matrix, dagger, haar_unitary, max_abs,
                     orthonormal_range)

#: Axes of a (p, k, n, n) stack that one representation's residual spans.
_PER_REP = (0, -2, -1)


def _worst(terms) -> np.ndarray:
    """Per stack element, the worst max_abs over ``terms``, each of shape (k, n, n).

    ``terms`` yields one term per annihilator; each is reduced before the
    next is formed, so the temporaries stay of one annihilator's size.
    """
    worst = 0.0
    for term in terms:
        worst = np.maximum(worst, max_abs(term, axis=(-2, -1)))
    return worst


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


def _refuse(failed, labels, error, message) -> None:
    """Raise ``error`` for the first stack element flagged in ``failed``.

    A check flags ``~(residual <= tol)``, so that a NaN residual fails it.

    ``message(i)`` describes element i; its label, when not empty, prefixes
    the text so that the error names the failing element.
    """
    bad = np.flatnonzero(failed)
    if bad.size:
        i = bad[0]
        raise error(f"{labels[i]}: {message(i)}" if labels[i] else message(i))


def _infer_units(c: np.ndarray, tol: float, labels) -> np.ndarray:
    """The representative of 1 of each element of a (p, k, n, n) stack."""
    occ = occupied(c)
    unit = c[0] @ dagger(c[0]) + occ
    for a in range(1, len(c)):
        defect = max_abs(c[a] @ dagger(c[a]) + occ - unit, axis=(-2, -1))
        _refuse(~(defect <= tol), labels, NotARepresentationError,
                lambda i: f"unit candidates from indices 1 and {a + 1} disagree by {defect[i]:.3e}")
    for a, m in enumerate(c):
        law = _worst((unit @ m - m, m @ unit - m))
        _refuse(~(law <= tol), labels, NotARepresentationError,
                lambda i: f"inferred unit fails the unit law on c_{a + 1} by {law[i]:.3e}")
    return unit


def infer_unit(rep: OrthoRep, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Representative of the algebra unit, solved from the relations.

    R := c_1 c_1^dag + sum_g c_g^dag c_g. The same R must arise from every
    annihilator index, and R must act as a two-sided unit on the generators;
    both are checked within ``tol``. A representation with all generators
    zero legitimately yields R = 0.
    """
    return _infer_units(np.stack(rep.c)[:, None], tol, ("",))[0]


def _units(c: np.ndarray, unit, tol: float, labels) -> np.ndarray:
    """The unit of each element of ``c``: ``unit``, one n x n matrix for all,
    or the units inferred per element when ``unit`` is None."""
    if unit is None:
        return _infer_units(c, tol, labels)
    unit = as_matrix(unit)
    if unit.shape != c.shape[-2:]:
        raise DimensionError(f"annihilator shape {c.shape[-2:]} does not match unit {unit.shape}")
    return unit


def _relation_defects(c: np.ndarray, unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per element of a (p, ..., n, n) stack: the defects of the two relations.

    The kernel of :func:`relation_residuals`; each value is the worst over
    all index pairs (a, b) of that element.
    """
    c_dag = dagger(c)
    excess = occupied(c) - unit
    nilpotent = mixed = 0.0
    for a in range(len(c)):
        nilpotent = np.maximum(nilpotent, max_abs(c[a] @ c, axis=_PER_REP))
        products = c[a] @ c_dag
        products[a] += excess
        mixed = np.maximum(mixed, max_abs(products, axis=_PER_REP))
    return nilpotent, mixed


def relation_residuals(c, unit: np.ndarray) -> tuple[float, float]:
    """Worst defects of the two defining relations over all index pairs.

    Returns max_abs(c_a c_b) and max_abs(c_a c_b^dag + delta_ab (occ - unit)),
    where occ = sum_g c_g^dag c_g and ``unit`` represents 1. ``c`` holds p
    matrices, or p stacks of shape (..., n, n) with ``unit`` broadcasting
    against each; every c_a multiplies all c_b in one broadcast product.
    """
    nilpotent, mixed = _relation_defects(np.asarray(c), unit)
    return float(nilpotent.max(initial=0.0)), float(mixed.max(initial=0.0))


def _relation_table(c: np.ndarray, unit: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """:func:`verify`'s residuals, one value per element, and the vacuum projectors."""
    pi = unit - occupied(c)
    res: dict[str, np.ndarray] = {}
    res["c_a c_b = 0"], res["c_a c_b^dag + d_ab sum c^dag c = d_ab 1"] = _relation_defects(c, unit)
    res["Pi^2 = Pi"] = max_abs(pi @ pi - pi, axis=(-2, -1))
    res["Pi^dag = Pi"] = max_abs(dagger(pi) - pi, axis=(-2, -1))
    res["Pi c_a = c_a"] = _worst(pi @ m - m for m in c)
    res["c_a^dag Pi = c_a^dag"] = _worst(dagger(m) @ pi - dagger(m) for m in c)
    res["c_a Pi = 0"] = _worst(m @ pi for m in c)
    res["Pi c_a^dag = 0"] = _worst(pi @ dagger(m) for m in c)
    return res, pi


def verify(rep: OrthoRep, unit: np.ndarray | None = None, tol: float = DEFAULT_TOL) -> dict[str, float]:
    """Residuals of the orthofermion relations for the given matrices.

    ``unit`` is the matrix representing 1; when omitted it is inferred via
    :func:`infer_unit`. Keys cover the two defining relations plus the
    derived vacuum-projector properties; each value is the worst
    max_abs defect over all index combinations.
    """
    c = np.stack(rep.c)[:, None]
    table, _ = _relation_table(c, _units(c, unit, tol, ("",)))
    return {name: float(value[0]) for name, value in table.items()}


def _expected_blocks(p: int, multiplicity: int, trivial_dim: int) -> np.ndarray:
    """Target annihilators, shape (p, n, n): canonical copies, then a zero block."""
    copies = np.kron(np.eye(multiplicity), np.stack(canonical(p).c))
    return np.pad(copies, ((0, 0), (0, trivial_dim), (0, trivial_dim)))


def _ranges(a: np.ndarray, tol: float, rank_tol: float) -> list[np.ndarray]:
    """Orthonormal range of each matrix of a (k, n, n) stack, one batched SVD.

    A matrix that is zero within ``tol`` has an empty range: the relative
    threshold ``rank_tol`` alone would promote roundoff noise to basis vectors.
    """
    zero = max_abs(a, axis=(-2, -1)) <= tol
    return [v[:, :0] if z else v for v, z in zip(orthonormal_range(a, rank_tol), zero)]


def _grow_copies(c: np.ndarray, vacua: np.ndarray, tol: float, rank_tol: float,
                 labels) -> list[Decomposition]:
    """Steps 3 to 5 on a (p, k, n, n) stack whose vacua all have m columns."""
    p, k, n, _ = c.shape
    m = vacua.shape[-1]
    if m == 0:
        stray = _worst(c)
        _refuse(~(stray <= tol), labels, NotARepresentationError,
                lambda i: f"vacuum projector vanishes but generators have norm {stray[i]:.3e}")
        return [Decomposition(0, n, np.eye(n, dtype=complex),
                              {"unitarity": 0.0, "block": float(s), "gram": 0.0,
                               "complement annihilation": float(s)}) for s in stray]

    # column i (p+1) + a holds e_i for a = 0 and c_a^dag e_i otherwise
    family = np.stack([vacua, *(dagger(ca) @ vacua for ca in c)], axis=-1)
    family = family.reshape(k, n, m * (p + 1))
    gram = max_abs(dagger(family) @ family - np.eye(m * (p + 1)), axis=(-2, -1))
    _refuse(~(gram <= tol), labels, NumericalDegeneracyError,
            lambda i: f"copy vectors fail orthonormality with Gram defect {gram[i]:.3e}")

    complements = _ranges(np.eye(n) - family @ dagger(family), tol, rank_tol)
    trivial = np.array([v.shape[1] for v in complements])
    _refuse(m * (p + 1) + trivial != n, labels, NumericalDegeneracyError,
            lambda i: f"dimension bookkeeping failed: {m} copies of {p + 1} plus "
                      f"{trivial[i]} != {n}")
    t = n - m * (p + 1)
    complement = np.stack(complements)
    annihilation = np.zeros(k)
    if t:
        annihilation = _worst(term for ca in c
                              for term in (ca @ complement, dagger(ca) @ complement))
        _refuse(~(annihilation <= tol), labels, NotARepresentationError,
                lambda i: f"complement of the copies is not annihilated, "
                          f"residual {annihilation[i]:.3e}")

    basis = np.concatenate([family, complement], axis=-1)
    basis_dag = dagger(basis)
    unitarity = max_abs(basis_dag @ basis - np.eye(n), axis=(-2, -1))
    block = _worst(basis_dag @ ca @ basis - target
                   for ca, target in zip(c, _expected_blocks(p, m, t)))
    return [Decomposition(m, t, basis[i],
                          {"unitarity": float(unitarity[i]), "block": float(block[i]),
                           "gram": float(gram[i]),
                           "complement annihilation": float(annihilation[i])})
            for i in range(k)]


def decompose_stack(c, unit=None, tol: float = DEFAULT_TOL, rank_tol: float = DEFAULT_RANK_TOL,
                    labels=None) -> list[Decomposition]:
    """Split each of k representations of one order and dimension at once.

    ``c`` has shape (p, k, n, n): ``c[a, i]`` is annihilator a+1 of
    representation i. ``unit`` represents 1 as in :func:`verify`, for every
    representation of the stack; when it is None it is inferred per
    representation. Every step of :func:`decompose` runs once on the whole
    stack, under the same checks and tolerances; an error names the first
    failing representation by its entry of ``labels`` (by default
    "representation i"). Returns one :class:`Decomposition` per
    representation, in stack order.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim != 4 or not c.shape[0] or c.shape[-1] != c.shape[-2]:
        raise DimensionError(f"expected a (p, k, n, n) stack of annihilators, got {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("annihilators contain non-finite entries")
    k = c.shape[1]
    labels = [f"representation {i}" for i in range(k)] if labels is None else list(labels)
    unit = _units(c, unit, tol, labels)
    table, pi = _relation_table(c, unit)
    worst = np.max(list(table.values()), axis=0)
    _refuse(~(worst <= tol), labels, NotARepresentationError,
            lambda i: f"relations fail with residual {worst[i]:.3e} > tol {tol:.3e}")

    vacua = _ranges(pi, tol, rank_tol)
    copies = [v.shape[1] for v in vacua]
    out: list[Decomposition] = [None] * k
    for m in sorted(set(copies)):
        group = [i for i, rank in enumerate(copies) if rank == m]
        found = _grow_copies(c[:, group], np.stack([vacua[i] for i in group]), tol, rank_tol,
                             [labels[i] for i in group])
        for i, dec in zip(group, found):
            out[i] = dec
    return out


def decompose(rep: OrthoRep, tol: float = DEFAULT_TOL, rank_tol: float = DEFAULT_RANK_TOL, *,
              unit: np.ndarray | None = None) -> Decomposition:
    """Split ``rep`` into canonical copies plus a trivial block.

    ``unit`` represents 1 as in :func:`verify`; when omitted it is inferred.
    Requires the relations and vacuum-projector checks of :func:`verify` to
    pass within ``tol``. Numerical rank decisions use ``rank_tol``
    (relative). Raises :class:`NumericalDegeneracyError` when the grown
    family of copy vectors is not orthonormal within ``tol``, which signals
    an input sitting too close to the rank threshold to classify. This is
    the k = 1 case of :func:`decompose_stack`.
    """
    return decompose_stack(np.stack(rep.c)[:, None], unit, tol, rank_tol, labels=("",))[0]


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
