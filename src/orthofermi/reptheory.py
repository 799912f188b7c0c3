"""Verification and decomposition of orthofermion representations.

Any family of matrices satisfying the orthofermion relations on an
inner-product space splits, after a unitary change of basis, into copies of
the canonical (p+1)-dimensional representation plus a block on which every
generator acts as zero. :func:`decompose` makes that split constructive:

  1. take the representative R of the algebra unit, given or inferred from
     the relations,
  2. form the vacuum projector P = R - sum c^dag c and check that it is a
     projector, P^2 = P and P^dag = P; its range fixes one vacuum vector e_i
     per canonical copy, and its rank is counted at the projector gap: the
     check puts every eigenvalue of P near 0 or near 1, so the singular
     values above 1/2 count and no rank threshold is set (the SVD is
     skipped only where its count is known exactly, for a P of Frobenius
     norm below 1/2, whose rank is 0),
  3. grow each copy as (e_i, c_1^dag e_i, .., c_p^dag e_i) and check that
     these m(p+1) vectors are orthonormal,
  4. check that everything orthogonal to them is annihilated by all
     generators,
  5. stack the vectors into the block-diagonalizing unitary U and certify
     the split by U itself: its unitarity and block residuals, with
     R = F F^dag on its copy columns F, bound both pair relations and the
     four O(p) vacuum rows P c_a = c_a, c_a^dag P = c_a^dag, c_a P = 0 and
     P c_a^dag = 0 (:func:`_grow_copies`), and that bound must be at most
     ``tol``.

Neither the O(p^2) table of pair relations nor those four rows are thus
formed on success: the whole table runs in :func:`verify`, and when a check
refuses, so that a failing relation is named before any later check.

:func:`decompose_stack` runs these steps on k representations of one order
and dimension at once, given as a (p, k, n, n) stack: every check and every
product is one batched call over the stack, and the result is one
:class:`Decomposition` whose fields have a leading stack axis. The ranks of
steps 2 and 4 are counted per representation by the one gap rule, and the
stack takes one vacuum rank, so that every step keeps one shape: a
representation whose vacuum rank differs from the first one's is refused.
:func:`decompose`, :func:`verify` and :func:`infer_unit` are the k = 1 case
of the same code: they pass the (p, n, n) family of an :class:`OrthoRep` on
with a stack axis of one. Every kernel takes the family as
:class:`OrthoRep` holds it, on the rows that hold an entry: a rep read from
a file or made by :func:`random_rep` is held once where it is made, and
``osusy`` passes its pieces held on the rows it carries. The relation table
takes the stack dense (:meth:`~orthofermi.canonical.OrthoRep.dense`), so
that its products are the dense ones.
When the representative of 1 is known (the identity, for an energy
eigenspace of ``osusy``), ``unit=`` passes it, with the same meaning as in
:func:`verify`; given and inferred units then take the same path from
step 2 on.

All decisions are residual based; nothing here assumes exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import OrthoRep, _expected_blocks, _target_entries, as_index, conjugate, occupied
from .errors import DimensionError, NotARepresentationError, NumericalDegeneracyError
from .linalg import (DEFAULT_TOL, check_addressable, check_order, dagger, field, haar_unitary,
                     is_count, max_abs, orthonormal_range)


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
    then a zero block of size ``trivial_dim``). The result of
    :func:`decompose_stack` holds k such splits, with a leading stack axis on
    every field: ``multiplicity``, ``trivial_dim`` and each residual are (k,)
    arrays, and ``basis`` is (k, dim, dim).
    """

    multiplicity: int | np.ndarray
    trivial_dim: int | np.ndarray
    basis: np.ndarray
    residuals: dict[str, float] | dict[str, np.ndarray]


def _refuse(failed, label, error, message) -> None:
    """Raise ``error`` for the first stack element flagged in ``failed``.

    A check flags ``~(residual <= tol)``, so that a NaN residual fails it.

    ``message(i)`` describes element i; its label ``label(i)``, when not
    empty, prefixes the text so that the error names the failing element.
    Only the failing element's label is ever formed.
    """
    bad = np.flatnonzero(failed)
    if bad.size:
        i = bad[0]
        name = label(i)
        raise error(f"{name}: {message(i)}" if name else message(i))


def _unnamed(i) -> str:
    """The empty label of a lone representation."""
    return ""


def _lone(rep: OrthoRep) -> OrthoRep:
    """The (p, 1, n, n) stack of the one representation ``rep``; raises
    :class:`DimensionError` for a family with stack axes."""
    if rep.values.ndim != 3:
        raise DimensionError(f"expected a (p, n, n) representation, got shape {rep.shape}")
    return OrthoRep(rep.values[:, None], rep.rows)


def _infer_units(c: OrthoRep, tol: float, label) -> np.ndarray:
    """The representative of 1 of each element of a (p, k, n, n) stack."""
    occ = occupied(c)
    stack = c.dense()
    dense = iter(stack)
    first = next(dense)
    unit = first @ dagger(first) + occ
    for a, m in enumerate(dense, 1):
        defect = max_abs(m @ dagger(m) + occ - unit, axis=(-2, -1))
        _refuse(~(defect <= tol), label, NotARepresentationError,
                lambda i: f"unit candidates from indices 1 and {a + 1} disagree by {defect[i]:.3e}")
    for a, m in enumerate(stack):
        law = _worst((unit @ m - m, m @ unit - m))
        _refuse(~(law <= tol), label, NotARepresentationError,
                lambda i: f"inferred unit fails the unit law on c_{a + 1} by {law[i]:.3e}")
    return unit


def infer_unit(rep: OrthoRep, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Representative of the algebra unit, solved from the relations.

    R := c_1 c_1^dag + sum_g c_g^dag c_g. The same R must arise from every
    annihilator index, and R must act as a two-sided unit on the generators;
    both are checked within ``tol``. A representation with all generators
    zero legitimately yields R = 0.
    """
    return _infer_units(_lone(rep), tol, _unnamed)[0]


def _units(c: OrthoRep, unit, tol: float, label) -> np.ndarray:
    """The unit of each element of ``c``: ``unit``, one n x n matrix for all,
    or the units inferred per element when ``unit`` is None."""
    if unit is None:
        return _infer_units(c, tol, label)
    unit = field(unit)
    if unit.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of shape {unit.shape}")
    if unit.size and not np.isfinite(unit).all():
        raise ValueError("matrix contains non-finite entries")
    if unit.shape != c.shape[-2:]:
        raise DimensionError(f"annihilator shape {c.shape[-2:]} does not match unit "
                             f"{unit.shape}")
    return unit


def _relation_defects(c: OrthoRep, unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per element of a (p, ..., n, n) family: the defects of the two relations.

    The kernel of :func:`relation_residuals`; each value is the worst over
    all index pairs (a, b) of that element. Let R be the rows on which
    ``c`` is held, off which every c_b of every element vanishes, C the
    columns that hold an entry, read here from the rows R alone, as every
    entry lies in them, and L the indices in both.

      * Entry (i, j) of c_a c_b sums over L, and it vanishes unless i is in
        R and j in C; when L is empty, every c_a c_b is zero.
      * Entry (i, j) of c_a c_b^dag sums over C, and it vanishes unless both
        i and j are in R.

    So each c_a enters whole on its rows R, in groups of n // |R|
    annihilators, and each group meets every c_b in one batched product per
    relation, at most (p, k, n, n). Every term and entry left out is exactly
    0, so each value is that of the full products up to the order in which
    the nonzero terms are summed; a family held on every row forms the full
    c_a c_b and c_a c_b^dag, one c_a at a time. The blocks a = b of the
    mixed relation add occ - unit, to the products on R x R and on its own
    outside it; occ is :func:`~orthofermi.canonical.occupied`, the transfer
    kernel at k = 0, which also multiplies on R only.
    """
    held = c.rows
    p, *lead, r, n = c.values.shape
    excess = np.broadcast_to(occupied(c) - unit, (*lead, n, n)).reshape(-1, n, n)
    k = int(np.prod(lead))
    on_rows = c.values.reshape(p, k, r, n)
    rows = as_index(held)
    in_cols = on_rows.any(axis=(0, 1, 2))
    both = held & in_cols
    cols, inner = as_index(in_cols), as_index(both)
    # c_b on the rows L and, unless L is empty, on the columns C
    nilpotent_rhs = on_rows[:, :, as_index(in_cols[held])][..., cols if both.any() else slice(0)]
    mixed_rhs = dagger(on_rows[..., cols])
    excess_inside = excess[:, rows][..., rows]
    nilpotent = np.zeros(k)
    mixed = max_abs(excess[:, ~(held[:, None] & held)], axis=-1)
    for a in range(0, p if r else 0, n // max(r, 1)):
        group = on_rows[a:a + n // r]
        j = np.arange(len(group))
        group = np.moveaxis(group, 0, 1).reshape(k, -1, n)
        nilpotent = np.maximum(nilpotent, max_abs(group[..., inner] @ nilpotent_rhs,
                                                  axis=(0, -2, -1)))
        # in the dtype of excess, so that a complex unit adds into a real stack's products
        products = (group[..., cols] @ mixed_rhs).astype(excess.dtype, copy=False)
        # block (a + j, a + j) sits in rows j r .. (j + 1) r - 1 of the group
        products.reshape(p, k, j.size, r, r)[a + j, :, j] += excess_inside
        mixed = np.maximum(mixed, max_abs(products, axis=(0, -2, -1)))
    return nilpotent.reshape(lead), mixed.reshape(lead)


def relation_residuals(c: OrthoRep, unit: np.ndarray) -> tuple[float, float]:
    """Worst defects of the two defining relations over all index pairs.

    Returns max_abs(c_a c_b) and max_abs(c_a c_b^dag + delta_ab (occ - unit)),
    where occ = sum_g c_g^dag c_g and ``unit`` represents 1. ``c`` is a
    (p, n, n) representation, or a (p, ..., n, n) family of them with
    ``unit`` broadcasting against each. The pair loop runs on the rows and
    columns that hold an entry (:func:`_relation_defects`), so a sparse
    family, such as the oscillator's charges in their natural basis, costs
    little, and each value is that of the full products up to summation
    order.
    """
    nilpotent, mixed = _relation_defects(c, unit)
    return float(nilpotent.max(initial=0.0)), float(mixed.max(initial=0.0))


def _projector_rows(pi: np.ndarray) -> dict[str, np.ndarray]:
    """The rows Pi^2 = Pi and Pi^dag = Pi of :func:`verify`, one value per
    vacuum projector of a (k, n, n) stack."""
    return {"Pi^2 = Pi": max_abs(pi @ pi - pi, axis=(-2, -1)),
            "Pi^dag = Pi": max_abs(dagger(pi) - pi, axis=(-2, -1))}


def _relation_table(c: OrthoRep, unit) -> dict[str, np.ndarray]:
    """:func:`verify`'s residuals, one value per element of a (p, k, n, n)
    stack; the vacuum rows take each c_a dense."""
    res: dict[str, np.ndarray] = {}
    res["c_a c_b = 0"], res["c_a c_b^dag + d_ab sum c^dag c = d_ab 1"] = \
        _relation_defects(c, unit)
    pi = unit - occupied(c)
    res.update(_projector_rows(pi))
    dense = c.dense()
    res["Pi c_a = c_a"] = _worst(pi @ m - m for m in dense)
    res["c_a^dag Pi = c_a^dag"] = _worst(dagger(m) @ pi - dagger(m) for m in dense)
    res["c_a Pi = 0"] = _worst(m @ pi for m in dense)
    res["Pi c_a^dag = 0"] = _worst(pi @ dagger(m) for m in dense)
    return res


def verify(rep: OrthoRep, unit: np.ndarray | None = None, tol: float = DEFAULT_TOL) -> dict[str, float]:
    """Residuals of the orthofermion relations for the given matrices.

    ``unit`` is the matrix representing 1; when omitted it is inferred via
    :func:`infer_unit`. Keys cover the two defining relations plus the
    derived vacuum-projector properties; each value is the worst
    max_abs defect over all index combinations.
    """
    c = _lone(rep)
    table = _relation_table(c, _units(c, unit, tol, _unnamed))
    return {name: float(value[0]) for name, value in table.items()}


def _ranges(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranks and the stacked orthonormal bases of the near-projectors of
    a (k, n, n) stack, from at most one batched SVD, with ranks counted at
    the projector gap (:func:`~orthofermi.linalg.orthonormal_range`): the
    first ``rank[i]`` columns of ``vectors[i]`` span the range of matrix i.

    A stack whose every matrix has Frobenius norm below 1/2, such as the
    complement of a pure split, has empty ranges and runs no SVD: no
    singular value exceeds the Frobenius norm, so none lies above the gap,
    and the count is the SVD's own. Its bases are then the zero-width
    ``a[..., :0]``.
    """
    if (np.linalg.norm(a, axis=(-2, -1)) < 0.5).all():
        return np.zeros(len(a), int), a[..., :0]
    return orthonormal_range(a)


def _slack(d_u, d_b, n: int):
    """eps = n d_B, delta = n d_U, 1/(1 - delta) and s = delta/(1 - delta)
    of :func:`_grow_copies`; the last two are infinite unless delta < 1."""
    eps, delta = n * d_b, n * d_u
    shrink = np.divide(1.0, 1.0 - delta, out=np.full_like(delta, np.inf), where=delta < 1.0)
    return eps, delta, shrink, delta * shrink


def _pair_bounds(d_u, d_b, d_1, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The bounds of :func:`_grow_copies` on the max_abs defects of the
    nilpotent and the mixed relation, from the largest entries d_U, d_B and
    d_1 of U^dag U - 1, U^dag c_a U - T_a and R - F F^dag, each one value per
    element; infinite unless n d_U < 1."""
    eps, delta, shrink, drift = _slack(d_u, d_b, n)
    root = p**0.5 * eps
    nilpotent = (2 * eps + eps**2 + (1 + eps)**2 * drift) * shrink
    mixed = (2 * eps + eps**2 + 2 * root + root**2 + ((1 + eps)**2 + (1 + root)**2) * drift
             + 2 * delta + delta**2) * shrink + d_1
    return nilpotent, mixed


def _vacuum_bound(d_u, d_b, d_1, n: int, p: int, d_f) -> np.ndarray:
    """The bound of :func:`_grow_copies` on the max_abs defects of the four
    O(p) vacuum rows of :func:`verify`, from the same d_U, d_B and d_1 as
    :func:`_pair_bounds` and the largest entry d_F of R F - F and
    F^dag R - F^dag; infinite unless n d_U < 1."""
    eps, delta, shrink, drift = _slack(d_u, d_b, n)
    root = p**0.5 * eps
    y = 2 * delta + delta**2 + 2 * root + root**2 + (1 + root)**2 * drift
    by_rows = (n**0.5 * d_1 * (1 + eps) + eps + (1 + eps) * drift + (1 + eps) * y * shrink) * shrink
    grow = (1 + delta)**0.5
    by_copies = ((n * d_f + grow * delta + n * d_1 * grow * (eps + (1 + eps) * drift))
                 * shrink**0.5 + (eps + (1 + eps) * drift + (1 + eps) * y * shrink) * shrink)
    return np.minimum(by_rows, by_copies)


def _vacua(c: OrthoRep, unit, tol: float, label) -> tuple[np.ndarray, np.ndarray]:
    """Step 2 on a (p, k, n, n) stack: the vacuum ranks, one per element,
    and the (k, n, m) vacua of the one rank m that the stack takes, as their
    own array, so that neither the projectors nor their singular vectors
    outlive this step. A failing projector row raises a bare
    :class:`NotARepresentationError`."""
    pi = unit - occupied(c)
    if not (np.maximum(*_projector_rows(pi).values()) <= tol).all():
        raise NotARepresentationError
    copies, vacua = _ranges(pi)
    _refuse(copies != copies[0], label, NumericalDegeneracyError,
            lambda i: f"vacuum rank {copies[i]} differs from the first element's "
                      f"{copies[0]}; a stack takes one vacuum rank")
    return copies, vacua[..., :copies[0]].copy()


def _block_defects(c: OrthoRep, basis: np.ndarray, m: int) -> OrthoRep:
    """U^dag c_a U - T_a for a (p, k, n, n) stack and its (k, n, n)
    unitaries U, held on the rows J that can be nonzero. T_a are the
    targets of :func:`_expected_blocks` with m copies.

    The products are :func:`~orthofermi.canonical.conjugate`'s, on the rows
    that can be nonzero, and the targets are subtracted in place. A target
    entry on a row outside those is compared against 0 on its own: J takes
    that row too, so that its defect is seen.
    """
    out = conjugate(c, basis)
    a, vacua, cols = _target_entries(c.p, m)
    targets = np.zeros_like(out.rows)
    targets[vacua] = True
    if (targets & ~out.rows).any():
        out = out.on(out.rows | targets)
    out.values[a, :, np.cumsum(out.rows)[vacua] - 1, cols] -= 1
    return out


def _grow_copies(c: OrthoRep, vacua: np.ndarray, unit: np.ndarray, tol: float,
                 label) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Steps 3 to 5 on a (p, k, n, n) stack whose vacua all have m columns.

    Returns the (k, n, n) unitaries U and the residuals of the split. When
    m = 0 the copy family is empty and U is the complement's basis, so a
    nonzero generator fails the complement annihilation. The copy family,
    the complement annihilation and the block residual are each one batched
    call over the whole (p, k, n, n) stack, which is held on the rows R
    that its producer carries: c_a^dag e_i = c_a[R, :]^dag e_i[R], c_a G
    is zero off the rows R, and the block residual is
    :func:`_block_defects`. A pure split, whose
    complement is zero up to roundoff, runs no complement SVD
    (:func:`_ranges`). The complement takes one width: the bookkeeping
    m(p+1) + rank = n must hold for every element, and each complement is
    the first n - m(p+1) columns of its stacked singular vectors.

    The certificate. Let U = [F, G] with F the m(p+1) copy columns, T_a the
    target blocks (:func:`_expected_blocks`), R = ``unit``, and let d_U, d_B
    and d_1 be the largest entries of U^dag U - 1, of U^dag c_a U - T_a over
    all a, and of R - F F^dag. An n x n matrix with entries at most d has
    spectral norm at most n d, and no entry exceeds the spectral norm; set
    delta = n d_U, eps = n d_B and require delta < 1.

      * U^dag U = 1 + D with ||D|| <= delta, so S = (1 + D)^-1 has
        ||S|| <= 1/(1 - delta) and ||S - 1|| <= delta/(1 - delta) =: s.
        U S U^dag = 1 and V = U S^(1/2) is unitary, so for every X,
        ||U S X S U^dag|| = ||S^(1/2) X S^(1/2)|| <= ||X|| / (1 - delta).
      * B_a := U^dag c_a U = T_a + E_a with ||E_a|| <= eps and ||T_a|| <= 1,
        and c_a = U S B_a S U^dag.

    Nilpotent relation: c_a c_b = U S (B_a S B_b) S U^dag, where
    B_a S B_b = (B_a B_b - T_a T_b) + B_a (S - 1) B_b since T_a T_b = 0, so

      max|c_a c_b| <= [2 eps + eps^2 + (1 + eps)^2 s] / (1 - delta).

    Mixed relation: with P the projector on the copy coordinates,
    F F^dag = U P U^dag = U S (1 + D) P (1 + D) S U^dag, and the targets obey
    T_a T_b^dag + d_ab (sum_g T_g^dag T_g - P) = 0 exactly. So the defect is
    U S X S U^dag - d_ab (R - F F^dag), with X the sum of
    B_a S B_b^dag - T_a T_b^dag, of norm at most 2 eps + eps^2 + (1 + eps)^2 s;
    of sum_g (B_g^dag S B_g - T_g^dag T_g), where the stacked [T_1; ..; T_p]
    has norm at most 1 and [E_1; ..; E_p] at most sqrt(p) eps, so of norm at
    most 2 sqrt(p) eps + p eps^2 + (1 + sqrt(p) eps)^2 s; and of
    P - (1 + D) P (1 + D), of norm at most 2 delta + delta^2. Hence

      max|c_a c_b^dag + d_ab (occ - R)| <= [2 eps + eps^2 + 2 sqrt(p) eps
          + p eps^2 + ((1 + eps)^2 + (1 + sqrt(p) eps)^2) s + 2 delta
          + delta^2] / (1 - delta) + d_1.

    Vacuum rows: let K = R - F F^dag, whose rows and columns have 2-norm at
    most sqrt(n) d_1, and occ = sum_g c_g^dag c_g = U S (sum_g B_g^dag S B_g) S U^dag.
    Then Pi = R - occ = K + U S Z S U^dag with the Hermitian
    Z = (1 + D) P (1 + D) - sum_g B_g^dag S B_g. The targets' vacuum
    projector Pi_T = P - sum_g T_g^dag T_g is an orthogonal projector with
    Pi_T T_a = T_a and T_a Pi_T = 0, and by the two norms above
    Z = Pi_T + Y with

      ||Y|| <= y := 2 delta + delta^2 + 2 sqrt(p) eps + p eps^2
          + (1 + sqrt(p) eps)^2 s.

    Since S U^dag U S = S, Pi c_a - c_a = K c_a + U S (Z S B_a - B_a) S U^dag,
    where Z S B_a - B_a = (Pi_T - 1) E_a + Pi_T (S - 1) B_a + Y S B_a; and
    c_a Pi = c_a K + U S B_a S Z S U^dag, where
    B_a S Z = E_a Pi_T + B_a (S - 1) Pi_T + B_a S Y. The rows
    c_a^dag Pi = c_a^dag and Pi c_a^dag = 0 are the same products with
    c_a^dag and the adjoints of these middles. An entry of K c_a or c_a K
    is a row of one factor times a column of the other, so it is at most
    sqrt(n) d_1 ||c_a||, and ||c_a|| <= (1 + eps)/(1 - delta). Hence

      max|each of the four rows| <= sqrt(n) d_1 (1 + eps) / (1 - delta)
          + [eps + (1 + eps) s + (1 + eps) y / (1 - delta)] / (1 - delta).

    A given unit may be off on the trivial block by more than tol / sqrt(n)
    while every row holds, so the terms K c_a and c_a K are also bounded
    through F. Let d_F be the largest entry of R F - F and of
    F^dag R - F^dag; both are needed, as R need not be Hermitian. Since
    F^dag F - 1 is a block of D, ||F|| <= sqrt(1 + delta), and
    K F = (R F - F) - F (F^dag F - 1) has norm at most
    n d_F + sqrt(1 + delta) delta, as has F^dag K = (F^dag R - F^dag)
    - (F^dag F - 1) F^dag. T_a lives on the copy coordinates, so
    U T_a = [F T_a^cc, 0] with ||T_a^cc|| <= 1, and with S B_a = T_a + E_a
    + (S - 1) B_a,

      K c_a = [K F T_a^cc, 0] S U^dag + K U (E_a + (S - 1) B_a) S U^dag,

    where ||S U^dag||^2 = ||S U^dag U S|| = ||S|| <= 1/(1 - delta),
    ||U|| <= sqrt(1 + delta) and ||K|| <= n d_1. Hence

      max|K c_a| <= [n d_F + sqrt(1 + delta) delta
          + n d_1 sqrt(1 + delta) (eps + (1 + eps) s)] / sqrt(1 - delta),

    and the same bound covers c_a K through F^dag K, and c_a^dag, whose
    B_a^dag = T_a^dag + E_a^dag also lives on the copy coordinates. Both
    charges of these terms are sound, and the row bound keeps the smaller.

    The split is refused unless both pair bounds (:func:`_pair_bounds`) and
    the row bound (:func:`_vacuum_bound`) are at most ``tol``; with the two
    projector rows of step 2, every row of :func:`verify` then holds within
    ``tol``.
    """
    p, k, _, n = c.shape
    m = vacua.shape[-1]
    rows = as_index(c.rows)
    # column i (p+1) + a holds e_i for a = 0 and c_a^dag e_i otherwise
    family = np.concatenate([vacua[None], dagger(c.values) @ vacua[..., rows, :]])
    family = np.moveaxis(family, 0, -1).reshape(k, n, m * (p + 1))
    gram = max_abs(dagger(family) @ family - np.eye(m * (p + 1)), axis=(-2, -1))
    _refuse(~(gram <= tol), label, NumericalDegeneracyError,
            lambda i: f"copy vectors fail orthonormality with Gram defect {gram[i]:.3e}; "
                      f"they were grown from {m} vacua")

    outside = np.eye(n) - family @ dagger(family)
    trivial, complement = _ranges(outside)
    _refuse(m * (p + 1) + trivial != n, label, NumericalDegeneracyError,
            lambda i: f"dimension bookkeeping failed: {m} copies of {p + 1} plus "
                      f"{trivial[i]} != {n}")
    complement = complement[..., :n - m * (p + 1)]
    annihilation = np.maximum(max_abs(c.values @ complement, axis=(0, -2, -1)),
                              max_abs(dagger(c.values) @ complement[..., rows, :],
                                      axis=(0, -2, -1)))
    _refuse(~(annihilation <= tol), label, NotARepresentationError,
            lambda i: f"complement of the copies is not annihilated, "
                      f"residual {annihilation[i]:.3e}")

    basis = np.concatenate([family, complement], axis=-1)
    residuals = {
        "unitarity": max_abs(dagger(basis) @ basis - np.eye(n), axis=(-2, -1)),
        "block": max_abs(_block_defects(c, basis, m).values, axis=(0, -2, -1)),
        "gram": gram, "complement annihilation": annihilation}
    outside += unit - np.eye(n)
    defects = (residuals["unitarity"], residuals["block"], max_abs(outside, axis=(-2, -1)), n, p)
    d_f = _worst(r @ family - family for r in (unit, dagger(unit)))
    bound = np.maximum(np.maximum(*_pair_bounds(*defects)), _vacuum_bound(*defects, d_f))
    _refuse(~(bound <= tol), label, NumericalDegeneracyError,
            lambda i: f"the split certifies the relations only within {bound[i]:.3e} > tol {tol:.3e}")
    return basis, residuals


def decompose_stack(c: OrthoRep, unit=None, tol: float = DEFAULT_TOL,
                    labels=None) -> Decomposition:
    """Split each of k representations of one order and dimension at once.

    ``c`` is a (p, k, n, n) family: ``c[i]`` is representation i.
    ``unit`` represents 1 as in :func:`verify`, for every
    representation of the stack; when it is None it is inferred per
    representation. Every step of :func:`decompose` runs once on the whole
    stack, under the same checks and tolerances, and each rank is counted at
    the projector gap (:func:`_ranges`). The stack takes one vacuum rank:
    an element whose rank differs from element 0's is refused with
    :class:`NumericalDegeneracyError`. On success the pair relations and the
    four O(p) vacuum rows of :func:`verify` are certified by the split's
    unitary, not formed. When a check refuses, the relations of
    :func:`verify`, every row, are checked on the whole stack first, and a
    failing one is reported in place of that check; a failing projector row
    of step 2 raises a bare :class:`NotARepresentationError` for this to
    name. An error names the first failing representation i by
    ``labels(i)``, a function of the stack index called only then (by
    default "representation i"). Returns one :class:`Decomposition` of the
    whole stack, whose fields have a leading axis in stack order. Every
    product runs on the rows that ``c`` is held on.
    """
    if c.values.ndim != 4:
        raise DimensionError(f"expected a (p, k, n, n) stack of annihilators, got {c.shape}")
    if not np.isfinite(c.values).all():
        raise ValueError("annihilators contain non-finite entries")
    label = "representation {}".format if labels is None else labels
    unit = _units(c, unit, tol, label)
    try:
        copies, vacua = _vacua(c, unit, tol, label)
        basis, residuals = _grow_copies(c, vacua, unit, tol, label)
    except (NotARepresentationError, NumericalDegeneracyError):
        worst = np.max(list(_relation_table(c, unit).values()), axis=0)
        _refuse(~(worst <= tol), label, NotARepresentationError,
                lambda i: f"relations fail with residual {worst[i]:.3e} > tol {tol:.3e}")
        raise
    return Decomposition(copies, c.dim - copies * (c.p + 1), basis, residuals)


def decompose(rep: OrthoRep, tol: float = DEFAULT_TOL, *,
              unit: np.ndarray | None = None) -> Decomposition:
    """Split ``rep`` into canonical copies plus a trivial block.

    ``unit`` represents 1 as in :func:`verify`; when omitted it is inferred.
    Requires the relations and vacuum-projector checks of :func:`verify` to
    hold within ``tol``, as certified by the split itself. Both ranks are
    counted at the projector gap, singular values above 1/2, so no rank
    threshold is set and no entry is held to ``tol`` to count one
    (:func:`_ranges`). Raises
    :class:`NumericalDegeneracyError` when the grown family of copy vectors
    is not orthonormal within ``tol``, when the ranks do not add up to the
    dimension, or when the split certifies the relations only beyond
    ``tol``; at a ``tol`` so loose that the gap closes, a miscounted rank
    meets one of these. This is the k = 1 case of :func:`decompose_stack`.
    """
    dec = decompose_stack(_lone(rep), unit, tol, labels=_unnamed)
    return Decomposition(int(dec.multiplicity[0]), int(dec.trivial_dim[0]), dec.basis[0],
                         {name: float(value[0]) for name, value in dec.residuals.items()})


def random_rep(p: int, copies: int, trivial: int, seed: int) -> OrthoRep:
    """Scrambled direct sum of canonical copies and a zero block.

    The block-diagonal model is conjugated by a Haar random unitary drawn
    deterministically from ``seed``, so the result passes :func:`verify`
    up to roundoff while hiding the block structure from plain inspection.
    """
    p = check_order(p)
    if not (is_count(copies, 0) and is_count(trivial, 0)) or copies + trivial < 1:
        raise DimensionError(f"need integers copies >= 0 and trivial >= 0 with "
                             f"copies + trivial >= 1, got {copies!r} and {trivial!r}")
    copies, trivial = int(copies), int(trivial)
    n = copies * (p + 1) + trivial
    check_addressable(DimensionError, f"dimension {n}", p, n, n)
    blocks = _expected_blocks(p, copies, trivial).dense()
    u = haar_unitary(n, np.random.default_rng(seed))
    return OrthoRep.of(u @ blocks @ dagger(u))
