"""Representations, the canonical irreducible one and its ladder operators.

:class:`OrthoRep` is the package's one stack type: a (p, ..., n, n) family
of annihilators, c_a being the (..., n, n) stack of index a - 1, held on
the rows R that hold an entry, as its (p, ..., |R|, n) values on R and the
mask of R. The values vanish off the mask, as nothing else is stored there;
a mask may hold rows whose values are zero, as the one a producer computes
for its product often does. :meth:`OrthoRep.of` holds a dense stack, or a
list of matrices, on the rows that :func:`held_rows` reads, and
:meth:`OrthoRep.dense` spreads a family back out for the writers and the
test oracles. Every kernel takes this type: :func:`occupied`,
:func:`lowering_from`, :func:`cyclic_from` and :func:`conjugate` here, the
relation kernels of ``reptheory`` and every stage of ``osusy``.
:func:`canonical` returns one, held on its vacuum row alone.

Every sum of quantum-transfer monomials the package forms,
sum_a c_a^dag c_{a+k}, is one call of :func:`transfer`, which multiplies
only on the rows R. The vacuum projector is
unit - occupied(c) = unit - transfer(c, 0), and the lowering operator below
is c_1 + transfer(c, 1); only the closed forms of its powers in the ladder
catalog are formed from row entries instead (see below). :func:`conjugate`
forms V^dag c_a V on the rows R and returns it on the rows that can be
nonzero.

On the (p+1)-dimensional Fock space with kets |0>, |1>, .., |p> (ket n is
matrix row/column n+1), the annihilators act as the matrix units

    c_a = E_{1, a+1}

so c_a |a> = |0> and c_a kills every other ket: all p of them hold their
one entry in row 0, the vacuum row, so :func:`canonical` holds them as
(p, 1, p+1) values on that row. The lowering operator

    L = c_1 + sum_{a=2..p} c_{a-1}^dag c_a

steps |n> -> |n-1> and kills |0>; adding the wrap-around creator gives the
cyclic lowering operator F = L + c_p^dag with F^{p+1} = 1. Each of L, L^dag,
F, the vacuum projector and the c_a holds at most one entry per row, so
:func:`ladder_identity_residuals` forms every product of its catalog from
the operands' row entries, one multiplication per entry, and every identity
holds exactly, as every entry is 0 or 1. That is the catalog's domain: the
canonical rep, direct sums of it and any change to the values of its
entries. An operand or closed form with two entries in one row raises
ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, OrderError
from .linalg import check_addressable, check_order, dagger, field, max_abs


@dataclass(frozen=True)
class OrthoRep:
    """A (p, ..., n, n) family of annihilators, held on the rows that hold an entry.

    ``values`` are the (p, ..., |R|, n) values on the rows R, in order, and
    ``rows`` is the bool mask of R over the n rows; every entry off R is
    zero. ``values`` is stored in the dtype :func:`~orthofermi.linalg.field`
    picks, and ``p``, ``dim`` and the dense ``shape`` are read off the two.
    The mask is held read-only, as a view, so that it stays the one
    validated; a write into ``values`` cannot reach a row off the mask.
    Raises :class:`DimensionError` for p = 0, a mask that is not a 1-D
    bool array, or values that are not |R| rows of length n. A
    representation, as :func:`~orthofermi.reptheory.verify` takes it, has
    no axes between p and the rows.
    """

    values: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        values, rows = field(self.values), np.asarray(self.rows).view()
        rows.flags.writeable = False  # so that the mask stays the one validated
        if rows.dtype != bool or rows.ndim != 1:
            raise DimensionError(f"the row mask must be a 1-D bool array, "
                                 f"got {rows.dtype} of shape {rows.shape}")
        if values.ndim < 3 or not len(values) or values.shape[-2:] != (np.count_nonzero(rows),
                                                                        rows.size):
            raise DimensionError(f"expected (p, ..., {np.count_nonzero(rows)}, {rows.size}) "
                                 f"values with p >= 1 for the mask, got shape {values.shape}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "rows", rows)

    def __reduce__(self):
        # a copy or an unpickled family is validated anew, its mask read-only
        return OrthoRep, (self.values, self.rows)

    @classmethod
    def of(cls, c) -> OrthoRep:
        """The family of the dense (p, ..., n, n) stack ``c``, or a list of p
        matrices, held on the rows that hold an entry other than +0.0
        (:func:`held_rows`), so that :meth:`dense` gives ``c`` back bitwise,
        signed zeros included; the values are a view of ``c`` when every row
        holds one. Raises :class:`OrderError` for p = 0,
        :class:`DimensionError` for any other shape, matrices of unequal
        shapes or n = 0, and ValueError for a non-finite entry."""
        try:
            c = field(c)
        except ValueError as exc:
            raise DimensionError(f"annihilators must be matrices of one shape: {exc}") from exc
        if c.ndim:
            check_order(len(c))
        if c.ndim < 3 or c.shape[-1] != c.shape[-2] or not c.shape[-1]:
            raise DimensionError(f"expected a (p, ..., n, n) stack of annihilators with n >= 1, "
                                 f"got shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("matrix contains non-finite entries")
        rows = held_rows((c != 0) | np.signbit(c.real) | np.signbit(c.imag))
        return cls(c[..., as_index(rows), :], rows)

    @property
    def p(self) -> int:
        return len(self.values)

    @property
    def dim(self) -> int:
        return self.rows.size

    @property
    def shape(self) -> tuple:
        """The shape of the dense stack, (p, ..., n, n)."""
        return (*self.values.shape[:-2], self.dim, self.dim)

    def __getitem__(self, k) -> OrthoRep:
        """The family at ``k`` along the first axis after p, on the same rows."""
        return OrthoRep(self.values[:, k], self.rows)

    def on(self, rows) -> OrthoRep:
        """The same family held on the rows of the mask ``rows``, which holds
        this one's; the rows it adds are zeros."""
        out = np.zeros((*self.values.shape[:-2], np.count_nonzero(rows), self.dim),
                       dtype=self.values.dtype)
        out[..., self.rows[rows], :] = self.values
        return OrthoRep(out, rows)

    def dense(self) -> np.ndarray:
        """The dense (p, ..., n, n) stack; a family held on every row is
        that stack already, and returns its values."""
        return self.values if self.rows.all() else self.on(np.ones_like(self.rows)).values


def _hold(c: np.ndarray) -> OrthoRep:
    """The dense stack ``c`` held on the rows that hold an entry, NaN
    included, with no check of its values."""
    rows = held_rows(c)
    return OrthoRep(c[..., as_index(rows), :], rows)


def canonical(p: int) -> OrthoRep:
    """The canonical representation: c_a is the matrix unit E_{1,a+1} on the
    (p+1)-dimensional Fock space, in float64, held on row 0 alone as
    (p, 1, p+1) values. Raises :class:`OrderError` for an order whose dense
    (p, p+1, p+1) stack numpy cannot address, as the writers form it."""
    p = check_order(p)
    check_addressable(OrderError, f"order p = {p}", p, p + 1, p + 1)
    return _expected_blocks(p, 1, 0)


def _expected_blocks(p: int, multiplicity: int, trivial_dim: int) -> OrthoRep:
    """Target annihilators of dimension n: canonical copies, then a zero
    block, held on the copies' vacuum rows.

    In copy i, on rows and columns i (p+1) .. i (p+1) + p, c_a is the matrix
    unit E_{1,a+1} of :func:`canonical`; its one entry lies in the vacuum
    row i (p+1), so the values are (p, multiplicity, n).
    """
    n = multiplicity * (p + 1) + trivial_dim
    values = np.zeros((p, multiplicity, n))
    a, vacua, cols = _target_entries(p, multiplicity)
    values[a, np.arange(multiplicity), cols] = 1
    rows = np.zeros(n, dtype=bool)
    rows[vacua] = True
    return OrthoRep(values, rows)


def _target_entries(p: int, multiplicity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index arrays (a, row, column) of the unit entries of the targets
    of :func:`_expected_blocks`: in copy i, entry (i (p+1), i (p+1) + a + 1)
    of T_a, broadcast to shape (p, multiplicity)."""
    a, vacua = np.ogrid[:p, :multiplicity * (p + 1):p + 1]
    return a, vacua, vacua + a + 1


def held_rows(c) -> np.ndarray:
    """Mask of the rows that hold a nonzero entry (NaN included) in some
    matrix of a (..., n, n) stack; the stack axes are reduced first, as
    one pass over whole matrices."""
    return c.any(axis=tuple(range(c.ndim - 2))).any(axis=-1)


def as_index(mask: np.ndarray):
    """The positions of ``mask`` as an index; a slice when it keeps all, so
    that indexing with it copies nothing."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def conjugate(c: OrthoRep, v) -> OrthoRep:
    """V^dag c_a V for a family ``c`` and unitaries ``v`` that broadcast
    against it, held on the rows J that can be nonzero: the columns j of
    V[R, :] that hold an entry.

    A family held on every row forms the dense (V^dag c_a) V, with J every
    row, so that its values, which reports print, stay those of the dense
    products bitwise; otherwise c_a vanishes off R, and
    V^dag[J, R] (c_a[R, :] V) forms the rows J of the same matrix up to
    summation order, with one full-size product in place of two. When V
    is the identity, as for H of the oscillator in its natural basis, J is R.
    """
    if c.rows.all():
        return OrthoRep((dagger(v) @ c.values) @ v, c.rows)
    on_rows = v[..., np.flatnonzero(c.rows), :]
    rows = on_rows.any(axis=tuple(range(on_rows.ndim - 2))).any(axis=0)
    return OrthoRep(dagger(on_rows[..., as_index(rows)]) @ (c.values @ v), rows)


def transfer(c: OrthoRep, k: int) -> np.ndarray:
    """sum_{a=1..p-k} c_a^dag c_{a+k} over a (p, ..., n, n) family of annihilators.

    Each c_a may itself be a stack of shape (..., n, n), one matrix per
    stack position, and so is the dense result; for k >= p the sum is empty
    and the result exact zeros. The values vanish off the mask R, so only
    the rows R enter, and the mask sets the groups: the c_a are stacked on R
    in groups of n // |R|, so each group costs one product of at most n
    rows, and the groups are summed in order of a, starting from zero. The
    mask is the one the family's producer computed, which may hold rows of
    zeros; the grouping, and with it the summation order, is that mask's. A
    family held on every row takes groups of one, so its sum is that of the
    dense products, one c_a at a time.
    """
    values = c.values
    p, *lead, r, n = values.shape
    size = n // max(r, 1)
    # (..., p, |R|, n): the c_a on the held rows, their index next to the rows
    stacked = values.transpose(*range(1, values.ndim - 2), 0, -2, -1)
    out = np.zeros((*lead, n, n), dtype=values.dtype)
    for a in range(0, p - k if r else 0, size):
        span = min(size, p - k - a)
        lhs, rhs = (stacked[..., b:b + span, :, :].reshape(*lead, span * r, n) for b in (a, a + k))
        out += dagger(lhs) @ rhs
    return out


def occupied(c: OrthoRep) -> np.ndarray:
    """sum_g c_g^dag c_g over a (p, ..., n, n) family of annihilators: transfer(c, 0).

    Like :func:`lowering_from` and :func:`cyclic_from`, it acts on the last
    two axes: each c_g may itself be a stack of shape (..., n, n), one
    matrix per stack position, and the result is dense.
    """
    return transfer(c, 0)


def lowering_from(c: OrthoRep) -> np.ndarray:
    """L = c_1 + sum_{a=2..p} c_{a-1}^dag c_a built from a family of
    annihilators; c_1 is added on its rows R alone."""
    out = transfer(c, 1)
    out[..., c.rows, :] += c.values[0]
    return out


def _wrap(lowering: np.ndarray, c: OrthoRep) -> np.ndarray:
    """F = L + c_p^dag from the lowering operator of ``c``, in place:
    c_p^dag is added on its columns R alone."""
    lowering[..., :, c.rows] += dagger(c.values[-1])
    return lowering


def cyclic_from(c: OrthoRep) -> np.ndarray:
    """F = L + c_p^dag built from a family of annihilators."""
    return _wrap(lowering_from(c), c)


def ladder_operators(p: int) -> tuple[OrthoRep, np.ndarray, np.ndarray]:
    """The canonical representation, its lowering operator L (kills |0>) and
    its cyclic lowering operator F = L + c_p^dag (a (p+1)-cycle permutation
    matrix), each built once."""
    rep = canonical(p)
    L = lowering_from(rep)
    return rep, L, _wrap(L.copy(), rep)


@dataclass
class _Rows:
    """A stack of matrices with at most one entry per row: row i of matrix k
    holds ``vals[k, i]`` in column ``cols[k, i]`` (column 0, value 0 when
    the row is empty). Indexing selects matrices."""

    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def of(cls, m: np.ndarray, name: str, rows=None) -> _Rows:
        """The rows of a dense (..., n, n) stack, or of the (..., |R|, n)
        values of one held on the rows of the mask ``rows``, whose other
        rows are empty; ValueError, naming the matrix and the row, when some
        row holds two entries. ``name`` is the matrix's name, a format
        string that takes the 1-based index of a matrix in the stack. A
        row's one entry is its sum, as the rest are zeros."""
        n = m.shape[-1]
        at = slice(None) if rows is None else as_index(rows)
        nonzero = m != 0
        if np.count_nonzero(nonzero) > np.count_nonzero(nonzero.any(axis=-1)):
            *k, row = np.argwhere(np.count_nonzero(nonzero, axis=-1) > 1)[0]
            row = np.arange(n)[at][row]
            raise ValueError(f"{name.format(*(i + 1 for i in k))} holds two entries in row {row}")
        cols, vals = (np.zeros((*m.shape[:-2], n), dtype=dtype) for dtype in (int, m.dtype))
        cols[..., at], vals[..., at] = nonzero.argmax(axis=-1), m.sum(axis=-1)
        return cls(cols, vals)

    def __getitem__(self, k) -> _Rows:
        return _Rows(self.cols[k], self.vals[k])

    def __matmul__(self, other: _Rows) -> _Rows:
        # row i of A B is A[i, col_A[i]] times row col_A[i] of B; a stack of
        # k matrices pairs with one matrix or with k, and ``at`` indexes B's
        # rows as one flat array
        at = self.cols
        if other.cols.ndim == 2:
            at = at + other.cols.shape[1] * np.arange(len(other.cols))[:, None]
        return _Rows(other.cols.ravel()[at], self.vals * other.vals.ravel()[at])

    def dense(self) -> np.ndarray:
        """The one matrix, as an n x n array."""
        n = len(self.cols)
        out = np.zeros((n, n), dtype=self.vals.dtype)
        out[np.arange(n), self.cols] = self.vals
        return out


def _defect(a: _Rows, b: _Rows) -> np.ndarray:
    """max_abs(A - B) of each matrix of two stacks, row by row: |a - b| where
    the two entries share a column, else the larger of |a| and |b|."""
    same = a.cols == b.cols
    diff = np.where(same, np.abs(a.vals - b.vals), np.maximum(np.abs(a.vals), np.abs(b.vals)))
    return max_abs(diff, axis=-1)


def _powers(L: _Rows, count: int) -> _Rows:
    """L^0 .. L^{count-1}, each L^k = L^{k-1} L. Row i of L^k walks the
    column path i, col(i), col(col(i)), ..: the paths come by doubling, and
    the values are the running products of L's entries along them."""
    path, step = np.arange(len(L.cols))[None], L.cols
    while len(path) < count:  # path[j] = col^j; step = col^len(path)
        path, step = np.concatenate([path, step[path]]), step[step]
    path = path[:count]
    vals = np.ones(path.shape, dtype=L.vals.dtype)
    np.cumprod(L.vals[path[:-1]], axis=0, out=vals[1:])
    return _Rows(path, vals)


def _power(a: _Rows, n: int) -> _Rows:
    """A^n for n >= 2 by the products numpy.linalg.matrix_power forms, in its order."""
    if n <= 3:
        return a @ a if n == 2 else a @ a @ a
    z = result = None
    while n:
        z = a if z is None else z @ z
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else result @ z
    return result


def _closed_forms(c: _Rows, held: np.ndarray, count: int) -> _Rows:
    """c_k + sum_a c_a^dag c_{a+k} for k = 1..count (zero for k > p);
    ValueError, naming k and the row, when some row of one would hold two
    terms.

    With c_0 the identity on the rows R that ``held`` marks, c_k is
    c_0^dag c_k, so the closed form is sum_{a < b, b - a = k} c_a^dag c_b.
    On a row r of R, c_a^dag c_b puts conj(c_a[r]) c_b[r] at
    (col_a[r], col_b[r]); every pair a < b is formed in one call. With one
    term per row, each entry is that term alone, as in the sum that
    :func:`transfer` forms.
    """
    p, n = c.cols.shape
    r = np.flatnonzero(held)
    ext = _Rows(np.vstack([r, c.cols[:, r]]), np.vstack([np.ones(len(r)), c.vals[:, r]]))
    a, b = np.triu_indices(p + 1, 1)
    lhs, rhs = ext[a], ext[b]
    term = (lhs.vals != 0) & (rhs.vals != 0)
    slot = ((b - a - 1)[:, None] * n + lhs.cols)[term]
    terms = np.bincount(slot, minlength=1)
    if terms.max() > 1:
        k, row = divmod(int(terms.argmax()), n)
        raise ValueError(f"closed form of L^{k + 1} holds two terms in row {row}")
    cols, vals = np.zeros(count * n, dtype=int), np.zeros(count * n, dtype=c.vals.dtype)
    cols[slot], vals[slot] = rhs.cols[term], (np.conj(lhs.vals) * rhs.vals)[term]
    return _Rows(cols.reshape(count, n), vals.reshape(count, n))


def ladder_identity_residuals(rep: OrthoRep, L: np.ndarray, F: np.ndarray) -> dict[str, float]:
    """Residuals of the ladder-operator identity catalog on the canonical rep.

    ``rep``, ``L`` and ``F`` are what :func:`ladder_operators` returns, so a
    caller that also needs L and F builds them once. Every entry is
    max_abs(LHS - RHS) and equals 0.0 exactly. Conventions that make the
    catalog uniform down to p = 1: c_0 means Pi and L^0 means the identity.
    The sandwich identity L^{p-k} L^dag L^k = L^{p-1} is listed for k in
    1..p-1; at k = p the product instead equals L^{p-1} - c_{p-1}, which is
    covered by its own entry.

    Each of L, L^dag, F, Pi and the c_a of the canonical rep holds at most
    one entry per row, and the catalog holds each by its rows
    (:class:`_Rows`): row i of a product A B is A[i, col_A[i]] times row
    col_A[i] of B, one gather. Each family of identities (the powers, L^k Pi
    and Pi L^k, the sandwiches, the closed forms) is then a few calls over
    k, and F^{p+1} takes the products that numpy.linalg.matrix_power takes.
    Each entry is one multiplication, as in the dense products, so the
    residuals are theirs bitwise for real entries (to rounding for complex
    ones) unless a product overflows.

    The catalog's domain is operands with at most one entry per row: the
    canonical rep, direct sums of it and any change to the values of its
    entries. Raises :class:`DimensionError` unless L and F are (dim, dim),
    and ValueError, naming the operand and the row, when an operand or a
    closed form holds two entries in one row.
    """
    p, n, held = rep.p, rep.dim, rep.rows
    if np.shape(L) != (n, n) or np.shape(F) != (n, n):
        raise DimensionError(f"L and F must be {n} x {n}, got {np.shape(L)} and {np.shape(F)}")
    eye = np.eye(n, dtype=rep.values.dtype)
    pi = eye - occupied(rep)
    cs = _Rows.of(rep.values, "c_{}", held)
    top = rep.values[p - 1]
    l, ld, f, pi_rows = map(_Rows.of, (L, L.conj().T, F, pi), ("L", "L^dag", "F", "Pi"))
    powers = _powers(l, p + 3)  # powers[k] = L^k for k in 0..p+2
    below = powers[p - 1]
    # sandwich[k] = L^{p-k} Ldag L^k for k in 0..p, the terms of the sum rule
    sandwich = powers[p::-1] @ ld @ powers[:p + 1]
    # c_{p-1}, with c_0 = Pi, by rows
    c_last_rows = pi_rows if p == 1 else cs[p - 2]
    ks = range(1, p + 1)

    res: dict[str, float] = {}
    res["Ldag L = 1 - Pi"] = max_abs((ld @ l).dense() - (eye - pi))
    res["L Ldag = 1 - c_p^dag c_p"] = max_abs((l @ ld).dense() - (eye - dagger(top) @ top))
    res.update(zip((f"L^{k} closed form" for k in range(1, p + 3)),
                   _defect(powers[1:], _closed_forms(cs, held, p + 2)).tolist()))

    res["L^p Ldag = c_{p-1}"] = float(_defect(sandwich[0], c_last_rows))
    res["Ldag L^p = L^{p-1} - c_{p-1}"] = max_abs(sandwich[p].dense()
                                                  - (below.dense() - c_last_rows.dense()))
    kill = max_abs((powers[1:p + 1] @ pi_rows).vals, axis=-1)
    lift = _defect(pi_rows @ powers[1:p + 1], cs)
    res.update(zip((name for k in ks for name in (f"L^{k} Pi = 0", f"Pi L^{k} = c_{k}")),
                   np.column_stack([kill, lift]).ravel().tolist()))
    res.update(zip((f"L^{p - k} Ldag L^{k} = L^{p-1}" for k in ks[:-1]),
                   _defect(sandwich[1:p], below).tolist()))

    res["L^{p+1} = 0"] = max_abs(powers[p + 1].vals)
    # the sum rule adds the sandwiches in the dense catalog's order, k = 0 and p
    # first, then k = 1..p-1, so that every sum is the same bitwise
    terms = sandwich[[0, p, *ks[:-1]]]
    ssum = np.zeros((n, n), dtype=terms.vals.dtype)
    np.add.at(ssum, (np.broadcast_to(np.arange(n), terms.cols.shape), terms.cols), terms.vals)
    res["sum_k L^{p-k} Ldag L^k = p L^{p-1}"] = max_abs(ssum - p * below.dense())
    res["F^{p+1} = 1"] = float(_defect(_power(f, p + 1), powers[0]))
    return res
