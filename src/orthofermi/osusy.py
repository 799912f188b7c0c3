"""Truncated bose-orthofermi model and its derived supersymmetries.

The model couples one boson mode (hard-truncated to a finite ladder) to one
orthofermion species of order p through the supercharges

    Q_a = sqrt(2) a^dag (x) c_a,        H = (Q_1 Q_1^dag + sum_g Q_g^dag Q_g) / 2.

Defining H through the algebra relation keeps all three orthosupersymmetry
relations exact on the truncated space. The spectrum is {0, 1, .., levels-1};
each positive level is (p+1)-fold degenerate, while the kernel holds the
vacuum plus the p truncation-boundary states (which all charges annihilate,
so they behave exactly like extra zero modes).

Restricting the charges to an eigenspace of energy E > 0 and rescaling by
(2E)^{-1/2} yields an orthofermion representation; decomposing it and
transporting the canonical ladder operators back produces

    * a parasupersymmetry generator (nilpotent of order p+1, obeying the
      multilinear sum rule with the standard normalization
      sum_k Q^{p-k} Q^dag Q^k = 2p Q^{p-1} H), and
    * a fractional-supersymmetry generator whose (p+1)-th power is H.

A third generator assembled directly from the supercharges obeys
K^{p+1} = (2H)^p. Spectral calculus (H^a summed over positive eigenvalues
only) reproduces both spectrally built generators in closed form.

The number N = a^dag a + sum_g c_g^dag c_g is conserved: it commutes with H
and with every Q_a, since Q_a moves |n-1, a> to |n, 0>. Every operator is
therefore block-diagonal, with one (p+1)-dimensional block per sector
N = 1..levels-1; the vacuum and the p boundary states are annihilated by H
and by every charge. An :class:`OsusySystem` holds H and the charges as
stacks of equal-size blocks on a partition of the basis, one stack per
block size, and holds the states that every operator annihilates as null
states (``null``), one index each, in no block; it checks that the blocks
and the null states partition the basis and that every stack fits its
blocks, and reads p and dim off them. :func:`build_system` writes the
oscillator's sectors and their charge entries directly, forms H block by
block and holds the vacuum and the boundary states as null states, so no
stage makes a pass over them. :func:`system_from_dense` partitions dense
operators, such as a system in a generic basis (which is simply one
block), by the finest block partition that their nonzero entries admit
(:func:`block_partition`), and cuts each block size out of them with one
gather; it holds no null states. The stages do not assume the
oscillator's structure but read the partition off the system, and work on
its stacks, with no dim x dim array. Every nonzero entry lies
inside a block, so each residual is the dense one up to summation order.
Eigenvalues are clustered over all blocks together, each null state adding
one eigenvalue 0, so a cluster may span several blocks and null states:
in the oscillator, the E = 0 cluster is the 1+p null states. Each stage takes
only the result of the one before it, which holds its source
(``SpectralData.system``, ``SusyGenerators.spectrum``). :func:`run_suite`
is the one pipeline: it runs the stages in order on any system and
returns the residuals, the tolerance of each and the spectrum table.

Past :func:`spectral`, operators are multiplied on the blocks in each
block's eigenbasis V (``SpectralData.eigs``), in which :func:`spectral` has
restricted the charges once, as C = V^dag Q_a V (``SpectralData.charges``).
:func:`build_generators` keeps the entries of C within one positive cluster
and transports its results back with V; the closed forms take
H^a = V diag(E^a) V^dag. The charges never couple two blocks, so a cluster's
representation is the direct sum of its pieces, one per block it meets:
:func:`eigenspace_reps` cuts the pieces out of C and splits the positive
ones of one size (in the oscillator, every positive piece) with one
:func:`~orthofermi.reptheory.decompose_stack` against the identity as
unit, which certifies each piece by the unitary it builds; the pair
relations are checked once per system, by :func:`check_relations`, on the
blocks of the natural operators, where the relation kernel runs its pair
loop on the rows and columns that hold an entry: every charge block of the
oscillator holds its one nonzero entry in the same row, so all p charges of
a block size enter together as one row each; the null states lie in no
block and form no product, no piece and no copy. A piece with E <= 0 must
carry no charge and is trivial. A piece starts wherever the cluster changes along a
block's ascending levels, so the pieces of every block of one size are
found at once; the pieces of a class are ordered by cluster first and then
cut out of C with one gather, in C order, not one slice per piece.

Every stack with a p axis is an :class:`~orthofermi.canonical.OrthoRep`,
held on the rows that hold an entry: its (p, count, |R|, size) values on
those rows R, with the mask of R, so the zeros off R are never stored,
copied, gathered or reduced. In the oscillator R is one row per block, as
Q_a moves |n-1, a> to |n, 0>; in a generic basis R is every row, and the
same code forms the dense products in the same association. An
:class:`OsusySystem` holds its charges so, and :meth:`OsusySystem.dense`
assembles them. :func:`spectral` keeps C = V^dag Q_a V on the rows J that
can hold an entry, the columns of V[R, :] that hold one (J = R where
V = 1, as in the oscillator), by :func:`~orthofermi.canonical.conjugate`,
with one full-size product in place of two; the pieces are cut on those
rows, scaled and split on them, and the certificate's U^dag c_a U is
formed on the rows it can reach.
[H, Q_a] is formed on R and the rows where H[:, R] holds an entry, as
H[:, R] Q_a[R, :] less Q_a[R, :] H on the rows R. Only
:func:`build_generators` reads rows, those of its cluster cut of C that
keep an entry, and it reads them from the rows J, once per stack. The
generators, the closed forms and :func:`check_generators` form their
(count, size, size) temporaries in runs of blocks (:func:`_runs`), so a
long chain holds none of its whole stack. The generator sum rule is summed
by doubling, in O(log p) products (:func:`_sum_rule`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .canonical import (OrthoRep, _hold, _wrap, as_index, conjugate, cyclic_from, held_rows,
                        lowering_from, occupied, transfer)
from .errors import ClusteringError, DimensionError, NotARepresentationError, TruncationError
from .linalg import (DEFAULT_TOL, HermEig, check_addressable, check_order, dagger, field,
                     herm_eig, is_count, max_abs)
from .reptheory import decompose_stack, relation_residuals

#: Default relative tolerance for grouping eigenvalues into clusters.
DEFAULT_CLUSTER_TOL = 1e-8

#: Default relative tolerance on generator identities.
DEFAULT_GENERATOR_TOL = 1e-8

#: Tolerance for entrywise agreement of spectral and closed-form generators.
CLOSED_FORM_TOL = 1e-9

#: Entries of a block stack that :func:`check_generators` takes at once.
_RUN_ENTRIES = 2**17

#: The checks of :func:`check_generators` held to :data:`CLOSED_FORM_TOL`;
#: its other checks are held to :data:`DEFAULT_GENERATOR_TOL`.
CLOSED_FORMS = ("para closed form", "frac closed form")


@dataclass(frozen=True)
class OsusySystem:
    """Orthosupersymmetric system of order p: its charges and H.

    The operators are held on their block partition ``blocks`` (see
    :func:`block_partition`), one (count, size) index array per block size,
    and on the null states ``null``, a 1-D index array, empty by default:
    the basis states that H and every charge annihilate, whose rows and
    columns are zero and which lie in no block. Per block size, ``charges``
    holds the charges' blocks as one (p, count, size, size)
    :class:`~orthofermi.canonical.OrthoRep`, on the rows that hold an
    entry, and ``H`` the (count, size, size) stack of H's blocks; every
    entry outside the blocks is zero. The order ``p`` is read off the
    stacks, and the dimension ``dim`` counts the blocks' indices and the
    null states. Raises :class:`DimensionError` unless the blocks are
    integer ``numpy.ndarray`` values, nested lists included in the refusal,
    and ``null`` an integer array (an empty ``null``, such as ``[]``, is
    held as an empty int array), there is a block and the blocks and the
    null states together partition 0..dim-1 (so a null index out of range,
    repeated or also in a block is refused), every charge stack is an
    ``OrthoRep`` and every stack fits its blocks. :meth:`dense` assembles
    the dim x dim matrices, with the null rows and columns zero. The mask
    of a charge stack cannot go stale: its values hold the rows R alone,
    and the mask is read-only. ``dataclasses.replace`` and the ``copy`` and
    ``pickle`` modules carry ``null``.
    """

    blocks: list[np.ndarray]
    charges: list[OrthoRep]
    H: list[np.ndarray]
    null: np.ndarray = dataclass_field(default_factory=lambda: np.zeros(0, dtype=int))

    def __post_init__(self):
        null = np.asarray(self.null)
        if not null.size:
            null = null.astype(int)  # [] reads as float64, yet names no state
        for rows in self.blocks:
            if not isinstance(rows, np.ndarray):
                raise DimensionError("blocks must be integer index arrays, "
                                     f"got {type(rows).__name__}")
        for dtype in (rows.dtype for rows in (*self.blocks, null)):
            if dtype.kind not in "iu":
                raise DimensionError(f"blocks and null must be integer index arrays, got {dtype}")
        found = np.concatenate([np.ravel(rows) for rows in self.blocks] + [null.ravel()])
        if (not self.blocks or any(np.ndim(rows) != 2 for rows in self.blocks) or null.ndim != 1
                or not np.array_equal(np.sort(found), np.arange(found.size))):
            raise DimensionError("blocks must be (count, size) arrays and null a 1-D array "
                                 "that together partition 0..dim-1, with at least one block")
        object.__setattr__(self, "null", null)
        _check_stacks("H", [np.shape(h) for h in self.H], self.blocks)
        for q in self.charges:
            if not isinstance(q, OrthoRep):
                raise DimensionError(f"charges must be OrthoRep stacks, got {type(q).__name__}")
        shapes = [q.shape for q in self.charges]
        _check_stacks("charges", shapes, self.blocks, shapes[0][:1] if shapes else ())

    @property
    def p(self) -> int:
        return self.charges[0].p

    @property
    def dim(self) -> int:
        return sum(rows.size for rows in self.blocks) + self.null.size

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """The (p, dim, dim) charges and the dim x dim H."""
        return (_assemble(self.dim, self.blocks, [q.dense() for q in self.charges]),
                _assemble(self.dim, self.blocks, self.H))


def _check_stacks(name: str, found: list[tuple], blocks: list[np.ndarray],
                  lead: tuple = ()) -> None:
    """Raise :class:`DimensionError` unless the stack shapes ``found`` are one
    (*lead, count, size, size) per (count, size) array of ``blocks``."""
    shapes = [(*lead, *rows.shape, rows.shape[1]) for rows in blocks]
    found = list(found)
    if found != shapes:
        raise DimensionError(f"{name} needs block stacks {shapes}, got {found}")


@dataclass(frozen=True)
class SpectralData:
    """Clustered eigendecomposition of the Hamiltonian, block by block.

    ``energies`` are the distinct cluster values of the H of ``system``,
    ascending, and ``multiplicities[k]`` the dimension of cluster k; the
    E = 0 cluster counts the system's null states. Per
    block size of the system's partition, ``eigs`` holds the eigensolve of
    H's (count, size, size) block stack, ``levels`` the (count, size)
    cluster energy of each of its eigenvalues (0 on the E = 0 cluster),
    ``charges`` the (p, count, size, size) charges in the eigenbasis,
    C = V^dag Q_a V, held on the rows J that can hold an entry
    (:func:`~orthofermi.canonical.conjugate`).
    """

    energies: list[float]
    multiplicities: list[int]
    system: OsusySystem
    eigs: list[HermEig]
    levels: list[np.ndarray]
    charges: list[OrthoRep]


@dataclass(frozen=True)
class SusyGenerators:
    """Derived symmetry generators of the system of ``spectrum``, as block stacks.

    ``para``        nilpotent parasupersymmetry generator,
    ``frac``        fractional generator with frac^{p+1} = H,
    ``frac_direct`` charge-assembled generator with frac_direct^{p+1} = (2H)^p;
    each is one (count, size, size) stack per block size of
    ``spectrum.system.blocks``, or :class:`DimensionError` is raised.
    """

    spectrum: SpectralData
    para: list[np.ndarray]
    frac: list[np.ndarray]
    frac_direct: list[np.ndarray]

    def __post_init__(self):
        for name in ("para", "frac", "frac_direct"):
            _check_stacks(name, map(np.shape, getattr(self, name)), self.spectrum.system.blocks)


def build_system(p: int, levels: int) -> OsusySystem:
    """Construct the truncated model of order ``p`` with ``levels`` boson states.

    The boson annihilator acts as a|n> = sqrt(n)|n-1> on occupations
    0..levels-1 with a^dag|levels-1> = 0 (hard cutoff), and Q_a moves
    |n, a> (index n(p+1) + a) to |n+1, 0> (index (n+1)(p+1)). The sectors of
    the conserved number N are written directly: sector N = n+1, for
    n < levels-1, is the index range n(p+1)+1 .. (n+1)(p+1), in which Q_a has
    the one entry sqrt(2) sqrt(n+1) at slot (p, a-1). The vacuum 0 and the
    p boundary states (levels-1)(p+1) + a carry no charge and no energy:
    they are the system's null states, in no block, so the system holds one
    stack, the sectors'. The charges are written on the one row that holds
    their entries, slot p, and H is formed from them block by block, with
    no dim x dim array and no (p, count, p+1, p+1) one. Every stack is real,
    float64.
    """
    p = check_order(p)
    if not is_count(levels, 2):
        raise TruncationError(f"need at least 2 boson levels, got {levels!r}")
    levels = int(levels)
    check_addressable(TruncationError, f"levels = {levels} at p = {p}", p, levels, p + 1, p + 1)
    n, top = np.arange(levels - 1), (levels - 1) * (p + 1)
    q = np.zeros((p, n.size, 1, p + 1))
    a = np.arange(p)
    q[a, :, 0, a] = math.sqrt(2.0) * np.sqrt(n + 1.0)
    charges = OrthoRep(q, np.arange(p + 1) == p)
    h = occupied(charges)
    h[:, p, p] += (q[0] @ dagger(q[0]))[:, 0, 0]  # Q_1 Q_1^dag, on the held row alone
    return OsusySystem([np.arange(1, top + 1).reshape(n.size, p + 1)], [charges],
                       [0.5 * h], np.append(0, top + np.arange(1, p + 1)))


def system_from_dense(p: int, Q, H) -> OsusySystem:
    """The system of the dense dim x dim charges ``Q`` (p of them) and ``H``.

    The blocks are the :func:`block_partition` of the entries that are
    nonzero in H or in some charge, so no entry falls outside them, and the
    system holds no null states: a state with no entry is a block of size 1.
    Each block size is then cut out of each operator with one gather, the
    inverse of :meth:`OsusySystem.dense`. The stacks take the common
    dtype of the operators under :func:`~orthofermi.linalg.field`'s rule:
    float64 when none of them is complex, complex128 otherwise. The
    operators are read one at a time, so beyond its input the call holds
    one bool pattern, one copy of an operator not already float64 or
    complex128, and the blocks.
    """
    p = check_order(p)
    ops = (H, *Q)
    shapes = [np.shape(m) for m in ops]
    if len(Q) != p or len(shapes[0]) != 2 or len(set(shapes)) != 1 or len(set(shapes[0])) != 1:
        raise DimensionError(f"need H and {p} charges as square matrices of one size, "
                             f"got shapes {shapes}")
    pattern, kind = np.zeros(shapes[0], dtype=bool), float
    for m in ops:
        m = field(m)
        pattern |= m != 0
        kind = np.result_type(kind, m)
    blocks = block_partition(len(pattern), *np.nonzero(pattern))
    stacks = [np.empty((p + 1, *rows.shape, rows.shape[1]), dtype=kind) for rows in blocks]
    for i, m in enumerate(ops):
        m = field(m)
        for rows, stack in zip(blocks, stacks):
            stack[i] = m[rows[:, :, None], rows[:, None, :]]
    return OsusySystem(blocks, [_hold(s[1:]) for s in stacks], [s[0] for s in stacks])


def block_partition(dim: int, rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """Finest block partition of 0..dim-1 that holds every index pair (rows, cols).

    The blocks are the connected components of the graph that links basis
    indices i and j whenever (i, j) or (j, i) is a pair. Returns one integer
    array of shape (count, size) per block size, by ascending size; each row
    holds the indices of one block, ascending, and rows are ordered by their
    first index.
    """
    i, j = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    # each index takes the least label among its neighbours, then labels are
    # followed to their fixed points; at rest every block carries the least
    # index it holds
    label = np.arange(dim)
    while True:
        lower = label.copy()
        np.minimum.at(lower, i, label[j])
        while not np.array_equal(lower[lower], lower):
            lower = lower[lower]
        if np.array_equal(lower, label):
            break
        label = lower
    order = np.argsort(label, kind="stable")
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    return [order[starts[sizes == size][:, None] + np.arange(size)]
            for size in sorted(set(sizes.tolist()))]


def _assemble(dim: int, blocks: list[np.ndarray], stacks: list[np.ndarray]) -> np.ndarray:
    """The dim x dim matrix with the given block stacks and zeros elsewhere;
    (k, count, size, size) stacks give k such matrices, as (k, dim, dim), in
    the stacks' common dtype."""
    out = np.zeros((*stacks[0].shape[:-3], dim, dim), dtype=np.result_type(float, *stacks))
    for rows, stack in zip(blocks, stacks):
        out[..., rows[:, :, None], rows[:, None, :]] = stack
    return out


def _commutator(h: np.ndarray, q: OrthoRep) -> OrthoRep:
    """[H, Q_a] of a (count, size, size) H stack and a (p, count, size, size)
    charge stack held on the rows R, held on the rows O = R and the rows
    where H[:, R] holds an entry. H Q_a needs only H's columns R, and is
    zero off the rows O; Q_a H is zero off the rows R. The products keep
    the association of h @ q - q @ h."""
    held = q.rows
    cols = as_index(held)
    rows = held | h[..., :, cols].any(axis=(0, -1))
    out = h[..., as_index(rows), :][..., cols] @ q.values
    out[..., held[rows], :] -= q.values @ h
    return OrthoRep(out, rows)


def check_relations(spectrum: SpectralData) -> dict[str, float]:
    """Residuals of the orthosupersymmetry relations and of H >= 0.

    The charges of ``spectrum.system`` obey the orthofermion relations with
    2H as unit; a NaN defect in any block makes its residual NaN. Every
    pair (a, b) is checked, each block size in one call of
    :func:`~orthofermi.reptheory.relation_residuals`, which runs its pair
    loop on the rows and columns where the blocks hold an entry, and
    [H, Q_a] on the rows that can hold an entry (:func:`_commutator`),
    both on the charges as the system holds them; the values are those of
    the full products. The positivity entry is
    max(0, -min eigenvalue) over ``spectrum``, so 0.0 means a nonnegative
    spectrum.
    """
    sys = spectrum.system
    worst = np.zeros(3)
    for h, q in zip(sys.H, sys.charges):
        worst = np.maximum(worst, (max_abs(_commutator(h, q).values),
                                   *relation_residuals(q, 2 * h)))
    res = {"[H, Q_a] = 0": float(worst[0])}
    res["Q_a Q_b = 0"], res["Q_a Q_b^dag + d_ab sum Q^dag Q = 2 d_ab H"] = worst[1:].tolist()
    res["H >= 0"] = max(0.0, -min(float(eig.values.min()) for eig in spectrum.eigs))
    return res


def spectral(sys: OsusySystem, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralData:
    """Group the spectrum of H into well-separated eigenvalue clusters.

    H is diagonalized block by block on the system's partition, with one
    batched eigensolve per block size, each null state adding one
    eigenvalue 0 after the stacks' values, and the charges are
    restricted to each block's eigenbasis as V^dag Q_a V, from the charges
    as the system holds them, and held on the rows that can hold an entry
    (:func:`~orthofermi.canonical.conjugate`).
    ``cluster_tol`` is relative to max(1, largest |eigenvalue|). Eigenvalues within that
    threshold of zero are snapped into a single E = 0 cluster; the others,
    sorted, form a new cluster wherever the step from the previous value
    exceeds the threshold. A cluster's energy is ``np.mean`` of its sorted
    values, taken for all clusters of one size in one call. Each cluster
    must have internal spread at most the threshold and be separated from
    its neighbors by more than the threshold, otherwise a
    :class:`ClusteringError` names the first failing cluster in energy
    order, spreads checked before gaps.
    """
    eigs = [herm_eig(h) for h in sys.H]
    charges = [conjugate(q, eig.vectors) for eig, q in zip(eigs, sys.charges)]
    values = np.concatenate([eig.values.ravel() for eig in eigs] + [np.zeros(sys.null.size)])
    order = np.argsort(values, kind="stable")
    vals = values[order]
    threshold = cluster_tol * max(1.0, float(np.abs(vals).max())) if vals.size else cluster_tol

    # every cluster is a run of the sorted values: the zero band, and among
    # the other values a run that each step above the threshold ends
    zero = np.abs(vals) <= threshold
    rest = np.flatnonzero(~zero)
    heads = np.flatnonzero(~(np.diff(vals[rest], prepend=-np.inf) <= threshold))
    first, sizes = rest[heads], np.diff(heads, append=rest.size)
    energies = np.empty(first.size)
    for size in np.flatnonzero(np.bincount(sizes)):
        # one row per cluster of this size, each summed as np.mean sums it alone
        at = np.flatnonzero(sizes == size)
        energies[at] = np.mean(vals[first[at, None] + np.arange(size)], axis=1)
    if zero.any():
        band = np.flatnonzero(zero)
        first, sizes = np.append(first, band[0]), np.append(sizes, band.size)
        energies = np.append(energies, 0.0)
    by_energy = np.argsort(energies, kind="stable")
    energies, first, sizes = energies[by_energy], first[by_energy], sizes[by_energy]
    last = first + sizes - 1

    spread = vals[last] - vals[first]
    for k in np.flatnonzero(spread > threshold)[:1]:
        raise ClusteringError(f"cluster at E = {energies[k]:.6g} has spread "
                              f"{spread[k]:.3e} > {threshold:.3e}")
    gap = vals[first[1:]] - vals[last[:-1]]
    for k in np.flatnonzero(gap <= threshold)[:1]:
        raise ClusteringError(f"clusters at E = {energies[k]:.6g} and E = {energies[k + 1]:.6g} "
                              f"separated by only {gap[k]:.3e}")

    level = np.empty_like(values)
    runs = np.argsort(first)
    level[order] = np.repeat(energies[runs], sizes[runs])
    ends = np.cumsum([eig.values.size for eig in eigs])
    levels = [level[end - eig.values.size:end].reshape(eig.values.shape)
              for eig, end in zip(eigs, ends)]
    return SpectralData(energies.tolist(), sizes.tolist(), sys, eigs, levels, charges)


def eigenspace_reps(spectrum: SpectralData, tol: float = DEFAULT_TOL) -> list[int]:
    """The canonical copies in the representation of each eigenspace, in
    the order of ``spectrum.energies``.

    For E > 0 the rescaled restrictions (2E)^{-1/2} B^dag Q_a B satisfy the
    orthofermion relations with the eigenspace identity as unit; the
    decomposition must then consist purely of canonical copies, forcing the
    eigenspace dimension to be a multiple of p+1. For E <= 0 the restricted
    charges must vanish within ``tol``; the eigenspace then carries the
    trivial representation, with no decomposition, and holds no copy. Each
    piece of a cluster, its part in one block, is a contiguous run of the
    block's ascending levels: per block size, a piece starts at column 0
    and wherever the cluster changes along a row. The pieces of one class
    (sign of E, size) are ordered by cluster and cut out of
    ``spectrum.charges`` in one gather per block size they come from
    (:func:`_cut_pieces`); the cluster's copies are the sum over its
    pieces. The pieces of one positive class are decomposed in one
    :func:`decompose_stack` against the identity as unit, which certifies
    each split by its unitary and forms the table of pair relations only
    when a check refuses. Classes run in the order they first appear,
    blocks by ascending size, and pieces within a class by energy, so an
    error names the energy of the first failing eigenspace of the first
    failing class.
    """
    classes: dict[tuple, list[tuple]] = {}
    for stack, level in enumerate(spectrum.levels):
        idx = np.searchsorted(spectrum.energies, level)
        size = level.shape[1]
        cut = np.ones(level.shape, dtype=bool)
        cut[:, 1:] = idx[:, 1:] != idx[:, :-1]
        starts = np.flatnonzero(cut)
        lengths = np.diff(starts, append=level.size)
        block, at = np.divmod(starts, size)
        kinds = 2 * lengths + (level.flat[starts] > 0.0)
        for kind in dict.fromkeys(kinds.tolist()):  # in the order they first appear
            mine = kinds == kind
            classes.setdefault((kind % 2 == 1, kind // 2), []).append(
                (np.full(np.count_nonzero(mine), stack), idx.flat[starts[mine]], block[mine],
                 at[mine]))
    copies = np.zeros(len(spectrum.energies), dtype=int)
    for (positive, size), found in classes.items():
        stacks, idx, block, at = (np.concatenate(part) for part in zip(*found))
        by_cluster = np.argsort(idx, kind="stable")
        idx = idx[by_cluster]
        c = _cut_pieces(spectrum.charges, *(x[by_cluster] for x in (stacks, block, at)), size)
        if not positive:
            stray = max_abs(c.values)
            if not stray <= tol:
                raise NotARepresentationError(
                    f"E = 0 eigenspace carries nonzero charges, residual {stray:.3e}")
            continue
        energies = np.asarray(spectrum.energies)[idx]
        c.values[...] *= (1.0 / np.sqrt(2.0 * energies))[:, None, None]
        dec = decompose_stack(c, np.eye(size, dtype=c.values.dtype), tol,
                              labels=lambda i: f"eigenspace E = {energies[i]:.6g}")
        np.add.at(copies, idx, dec.multiplicity)
    copies = copies.tolist()
    p = spectrum.system.p
    # a split's trivial dimension is its size less (p + 1) per copy
    for energy, mult, m in zip(spectrum.energies, spectrum.multiplicities, copies):
        if energy > 0.0 and m * (p + 1) != mult:
            raise NotARepresentationError(
                f"eigenspace E = {energy:.6g} of dimension {mult} is not a pure sum of "
                f"canonical copies (got {m} copies, trivial {mult - m * (p + 1)})")
    return copies


def _cut_pieces(charges: list[OrthoRep], stacks, block, at, size: int) -> OrthoRep:
    """The C-ordered (p, pieces, size, size) stack of the pieces of one
    class, in the given order, held on the rows R that hold an entry of
    some piece. Piece i is the square of ``size`` at diagonal offset
    ``at[i]`` of block ``block[i]`` of the charge stack
    ``charges[stacks[i]]``, held on that stack's rows. Pieces of one charge
    stack, every piece of the oscillator, are cut with one gather, which is
    also the result and lies in C order, which is what
    :func:`decompose_stack`'s products are fastest on. A piece cut from a
    stack of blocks of ``size`` is a whole block, as every piece of the
    oscillator is, and such pieces are taken with one ``np.take`` of their
    blocks, on the stack's rows; other pieces are gathered with every axis
    indexed by an array, on the rows that some of them hold, and a row that
    one piece does not hold is zero in it. Pieces of several stacks are
    held on the union of their rows. The result takes the common dtype of
    ``charges``."""
    r = np.arange(size)
    a = np.arange(charges[0].p)[:, None, None, None]

    def gather(source, mine):
        values, held = charges[source].values, charges[source].rows
        if held.size == size:
            return OrthoRep(np.take(values, block[mine], axis=1), held)
        rows = at[mine, None] + r  # the block rows of each piece
        keep = held[rows].any(axis=0)
        rows = rows[:, keep]
        s = at[mine, None, None]
        out = values[a, block[mine, None, None], (np.cumsum(held) - 1)[rows][..., None], s + r]
        return OrthoRep(np.where(held[rows][..., None], out, 0), keep)
    sources = dict.fromkeys(stacks.tolist())
    if len(sources) == 1:
        return gather(stacks[0], slice(None))
    found = {source: gather(source, stacks == source) for source in sources}
    rows = np.logical_or.reduce([piece.rows for piece in found.values()])
    out = np.empty((charges[0].p, stacks.size, np.count_nonzero(rows), size),
                   dtype=np.result_type(*(q.values for q in charges)))
    for source, piece in found.items():
        out[:, stacks == source] = piece.on(rows).values
    return OrthoRep(out, rows)


def _positive(levels: np.ndarray) -> np.ndarray:
    """``levels`` with every E <= 0 replaced by 1, so that any power of it is finite."""
    return np.where(levels > 0.0, levels, 1.0)


def _cluster_cut(c: OrthoRep, level: np.ndarray) -> OrthoRep:
    """The restricted charges ``c`` on their rows, keeping only their
    entries within one positive cluster of the (count, size) ``level``,
    rescaled by (2E)^{-1/2}."""
    on_rows = level[..., as_index(c.rows)]
    same = (on_rows[..., :, None] == level[..., None, :]) & (on_rows > 0.0)[..., :, None]
    return OrthoRep(np.multiply(c.values, 1.0 / np.sqrt(2.0 * _positive(on_rows)[..., None]),
                                out=np.zeros_like(c.values), where=same), c.rows)


def build_generators(spectrum: SpectralData) -> SusyGenerators:
    """Assemble the derived generators block by block in H's eigenbasis.

    The restricted charges ``spectrum.charges`` keep only their entries
    within one positive cluster, rescaled by (2E)^{-1/2}
    (:func:`_cluster_cut`), so the canonical ladder formulas give L and F on
    every cluster of a block at once; they are dressed with sqrt(2E) and
    E^{1/(p+1)} and transported back with V. Both generators vanish on the
    kernel of H by construction, which also makes them commute with H
    exactly. ``frac_direct`` is cyclic_from(Q)^dag. The rows of the cut
    that keep an entry are read from the rows that C is held on, once per
    stack, over all its blocks; the cut is then made on those rows and the
    generators formed from it in runs of blocks (:func:`_in_runs`), so that
    the ladder sums take the grouping of the whole stack and no temporary
    holds all of it. The charges enter as the system holds them.
    """
    p = spectrum.system.p
    kept = []
    for level, c in zip(spectrum.levels, spectrum.charges):
        keep = np.logical_or.reduce([held_rows(_cluster_cut(c[run], level[run]).values)
                                     for run in _runs(*level.shape)])
        rows = c.rows.copy()
        rows[c.rows] = keep
        kept.append(OrthoRep(c.values[..., as_index(keep), :], rows))

    def form(v, level, c, q):
        yield dagger(cyclic_from(q))
        energy = _positive(level)[..., :, None]
        cut = _cluster_cut(c, level)
        ladder = lowering_from(cut)
        yield v @ (np.sqrt(2.0 * energy) * ladder) @ dagger(v)
        ladder = _wrap(ladder, cut)  # L becomes F
        ladder *= energy ** (1.0 / (p + 1))
        yield v @ ladder @ dagger(v)
    direct, para, frac = zip(*_in_runs(spectrum, form, zip(kept, spectrum.system.charges)))
    return SusyGenerators(spectrum, list(para), list(frac), list(direct))


def _power(vectors: np.ndarray, level: np.ndarray, a: float) -> np.ndarray:
    """The block stack V diag(E^a) V^dag of eigenvectors V and levels E, with
    E^a = 0 for E <= 0."""
    return (vectors * np.where(level > 0.0, _positive(level) ** a, 0.0)[..., None, :]) \
        @ dagger(vectors)


def _powers(spectrum: SpectralData, a: float) -> list[np.ndarray]:
    """Per block size, the block stack V diag(E^a) V^dag, with E^a = 0 for E <= 0."""
    return [_power(eig.vectors, level, a) for eig, level in zip(spectrum.eigs, spectrum.levels)]


def _runs(count: int, size: int) -> list[slice]:
    """Slices that cut a stack of ``count`` blocks of ``size`` into runs of
    about :data:`_RUN_ENTRIES` entries, one slice for an empty stack. A
    stage that forms a long chain's temporaries run by run keeps them small,
    and each block's products are those of the whole stack."""
    step = max(1, _RUN_ENTRIES // size**2)
    return [slice(start, start + step) for start in range(0, max(count, 1), step)]


def _in_runs(spectrum: SpectralData, form, families) -> list[list[np.ndarray]]:
    """Per block size, the (count, size, size) stacks that ``form`` yields
    run by run (:func:`_runs`), one at a time, from the run's eigenvectors
    and levels and the run of each family of that block size in
    ``families``; each stack takes the dtype and the memory layout of the
    arrays it is made of, and a stack of one run is the array ``form``
    yields."""
    out = []
    for eig, level, operands in zip(spectrum.eigs, spectrum.levels, families):
        runs, stacks = _runs(*level.shape), []
        if len(runs) == 1:
            out.append(list(form(eig.vectors, level, *operands)))
            continue
        for run in runs:
            for i, m in enumerate(form(eig.vectors[run], level[run], *(c[run] for c in operands))):
                if i == len(stacks):
                    stacks.append(np.empty_like(m, shape=(len(level), *m.shape[1:])))
                stacks[i][run] = m
                del m  # freed before the next is formed
        out.append(stacks)
    return out


def closed_form_para(spectrum: SpectralData) -> list[np.ndarray]:
    """Q_1 + (2H)^{-1/2} sum_{a=2..p} Q_{a-1}^dag Q_a via spectral calculus,
    one (count, size, size) stack per block size, formed in runs of blocks;
    the transfer sum is :func:`~orthofermi.canonical.transfer` of the
    charges at k = 1, as the system holds them; Q_1 adds on its rows R
    alone."""
    def form(v, level, q):
        out = (2.0 ** -0.5 * _power(v, level, -0.5)) @ transfer(q, 1)
        out[..., q.rows, :] += q.values[0]
        yield out
    return [stack for stack, in _in_runs(spectrum, form, ((q,) for q in spectrum.system.charges))]


def closed_form_frac(spectrum: SpectralData) -> list[np.ndarray]:
    """Charge expression of the fractional generator via spectral calculus,
    one (count, size, size) stack per block size, formed in runs of blocks.

    The outer terms carry H^{-(p-1)/(2(p+1))} so that on a cluster of energy
    E they contribute E^{1/(p+1)} once the sqrt(2E) inside the charges is
    accounted for; the transfer sum, :func:`~orthofermi.canonical.transfer`
    of the charges at k = 1, carries H^{-p/(p+1)}. The charges enter as the
    system holds them: Q_1 through the columns R of the outer power, and
    Q_p^dag onto the columns R alone.
    """
    p = spectrum.system.p

    def form(v, level, q):
        outer = 2.0 ** -0.5 * _power(v, level, -(p - 1) / (2.0 * (p + 1)))
        inner = 0.5 * _power(v, level, -p / (p + 1))
        out = outer[..., :, q.rows] @ q.values[0] + inner @ transfer(q, 1)
        out[..., :, q.rows] += outer @ dagger(q.values[-1])
        yield out
    return [stack for stack, in _in_runs(spectrum, form, ((q,) for q in spectrum.system.charges))]


def _sum_rule(p: int, H: np.ndarray, para: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of sum_{k=0..p} para^{p-k} para^dag para^k = 2p para^{p-1} H,
    p >= 2, in O(log p) products.

    U(n) := sum_{k<n} para^{n-1-k} para^dag para^k obeys
    U(2n) = para^n U(n) + U(n) para^n and U(n+1) = para U(n) + para^dag para^n,
    so walking the bits of p-1 from U(1) = para^dag gives U(p-1) and
    para^{p-1}, and two steps of one more give the left side U(p+1).
    """
    para_dag = dagger(para)
    lhs, power = para_dag, para
    for bit in bin(p - 1)[3:]:
        lhs = power @ lhs + lhs @ power
        power = power @ power
        if bit == "1":
            lhs = para @ lhs + para_dag @ power
            power = para @ power
    rhs = 2.0 * p * power @ H
    lhs = para @ lhs + para_dag @ power
    return para @ lhs + para_dag @ (para @ power), rhs


def _generator_terms(p: int, H, para, frac, direct, closed_para, closed_frac):
    """The matrices whose max_abs make up the generator residuals, on one
    stack, as (name, matrix) pairs, each formed when the one before it has
    been taken."""
    power = np.linalg.matrix_power
    yield from (("H", H), ("para", para), ("frac", frac), ("para^{p+1}", power(para, p + 1)))
    if p >= 2:
        lhs, rhs = _sum_rule(p, H, para)
        yield "sum rule rhs", rhs
        yield "sum rule", lhs - rhs
    yield "frac^{p+1} - H", power(frac, p + 1) - H
    two_h = power(2.0 * H, p)
    yield "(2H)^p", two_h
    yield "frac_direct^{p+1} - (2H)^p", power(direct, p + 1) - two_h
    yield "[para, H]", para @ H - H @ para
    yield "[frac, H]", frac @ H - H @ frac
    yield CLOSED_FORMS[0], para - closed_para
    yield CLOSED_FORMS[1], frac - closed_frac


def check_generators(gens: SusyGenerators) -> dict[str, float]:
    """Scaled residuals of the generator identity suite.

    Power identities are normalized by the magnitude of their right-hand
    side (or by the matching power of max(1, 2 max|H|) when the right-hand
    side is zero); commutators by the product of the operand magnitudes;
    the closed-form comparisons are plain entrywise defects. The sum rule
    needs p >= 2 because its right-hand side contains the (p-1)-th power of
    the generator; for p = 1 the entry is omitted. Every term is computed
    block by block on the partition of ``gens.spectrum.system``, against
    that system's H; a NaN defect in any block makes its residual NaN. A
    stack is taken in runs of blocks (:func:`_runs`), and each term is
    reduced before the next is formed, so that a long chain forms no
    temporary of its whole stack; a maximum is the same in any order.
    """
    spectrum = gens.spectrum
    p = spectrum.system.p
    worst: dict[str, float] = {}
    for group in zip(spectrum.system.H, gens.para, gens.frac, gens.frac_direct,
                     closed_form_para(spectrum), closed_form_frac(spectrum)):
        for run in _runs(*group[0].shape[:2]):
            for name, m in _generator_terms(p, *(stack[run] for stack in group)):
                worst[name] = float(np.maximum(worst.get(name, 0.0), max_abs(m)))

    def rel(defect: str, scale: float) -> float:
        return worst[defect] / max(1.0, scale)

    h = worst["H"]
    res: dict[str, float] = {}
    exponent = (p + 1) / 2.0
    try:
        res["para^{p+1} = 0"] = rel("para^{p+1}", max(1.0, 2.0 * h) ** exponent)
    except OverflowError:
        # (2h)^exponent exceeds the float range; (d^(1/e) / 2h)^e is d / (2h)^e
        # without forming it
        res["para^{p+1} = 0"] = (worst["para^{p+1}"] ** (1.0 / exponent) / (2.0 * h)) ** exponent
    if p >= 2:
        res["sum_k para^{p-k} para^dag para^k = 2p para^{p-1} H"] = \
            rel("sum rule", worst["sum rule rhs"])
    res["frac^{p+1} = H"] = rel("frac^{p+1} - H", h)
    res["frac_direct^{p+1} = (2H)^p"] = rel("frac_direct^{p+1} - (2H)^p", worst["(2H)^p"])
    res["[para, H] = 0"] = rel("[para, H]", worst["para"] * h)
    res["[frac, H] = 0"] = rel("[frac, H]", worst["frac"] * h)
    res.update((name, worst[name]) for name in CLOSED_FORMS)
    return res


def run_suite(system: OsusySystem, tol: float = DEFAULT_TOL,
              cluster_tol: float = DEFAULT_CLUSTER_TOL) -> tuple[dict, dict, list[dict]]:
    """The identity suite on ``system``: every stage, in order, and its table.

    Runs :func:`spectral` at ``cluster_tol``, :func:`check_relations`,
    :func:`eigenspace_reps` at ``tol``, :func:`build_generators` and
    :func:`check_generators`, so the first stage that refuses raises its
    error. Returns three things: the residuals, the relations' before the
    generators'; the tolerance of each, in the same order, ``tol`` for the
    relations, :data:`CLOSED_FORM_TOL` for :data:`CLOSED_FORMS` and
    :data:`DEFAULT_GENERATOR_TOL` for the other generator checks; and the
    spectrum table, one row ``{"E": E rounded to 12 places, "dim": its
    dimension, "copies": its canonical copies}`` per cluster, by ascending
    energy. The table holds only what any system has; a caller that knows
    its system may annotate the rows.
    """
    spectrum = spectral(system, cluster_tol)
    residuals = check_relations(spectrum)
    tolerances = dict.fromkeys(residuals, tol)
    copies = eigenspace_reps(spectrum, tol)
    generators = check_generators(build_generators(spectrum))
    residuals |= generators
    tolerances |= dict.fromkeys(generators, DEFAULT_GENERATOR_TOL)
    tolerances |= dict.fromkeys(CLOSED_FORMS, CLOSED_FORM_TOL)
    table = [{"E": round(energy, 12), "dim": mult, "copies": m}
             for energy, mult, m in zip(spectrum.energies, spectrum.multiplicities, copies)]
    return residuals, tolerances, table
