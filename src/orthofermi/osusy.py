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
N = 1..levels-1 and 1+p singletons (the vacuum and the boundary states).
The pipeline does not assume this structure but reads it off the operators:
an :class:`OsusySystem` holds H and the charges as stacks of equal-size
blocks on the finest block partition that their nonzero entries admit
(:func:`block_partition`). :func:`build_system` writes the charges' blocks
straight from their index pattern and forms H block by block;
:func:`system_from_dense` cuts dense operators, such as a system in a
generic basis, which is simply one block. Every stage works on these stacks
and on that partition, with no dim x dim array. Every nonzero entry lies
inside a block, so each residual is the dense one up to summation order.
Eigenvalues are clustered over all blocks together, so a cluster may span
several blocks: the E = 0 cluster spans the 1+p singletons. Each stage takes
only the result of the one before it, which holds its source
(``SpectralData.system``, ``SusyGenerators.spectrum``).

Past :func:`spectral`, operators are multiplied on the blocks in each
block's eigenbasis V (``SpectralData.eigs``), in which :func:`spectral` has
restricted the charges once, as C = V^dag Q_a V (``SpectralData.charges``).
:func:`build_generators` keeps the entries of C within one positive cluster
and transports its results back with V; the closed forms take
H^a = V diag(E^a) V^dag. The charges never couple two blocks, so a cluster's
representation is the direct sum of its pieces, one per block it meets:
:func:`eigenspace_reps` cuts the pieces out of C and splits the positive
ones of one size (in the oscillator, every positive piece) with one
:func:`~orthofermi.reptheory.decompose_stack`, which checks the relations
of the whole class once, against the identity as unit; a piece with E <= 0
must carry no charge and is trivial. A piece starts wherever the cluster
changes along a block's ascending levels, so the pieces of every block of
one size are found at once, and a class is cut out of C with one gather per
block size, not one slice per piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import check_order
from .canonical import cyclic_from, lowering_from, occupied
from .errors import ClusteringError, DimensionError, NotARepresentationError, TruncationError
from .linalg import DEFAULT_TOL, HermEig, dagger, herm_eig, max_abs
from .reptheory import decompose_stack, relation_residuals

#: Default relative tolerance for grouping eigenvalues into clusters.
DEFAULT_CLUSTER_TOL = 1e-8

#: Default relative tolerance on generator identities.
DEFAULT_GENERATOR_TOL = 1e-8

#: Tolerance for entrywise agreement of spectral and closed-form generators.
CLOSED_FORM_TOL = 1e-9


@dataclass(frozen=True)
class OsusySystem:
    """Orthosupersymmetric system of order p: its charges and H.

    The operators are held on their block partition ``blocks`` (see
    :func:`block_partition`), one (count, size) index array per block size.
    Per block size, ``Q`` holds the (p, count, size, size) stack of the
    charges' blocks and ``H`` the (count, size, size) stack of H's blocks;
    every entry outside the blocks is zero. :meth:`dense` assembles the
    dim x dim matrices.
    """

    p: int
    dim: int
    blocks: list[np.ndarray]
    Q: list[np.ndarray]
    H: list[np.ndarray]

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """The (p, dim, dim) charges and the dim x dim H."""
        return _assemble(self.dim, self.blocks, self.Q), _assemble(self.dim, self.blocks, self.H)


@dataclass(frozen=True)
class SpectralData:
    """Clustered eigendecomposition of the Hamiltonian, block by block.

    ``energies`` are the distinct cluster values of the H of ``system``,
    ascending, and ``multiplicities[k]`` the dimension of cluster k. Per
    block size of the system's partition, ``eigs`` holds the eigensolve of
    H's (count, size, size) block stack, ``levels`` the (count, size)
    cluster energy of each of its eigenvalues (0 on the E = 0 cluster) and
    ``charges`` the (p, count, size, size) charges in the eigenbasis,
    V^dag Q_a V.
    """

    energies: list[float]
    multiplicities: list[int]
    system: OsusySystem
    eigs: list[HermEig]
    levels: list[np.ndarray]
    charges: list[np.ndarray]


@dataclass(frozen=True)
class EigenspaceAnalysis:
    """Split of the orthofermion representation of one energy eigenspace:
    ``copies`` canonical copies plus a trivial block of ``trivial_dim``."""

    energy: float
    copies: int
    trivial_dim: int


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
        shapes = [(*rows.shape, rows.shape[1]) for rows in self.spectrum.system.blocks]
        for name in ("para", "frac", "frac_direct"):
            found = [np.shape(stack) for stack in getattr(self, name)]
            if found != shapes:
                raise DimensionError(f"{name} needs block stacks {shapes}, got {found}")


def build_system(p: int, levels: int) -> OsusySystem:
    """Construct the truncated model of order ``p`` with ``levels`` boson states.

    The boson annihilator acts as a|n> = sqrt(n)|n-1> on occupations
    0..levels-1 with a^dag|levels-1> = 0 (hard cutoff). Each Q_a has one
    nonzero entry per n < levels-1, sqrt(2) sqrt(n+1) from |n, a> (index
    n(p+1) + a) to |n+1, 0> (index (n+1)(p+1)); the blocks are read off those
    index pairs and H is formed block by block, with no dim x dim array.
    """
    p = check_order(p)
    if int(levels) != levels or levels < 2:
        raise TruncationError(f"need at least 2 boson levels, got {levels!r}")
    levels = int(levels)
    dim = levels * (p + 1)
    n = np.repeat(np.arange(levels - 1), p)
    a = np.tile(np.arange(1, p + 1), levels - 1)
    rows, cols = (n + 1) * (p + 1), n * (p + 1) + a
    blocks = block_partition(dim, rows, cols)
    Q = _scatter(blocks, p, a - 1, rows, cols, math.sqrt(2.0) * np.sqrt(n + 1.0))
    H = [0.5 * (q[0] @ dagger(q[0]) + occupied(q)) for q in Q]
    return OsusySystem(p=p, dim=dim, blocks=blocks, Q=Q, H=H)


def system_from_dense(p: int, Q, H) -> OsusySystem:
    """The system of the dense dim x dim charges ``Q`` (p of them) and ``H``.

    The blocks are the :func:`block_partition` of every nonzero entry of H
    and the charges, so no entry falls outside them.
    """
    p = check_order(p)
    shapes = [np.shape(m) for m in (H, *Q)]
    if len(Q) != p or len(shapes[0]) != 2 or len(set(shapes)) != 1 or len(set(shapes[0])) != 1:
        raise DimensionError(f"need H and {p} charges as square matrices of one size, "
                             f"got shapes {shapes}")
    ops = np.asarray([H, *Q], dtype=complex)
    op, rows, cols = np.nonzero(ops)
    blocks = block_partition(ops.shape[1], rows, cols)
    stacks = _scatter(blocks, p + 1, op, rows, cols, ops[op, rows, cols])
    return OsusySystem(p=p, dim=ops.shape[1], blocks=blocks,
                       Q=[s[1:] for s in stacks], H=[s[0] for s in stacks])


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


def _scatter(blocks: list[np.ndarray], k: int, op: np.ndarray, rows: np.ndarray,
             cols: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
    """Per block size, the (k, count, size, size) stack of k operators whose
    entries ``values`` sit at (``rows``, ``cols``) of operator ``op``; each
    pair must lie inside one of the ``blocks``."""
    dim = sum(group.size for group in blocks)
    group_of, block_of, slot = (np.empty(dim, dtype=int) for _ in range(3))
    for g, group in enumerate(blocks):
        group_of[group] = g
        block_of[group] = np.arange(len(group))[:, None]
        slot[group] = np.arange(group.shape[1])
    stacks = []
    for g, group in enumerate(blocks):
        stack = np.zeros((k, *group.shape, group.shape[1]), dtype=complex)
        at = group_of[rows] == g
        stack[op[at], block_of[rows[at]], slot[rows[at]], slot[cols[at]]] = values[at]
        stacks.append(stack)
    return stacks


def _assemble(dim: int, blocks: list[np.ndarray], stacks: list[np.ndarray]) -> np.ndarray:
    """The dim x dim matrix with the given block stacks and zeros elsewhere;
    (k, count, size, size) stacks give k such matrices, as (k, dim, dim)."""
    out = np.zeros((*stacks[0].shape[:-3], dim, dim), dtype=complex)
    for rows, stack in zip(blocks, stacks):
        out[..., rows[:, :, None], rows[:, None, :]] = stack
    return out


def check_relations(spectrum: SpectralData) -> dict[str, float]:
    """Residuals of the orthosupersymmetry relations and of H >= 0.

    The charges of ``spectrum.system`` obey the orthofermion relations with
    2H as unit; a NaN defect in any block makes its residual NaN. The
    positivity entry is max(0, -min eigenvalue) over ``spectrum``, so 0.0
    means a nonnegative spectrum.
    """
    sys = spectrum.system
    worst = np.zeros(3)
    for h, q in zip(sys.H, sys.Q):
        worst = np.maximum(worst, (max_abs(h @ q - q @ h), *relation_residuals(q, 2 * h)))
    res = {"[H, Q_a] = 0": float(worst[0])}
    res["Q_a Q_b = 0"], res["Q_a Q_b^dag + d_ab sum Q^dag Q = 2 d_ab H"] = worst[1:].tolist()
    res["H >= 0"] = max(0.0, -min(float(eig.values.min()) for eig in spectrum.eigs))
    return res


def spectral(sys: OsusySystem, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralData:
    """Group the spectrum of H into well-separated eigenvalue clusters.

    H is diagonalized block by block on the system's partition, with one
    batched eigensolve per block size, and the charges are
    restricted to each block's eigenbasis as V^dag Q_a V. ``cluster_tol`` is
    relative to max(1, largest |eigenvalue|). Eigenvalues within that
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
    charges = [dagger(eig.vectors) @ q @ eig.vectors for eig, q in zip(eigs, sys.Q)]
    values = np.concatenate([eig.values.ravel() for eig in eigs])
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


def eigenspace_reps(spectrum: SpectralData, tol: float = DEFAULT_TOL) -> list[EigenspaceAnalysis]:
    """Restrict the charges to each eigenspace and decompose the result.

    For E > 0 the rescaled restrictions (2E)^{-1/2} B^dag Q_a B satisfy the
    orthofermion relations with the eigenspace identity as unit; the
    decomposition must then consist purely of canonical copies, forcing the
    eigenspace dimension to be a multiple of p+1. For E <= 0 the restricted
    charges must vanish within ``tol``; the eigenspace then carries the
    trivial representation, with no decomposition. Each piece of a cluster,
    its part in one block, is a contiguous run of the block's ascending
    levels: per block size, a piece starts at column 0 and wherever the
    cluster changes along a row. It is cut out of ``spectrum.charges``, a
    whole block in one take and the partial runs of one class (sign of E,
    size) in one gather; the cluster's copies and trivial dimension are the
    sums over its pieces. The pieces of one positive class are decomposed in
    one :func:`decompose_stack`, which checks the relations once, against
    the unit given here. Classes run in the order they first
    appear, blocks by ascending size, and pieces within a class by energy,
    so an error names the energy of the first failing eigenspace of the
    first failing class.
    """
    classes: dict[tuple, list[tuple]] = {}
    for level, c in zip(spectrum.levels, spectrum.charges):
        idx = np.searchsorted(spectrum.energies, level)
        size = level.shape[1]
        cut = np.ones(level.shape, dtype=bool)
        cut[:, 1:] = idx[:, 1:] != idx[:, :-1]
        starts = np.flatnonzero(cut)
        lengths = np.diff(starts, append=level.size)
        block, at = np.divmod(starts, size)
        kinds = 2 * lengths + (level.flat[starts] > 0.0)
        for kind in dict.fromkeys(kinds.tolist()):  # in the order they first appear
            mine, e = kinds == kind, kind // 2
            if e == size:
                piece = np.take(c, block[mine], axis=1)
            else:
                r, s = np.arange(e), at[mine, None, None]
                piece = c[:, block[mine, None, None], s + r[:, None], s + r]
            classes.setdefault((kind % 2 == 1, e), []).append((idx.flat[starts[mine]], piece))
    copies, trivial = [0] * len(spectrum.energies), [0] * len(spectrum.energies)
    for (positive, size), found in classes.items():
        idx, cs = zip(*found)
        idx = np.concatenate(idx)
        c = cs[0] if len(cs) == 1 else np.concatenate(cs, axis=1)
        if not positive:
            stray = max_abs(c)
            if not stray <= tol:
                raise NotARepresentationError(
                    f"E = 0 eigenspace carries nonzero charges, residual {stray:.3e}")
            for i in idx.tolist():
                trivial[i] += size
            continue
        by_cluster = np.argsort(idx, kind="stable")
        # a C-ordered copy, as decompose_stack's products are fastest on one
        c = np.take(c, by_cluster, axis=1)
        idx = idx[by_cluster]
        energies = np.asarray(spectrum.energies)[idx]
        c *= (1.0 / np.sqrt(2.0 * energies))[:, None, None]
        decs = decompose_stack(c, np.eye(size, dtype=complex), tol,
                               labels=[f"eigenspace E = {e:.6g}" for e in energies])
        for i, dec in zip(idx, decs):
            copies[i] += dec.multiplicity
            trivial[i] += dec.trivial_dim
    for energy, mult, m, t in zip(spectrum.energies, spectrum.multiplicities, copies, trivial):
        if energy > 0.0 and (t != 0 or m * (spectrum.system.p + 1) != mult):
            raise NotARepresentationError(
                f"eigenspace E = {energy:.6g} of dimension {mult} is not a pure sum of "
                f"canonical copies (got {m} copies, trivial {t})")
    return [EigenspaceAnalysis(*row) for row in zip(spectrum.energies, copies, trivial)]


def _positive(levels: np.ndarray) -> np.ndarray:
    """``levels`` with every E <= 0 replaced by 1, so that any power of it is finite."""
    return np.where(levels > 0.0, levels, 1.0)


def build_generators(spectrum: SpectralData) -> SusyGenerators:
    """Assemble the derived generators block by block in H's eigenbasis.

    The restricted charges ``spectrum.charges`` keep only their entries
    within one positive cluster, rescaled by (2E)^{-1/2}, so the canonical
    ladder formulas give L and F on every cluster of a block at once; they
    are dressed with sqrt(2E) and E^{1/(p+1)} and transported back with V. Both
    generators vanish on the kernel of H by construction, which also makes
    them commute with H exactly. ``frac_direct`` is cyclic_from(Q)^dag.
    """
    sys = spectrum.system
    para, frac, direct = [], [], []
    for eig, level, c, q in zip(spectrum.eigs, spectrum.levels, spectrum.charges, sys.Q):
        v, energy = eig.vectors, _positive(level)[..., :, None]
        same = (level[..., :, None] == level[..., None, :]) & (level > 0.0)[..., :, None]
        c = np.where(same, c, 0.0) * (1.0 / np.sqrt(2.0 * energy))
        para.append(v @ (np.sqrt(2.0 * energy) * lowering_from(c)) @ dagger(v))
        frac.append(v @ (energy ** (1.0 / (sys.p + 1)) * cyclic_from(c)) @ dagger(v))
        direct.append(dagger(cyclic_from(q)))
    return SusyGenerators(spectrum, para, frac, direct)


def _powers(spectrum: SpectralData, a: float) -> list[np.ndarray]:
    """Per block size, the block stack V diag(E^a) V^dag, with E^a = 0 for E <= 0."""
    return [(eig.vectors * np.where(level > 0.0, _positive(level) ** a, 0.0)[..., None, :])
            @ dagger(eig.vectors) for eig, level in zip(spectrum.eigs, spectrum.levels)]


def closed_form_para(spectrum: SpectralData) -> list[np.ndarray]:
    """Q_1 + (2H)^{-1/2} sum_{a=2..p} Q_{a-1}^dag Q_a via spectral calculus,
    one (count, size, size) stack per block size."""
    return [q[0] + (2.0 ** -0.5 * r) @ (lowering_from(q) - q[0])
            for r, q in zip(_powers(spectrum, -0.5), spectrum.system.Q)]


def closed_form_frac(spectrum: SpectralData) -> list[np.ndarray]:
    """Charge expression of the fractional generator via spectral calculus,
    one (count, size, size) stack per block size.

    The outer terms carry H^{-(p-1)/(2(p+1))} so that on a cluster of energy
    E they contribute E^{1/(p+1)} once the sqrt(2E) inside the charges is
    accounted for; the transfer sum carries H^{-p/(p+1)}.
    """
    p = spectrum.system.p
    stacks = []
    for o, i, q in zip(_powers(spectrum, -(p - 1) / (2.0 * (p + 1))),
                       _powers(spectrum, -p / (p + 1)), spectrum.system.Q):
        o, i = 2.0 ** -0.5 * o, 0.5 * i
        stacks.append(o @ q[0] + i @ (lowering_from(q) - q[0]) + o @ dagger(q[p - 1]))
    return stacks


def _generator_terms(p: int, H, para, frac, direct, closed_para, closed_frac) -> dict:
    """The matrices whose max_abs make up the generator residuals, on one stack."""
    power = np.linalg.matrix_power
    terms = {"H": H, "para": para, "frac": frac, "para^{p+1}": power(para, p + 1)}
    if p >= 2:
        # T_j := sum_{k<=j} para^{j-k} para^dag para^k = para T_{j-1} + para^dag para^j
        para_dag = dagger(para)
        lhs, para_j = para_dag, np.eye(H.shape[-1], dtype=complex)
        for _ in range(p - 1):
            para_j = para_j @ para
            lhs = para @ lhs + para_dag @ para_j
        lhs = para @ lhs + para_dag @ para_j @ para
        rhs = 2.0 * p * para_j @ H
        terms["sum rule"], terms["sum rule rhs"] = lhs - rhs, rhs
    terms["frac^{p+1} - H"] = power(frac, p + 1) - H
    terms["(2H)^p"] = power(2.0 * H, p)
    terms["frac_direct^{p+1} - (2H)^p"] = power(direct, p + 1) - terms["(2H)^p"]
    terms["[para, H]"] = para @ H - H @ para
    terms["[frac, H]"] = frac @ H - H @ frac
    terms["para - closed form"] = para - closed_para
    terms["frac - closed form"] = frac - closed_frac
    return terms


def check_generators(gens: SusyGenerators) -> dict[str, float]:
    """Scaled residuals of the generator identity suite.

    Power identities are normalized by the magnitude of their right-hand
    side (or by the matching power of max(1, 2 max|H|) when the right-hand
    side is zero); commutators by the product of the operand magnitudes;
    the closed-form comparisons are plain entrywise defects. The sum rule
    needs p >= 2 because its right-hand side contains the (p-1)-th power of
    the generator; for p = 1 the entry is omitted. Every term is computed
    block by block on the partition of ``gens.spectrum.system``, against
    that system's H; a NaN defect in any block makes its residual NaN.
    """
    spectrum = gens.spectrum
    p = spectrum.system.p
    worst: dict[str, float] = {}
    for group in zip(spectrum.system.H, gens.para, gens.frac, gens.frac_direct,
                     closed_form_para(spectrum), closed_form_frac(spectrum)):
        for name, m in _generator_terms(p, *group).items():
            worst[name] = float(np.maximum(worst.get(name, 0.0), max_abs(m)))

    def rel(defect: str, scale: float) -> float:
        return worst[defect] / max(1.0, scale)

    h = worst["H"]
    res: dict[str, float] = {}
    res["para^{p+1} = 0"] = rel("para^{p+1}", max(1.0, 2.0 * h) ** ((p + 1) / 2.0))
    if p >= 2:
        res["sum_k para^{p-k} para^dag para^k = 2p para^{p-1} H"] = \
            rel("sum rule", worst["sum rule rhs"])
    res["frac^{p+1} = H"] = rel("frac^{p+1} - H", h)
    res["frac_direct^{p+1} = (2H)^p"] = rel("frac_direct^{p+1} - (2H)^p", worst["(2H)^p"])
    res["[para, H] = 0"] = rel("[para, H]", worst["para"] * h)
    res["[frac, H] = 0"] = rel("[frac, H]", worst["frac"] * h)
    res["para closed form"] = worst["para - closed form"]
    res["frac closed form"] = worst["frac - closed form"]
    return res
