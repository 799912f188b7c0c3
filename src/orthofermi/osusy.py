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
:func:`spectral` takes the finest block partition that the nonzero pattern
of H and of every Q_a admits (:func:`block_partition`) and every stage after
it works on stacks of equal-size blocks, with no dim x dim product. Every
nonzero entry lies inside a block, so each residual is the dense one up to
summation order; a system in a generic basis is simply one block.
Eigenvalues are clustered over all blocks together, so a cluster may span
several blocks: the E = 0 cluster spans the 1+p singletons.
:func:`build_system` itself forms H block by block, on the partition of the
charges alone.

Past :func:`spectral`, operators are multiplied on the blocks in each
block's eigenbasis V (``SpectralData.eigs``): :func:`build_generators`
restricts the charges as V^dag Q_a V, keeps the entries within one positive
cluster and transports its results back with V, and :func:`spectral_power`
and the closed forms take H^a = V diag(E^a) V^dag. Representation theory
runs on clusters in classes of equal shape (sign of E, multiplicity, number
of supported rows; in the oscillator one class holds every positive
cluster): :func:`eigenspace_reps` restricts a class's charges in one
product and splits them with one :func:`~orthofermi.reptheory.decompose_stack`,
which checks the relations of the whole class once, against the identity
as unit (``unit=``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import check_order
from .canonical import canonical, cyclic_from, lowering_from, occupied
from .errors import ClusteringError, DimensionError, NotARepresentationError, TruncationError
from .linalg import DEFAULT_TOL, HermEig, dagger, herm_eig, max_abs
from .reptheory import Decomposition, decompose_stack, relation_residuals

#: Default relative tolerance for grouping eigenvalues into clusters.
DEFAULT_CLUSTER_TOL = 1e-8

#: Default relative tolerance on generator identities.
DEFAULT_GENERATOR_TOL = 1e-8

#: Tolerance for entrywise agreement of spectral and closed-form generators.
CLOSED_FORM_TOL = 1e-9


@dataclass(frozen=True)
class OsusySystem:
    """Truncated oscillator model: order p, boson levels, charges and H."""

    p: int
    levels: int
    dim: int
    Q: list[np.ndarray]
    H: np.ndarray


@dataclass(frozen=True)
class SpectralData:
    """Clustered eigendecomposition of the Hamiltonian.

    ``energies`` are the distinct cluster values ascending, ``bases[k]`` the
    orthonormal eigenvector columns of cluster k, ``multiplicities[k]``
    their number and ``supports[k]`` the rows on which they are nonzero.
    ``blocks`` is the block partition of H and the charges (see
    :func:`block_partition`); per block size, ``eigs`` holds the eigensolve
    of H's (count, size, size) block stack and ``levels`` the (count, size)
    cluster energy of each of its eigenvalues (0 on the E = 0 cluster).
    """

    energies: list[float]
    multiplicities: list[int]
    bases: list[np.ndarray]
    supports: list[np.ndarray]
    blocks: list[np.ndarray]
    eigs: list[HermEig]
    levels: list[np.ndarray]


@dataclass(frozen=True)
class EigenspaceAnalysis:
    """Decomposition of the orthofermion representation of one energy eigenspace."""

    energy: float
    decomposition: Decomposition


@dataclass(frozen=True)
class SusyGenerators:
    """Derived symmetry generators of one system.

    ``para``        nilpotent parasupersymmetry generator,
    ``frac``        fractional generator with frac^{p+1} = H,
    ``frac_direct`` charge-assembled generator with frac_direct^{p+1} = (2H)^p.
    """

    para: np.ndarray
    frac: np.ndarray
    frac_direct: np.ndarray


def build_system(p: int, levels: int) -> OsusySystem:
    """Construct the truncated model of order ``p`` with ``levels`` boson states.

    The boson annihilator acts as a|n> = sqrt(n)|n-1> on occupations
    0..levels-1 with a^dag|levels-1> = 0 (hard cutoff). H is formed on the
    :func:`block_partition` of the charges, with no dim x dim product.
    """
    p = check_order(p)
    if int(levels) != levels or levels < 2:
        raise TruncationError(f"need at least 2 boson levels, got {levels!r}")
    levels = int(levels)
    a = np.diag(np.sqrt(np.arange(1, levels)), 1).astype(complex)
    cs = canonical(p).c
    Q = [math.sqrt(2.0) * np.kron(a.conj().T, c) for c in cs]
    dim = levels * (p + 1)
    blocks = block_partition(Q)
    H = _assemble(dim, blocks, [0.5 * (q[0] @ dagger(q[0]) + occupied(q))
                                for q in map(np.stack, _blockwise(blocks, Q))])
    return OsusySystem(p=p, levels=levels, dim=dim, Q=Q, H=H)


def block_partition(ops: list[np.ndarray]) -> list[np.ndarray]:
    """Finest block partition shared by square matrices of one size.

    The blocks are the connected components of the graph that links basis
    indices i and j whenever some matrix has a nonzero (i, j) or (j, i)
    entry. Returns one integer array of shape (count, size) per block size,
    by ascending size; each row holds the indices of one block, ascending,
    and rows are ordered by their first index.
    """
    linked = np.zeros(ops[0].shape, dtype=bool)
    for m in ops:
        linked |= m != 0
    i, j = np.nonzero(linked | linked.T)
    # each index takes the least label among its neighbours, then labels are
    # followed to their fixed points; at rest every block carries the least
    # index it holds
    label = np.arange(len(linked))
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


def _blockwise(blocks: list[np.ndarray], ops: list[np.ndarray]) -> list[list[np.ndarray]]:
    """Per block size, the (count, size, size) stack of each operator's blocks.

    Raises :class:`DimensionError` when an operator has a nonzero entry
    outside the blocks, since no block-wise residual would see it.
    """
    stacks = [[m[rows[:, :, None], rows[:, None, :]] for rows in blocks] for m in ops]
    for m, per_size in zip(ops, stacks):
        if sum(np.count_nonzero(stack) for stack in per_size) != np.count_nonzero(m):
            raise DimensionError("operator has nonzero entries outside the blocks "
                                 "of H and the charges")
    return [list(group) for group in zip(*stacks)]


def _assemble(dim: int, blocks: list[np.ndarray], stacks: list[np.ndarray]) -> np.ndarray:
    """The dim x dim matrix with the given block stacks and zeros elsewhere."""
    out = np.zeros((dim, dim), dtype=complex)
    for rows, stack in zip(blocks, stacks):
        out[rows[:, :, None], rows[:, None, :]] = stack
    return out


def check_relations(sys: OsusySystem, spectrum: SpectralData) -> dict[str, float]:
    """Residuals of the orthosupersymmetry relations and of H >= 0.

    The charges obey the orthofermion relations with 2H as unit. The
    positivity entry is max(0, -min eigenvalue) over ``spectrum``, so 0.0
    means a nonnegative spectrum.
    """
    worst = (0.0, 0.0, 0.0)
    for h, *q in _blockwise(spectrum.blocks, [sys.H, *sys.Q]):
        q = np.stack(q)
        found = (max_abs(h @ q - q @ h), *relation_residuals(q, 2 * h))
        worst = tuple(map(max, worst, found))
    res = {"[H, Q_a] = 0": worst[0]}
    res["Q_a Q_b = 0"], res["Q_a Q_b^dag + d_ab sum Q^dag Q = 2 d_ab H"] = worst[1:]
    res["H >= 0"] = max(0.0, -min(float(eig.values.min()) for eig in spectrum.eigs))
    return res


def spectral(sys: OsusySystem, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralData:
    """Group the spectrum of H into well-separated eigenvalue clusters.

    H is diagonalized block by block on :func:`block_partition` of H and the
    charges, with one batched eigensolve per block size. ``cluster_tol`` is
    relative to max(1, largest |eigenvalue|). Eigenvalues within that
    threshold of zero are snapped into a single E = 0 cluster. Each cluster
    must have internal spread at most the threshold and be separated from
    its neighbors by more than the threshold, otherwise a
    :class:`ClusteringError` is raised.
    """
    blocks = block_partition([sys.H, *sys.Q])
    eigs = [herm_eig(h) for (h,) in _blockwise(blocks, [sys.H])]
    values = np.concatenate([eig.values.ravel() for eig in eigs])
    order = np.argsort(values, kind="stable")
    vals = values[order]
    # eigenvector j of block k goes to the column of its eigenvalue's rank
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    vecs = np.zeros((sys.dim, sys.dim), dtype=complex)
    ranks, start = [], 0
    for rows, eig in zip(blocks, eigs):
        ranks.append(column[start:start + eig.values.size].reshape(eig.values.shape))
        vecs[rows[:, :, None], ranks[-1][:, None, :]] = eig.vectors
        start += eig.values.size
    threshold = cluster_tol * max(1.0, float(np.abs(vals).max())) if vals.size else cluster_tol

    groups: list[list[int]] = []
    zero_group: list[int] = []
    for i, v in enumerate(vals):
        if abs(v) <= threshold:
            zero_group.append(i)
        elif groups and v - vals[groups[-1][-1]] <= threshold:
            groups[-1].append(i)
        else:
            groups.append([i])

    clusters: list[tuple[float, list[int]]] = []
    for g in groups:
        clusters.append((float(np.mean(vals[g])), g))
    if zero_group:
        clusters.append((0.0, zero_group))
    clusters.sort(key=lambda item: item[0])

    for energy, idx in clusters:
        spread = float(vals[idx].max() - vals[idx].min())
        if spread > threshold:
            raise ClusteringError(
                f"cluster at E = {energy:.6g} has spread {spread:.3e} > {threshold:.3e}")
    for (e1, g1), (e2, g2) in zip(clusters, clusters[1:]):
        gap = float(vals[g2].min() - vals[g1].max())
        if gap <= threshold:
            raise ClusteringError(
                f"clusters at E = {e1:.6g} and E = {e2:.6g} separated by only {gap:.3e}")

    energies, multiplicities, bases = [], [], []
    level = np.empty_like(vals)
    for energy, idx in clusters:
        energies.append(energy)
        multiplicities.append(len(idx))
        bases.append(vecs[:, idx])
        level[idx] = energy
    supports = [np.flatnonzero(basis.any(axis=1)) for basis in bases]
    return SpectralData(energies, multiplicities, bases, supports, blocks, eigs,
                        [level[cols] for cols in ranks])


def eigenspace_reps(sys: OsusySystem, spectrum: SpectralData,
                    tol: float = DEFAULT_TOL) -> list[EigenspaceAnalysis]:
    """Restrict the charges to each eigenspace and decompose the result.

    For E > 0 the rescaled restrictions (2E)^{-1/2} B^dag Q_a B satisfy the
    orthofermion relations with the eigenspace identity as unit; the
    decomposition must then consist purely of canonical copies, forcing the
    eigenspace dimension to be a multiple of p+1. For E = 0 the restricted
    charges vanish and the eigenspace carries the trivial representation.
    Only the rows that a cluster's basis is supported on enter. A class of
    clusters of equal shape (sign of E, multiplicity, support size) is
    restricted in one product and decomposed in one :func:`decompose_stack`,
    which checks the relations once, against the unit given here; an error
    names the energy of the failing eigenspace.
    """
    classes: dict[tuple, list[int]] = {}
    for i, (energy, mult, rows) in enumerate(zip(spectrum.energies, spectrum.multiplicities,
                                                 spectrum.supports)):
        classes.setdefault((energy > 0.0, mult, rows.size), []).append(i)
    out: list[EigenspaceAnalysis] = [None] * len(spectrum.energies)
    for (positive, mult, _), idx in classes.items():
        energies = np.array([spectrum.energies[i] for i in idx])
        rows = np.stack([spectrum.supports[i] for i in idx])
        b = np.stack([spectrum.bases[i][spectrum.supports[i]] for i in idx])
        c = dagger(b) @ np.stack([q[rows[:, :, None], rows[:, None, :]] for q in sys.Q]) @ b
        if positive:
            c *= (1.0 / np.sqrt(2.0 * energies))[:, None, None]
            unit = np.eye(mult, dtype=complex)
        else:
            stray = max_abs(c)
            if stray > tol:
                raise NotARepresentationError(
                    f"E = 0 eigenspace carries nonzero charges, residual {stray:.3e}")
            c = np.zeros_like(c)
            unit = np.zeros((mult, mult), dtype=complex)
        decs = decompose_stack(c, unit, tol, labels=[f"eigenspace E = {e:.6g}" for e in energies])
        for i, dec in zip(idx, decs):
            energy = spectrum.energies[i]
            if positive and (dec.trivial_dim != 0 or dec.multiplicity * (sys.p + 1) != mult):
                raise NotARepresentationError(
                    f"eigenspace E = {energy:.6g} of dimension {mult} is not a pure sum of "
                    f"canonical copies (got {dec.multiplicity} copies, trivial {dec.trivial_dim})")
            out[i] = EigenspaceAnalysis(energy, dec)
    return out


def _positive(levels: np.ndarray) -> np.ndarray:
    """``levels`` with every E <= 0 replaced by 1, so that any power of it is finite."""
    return np.where(levels > 0.0, levels, 1.0)


def build_generators(sys: OsusySystem, spectrum: SpectralData) -> SusyGenerators:
    """Assemble the derived generators block by block in H's eigenbasis.

    The charge restrictions V^dag Q_a V keep only their entries within one
    positive cluster, rescaled by (2E)^{-1/2}, so the canonical ladder
    formulas give L and F on every cluster of a block at once; they are
    dressed with sqrt(2E) and E^{1/(p+1)} and transported back with V. Both
    generators vanish on the kernel of H by construction, which also makes
    them commute with H exactly. ``frac_direct`` is cyclic_from(Q)^dag.
    """
    para, frac, direct = [], [], []
    for eig, level, q in zip(spectrum.eigs, spectrum.levels, _blockwise(spectrum.blocks, sys.Q)):
        v, energy = eig.vectors, _positive(level)[..., :, None]
        same = (level[..., :, None] == level[..., None, :]) & (level > 0.0)[..., :, None]
        c = np.where(same, dagger(v) @ np.stack(q) @ v, 0.0) * (1.0 / np.sqrt(2.0 * energy))
        para.append(v @ (np.sqrt(2.0 * energy) * lowering_from(c)) @ dagger(v))
        frac.append(v @ (energy ** (1.0 / (sys.p + 1)) * cyclic_from(c)) @ dagger(v))
        direct.append(dagger(cyclic_from(q)))
    return SusyGenerators(*(_assemble(sys.dim, spectrum.blocks, stacks)
                            for stacks in (para, frac, direct)))


def _powers(spectrum: SpectralData, a: float) -> list[np.ndarray]:
    """Per block size, the block stack V diag(E^a) V^dag, with E^a = 0 for E <= 0."""
    return [(eig.vectors * np.where(level > 0.0, _positive(level) ** a, 0.0)[..., None, :])
            @ dagger(eig.vectors) for eig, level in zip(spectrum.eigs, spectrum.levels)]


def spectral_power(spectrum: SpectralData, a: float) -> np.ndarray:
    """H^a as sum of E^a times the eigenprojector, over positive clusters only.

    The E = 0 cluster contributes zero for every exponent, which extends the
    calculus to negative and fractional ``a`` (pseudo-inverse convention).
    In particular a = 0 gives the projector onto the positive spectrum.
    Each block is V diag(E^a) V^dag, with E the cluster energies.
    """
    dim = sum(rows.size for rows in spectrum.blocks)
    return _assemble(dim, spectrum.blocks, _powers(spectrum, a))


def closed_form_para(sys: OsusySystem, spectrum: SpectralData) -> np.ndarray:
    """Q_1 + (2H)^{-1/2} sum_{a=2..p} Q_{a-1}^dag Q_a via spectral calculus."""
    return _assemble(sys.dim, spectrum.blocks, [
        q[0] + (2.0 ** -0.5 * r) @ (lowering_from(q) - q[0])
        for r, q in zip(_powers(spectrum, -0.5), _blockwise(spectrum.blocks, sys.Q))])


def closed_form_frac(sys: OsusySystem, spectrum: SpectralData) -> np.ndarray:
    """Charge expression of the fractional generator via spectral calculus.

    The outer terms carry H^{-(p-1)/(2(p+1))} so that on a cluster of energy
    E they contribute E^{1/(p+1)} once the sqrt(2E) inside the charges is
    accounted for; the transfer sum carries H^{-p/(p+1)}.
    """
    p = sys.p
    stacks = []
    for o, i, q in zip(_powers(spectrum, -(p - 1) / (2.0 * (p + 1))),
                       _powers(spectrum, -p / (p + 1)), _blockwise(spectrum.blocks, sys.Q)):
        o, i = 2.0 ** -0.5 * o, 0.5 * i
        stacks.append(o @ q[0] + i @ (lowering_from(q) - q[0]) + o @ dagger(q[p - 1]))
    return _assemble(sys.dim, spectrum.blocks, stacks)


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


def check_generators(sys: OsusySystem, gens: SusyGenerators,
                     spectrum: SpectralData) -> dict[str, float]:
    """Scaled residuals of the generator identity suite.

    Power identities are normalized by the magnitude of their right-hand
    side (or by the matching power of max(1, 2 max|H|) when the right-hand
    side is zero); commutators by the product of the operand magnitudes;
    the closed-form comparisons are plain entrywise defects. The sum rule
    needs p >= 2 because its right-hand side contains the (p-1)-th power of
    the generator; for p = 1 the entry is omitted. Every term is computed
    block by block on ``spectrum.blocks``.
    """
    p = sys.p
    ops = [sys.H, gens.para, gens.frac, gens.frac_direct,
           closed_form_para(sys, spectrum), closed_form_frac(sys, spectrum)]
    worst: dict[str, float] = {}
    for group in _blockwise(spectrum.blocks, ops):
        for name, m in _generator_terms(p, *group).items():
            worst[name] = max(worst.get(name, 0.0), max_abs(m))

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
