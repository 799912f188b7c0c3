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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import check_order
from .canonical import OrthoRep, canonical, cyclic_from, lowering_from, occupied
from .errors import ClusteringError, NotARepresentationError, TruncationError
from .linalg import DEFAULT_TOL, herm_eig, max_abs
from .reptheory import Decomposition, decompose, relation_residuals, verify

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
    orthonormal eigenvector columns of cluster k and ``multiplicities[k]``
    their number. ``eigenvalues`` holds every eigenvalue of H, ascending.
    """

    energies: list[float]
    multiplicities: list[int]
    bases: list[np.ndarray]
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class EigenspaceAnalysis:
    """Orthofermion representation carried by one energy eigenspace."""

    energy: float
    rep: OrthoRep
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
    0..levels-1 with a^dag|levels-1> = 0 (hard cutoff).
    """
    p = check_order(p)
    if int(levels) != levels or levels < 2:
        raise TruncationError(f"need at least 2 boson levels, got {levels!r}")
    levels = int(levels)
    a = np.diag(np.sqrt(np.arange(1, levels)), 1).astype(complex)
    cs = canonical(p).c
    Q = [math.sqrt(2.0) * np.kron(a.conj().T, c) for c in cs]
    H = 0.5 * (Q[0] @ Q[0].conj().T + occupied(Q))
    return OsusySystem(p=p, levels=levels, dim=levels * (p + 1), Q=Q, H=H)


def check_relations(sys: OsusySystem, spectrum: SpectralData) -> dict[str, float]:
    """Residuals of the orthosupersymmetry relations and of H >= 0.

    The charges obey the orthofermion relations with 2H as unit. The
    positivity entry is max(0, -min eigenvalue) over ``spectrum``, so 0.0
    means a nonnegative spectrum.
    """
    Q, H = sys.Q, sys.H
    res = {"[H, Q_a] = 0": max(max_abs(H @ q - q @ H) for q in Q)}
    res["Q_a Q_b = 0"], res["Q_a Q_b^dag + d_ab sum Q^dag Q = 2 d_ab H"] = \
        relation_residuals(Q, 2 * H)
    res["H >= 0"] = max(0.0, -float(spectrum.eigenvalues.min()))
    return res


def spectral(sys: OsusySystem, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralData:
    """Group the spectrum of H into well-separated eigenvalue clusters.

    ``cluster_tol`` is relative to max(1, largest |eigenvalue|). Eigenvalues
    within that threshold of zero are snapped into a single E = 0 cluster.
    Each cluster must have internal spread at most the threshold and be
    separated from its neighbors by more than the threshold, otherwise a
    :class:`ClusteringError` is raised.
    """
    eig = herm_eig(sys.H)
    vals, vecs = eig.values, eig.vectors
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
    for energy, idx in clusters:
        energies.append(energy)
        multiplicities.append(len(idx))
        bases.append(vecs[:, idx])
    return SpectralData(energies, multiplicities, bases, vals)


def eigenspace_reps(sys: OsusySystem, spectrum: SpectralData,
                    tol: float = DEFAULT_TOL) -> list[EigenspaceAnalysis]:
    """Restrict the charges to each eigenspace and decompose the result.

    For E > 0 the rescaled restrictions (2E)^{-1/2} B^dag Q_a B satisfy the
    orthofermion relations with the eigenspace identity as unit; the
    decomposition must then consist purely of canonical copies, forcing the
    eigenspace dimension to be a multiple of p+1. For E = 0 the restricted
    charges vanish and the eigenspace carries the trivial representation.
    """
    out = []
    for energy, basis, mult in zip(spectrum.energies, spectrum.bases, spectrum.multiplicities):
        restricted = [basis.conj().T @ q @ basis for q in sys.Q]
        if energy <= 0.0:
            stray = max(max(max_abs(r), max_abs(r.conj().T)) for r in restricted)
            if stray > tol:
                raise NotARepresentationError(
                    f"E = 0 eigenspace carries nonzero charges, residual {stray:.3e}")
            rep = OrthoRep(p=sys.p, dim=mult,
                           c=[np.zeros((mult, mult), dtype=complex) for _ in range(sys.p)])
            out.append(EigenspaceAnalysis(energy, rep, decompose(rep, tol)))
            continue

        scale = 1.0 / math.sqrt(2.0 * energy)
        rep = OrthoRep(p=sys.p, dim=mult, c=[scale * r for r in restricted])
        residuals = verify(rep, np.eye(mult, dtype=complex), tol)
        worst = max(residuals.values())
        if worst > tol:
            raise NotARepresentationError(
                f"eigenspace E = {energy:.6g} fails the relations, residual {worst:.3e}")
        try:
            dec = decompose(rep, tol)
        except NotARepresentationError as exc:
            raise NotARepresentationError(f"eigenspace E = {energy:.6g}: {exc}") from exc
        if dec.trivial_dim != 0 or dec.multiplicity * (sys.p + 1) != mult:
            raise NotARepresentationError(
                f"eigenspace E = {energy:.6g} of dimension {mult} is not a pure sum of "
                f"canonical copies (got {dec.multiplicity} copies, trivial {dec.trivial_dim})")
        out.append(EigenspaceAnalysis(energy, rep, dec))
    return out


def build_generators(sys: OsusySystem, spectrum: SpectralData,
                     analyses: list[EigenspaceAnalysis]) -> SusyGenerators:
    """Assemble the derived generators cluster by cluster.

    Within each positive cluster the canonical ladder formulas applied to the
    rescaled charge restrictions give L and F; they are dressed with
    sqrt(2E) and E^{1/(p+1)} respectively and transported back with the
    eigenbasis. Both generators vanish on the kernel of H by construction,
    which also makes them commute with H exactly.
    """
    n = sys.dim
    para = np.zeros((n, n), dtype=complex)
    frac = np.zeros((n, n), dtype=complex)
    for basis, analysis in zip(spectrum.bases, analyses):
        energy = analysis.energy
        if energy <= 0.0:
            continue
        low = lowering_from(analysis.rep.c)
        cyc = cyclic_from(analysis.rep.c)
        para = para + basis @ (math.sqrt(2.0 * energy) * low) @ basis.conj().T
        frac = frac + basis @ (energy ** (1.0 / (sys.p + 1)) * cyc) @ basis.conj().T
    return SusyGenerators(para=para, frac=frac, frac_direct=cyclic_from(sys.Q).conj().T)


def spectral_power(spectrum: SpectralData, a: float) -> np.ndarray:
    """H^a as sum of E^a times the eigenprojector, over positive clusters only.

    The E = 0 cluster contributes zero for every exponent, which extends the
    calculus to negative and fractional ``a`` (pseudo-inverse convention).
    In particular a = 0 gives the projector onto the positive spectrum.
    """
    n = spectrum.bases[0].shape[0]
    out = np.zeros((n, n), dtype=complex)
    for energy, basis in zip(spectrum.energies, spectrum.bases):
        if energy > 0.0:
            out = out + (energy ** a) * (basis @ basis.conj().T)
    return out


def closed_form_para(sys: OsusySystem, spectrum: SpectralData) -> np.ndarray:
    """Q_1 + (2H)^{-1/2} sum_{a=2..p} Q_{a-1}^dag Q_a via spectral calculus."""
    inv_root = (2.0 ** -0.5) * spectral_power(spectrum, -0.5)
    return sys.Q[0] + inv_root @ (lowering_from(sys.Q) - sys.Q[0])


def closed_form_frac(sys: OsusySystem, spectrum: SpectralData) -> np.ndarray:
    """Charge expression of the fractional generator via spectral calculus.

    The outer terms carry H^{-(p-1)/(2(p+1))} so that on a cluster of energy
    E they contribute E^{1/(p+1)} once the sqrt(2E) inside the charges is
    accounted for; the transfer sum carries H^{-p/(p+1)}.
    """
    p = sys.p
    outer = (2.0 ** -0.5) * spectral_power(spectrum, -(p - 1) / (2.0 * (p + 1)))
    inner = 0.5 * spectral_power(spectrum, -p / (p + 1))
    transfer = lowering_from(sys.Q) - sys.Q[0]
    return outer @ sys.Q[0] + inner @ transfer + outer @ sys.Q[p - 1].conj().T


def check_generators(sys: OsusySystem, gens: SusyGenerators,
                     spectrum: SpectralData) -> dict[str, float]:
    """Scaled residuals of the generator identity suite.

    Power identities are normalized by the magnitude of their right-hand
    side (or by the matching power of max(1, 2 max|H|) when the right-hand
    side is zero); commutators by the product of the operand magnitudes;
    the closed-form comparisons are plain entrywise defects. The sum rule
    needs p >= 2 because its right-hand side contains the (p-1)-th power of
    the generator; for p = 1 the entry is omitted.
    """
    p = sys.p
    H = sys.H
    para, frac, direct = gens.para, gens.frac, gens.frac_direct
    base = max(1.0, 2.0 * max_abs(H))

    def power(m, k):
        return np.linalg.matrix_power(m, k)

    def rel(defect: np.ndarray, scale: float) -> float:
        return max_abs(defect) / max(1.0, scale)

    res: dict[str, float] = {}
    res["para^{p+1} = 0"] = rel(power(para, p + 1), base ** ((p + 1) / 2.0))
    if p >= 2:
        # T_j := sum_{k<=j} para^{j-k} para^dag para^k = para T_{j-1} + para^dag para^j
        para_dag = para.conj().T
        lhs, para_j = para_dag, np.eye(sys.dim, dtype=complex)
        for _ in range(p - 1):
            para_j = para_j @ para
            lhs = para @ lhs + para_dag @ para_j
        lhs = para @ lhs + para_dag @ para_j @ para
        rhs = 2.0 * p * para_j @ H
        res["sum_k para^{p-k} para^dag para^k = 2p para^{p-1} H"] = rel(lhs - rhs, max_abs(rhs))
    res["frac^{p+1} = H"] = rel(power(frac, p + 1) - H, max_abs(H))
    rhs_direct = power(2.0 * H, p)
    res["frac_direct^{p+1} = (2H)^p"] = rel(power(direct, p + 1) - rhs_direct, max_abs(rhs_direct))
    res["[para, H] = 0"] = rel(para @ H - H @ para, max_abs(para) * max_abs(H))
    res["[frac, H] = 0"] = rel(frac @ H - H @ frac, max_abs(frac) * max_abs(H))
    res["para closed form"] = max_abs(para - closed_form_para(sys, spectrum))
    res["frac closed form"] = max_abs(frac - closed_form_frac(sys, spectrum))
    return res
