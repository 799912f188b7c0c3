"""Dense oracles over a :class:`~orthofermi.osusy.SpectralData`, for tests.

The pipeline keeps no dense eigenvectors and no dense H^a; these helpers
build them from the blocks, for checks that need the whole space.
"""

import numpy as np

from orthofermi import osusy


def cluster_bases(spectrum):
    """Per cluster, the dim x multiplicity matrix of its orthonormal eigenvectors.

    Column by column from ``blocks``, ``eigs`` and ``levels``: block order,
    then eigenvalue order within a block.
    """
    dim = sum(rows.size for rows in spectrum.blocks)
    columns = [[] for _ in spectrum.energies]
    for rows, eig, level in zip(spectrum.blocks, spectrum.eigs, spectrum.levels):
        for block_rows, vectors, block_levels in zip(rows, eig.vectors, level):
            for t, energy in enumerate(block_levels):
                column = np.zeros(dim, dtype=complex)
                column[block_rows] = vectors[:, t]
                columns[spectrum.energies.index(energy)].append(column)
    return [np.stack(cols, axis=1) for cols in columns]


def h_power(spectrum, a):
    """H^a over the positive clusters, from the per-block V diag(E^a) V^dag
    that the closed forms use."""
    dim = sum(rows.size for rows in spectrum.blocks)
    return osusy._assemble(dim, spectrum.blocks, osusy._powers(spectrum, a))
