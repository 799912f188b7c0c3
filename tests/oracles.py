"""Dense oracles over the block stacks of :mod:`orthofermi.osusy`, for tests.

The pipeline keeps no dense operators, no dense eigenvectors and no dense
H^a; these helpers build them from the blocks, for checks that need the
whole space.
"""

import numpy as np

from orthofermi import osusy


def dense(blocks, stacks):
    """The dim x dim matrix of per-size (count, size, size) block stacks,
    such as a generator or a closed form."""
    dim = sum(rows.size for rows in blocks)
    return osusy._assemble(dim, blocks, stacks)


def cut(blocks, m):
    """Per block size, the (count, size, size) stack of the blocks of the
    dense ``m``; the inverse of :func:`dense` for ``m`` zero off the blocks."""
    return [m[rows[:, :, None], rows[:, None, :]] for rows in blocks]


def dense_generators(gens):
    """para, frac and frac_direct as dim x dim matrices."""
    return [dense(gens.blocks, g) for g in (gens.para, gens.frac, gens.frac_direct)]


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
    return dense(spectrum.blocks, osusy._powers(spectrum, a))
