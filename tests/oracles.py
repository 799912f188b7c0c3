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


def loop_clusters(spectrum, cluster_tol=osusy.DEFAULT_CLUSTER_TOL):
    """Energies, multiplicities and per-block levels of ``spectrum``'s
    eigenvalues, clustered one sorted value at a time.

    A value within the threshold of zero joins the E = 0 cluster; any other
    value joins the last cluster when it lies within the threshold of that
    cluster's last value, and starts a cluster otherwise. A cluster's energy
    is ``np.mean`` of its values in ascending order. The separation checks of
    :func:`osusy.spectral` are left out.
    """
    values = np.concatenate([eig.values.ravel() for eig in spectrum.eigs])
    order = np.argsort(values, kind="stable")
    vals = values[order]
    threshold = cluster_tol * max(1.0, float(np.abs(vals).max()))
    groups, zero_group = [], []
    for i, v in enumerate(vals):
        if abs(v) <= threshold:
            zero_group.append(i)
        elif groups and v - vals[groups[-1][-1]] <= threshold:
            groups[-1].append(i)
        else:
            groups.append([i])
    clusters = [(float(np.mean(vals[g])), g) for g in groups]
    if zero_group:
        clusters.append((0.0, zero_group))
    clusters.sort(key=lambda item: item[0])
    level = np.empty_like(values)
    for energy, idx in clusters:
        level[order[idx]] = energy
    ends = np.cumsum([eig.values.size for eig in spectrum.eigs])
    levels = [level[end - eig.values.size:end].reshape(eig.values.shape)
              for eig, end in zip(spectrum.eigs, ends)]
    return [e for e, _ in clusters], [len(idx) for _, idx in clusters], levels
