"""Independent oracles for tests.

Dense oracles over the block stacks of :mod:`orthofermi.osusy`: the pipeline
keeps no dense operators, no dense eigenvectors and no dense H^a; these
helpers build them from the blocks, for checks that need the whole space.

A brute-force oracle for the relation kernel of :mod:`orthofermi.reptheory`:
:func:`pair_relation_defects` forms every pair product in full, one pair and
one stack element at a time.

A symbolic oracle for the orthofermion algebra: :func:`monomial_product`
multiplies two monomial labels from the defining relations alone, and
:func:`adjoint_label` applies the * operation to one; :func:`image` is a
label's matrix in a representation, formed from its annihilators, so that
the *-isomorphism onto the canonical matrices can be checked label by label.

Brute-force oracles for :mod:`orthofermi.canonical`:
:func:`ladder_closed_form_residuals` sums the L^k closed forms of the ladder
catalog one dense product per pair, and :func:`transfer_sum` sums
c_a^dag c_{a+k} one dense product per pair and stack element.
:func:`dense_ladder_residuals` is the whole ladder catalog with every
product a dense n x n one, in the order the package forms them.

Dense oracles for the products that the package forms on the rows that hold
an entry: :func:`commutator` ([H, Q_a] of ``osusy.check_relations``),
:func:`restricted` (V^dag Q_a V of ``osusy.spectral``) and
:func:`block_residual` (U^dag c_a U - T_a of ``reptheory._grow_copies``),
each with the full products in the association the package uses on a dense
stack; and :func:`sum_rule_recurrence`, both sides of the generator sum rule
by the recurrence T_j = para T_{j-1} + para^dag para^j, one power at a time.

An exact oracle for :func:`orthofermi.reptheory.verify`: :func:`exact_verify`
forms every row in rational arithmetic from the floats as they are, for
n <= 12, with no roundoff.
"""

from fractions import Fraction

import numpy as np

from orthofermi import osusy
from orthofermi.canonical import OrthoRep, occupied, transfer
from orthofermi.linalg import max_abs


def monomials(p):
    """Labels of the (p+1)^2 monomials in the order of ``algebra.basis(p)``:
    ("Pi",), ("c", a), ("cdag", a), then ("cdag c", a, b), with a, b in 1..p."""
    out = [("Pi",)]
    out += [("c", a) for a in range(1, p + 1)]
    out += [("cdag", a) for a in range(1, p + 1)]
    out += [("cdag c", a, b) for a in range(1, p + 1) for b in range(1, p + 1)]
    return out


def monomial_product(x, y):
    """The product of two monomial labels: a label, or None for zero.

    Derived from c_a c_b = 0 and c_a c_b^dag = delta_ab Pi, where
    Pi = 1 - sum_g c_g^dag c_g. Their adjoints give c_a^dag c_b^dag = 0, and
    the two consequences used below are

        Pi c_a = c_a - sum_g c_g^dag (c_g c_a) = c_a
        c_a Pi = c_a - sum_g (c_a c_g^dag) c_g = c_a - Pi c_a = 0

    together with their adjoints c_a^dag Pi = c_a^dag and Pi c_a^dag = 0.
    """
    kind_x, kind_y = x[0], y[0]
    if kind_x in ("Pi", "cdag"):
        # x Pi = x, and x c_b^dag = 0 kills y = c_b^dag and y = c_b^dag c_d
        if kind_y == "Pi":
            return x                       # Pi Pi = Pi, c_a^dag Pi = c_a^dag
        if kind_y == "c":
            # Pi c_b = c_b, c_a^dag c_b = transfer
            return y if kind_x == "Pi" else ("cdag c", x[1], y[1])
        return None
    # x = c_a or c_a^dag c_e ends in the annihilator c_e
    e = x[-1]
    if kind_y in ("Pi", "c"):
        return None                        # c_e Pi = 0, c_e c_f = 0
    f = y[1]                               # y = c_f^dag or c_f^dag c_g
    if e != f:
        return None                        # c_e c_f^dag = 0 for e != f
    # c_e c_e^dag = Pi: what remains is x's head, Pi, then y's tail
    head = ("cdag", x[1]) if kind_x == "cdag c" else ("Pi",)
    tail = ("c", y[2]) if kind_y == "cdag c" else ("Pi",)
    if tail == ("Pi",):
        return head                        # c_a^dag Pi = c_a^dag, Pi Pi = Pi
    return monomial_product(head, tail)    # Pi c_g = c_g, c_a^dag c_g = transfer


def adjoint_label(label):
    """The * operation on a monomial label: Pi^dag = Pi, c_a -> c_a^dag,
    c_a^dag -> c_a and (c_a^dag c_b)^dag = c_b^dag c_a."""
    kind = label[0]
    if kind == "cdag c":
        return ("cdag c", label[2], label[1])
    return {"Pi": label, "c": ("cdag", *label[1:]), "cdag": ("c", *label[1:])}[kind]


def image(c, label):
    """The matrix of a monomial label, or of zero for None, in the
    representation whose (p, n, n) annihilators are ``c``:
    Pi = 1 - occupied(c), c_a = c[a-1], c_a^dag = c[a-1]^dag and
    c_a^dag c_b = c[a-1]^dag c[b-1]."""
    n = c.shape[-1]
    if label is None:
        return np.zeros((n, n), dtype=c.dtype)
    kind, *index = label
    if kind == "Pi":
        return np.eye(n, dtype=c.dtype) - occupied(OrthoRep.of(c))
    if kind == "c":
        return c[index[0] - 1]
    if kind == "cdag":
        return adjoint(c[index[0] - 1])
    return adjoint(c[index[0] - 1]) @ c[index[1] - 1]


def ladder_closed_form_residuals(c, L):
    """The "L^k closed form" entries of ``ladder_identity_residuals`` for the
    (p, n, n) stack ``c`` and its lowering operator ``L``: max|L^k - closed|
    with closed = c_k + sum_a c_a^dag c_{a+k} (k < p), c_p (k = p) and 0
    (k = p+1, p+2). L^k is the product of k factors L from the left, and the
    sum takes one dense product per a, in index order."""
    p, n, _ = c.shape
    power = np.eye(n, dtype=complex)
    out = {}
    for k in range(1, p + 3):
        power = power @ L
        if k < p:
            closed = c[k - 1] + sum(c[a - 1].conj().T @ c[a + k - 1] for a in range(1, p - k + 1))
        elif k == p:
            closed = c[p - 1]
        else:
            closed = np.zeros((n, n), dtype=complex)
        out[f"L^{k} closed form"] = float(np.abs(power - closed).max())
    return out


def dense_ladder_residuals(rep, L, F):
    """The ladder identity catalog of ``canonical.ladder_identity_residuals``
    with every product a dense n x n one, n = ``rep.dim``.

    ``rep``, ``L`` and ``F`` are what :func:`ladder_operators` returns, so a
    caller that also needs L and F builds them once. Every entry is
    max_abs(LHS - RHS) and equals 0.0 exactly. Conventions that make the
    catalog uniform down to p = 1: c_0 means Pi and L^0 means the identity.
    The sandwich identity L^{p-k} L^dag L^k = L^{p-1} is listed for k in
    1..p-1; at k = p the product instead equals L^{p-1} - c_{p-1}, which is
    covered by its own entry.

    The closed form of L^k, c_k + sum_a c_a^dag c_{a+k}, is c_k plus one
    :func:`transfer` on the rows that ``rep`` is held on.
    """
    p = rep.p
    eye = np.eye(rep.dim, dtype=complex)
    c = rep.dense()
    pi = eye - occupied(rep)
    Ld = L.conj().T
    Lk = [eye]  # Lk[k] = L^k for k in 0..p+2
    for _ in range(p + 2):
        Lk.append(Lk[-1] @ L)

    def c_or_pi(k: int) -> np.ndarray:
        # c_0 denotes the vacuum projector; closes the identities at p = 1
        return pi if k == 0 else c[k - 1]

    res: dict[str, float] = {}
    res["Ldag L = 1 - Pi"] = max_abs(Ld @ L - (eye - pi))
    res["L Ldag = 1 - c_p^dag c_p"] = max_abs(L @ Ld - (eye - c[p - 1].conj().T @ c[p - 1]))

    for k in range(1, p + 3):
        closed = transfer(rep, k) + (c[k - 1] if k <= p else 0)
        res[f"L^{k} closed form"] = max_abs(Lk[k] - closed)

    # ssum collects the sandwiches L^{p-k} Ldag L^k of the sum rule, k = 0 and p first
    ssum = Lk[p] @ Ld
    res["L^p Ldag = c_{p-1}"] = max_abs(ssum - c_or_pi(p - 1))
    sandwich = Ld @ Lk[p]
    res["Ldag L^p = L^{p-1} - c_{p-1}"] = max_abs(sandwich - (Lk[p - 1] - c_or_pi(p - 1)))
    ssum += sandwich

    for k in range(1, p + 1):
        res[f"L^{k} Pi = 0"] = max_abs(Lk[k] @ pi)
        res[f"Pi L^{k} = c_{k}"] = max_abs(pi @ Lk[k] - c[k - 1])

    for k in range(1, p):
        sandwich = Lk[p - k] @ Ld @ Lk[k]
        res[f"L^{p - k} Ldag L^{k} = L^{p-1}"] = max_abs(sandwich - Lk[p - 1])
        ssum += sandwich

    res["L^{p+1} = 0"] = max_abs(Lk[p + 1])
    res["sum_k L^{p-k} Ldag L^k = p L^{p-1}"] = max_abs(ssum - p * Lk[p - 1])
    res["F^{p+1} = 1"] = max_abs(np.linalg.matrix_power(F, p + 1) - eye)
    return res


def transfer_sum(c, k):
    """sum_{a=1..p-k} c_a^dag c_{a+k} over a (p, ..., n, n) stack: one dense
    n x n product per pair (a, a+k) and stack element, added in order of a
    to a complex zero of shape (..., n, n)."""
    p, *lead, _, n = c.shape
    out = np.zeros((*lead, n, n), dtype=complex)
    for a in range(p - k):
        for i in np.ndindex(*lead):
            out[i] = out[i] + c[a][i].conj().T @ c[a + k][i]
    return out


def pair_relation_defects(c, unit):
    """Per element of a (p, k, n, n) stack, the worst max|c_a c_b| and
    max|c_a c_b^dag + d_ab (occ - unit)| over all pairs (a, b).

    Each element and each pair is formed on its own, with dense n x n
    products; occ = sum_g c_g^dag c_g is summed in index order. ``unit`` is
    one n x n matrix or one per element. NaN propagates into the maxima.
    """
    p, k, n, _ = c.shape
    unit = np.broadcast_to(unit, (k, n, n))
    nilpotent, mixed = np.zeros(k), np.zeros(k)
    for i in range(k):
        m = c[:, i]
        excess = sum(g.conj().T @ g for g in m) - unit[i]
        for a in range(p):
            for b in range(p):
                product = m[a] @ m[b].conj().T
                if a == b:
                    product = product + excess
                nilpotent[i] = np.maximum(nilpotent[i], np.abs(m[a] @ m[b]).max())
                mixed[i] = np.maximum(mixed[i], np.abs(product).max())
    return nilpotent, mixed


def dense(system, stacks):
    """The dim x dim matrix of per-size (count, size, size) block stacks on
    the blocks of ``system``, such as a generator or a closed form; the rows
    and columns of its null states are zero."""
    return osusy._assemble(system.dim, system.blocks, stacks)


def cut(blocks, m):
    """Per block size, the (count, size, size) stack of the blocks of the
    dense ``m``; the inverse of :func:`dense` for ``m`` zero off the blocks."""
    return [m[rows[:, :, None], rows[:, None, :]] for rows in blocks]


def dense_generators(gens):
    """para, frac and frac_direct as dim x dim matrices."""
    system = gens.spectrum.system
    return [dense(system, g) for g in (gens.para, gens.frac, gens.frac_direct)]


def cluster_bases(spectrum):
    """Per cluster, the dim x multiplicity matrix of its orthonormal eigenvectors.

    Column by column from ``blocks``, ``eigs`` and ``levels``: block order,
    then eigenvalue order within a block; then each null state i, in the
    order of ``null``, as the unit vector e_i at E = 0.
    """
    system = spectrum.system
    columns = [[] for _ in spectrum.energies]
    for rows, eig, level in zip(system.blocks, spectrum.eigs, spectrum.levels):
        for block_rows, vectors, block_levels in zip(rows, eig.vectors, level):
            for t, energy in enumerate(block_levels):
                column = np.zeros(system.dim, dtype=complex)
                column[block_rows] = vectors[:, t]
                columns[spectrum.energies.index(energy)].append(column)
    for i in system.null:
        columns[spectrum.energies.index(0.0)].append(np.eye(system.dim, dtype=complex)[i])
    return [np.stack(cols, axis=1) for cols in columns]


def h_power(spectrum, a):
    """H^a over the positive clusters, from the per-block V diag(E^a) V^dag
    that the closed forms use."""
    return dense(spectrum.system, osusy._powers(spectrum, a))


def loop_clusters(spectrum, cluster_tol=osusy.DEFAULT_CLUSTER_TOL):
    """Energies, multiplicities and per-block levels of ``spectrum``'s
    eigenvalues, clustered one sorted value at a time.

    A value within the threshold of zero joins the E = 0 cluster; any other
    value joins the last cluster when it lies within the threshold of that
    cluster's last value, and starts a cluster otherwise. A cluster's energy
    is ``np.mean`` of its values in ascending order. Each null state of the
    system is one more value 0, after the blocks' values. The separation
    checks of :func:`osusy.spectral` are left out.
    """
    values = np.concatenate([eig.values.ravel() for eig in spectrum.eigs]
                            + [np.zeros(spectrum.system.null.size)])
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


def adjoint(m):
    """Conjugate transpose over the last two axes."""
    return np.conj(np.swapaxes(m, -1, -2))


def commutator(h, q):
    """[H, Q_a] of a (..., n, n) H and a (p, ..., n, n) charge stack: h @ q - q @ h."""
    return h @ q - q @ h


def restricted(v, q):
    """V^dag Q_a V as the full products (V^dag Q_a) V."""
    return (adjoint(v) @ q) @ v


def block_residual(basis, c, m):
    """U^dag c_a U - T_a for a (p, k, n, n) stack and its (k, n, n) unitaries,
    one a at a time: (U^dag c_a) U minus the target T_a, the matrix unit
    E_{i(p+1), i(p+1)+a+1} summed over the m copies i."""
    p, k, n, _ = c.shape
    out = []
    for a in range(p):
        target = np.zeros((n, n), dtype=complex)
        for i in range(m):
            target[i * (p + 1), i * (p + 1) + a + 1] = 1
        out.append((adjoint(basis) @ c[a]) @ basis - target)
    return np.stack(out)


def sum_rule_recurrence(p, H, para):
    """Both sides of sum_k para^{p-k} para^dag para^k = 2p para^{p-1} H, p >= 2,
    with T_j := sum_{k<=j} para^{j-k} para^dag para^k = para T_{j-1} + para^dag para^j
    and para^j formed one factor at a time from the identity."""
    para_dag = adjoint(para)
    lhs, para_j = para_dag, np.eye(H.shape[-1], dtype=complex)
    for _ in range(p - 1):
        para_j = para_j @ para
        lhs = para @ lhs + para_dag @ para_j
    lhs = para @ lhs + para_dag @ para_j @ para
    return lhs, 2.0 * p * para_j @ H


#: The largest dimension :func:`exact_verify` takes.
EXACT_MAX_DIM = 12


def _gaussian(m, scale):
    """The complex matrix ``m`` times the integer ``scale`` as rows of exact
    Gaussian integers (re, im); ``scale`` clears every denominator."""
    return [[(int(Fraction(z.real) * scale), int(Fraction(z.imag) * scale)) for z in row]
            for row in np.asarray(m, dtype=complex)]


def _mul(x, y):
    """The exact product of two matrices of Gaussian integers."""
    cols = list(zip(*y))
    return [[(sum(ar * br - ai * bi for (ar, ai), (br, bi) in zip(row, col)),
              sum(ar * bi + ai * br for (ar, ai), (br, bi) in zip(row, col)))
             for col in cols] for row in x]


def _add(x, y, sign=1):
    return [[(a[0] + sign * b[0], a[1] + sign * b[1]) for a, b in zip(u, v)]
            for u, v in zip(x, y)]


def _scale(x, k):
    return [[(re * k, im * k) for re, im in row] for row in x]


def _adj(x):
    return [[(re, -im) for re, im in col] for col in zip(*x)]


def _worst_square(x):
    """The largest re^2 + im^2 over the entries of ``x``."""
    return max((re * re + im * im for row in x for re, im in row), default=0)


def exact_verify(c, unit):
    """The rows of ``reptheory.verify(OrthoRep.of(c), unit)`` in exact arithmetic:
    per row, the largest squared modulus of an entry of its defect, as a
    :class:`~fractions.Fraction`, so that a row holds within tol exactly when
    its value is at most Fraction(tol) ** 2.

    Every float is a dyadic rational, so one power of two D clears the
    denominators of ``c`` (p, n, n) and ``unit`` (n, n). Each matrix is held
    as Gaussian integers times D^-level, a product adds the levels of its
    factors, and a sum lifts each term to the larger level; no value is ever
    rounded. Raises ValueError when n exceeds :data:`EXACT_MAX_DIM`.
    """
    c, unit = np.asarray(c), np.asarray(unit)
    n = unit.shape[-1]
    if n > EXACT_MAX_DIM:
        raise ValueError(f"exact_verify takes n <= {EXACT_MAX_DIM}, got {n}")
    d = max(Fraction(x).denominator for z in (*c.ravel(), *unit.ravel())
            for x in (z.real, z.imag))
    ms = [_gaussian(m, d) for m in c]
    occ = _mul(_adj(ms[0]), ms[0])
    for m in ms[1:]:
        occ = _add(occ, _mul(_adj(m), m))
    pi = _add(_scale(_gaussian(unit, d), d), occ, -1)           # level 2
    levels = {}

    def row(name, level, defects):
        levels[name] = Fraction(max(map(_worst_square, defects), default=0), d ** (2 * level))

    row("c_a c_b = 0", 2, [_mul(x, y) for x in ms for y in ms])
    row("c_a c_b^dag + d_ab sum c^dag c = d_ab 1", 2,
        [_mul(x, _adj(y)) if a != b else _add(_mul(x, _adj(y)), pi, -1)
         for a, x in enumerate(ms) for b, y in enumerate(ms)])
    row("Pi^2 = Pi", 4, [_add(_mul(pi, pi), _scale(pi, d * d), -1)])
    row("Pi^dag = Pi", 2, [_add(_adj(pi), pi, -1)])
    row("Pi c_a = c_a", 3, [_add(_mul(pi, m), _scale(m, d * d), -1) for m in ms])
    row("c_a^dag Pi = c_a^dag", 3, [_add(_mul(_adj(m), pi), _scale(_adj(m), d * d), -1)
                                    for m in ms])
    row("c_a Pi = 0", 3, [_mul(m, pi) for m in ms])
    row("Pi c_a^dag = 0", 3, [_mul(pi, _adj(m)) for m in ms])
    return levels
