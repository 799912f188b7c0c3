from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthofermi import reptheory
from orthofermi.canonical import cyclic_from, lowering_from
from orthofermi.errors import (ClusteringError, DimensionError, NotARepresentationError,
                               OrderError, TruncationError)
from orthofermi.linalg import haar_unitary, max_abs
from orthofermi.osusy import (CLOSED_FORM_TOL, DEFAULT_GENERATOR_TOL, OsusySystem,
                              SusyGenerators, block_partition, build_generators, build_system,
                              check_generators, check_relations, closed_form_frac,
                              closed_form_para, eigenspace_reps, spectral, spectral_power)


def pipeline(p, levels):
    sys_ = build_system(p, levels)
    spectrum = spectral(sys_)
    analyses = eigenspace_reps(sys_, spectrum)
    gens = build_generators(sys_, spectrum)
    return sys_, spectrum, analyses, gens


def diag_system(values):
    """Fake system carrying only a Hamiltonian, for clustering tests."""
    h = np.diag(np.asarray(values, dtype=float)).astype(complex)
    return OsusySystem(p=1, levels=2, dim=len(values), Q=[np.zeros_like(h)], H=h)


def mpow(m, k):
    return np.linalg.matrix_power(m, k)


# -- model construction ---------------------------------------------------------

def test_dimensions_and_charge_rank():
    sys_ = build_system(1, 2)
    assert sys_.dim == 4
    assert np.linalg.matrix_rank(sys_.Q[0]) == 1

    assert build_system(2, 4).dim == 12


def test_spectrum_against_brute_force_diagonalization():
    # oracle: plain dense diagonalization of the 12x12 Hamiltonian
    sys_ = build_system(2, 4)
    values = np.linalg.eigvalsh(sys_.H)
    counts = Counter(int(round(v)) for v in values)
    assert np.abs(values - np.round(values)).max() < 1e-10
    assert counts == {0: 3, 1: 3, 2: 3, 3: 3}


def test_construction_guards():
    with pytest.raises(TruncationError):
        build_system(2, 1)
    with pytest.raises(OrderError):
        build_system(0, 4)


@pytest.mark.parametrize("p, levels", [(1, 2), (2, 5), (3, 7), (8, 6), (16, 3)])
def test_blockwise_hamiltonian_equals_the_dense_formula(p, levels):
    sys_ = build_system(p, levels)
    Q = sys_.Q
    dense = 0.5 * (Q[0] @ Q[0].conj().T + sum(q.conj().T @ q for q in Q))
    assert np.array_equal(sys_.H, dense)


def test_relations_hold_exactly_on_samples():
    for p, levels in [(1, 2), (2, 4), (3, 3), (4, 5)]:
        sys_ = build_system(p, levels)
        residuals = check_relations(sys_, spectral(sys_))
        assert max(residuals.values()) < 1e-10


def test_expectation_of_h_is_nonnegative():
    sys_ = build_system(2, 4)
    rng = np.random.default_rng(17)
    for _ in range(100):
        psi = rng.standard_normal(sys_.dim) + 1j * rng.standard_normal(sys_.dim)
        psi /= np.linalg.norm(psi)
        assert (psi.conj() @ sys_.H @ psi).real >= -1e-12


# -- spectral clustering ---------------------------------------------------------

def test_spectral_clusters_of_the_standard_model():
    sys_ = build_system(2, 4)
    spectrum = spectral(sys_)
    assert [round(e) for e in spectrum.energies] == [0, 1, 2, 3]
    assert spectrum.multiplicities == [3, 3, 3, 3]
    assert spectrum.energies[0] == 0.0


def projectors(spectrum):
    return [b @ b.conj().T for b in spectrum.bases]


def test_projectors_resolve_the_identity():
    sys_ = build_system(3, 5)
    spectrum = spectral(sys_)
    projs = projectors(spectrum)
    assert max_abs(sum(projs) - np.eye(sys_.dim)) < 1e-10
    for i, pi in enumerate(projs):
        for j, pj in enumerate(projs):
            expected = pi if i == j else 0.0
            assert max_abs(pi @ pj - expected) < 1e-10


def test_projectors_are_eigenprojectors():
    sys_ = build_system(2, 4)
    spectrum = spectral(sys_)
    for energy, proj in zip(spectrum.energies, projectors(spectrum)):
        assert max_abs(sys_.H @ proj - energy * proj) < 1e-8


def test_spectral_on_diagonal_hamiltonian():
    spectrum = spectral(diag_system([2.0, 2.0, 5.0, 7.0, 7.0, 7.0]))
    assert spectrum.energies == [2.0, 5.0, 7.0]
    assert spectrum.multiplicities == [2, 1, 3]


def test_clustering_rejects_chained_gaps():
    with pytest.raises(ClusteringError):
        spectral(diag_system([1.0, 1.006, 1.012]), cluster_tol=1e-2)


def test_clustering_rejects_value_hugging_the_zero_band():
    with pytest.raises(ClusteringError):
        spectral(diag_system([0.0, 0.006, 0.012]), cluster_tol=1e-2)


# -- eigenspace representations ---------------------------------------------------

def test_each_positive_eigenspace_carries_one_canonical_copy():
    sys_, spectrum, analyses, _ = pipeline(2, 4)
    for analysis, mult in zip(analyses, spectrum.multiplicities):
        if analysis.energy > 0:
            assert analysis.decomposition.multiplicity == 1
            assert analysis.decomposition.trivial_dim == 0
            assert mult == 3
        else:
            assert analysis.decomposition.multiplicity == 0
            assert analysis.decomposition.trivial_dim == 1 + sys_.p


def test_kernel_charges_vanish():
    sys_ = build_system(3, 4)
    spectrum = spectral(sys_)
    basis0 = spectrum.bases[0]
    assert spectrum.energies[0] == 0.0
    for q in sys_.Q:
        assert max_abs(basis0.conj().T @ q @ basis0) < 1e-12


def test_positive_eigenspace_dimensions_are_multiples():
    for p, levels in [(1, 3), (2, 3), (3, 4)]:
        _, spectrum, analyses, _ = pipeline(p, levels)
        for analysis, mult in zip(analyses, spectrum.multiplicities):
            if analysis.energy > 0:
                assert mult == analysis.decomposition.multiplicity * (p + 1)


def test_eigenspace_reps_flags_broken_systems():
    sys_ = build_system(1, 3)
    broken = OsusySystem(p=1, levels=3, dim=sys_.dim,
                         Q=[sys_.Q[0] + 0.05 * np.eye(sys_.dim)], H=sys_.H)
    spectrum = spectral(broken)
    with pytest.raises(NotARepresentationError):
        eigenspace_reps(broken, spectrum)


def sector_rows(sys_, energy):
    """The rows of the N-sector that carries the eigenspace of E = ``energy``."""
    (rows,) = [r for group in spectral(sys_).blocks for r in group
               if {number_of_state(sys_.p, i) for i in r} == {energy} and len(r) > 1]
    return rows


def test_a_perturbed_sector_is_blamed_on_its_energy():
    sys_ = build_system(2, 8)
    rows = sector_rows(sys_, 5)
    q = sys_.Q[0].copy()
    q[np.ix_(rows, rows)] += 1e-3 * np.random.default_rng(3).standard_normal((3, 3))
    broken = replace(sys_, Q=[q, *sys_.Q[1:]])
    with pytest.raises(NotARepresentationError, match=r"E = 5\b"):
        eigenspace_reps(broken, spectral(broken))


def test_charges_scaled_off_the_unit_are_refused():
    # 1.01 Q_a keeps both relations up to the unit: only the law with unit I breaks
    sys_ = build_system(3, 6)
    scaled = replace(sys_, Q=[1.01 * q for q in sys_.Q])
    with pytest.raises(NotARepresentationError, match=r"eigenspace E = 1\b"):
        eigenspace_reps(scaled, spectral(scaled))


def test_one_relation_check_per_cluster_class(monkeypatch):
    calls = Counter()
    for name in ("_relation_defects", "_infer_units"):
        kernel = getattr(reptheory, name)

        def counted(*args, _kernel=kernel, _name=name, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(reptheory, name, counted)
    sys_ = build_system(3, 80)
    spectrum = spectral(sys_)
    eigenspace_reps(sys_, spectrum)
    classes = {(e > 0, m, len(rows)) for e, m, rows in
               zip(spectrum.energies, spectrum.multiplicities, spectrum.supports)}
    assert len(spectrum.energies) == 80 and len(classes) == 2
    assert calls == {"_relation_defects": len(classes)}


# -- generators -------------------------------------------------------------------

def test_generator_identity_suite():
    sys_, spectrum, analyses, gens = pipeline(2, 4)
    residuals = check_generators(sys_, gens, spectrum)
    assert residuals["para^{p+1} = 0"] < 1e-9
    assert residuals["sum_k para^{p-k} para^dag para^k = 2p para^{p-1} H"] < 1e-8
    assert residuals["frac^{p+1} = H"] < 1e-9
    assert residuals["frac_direct^{p+1} = (2H)^p"] < 1e-8
    assert residuals["[para, H] = 0"] < 1e-10
    assert residuals["[frac, H] = 0"] < 1e-10
    assert residuals["para closed form"] < 1e-9
    assert residuals["frac closed form"] < 1e-9


def test_generator_suite_at_order_three():
    sys_, spectrum, analyses, gens = pipeline(3, 5)
    residuals = check_generators(sys_, gens, spectrum)
    assert max(residuals.values()) < 1e-8


def test_order_one_generators():
    sys_, spectrum, analyses, gens = pipeline(1, 3)
    residuals = check_generators(sys_, gens, spectrum)
    assert "sum_k para^{p-k} para^dag para^k = 2p para^{p-1} H" not in residuals
    assert max_abs(mpow(gens.para, 2)) < 1e-12
    assert max_abs(mpow(gens.frac, 2) - sys_.H) < 1e-10
    assert max_abs(mpow(gens.frac_direct, 2) - 2 * sys_.H) < 1e-10


def test_sum_rule_normalization_is_forced():
    # the multilinear sum equals 2p para^{p-1} H on the nose; replacing the
    # constant 2p by p misses by exactly the removed half, so the halved
    # variant is not merely loose, it is off by a finite amount
    sys_, spectrum, analyses, gens = pipeline(2, 4)
    p, H, para = sys_.p, sys_.H, gens.para
    lhs = sum(mpow(para, p - k) @ para.conj().T @ mpow(para, k) for k in range(p + 1))
    rhs_full = 2 * p * mpow(para, p - 1) @ H
    rhs_half = p * mpow(para, p - 1) @ H
    assert max_abs(lhs - rhs_full) < 1e-12
    assert max_abs(rhs_half) > 1.0
    assert abs(max_abs(lhs - rhs_half) - max_abs(rhs_half)) < 1e-12


def test_closed_form_frac_exponent_is_forced():
    # halving the outer exponent is what makes the charge expression match
    # the spectrally assembled generator; the doubled exponent visibly fails
    # as soon as an eigenvalue differs from 1
    sys_, spectrum, analyses, gens = pipeline(2, 4)
    p = sys_.p
    transfer = sys_.Q[0].conj().T @ sys_.Q[1]
    outer_bad = (2 ** -0.5) * spectral_power(spectrum, -(p - 1) / (p + 1))
    inner = 0.5 * spectral_power(spectrum, -p / (p + 1))
    bad = outer_bad @ sys_.Q[0] + inner @ transfer + outer_bad @ sys_.Q[p - 1].conj().T
    assert max_abs(closed_form_frac(sys_, spectrum) - gens.frac) < 1e-12
    assert max_abs(bad - gens.frac) > 0.05


def test_closed_form_para_matches_spectral_assembly():
    for p, levels in [(2, 4), (3, 4), (4, 3)]:
        sys_, spectrum, analyses, gens = pipeline(p, levels)
        assert max_abs(closed_form_para(sys_, spectrum) - gens.para) < 1e-9
        assert max_abs(closed_form_frac(sys_, spectrum) - gens.frac) < 1e-9


def test_clusters_spanning_blocks_match_the_single_system():
    # kron(I_2, .) doubles every sector, so each positive cluster spans two blocks
    single, single_spectrum, single_analyses, single_gens = pipeline(2, 5)

    def twice(m):
        return np.kron(np.eye(2), m)
    sys_ = replace(single, dim=2 * single.dim, Q=[twice(q) for q in single.Q],
                   H=twice(single.H))
    spectrum = spectral(sys_)
    analyses = eigenspace_reps(sys_, spectrum)
    gens = build_generators(sys_, spectrum)
    assert spectrum.multiplicities == [2 * m for m in single_spectrum.multiplicities]
    assert [a.decomposition.multiplicity for a in analyses] == \
        [2 * a.decomposition.multiplicity for a in single_analyses]
    for got, want in [(gens.para, single_gens.para), (gens.frac, single_gens.frac),
                      (gens.frac_direct, single_gens.frac_direct),
                      (closed_form_frac(sys_, spectrum), closed_form_frac(single, single_spectrum)),
                      (spectral_power(spectrum, -0.5), spectral_power(single_spectrum, -0.5))]:
        assert max_abs(got - twice(want)) < 1e-12
    for name, value in check_generators(sys_, gens, spectrum).items():
        assert value <= (CLOSED_FORM_TOL if "closed form" in name else DEFAULT_GENERATOR_TOL), name


def test_generators_are_built_cluster_by_cluster():
    # Q_1 coupled from |2, 0> (E = 2) to |1, 0> (E = 1) merges two sectors into one
    # block that holds two clusters; each cluster must still use only its own restriction
    natural = build_system(2, 4)
    sys_ = replace(natural, Q=[couple(natural.Q[0], 3, 6, 1e-3, hermitian=False),
                               *natural.Q[1:]])
    spectrum = spectral(sys_)
    assert any(rows.shape == (1, 6) for rows in spectrum.blocks)
    gens = build_generators(sys_, spectrum)
    para = frac = 0.0
    for e, b in zip(spectrum.energies, spectrum.bases):
        if e > 0:
            c = [b.conj().T @ q @ b / np.sqrt(2 * e) for q in sys_.Q]
            para = para + np.sqrt(2 * e) * b @ lowering_from(c) @ b.conj().T
            frac = frac + e ** (1 / (sys_.p + 1)) * b @ cyclic_from(c) @ b.conj().T
    assert max_abs(gens.para - para) < 1e-12
    assert max_abs(gens.frac - frac) < 1e-12


def test_generators_vanish_on_the_kernel():
    sys_, spectrum, analyses, gens = pipeline(2, 3)
    kernel = spectrum.bases[0]
    for g in (gens.para, gens.frac):
        assert max_abs(g @ kernel) < 1e-12
        assert max_abs(gens.para.conj().T @ kernel) < 1e-12


# -- spectral calculus ---------------------------------------------------------------

def test_spectral_power_one_reproduces_h():
    sys_ = build_system(2, 4)
    spectrum = spectral(sys_)
    assert max_abs(spectral_power(spectrum, 1.0) - sys_.H) < 1e-10


def test_spectral_power_zero_is_positive_projector():
    sys_ = build_system(2, 4)
    spectrum = spectral(sys_)
    proj = spectral_power(spectrum, 0.0)
    assert max_abs(proj @ proj - proj) < 1e-12
    assert max_abs(proj + projectors(spectrum)[0] - np.eye(sys_.dim)) < 1e-10


def test_spectral_power_negative_half_squares_to_pseudo_inverse():
    sys_ = build_system(2, 4)
    spectrum = spectral(sys_)
    inv_root = spectral_power(spectrum, -0.5)
    positive = spectral_power(spectrum, 0.0)
    assert max_abs(inv_root @ inv_root @ sys_.H - positive) < 1e-9


def test_nonpositive_levels_take_no_power():
    # a power or square root of E <= 0 would warn, and the suite turns warnings into errors
    sys_ = diag_system([-2.0, 0.0, 4.0])
    spectrum = spectral(sys_)
    assert np.array_equal(spectral_power(spectrum, -0.5).diagonal(), [0.0, 0.0, 0.5])
    gens = build_generators(sys_, spectrum)
    assert max_abs(gens.para) == max_abs(gens.frac) == 0.0


# -- block partition -------------------------------------------------------------------

def number_of_state(p, i):
    """N = a^dag a + sum_g c_g^dag c_g of basis state i = |n, a> (row n (p+1) + a)."""
    n, a = divmod(i, p + 1)
    return n + (a > 0)


@pytest.mark.parametrize("p, levels", [(1, 2), (2, 5), (12, 10)])
def test_natural_partition_is_the_number_sectors(p, levels):
    sys_ = build_system(p, levels)
    blocks = spectral(sys_).blocks
    assert {rows.shape[1]: rows.shape[0] for rows in blocks} == {1: p + 1, p + 1: levels - 1}
    sectors = [rows for group in blocks for rows in group]
    assert sorted(np.concatenate(sectors)) == list(range(sys_.dim))
    for rows in sectors:
        assert len({number_of_state(p, i) for i in rows}) == 1
    # every positive sector is a full one: |n, 0> and the p states |n-1, a>
    assert {number_of_state(p, i) for i in blocks[1][:, 0]} == set(range(1, levels))


def test_partition_links_entries_in_either_direction():
    m = np.zeros((5, 5))
    m[0, 3] = m[4, 1] = 1.0
    blocks = block_partition([m, np.zeros((5, 5))])
    assert [rows.tolist() for rows in blocks] == [[[2]], [[0, 3], [1, 4]]]


def components(linked):
    """Oracle: the blocks of ``linked`` by a plain depth-first search, one list each."""
    seen, blocks = set(), []
    for seed in range(len(linked)):
        if seed not in seen:
            stack, block = [seed], []
            seen.add(seed)
            while stack:
                i = stack.pop()
                block.append(i)
                for j in np.flatnonzero(linked[i] | linked[:, i]):
                    if j not in seen:
                        seen.add(int(j))
                        stack.append(int(j))
            blocks.append(sorted(block))
    return blocks


def test_partition_matches_a_depth_first_search():
    rng = np.random.default_rng(8)
    for trial in range(200):
        n = int(rng.integers(1, 30))
        if trial % 4 == 0:  # a chain in shuffled order: the longest label paths
            order = rng.permutation(n)
            m = np.zeros((n, n))
            m[order[:-1], order[1:]] = 1.0
        else:
            m = (rng.random((n, n)) < rng.uniform(0.0, 0.15)) * 1.0
        want = components(m != 0)
        got = [rows.tolist() for group in block_partition([m]) for rows in group]
        assert sorted(got) == want
        assert got == sorted(want, key=lambda b: (len(b), b[0]))


def dense_relations(sys_):
    """Oracle: the relation residuals with plain dense products."""
    Q, H = sys_.Q, sys_.H
    occ = sum(q.conj().T @ q for q in Q)
    pairs = [(a, b) for a in range(sys_.p) for b in range(sys_.p)]
    return {
        "[H, Q_a] = 0": max(max_abs(H @ q - q @ H) for q in Q),
        "Q_a Q_b = 0": max(max_abs(Q[a] @ Q[b]) for a, b in pairs),
        "Q_a Q_b^dag + d_ab sum Q^dag Q = 2 d_ab H": max(
            max_abs(Q[a] @ Q[b].conj().T + (occ - 2 * H if a == b else 0)) for a, b in pairs),
        "H >= 0": max(0.0, -float(np.linalg.eigvalsh(H).min())),
    }


def dense_generator_residuals(sys_, gens, spectrum):
    """Oracle: the generator residuals with plain dense products and powers."""
    p, H, Q = sys_.p, sys_.H, sys_.Q
    para, frac, direct = gens.para, gens.frac, gens.frac_direct

    def h_power(a):
        return sum(e ** a * b @ b.conj().T
                   for e, b in zip(spectrum.energies, spectrum.bases) if e > 0)

    def rel(defect, scale):
        return max_abs(defect) / max(1.0, scale)

    transfer = sum(Q[a - 1].conj().T @ Q[a] for a in range(1, p))
    outer = 2 ** -0.5 * h_power(-(p - 1) / (2 * (p + 1)))
    closed_para = Q[0] + 2 ** -0.5 * h_power(-0.5) @ transfer
    closed_frac = outer @ Q[0] + 0.5 * h_power(-p / (p + 1)) @ transfer + outer @ Q[-1].conj().T
    lhs = sum(mpow(para, p - k) @ para.conj().T @ mpow(para, k) for k in range(p + 1))
    rhs = 2 * p * mpow(para, p - 1) @ H
    h = max_abs(H)
    return {
        "para^{p+1} = 0": rel(mpow(para, p + 1), max(1.0, 2 * h) ** ((p + 1) / 2)),
        "sum_k para^{p-k} para^dag para^k = 2p para^{p-1} H": rel(lhs - rhs, max_abs(rhs)),
        "frac^{p+1} = H": rel(mpow(frac, p + 1) - H, h),
        "frac_direct^{p+1} = (2H)^p": rel(mpow(direct, p + 1) - mpow(2 * H, p),
                                          max_abs(mpow(2 * H, p))),
        "[para, H] = 0": rel(para @ H - H @ para, max_abs(para) * h),
        "[frac, H] = 0": rel(frac @ H - H @ frac, max_abs(frac) * h),
        "para closed form": max_abs(para - closed_para),
        "frac closed form": max_abs(frac - closed_frac),
    }


def assert_matches(got, want):
    assert list(got) == list(want)
    for name in want:
        assert abs(got[name] - want[name]) <= 1e-14 * max(1.0, abs(want[name])), name


def couple(m, i, j, eps, hermitian):
    out = m.copy()
    out[i, j] += eps
    if hermitian:
        out[j, i] += eps
    return out


@pytest.mark.parametrize("target", ["H", "Q_1"])
def test_a_coupling_merges_blocks_and_every_residual_sees_it(target):
    # |1, 0> (N = 1) and |2, 0> (N = 2) lie in different sectors
    p, levels, eps = 2, 4, 1e-3
    natural, _, _, gens = pipeline(p, levels)
    i, j = p + 1, 2 * (p + 1)
    if target == "H":
        sys_ = replace(natural, H=couple(natural.H, i, j, eps, hermitian=True))
    else:
        sys_ = replace(natural, Q=[couple(natural.Q[0], i, j, eps, hermitian=False),
                                   *natural.Q[1:]])
    spectrum = spectral(sys_)
    sizes = {rows.shape[1]: rows.shape[0] for rows in spectrum.blocks}
    assert sizes == {1: p + 1, p + 1: levels - 3, 2 * (p + 1): 1}

    relations = check_relations(sys_, spectrum)
    generators = check_generators(sys_, gens, spectrum)
    assert_matches(relations, dense_relations(sys_))
    assert_matches(generators, dense_generator_residuals(sys_, gens, spectrum))
    assert max(relations.values()) > eps / 100
    assert max(generators.values()) > eps / 100


def test_generators_outside_the_blocks_are_rejected():
    sys_, spectrum, _, gens = pipeline(2, 4)
    stray = gens.para.copy()
    stray[0, sys_.dim - 1] = 1e-3
    with pytest.raises(DimensionError):
        check_generators(sys_, SusyGenerators(stray, gens.frac, gens.frac_direct), spectrum)


def spectrum_table(analyses, spectrum):
    return [(round(a.energy, 12), mult, a.decomposition.multiplicity)
            for a, mult in zip(analyses, spectrum.multiplicities)]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(p=st.integers(1, 3), levels=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_pipeline_is_basis_covariant(p, levels, seed):
    natural, natural_spectrum, natural_analyses, natural_gens = pipeline(p, levels)
    u = haar_unitary(natural.dim, np.random.default_rng(seed))
    turned = replace(natural, Q=[u @ q @ u.conj().T for q in natural.Q],
                     H=u @ natural.H @ u.conj().T)
    spectrum = spectral(turned)
    assert [rows.shape for rows in spectrum.blocks] == [(1, natural.dim)]
    assert max(check_relations(turned, spectrum).values()) <= 1e-10
    analyses = eigenspace_reps(turned, spectrum)
    gens = build_generators(turned, spectrum)
    for name, value in check_generators(turned, gens, spectrum).items():
        assert value <= (CLOSED_FORM_TOL if "closed form" in name else DEFAULT_GENERATOR_TOL), name
    assert spectrum_table(analyses, spectrum) == \
        spectrum_table(natural_analyses, natural_spectrum)
    # one block holds every cluster; the generators and H^a still turn with the basis
    for got, want in [(gens.para, natural_gens.para), (gens.frac, natural_gens.frac),
                      (gens.frac_direct, natural_gens.frac_direct),
                      (spectral_power(spectrum, -0.5), spectral_power(natural_spectrum, -0.5))]:
        assert max_abs(got - u @ want @ u.conj().T) <= 1e-10
