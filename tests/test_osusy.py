import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthofermi import reptheory
from orthofermi.canonical import canonical, cyclic_from, lowering_from
from orthofermi.errors import (ClusteringError, DimensionError, NotARepresentationError,
                               OrderError, TruncationError)
from orthofermi.linalg import haar_unitary, max_abs
from orthofermi.osusy import (CLOSED_FORM_TOL, DEFAULT_GENERATOR_TOL, SusyGenerators,
                              block_partition, build_generators, build_system,
                              check_generators, check_relations, closed_form_frac,
                              closed_form_para, eigenspace_reps, spectral, system_from_dense)
from oracles import cluster_bases, cut, dense, dense_generators, h_power, loop_clusters


def pipeline(p, levels):
    sys_ = build_system(p, levels)
    spectrum = spectral(sys_)
    analyses = eigenspace_reps(spectrum)
    gens = build_generators(spectrum)
    return sys_, spectrum, analyses, gens


def diag_system(values):
    """Fake system carrying only a Hamiltonian, for clustering tests."""
    h = np.diag(np.asarray(values, dtype=float)).astype(complex)
    return system_from_dense(1, [np.zeros_like(h)], h)


def mpow(m, k):
    return np.linalg.matrix_power(m, k)


# -- model construction ---------------------------------------------------------

def test_dimensions_and_charge_rank():
    sys_ = build_system(1, 2)
    assert sys_.dim == 4
    assert np.linalg.matrix_rank(sys_.dense()[0][0]) == 1

    assert build_system(2, 4).dim == 12


def test_spectrum_against_brute_force_diagonalization():
    # oracle: plain dense diagonalization of the 12x12 Hamiltonian
    sys_ = build_system(2, 4)
    values = np.linalg.eigvalsh(sys_.dense()[1])
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
    Q, H = build_system(p, levels).dense()
    dense = 0.5 * (Q[0] @ Q[0].conj().T + sum(q.conj().T @ q for q in Q))
    assert np.array_equal(H, dense)


@pytest.mark.parametrize("p, levels", [(1, 2), (2, 5), (3, 7), (8, 6), (16, 3)])
def test_charges_equal_the_kron_formula_bitwise(p, levels):
    # the stacks are written from the index pattern of a^dag (x) c_a; assembled,
    # they must be the dense sqrt(2) a^dag (x) c_a to the last bit
    a = np.diag(np.sqrt(np.arange(1, levels)), 1).astype(complex)
    kron = [math.sqrt(2.0) * np.kron(a.conj().T, c) for c in canonical(p).c]
    Q, _ = build_system(p, levels).dense()
    assert [q.tobytes() for q in Q] == [q.tobytes() for q in kron]


@pytest.mark.parametrize("p, levels", [(1, 2), (2, 5), (3, 7), (8, 6), (16, 3)])
def test_a_dense_system_has_the_same_blocks_and_stacks(p, levels):
    sys_ = build_system(p, levels)
    Q, H = sys_.dense()
    again = system_from_dense(p, Q, H)
    assert (again.p, again.dim) == (sys_.p, sys_.dim)
    assert [rows.tolist() for rows in again.blocks] == [rows.tolist() for rows in sys_.blocks]
    for got, want in [*zip(again.Q, sys_.Q), *zip(again.H, sys_.H)]:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_dense_system_needs_p_square_charges_of_the_size_of_h():
    Q, H = build_system(2, 3).dense()
    for charges, h in [(Q[:1], H), (Q, H[:, :-1]), ([q[:-1, :-1] for q in Q], H)]:
        with pytest.raises(DimensionError):
            system_from_dense(2, charges, h)


def test_a_long_chain_allocates_no_dense_matrix():
    # dim 6000: one dense complex dim x dim matrix alone would take 576 MB
    tracemalloc.start()
    try:
        sys_ = build_system(2, 2000)
        spectrum = spectral(sys_)
        check_relations(spectrum)
        eigenspace_reps(spectrum)
        check_generators(build_generators(spectrum))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sys_.dim == 6000
    assert peak < 50 * 2**20


def test_relations_hold_exactly_on_samples():
    for p, levels in [(1, 2), (2, 4), (3, 3), (4, 5)]:
        sys_ = build_system(p, levels)
        residuals = check_relations(spectral(sys_))
        assert max(residuals.values()) < 1e-10


def test_a_nan_relation_defect_is_not_folded_away():
    # H Q_a overflows in the N-sectors, so [H, Q_a] is NaN there; the singleton
    # blocks, folded first, give exact zeros
    Q, H = build_system(2, 4).dense()
    with np.errstate(over="ignore", invalid="ignore"):
        sys_ = system_from_dense(2, 1e105 * Q, 1e210 * H)
        defect = sys_.H[1] @ sys_.Q[1] - sys_.Q[1] @ sys_.H[1]
        residual = check_relations(spectral(sys_))["[H, Q_a] = 0"]
    assert np.isnan(defect).any()
    assert math.isnan(residual) and not residual <= 1e-10


def test_expectation_of_h_is_nonnegative():
    sys_ = build_system(2, 4)
    H = sys_.dense()[1]
    rng = np.random.default_rng(17)
    for _ in range(100):
        psi = rng.standard_normal(sys_.dim) + 1j * rng.standard_normal(sys_.dim)
        psi /= np.linalg.norm(psi)
        assert (psi.conj() @ H @ psi).real >= -1e-12


# -- spectral clustering ---------------------------------------------------------

def test_spectral_clusters_of_the_standard_model():
    sys_ = build_system(2, 4)
    spectrum = spectral(sys_)
    assert [round(e) for e in spectrum.energies] == [0, 1, 2, 3]
    assert spectrum.multiplicities == [3, 3, 3, 3]
    assert spectrum.energies[0] == 0.0


def projectors(spectrum):
    return [b @ b.conj().T for b in cluster_bases(spectrum)]


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
    H = sys_.dense()[1]
    for energy, proj in zip(spectrum.energies, projectors(spectrum)):
        assert max_abs(H @ proj - energy * proj) < 1e-8


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


@pytest.mark.parametrize("values, message", [
    ([0.5, 0.506, 0.512, 0.9, 0.908, 0.916],
     "cluster at E = 0.506 has spread 1.200e-02 > 1.000e-02"),
    ([0.0, 0.006, 0.012, 0.5, 0.506, 0.512],
     "cluster at E = 0.506 has spread 1.200e-02 > 1.000e-02"),
    ([-0.013, -0.004, 0.004, 0.012],
     "clusters at E = -0.013 and E = 0 separated by only 9.000e-03"),
    ([-0.009, 0.009, 0.5, 0.506, 0.512],
     "cluster at E = 0 has spread 1.800e-02 > 1.000e-02"),
], ids=["two-spreads", "spread-before-gap", "two-gaps", "zero-band-then-spread"])
def test_clustering_error_names_the_first_failure(values, message):
    # each input fails twice; spreads are checked before gaps, each in energy order
    with pytest.raises(ClusteringError) as info:
        spectral(diag_system(values), cluster_tol=1e-2)
    assert str(info.value) == message


def direct_sum(*ms):
    out = np.zeros((sum(len(m) for m in ms),) * 2, dtype=complex)
    at = 0
    for m in ms:
        out[at:at + len(m), at:at + len(m)] = m
        at += len(m)
    return out


def beside_copies(p, levels, copies, other_levels):
    """kron(I_copies, (p, levels)) next to (p, other_levels), as one dense system."""
    (q, h), (q2, h2) = build_system(p, levels).dense(), build_system(p, other_levels).dense()
    eye = np.eye(copies)
    return system_from_dense(p, [direct_sum(np.kron(eye, a), b) for a, b in zip(q, q2)],
                             direct_sum(np.kron(eye, h), h2))


def turned(p, levels, seed):
    q, h = build_system(p, levels).dense()
    u = haar_unitary(len(h), np.random.default_rng(seed))
    return system_from_dense(p, [u @ a @ u.conj().T for a in q], u @ h @ u.conj().T)


def negative_levels():
    rng = np.random.default_rng(11)
    values = np.repeat([-3.0, -1.0, 0.0, 2.0, 5.0], [9, 4, 3, 11, 1])
    u = haar_unitary(values.size, rng)
    h = u @ np.diag(values + 1e-12 * rng.standard_normal(values.size)) @ u.conj().T
    return system_from_dense(1, [np.zeros_like(h)], (h + h.conj().T) / 2)


@pytest.mark.parametrize("make", [
    lambda: build_system(7, 5), lambda: build_system(8, 4), lambda: build_system(12, 3),
    lambda: beside_copies(8, 5, 2, 3), lambda: beside_copies(2, 6, 3, 4),
    lambda: turned(7, 4, 2), negative_levels,
], ids=["p7", "p8", "p12", "kron2-p8", "kron3-p2", "turned-p7", "negative"])
def test_cluster_energies_are_the_means_of_their_values(make):
    # clusters of 8 or more values: numpy's pairwise sum is no running sum there
    spectrum = spectral(make())
    energies, multiplicities, levels = loop_clusters(spectrum)
    assert spectrum.energies == energies
    assert spectrum.multiplicities == multiplicities
    assert all(map(np.array_equal, spectrum.levels, levels))
    values = np.concatenate([eig.values.ravel() for eig in spectrum.eigs])
    level = np.concatenate([lv.ravel() for lv in spectrum.levels])
    order = np.argsort(values, kind="stable")
    for energy in spectrum.energies:
        if energy != 0.0:
            assert np.mean(values[order][level[order] == energy]) == energy


# -- eigenspace representations ---------------------------------------------------

def test_each_positive_eigenspace_carries_one_canonical_copy():
    sys_, spectrum, analyses, _ = pipeline(2, 4)
    for analysis, mult in zip(analyses, spectrum.multiplicities):
        if analysis.energy > 0:
            assert analysis.copies == 1
            assert analysis.trivial_dim == 0
            assert mult == 3
        else:
            assert analysis.copies == 0
            assert analysis.trivial_dim == 1 + sys_.p


def test_kernel_charges_vanish():
    sys_ = build_system(3, 4)
    spectrum = spectral(sys_)
    basis0 = cluster_bases(spectrum)[0]
    assert spectrum.energies[0] == 0.0
    for q in sys_.dense()[0]:
        assert max_abs(basis0.conj().T @ q @ basis0) < 1e-12


def test_positive_eigenspace_dimensions_are_multiples():
    for p, levels in [(1, 3), (2, 3), (3, 4)]:
        _, spectrum, analyses, _ = pipeline(p, levels)
        for analysis, mult in zip(analyses, spectrum.multiplicities):
            if analysis.energy > 0:
                assert mult == analysis.copies * (p + 1)


def test_eigenspace_reps_flags_broken_systems():
    sys_ = build_system(1, 3)
    Q, H = sys_.dense()
    broken = system_from_dense(1, [Q[0] + 0.05 * np.eye(sys_.dim)], H)
    spectrum = spectral(broken)
    with pytest.raises(NotARepresentationError):
        eigenspace_reps(spectrum)


def sector_rows(sys_, energy):
    """The rows of the N-sector that carries the eigenspace of E = ``energy``."""
    (rows,) = [r for group in sys_.blocks for r in group
               if {number_of_state(sys_.p, i) for i in r} == {energy} and len(r) > 1]
    return rows


def test_a_perturbed_sector_is_blamed_on_its_energy():
    sys_ = build_system(2, 8)
    rows = sector_rows(sys_, 5)
    Q, H = sys_.dense()
    q = Q[0].copy()
    q[np.ix_(rows, rows)] += 1e-3 * np.random.default_rng(3).standard_normal((3, 3))
    broken = system_from_dense(2, [q, *Q[1:]], H)
    with pytest.raises(NotARepresentationError, match=r"E = 5\b"):
        eigenspace_reps(spectral(broken))


def test_charges_scaled_off_the_unit_are_refused():
    # 1.01 Q_a keeps both relations up to the unit: only the law with unit I breaks
    sys_ = build_system(3, 6)
    scaled = replace(sys_, Q=[1.01 * q for q in sys_.Q])
    with pytest.raises(NotARepresentationError, match=r"eigenspace E = 1\b"):
        eigenspace_reps(spectral(scaled))


def pieces(spectrum):
    """(energy, size) of every piece: the part of a cluster in one block."""
    return [(energy, size) for level in spectrum.levels for row in level
            for energy, size in Counter(row.tolist()).items()]


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
    eigenspace_reps(spectrum)
    # the E = 0 pieces are counted as trivial with no decomposition
    positive_classes = {size for energy, size in pieces(spectrum) if energy > 0}
    assert len(spectrum.energies) == 80 and len(positive_classes) == 1
    assert calls == {"_relation_defects": len(positive_classes)}


# -- generators -------------------------------------------------------------------

def test_generator_identity_suite():
    sys_, spectrum, analyses, gens = pipeline(2, 4)
    residuals = check_generators(gens)
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
    residuals = check_generators(gens)
    assert max(residuals.values()) < 1e-8


def test_a_nan_generator_entry_is_not_folded_away():
    # a NaN in the N-sectors' stack of para, after the singletons' exact zeros
    _, _, _, gens = pipeline(2, 4)
    para = [stack.copy() for stack in gens.para]
    para[1][0, 0, 0] = np.nan
    residuals = check_generators(replace(gens, para=para))
    for name in ("para^{p+1} = 0", "sum_k para^{p-k} para^dag para^k = 2p para^{p-1} H",
                 "[para, H] = 0", "para closed form"):
        assert math.isnan(residuals[name]), name
    assert not math.isnan(residuals["frac^{p+1} = H"])


def test_order_one_generators():
    sys_, spectrum, analyses, gens = pipeline(1, 3)
    residuals = check_generators(gens)
    assert "sum_k para^{p-k} para^dag para^k = 2p para^{p-1} H" not in residuals
    para, frac, frac_direct = dense_generators(gens)
    H = sys_.dense()[1]
    assert max_abs(mpow(para, 2)) < 1e-12
    assert max_abs(mpow(frac, 2) - H) < 1e-10
    assert max_abs(mpow(frac_direct, 2) - 2 * H) < 1e-10


def test_sum_rule_normalization_is_forced():
    # the multilinear sum equals 2p para^{p-1} H on the nose; replacing the
    # constant 2p by p misses by exactly the removed half, so the halved
    # variant is not merely loose, it is off by a finite amount
    sys_, spectrum, analyses, gens = pipeline(2, 4)
    p, H, para = sys_.p, sys_.dense()[1], dense(sys_.blocks, gens.para)
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
    p, Q, frac = sys_.p, sys_.dense()[0], dense(sys_.blocks, gens.frac)
    transfer = Q[0].conj().T @ Q[1]
    outer_bad = (2 ** -0.5) * h_power(spectrum, -(p - 1) / (p + 1))
    inner = 0.5 * h_power(spectrum, -p / (p + 1))
    bad = outer_bad @ Q[0] + inner @ transfer + outer_bad @ Q[p - 1].conj().T
    assert max_abs(dense(sys_.blocks, closed_form_frac(spectrum)) - frac) < 1e-12
    assert max_abs(bad - frac) > 0.05


def test_closed_form_para_matches_spectral_assembly():
    for p, levels in [(2, 4), (3, 4), (4, 3)]:
        sys_, spectrum, analyses, gens = pipeline(p, levels)
        para, frac, _ = dense_generators(gens)
        assert max_abs(dense(sys_.blocks, closed_form_para(spectrum)) - para) < 1e-9
        assert max_abs(dense(sys_.blocks, closed_form_frac(spectrum)) - frac) < 1e-9


def test_clusters_spanning_blocks_match_the_single_system():
    # kron(I_2, .) doubles every sector, so each positive cluster spans two blocks
    single, single_spectrum, single_analyses, single_gens = pipeline(2, 5)

    def twice(m):
        return np.kron(np.eye(2), m)
    Q, H = single.dense()
    sys_ = system_from_dense(single.p, [twice(q) for q in Q], twice(H))
    spectrum = spectral(sys_)
    analyses = eigenspace_reps(spectrum)
    gens = build_generators(spectrum)
    assert spectrum.multiplicities == [2 * m for m in single_spectrum.multiplicities]
    assert [a.copies for a in analyses] == [2 * a.copies for a in single_analyses]
    for got, want in [*zip(dense_generators(gens), dense_generators(single_gens)),
                      (dense(sys_.blocks, closed_form_frac(spectrum)),
                       dense(single.blocks, closed_form_frac(single_spectrum))),
                      (h_power(spectrum, -0.5), h_power(single_spectrum, -0.5))]:
        assert max_abs(got - twice(want)) < 1e-12
    for name, value in check_generators(gens).items():
        assert value <= (CLOSED_FORM_TOL if "closed form" in name else DEFAULT_GENERATOR_TOL), name


def natural_beside_turned_copies(natural_q, natural_h, small_q, small_h, copies=2):
    """The p = 2 system (natural_q, natural_h) next to a Haar-turned
    kron(I_copies, small)."""
    u = haar_unitary(copies * len(small_h), np.random.default_rng(5))

    def join(a, b):
        return direct_sum(a, u @ np.kron(np.eye(copies), b) @ u.conj().T)
    return system_from_dense(2, [join(a, b) for a, b in zip(natural_q, small_q)],
                             join(natural_h, small_h))


def test_a_cluster_splits_into_pieces_of_different_sizes():
    # the natural (2, 4) next to a turned kron(I_2, (2, 3)): the E = 1 and E = 2
    # clusters each meet one natural sector (3 rows) and the turned block (6 rows)
    sys_ = natural_beside_turned_copies(*build_system(2, 4).dense(), *build_system(2, 3).dense())
    spectrum = spectral(sys_)
    assert {rows.shape[1]: rows.shape[0] for rows in sys_.blocks} == {1: 3, 3: 3, 18: 1}
    found = Counter((round(energy), size) for energy, size in pieces(spectrum))
    assert found[1, 3] == found[1, 6] == 1
    analyses = eigenspace_reps(spectrum)
    assert spectrum_table(analyses, spectrum) == [(0, 9, 0), (1, 9, 3), (2, 9, 3), (3, 3, 1)]
    assert max(check_relations(spectrum).values()) <= 1e-10
    gens = build_generators(spectrum)
    for name, value in check_generators(gens).items():
        assert value <= (CLOSED_FORM_TOL if "closed form" in name else DEFAULT_GENERATOR_TOL), name


def test_the_first_failing_piece_class_is_blamed():
    # the natural part, scaled to E = 10, 20, 30, fails at E = 20 in its class of
    # 3-row pieces; the turned block fails at E = 1 in its class of 6-row pieces.
    # Classes run in the order they first appear, blocks by ascending size.
    def scaled(q, rows):
        out = q.copy()
        out[np.ix_(rows, rows)] *= 1.01
        return out
    natural_q, natural_h = build_system(2, 4).dense()
    natural_q, natural_h = math.sqrt(10.0) * natural_q, 10.0 * natural_h
    small_q, small_h = build_system(2, 3).dense()
    broken_small = [scaled(small_q[0], [1, 2, 3]), small_q[1]]
    broken = natural_beside_turned_copies([scaled(natural_q[0], [4, 5, 6]), natural_q[1]],
                                          natural_h, broken_small, small_h)
    with pytest.raises(NotARepresentationError) as info:
        eigenspace_reps(spectral(broken))
    assert str(info.value) == \
        "eigenspace E = 20: relations fail with residual 2.050e-02 > tol 1.000e-10"
    only_turned = natural_beside_turned_copies(natural_q, natural_h, broken_small, small_h)
    with pytest.raises(NotARepresentationError) as info:
        eigenspace_reps(spectral(only_turned))
    assert str(info.value) == \
        "eigenspace E = 1: relations fail with residual 1.722e-02 > tol 1.000e-10"
    # one turned copy: its 3-row pieces join the natural ones' class, which is
    # then ordered by energy, so E = 1 is blamed before E = 20
    broken = natural_beside_turned_copies([scaled(natural_q[0], [4, 5, 6]), natural_q[1]],
                                          natural_h, broken_small, small_h, copies=1)
    with pytest.raises(NotARepresentationError) as info:
        eigenspace_reps(spectral(broken))
    assert str(info.value) == \
        "eigenspace E = 1: relations fail with residual 1.764e-02 > tol 1.000e-10"


def test_generators_are_built_cluster_by_cluster():
    # Q_1 coupled from |2, 0> (E = 2) to |1, 0> (E = 1) merges two sectors into one
    # block that holds two clusters; each cluster must still use only its own restriction
    Q, H = build_system(2, 4).dense()
    Q = [couple(Q[0], 3, 6, 1e-3, hermitian=False), *Q[1:]]
    sys_ = system_from_dense(2, Q, H)
    spectrum = spectral(sys_)
    assert any(rows.shape == (1, 6) for rows in sys_.blocks)
    gens = build_generators(spectrum)
    para = frac = 0.0
    for e, b in zip(spectrum.energies, cluster_bases(spectrum)):
        if e > 0:
            c = [b.conj().T @ q @ b / np.sqrt(2 * e) for q in Q]
            para = para + np.sqrt(2 * e) * b @ lowering_from(c) @ b.conj().T
            frac = frac + e ** (1 / (sys_.p + 1)) * b @ cyclic_from(c) @ b.conj().T
    assert max_abs(dense(sys_.blocks, gens.para) - para) < 1e-12
    assert max_abs(dense(sys_.blocks, gens.frac) - frac) < 1e-12


def test_generators_vanish_on_the_kernel():
    sys_, spectrum, analyses, gens = pipeline(2, 3)
    kernel = cluster_bases(spectrum)[0]
    para, frac, _ = dense_generators(gens)
    for g in (para, frac):
        assert max_abs(g @ kernel) < 1e-12
        assert max_abs(para.conj().T @ kernel) < 1e-12


# -- spectral calculus ---------------------------------------------------------------

def test_spectral_power_one_reproduces_h():
    sys_ = build_system(2, 4)
    spectrum = spectral(sys_)
    assert max_abs(h_power(spectrum, 1.0) - sys_.dense()[1]) < 1e-10


def test_spectral_power_zero_is_positive_projector():
    sys_ = build_system(2, 4)
    spectrum = spectral(sys_)
    proj = h_power(spectrum, 0.0)
    assert max_abs(proj @ proj - proj) < 1e-12
    assert max_abs(proj + projectors(spectrum)[0] - np.eye(sys_.dim)) < 1e-10


def test_spectral_power_negative_half_squares_to_pseudo_inverse():
    sys_ = build_system(2, 4)
    spectrum = spectral(sys_)
    inv_root = h_power(spectrum, -0.5)
    positive = h_power(spectrum, 0.0)
    assert max_abs(inv_root @ inv_root @ sys_.dense()[1] - positive) < 1e-9


def test_nonpositive_levels_take_no_power():
    # a power or square root of E <= 0 would warn, and the suite turns warnings into errors
    sys_ = diag_system([-2.0, 0.0, 4.0])
    spectrum = spectral(sys_)
    assert np.array_equal(h_power(spectrum, -0.5).diagonal(), [0.0, 0.0, 0.5])
    gens = build_generators(spectrum)
    para, frac, _ = dense_generators(gens)
    assert max_abs(para) == max_abs(frac) == 0.0


# -- block partition -------------------------------------------------------------------

def number_of_state(p, i):
    """N = a^dag a + sum_g c_g^dag c_g of basis state i = |n, a> (row n (p+1) + a)."""
    n, a = divmod(i, p + 1)
    return n + (a > 0)


@pytest.mark.parametrize("p, levels", [(1, 2), (2, 5), (12, 10)])
def test_natural_partition_is_the_number_sectors(p, levels):
    sys_ = build_system(p, levels)
    blocks = sys_.blocks
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
    blocks = block_partition(5, *np.nonzero(m))
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
        got = [rows.tolist() for group in block_partition(n, *np.nonzero(m)) for rows in group]
        assert sorted(got) == want
        assert got == sorted(want, key=lambda b: (len(b), b[0]))


def dense_relations(sys_):
    """Oracle: the relation residuals with plain dense products."""
    Q, H = sys_.dense()
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
    (Q, H), p = sys_.dense(), sys_.p
    para, frac, direct = dense_generators(gens)

    def dense_power(a):
        return sum(e ** a * b @ b.conj().T
                   for e, b in zip(spectrum.energies, cluster_bases(spectrum)) if e > 0)

    def rel(defect, scale):
        return max_abs(defect) / max(1.0, scale)

    transfer = sum(Q[a - 1].conj().T @ Q[a] for a in range(1, p))
    outer = 2 ** -0.5 * dense_power(-(p - 1) / (2 * (p + 1)))
    closed_para = Q[0] + 2 ** -0.5 * dense_power(-0.5) @ transfer
    closed_frac = outer @ Q[0] + 0.5 * dense_power(-p / (p + 1)) @ transfer + outer @ Q[-1].conj().T
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
    natural, _, _, natural_gens = pipeline(p, levels)
    i, j = p + 1, 2 * (p + 1)
    Q, H = natural.dense()
    if target == "H":
        sys_ = system_from_dense(p, Q, couple(H, i, j, eps, hermitian=True))
    else:
        sys_ = system_from_dense(p, [couple(Q[0], i, j, eps, hermitian=False), *Q[1:]], H)
    spectrum = spectral(sys_)
    sizes = {rows.shape[1]: rows.shape[0] for rows in sys_.blocks}
    assert sizes == {1: p + 1, p + 1: levels - 3, 2 * (p + 1): 1}
    # the natural generators, cut on the coupled partition that holds their blocks
    gens = SusyGenerators(spectrum, *(cut(sys_.blocks, g) for g in dense_generators(natural_gens)))

    relations = check_relations(spectrum)
    generators = check_generators(gens)
    assert_matches(relations, dense_relations(sys_))
    assert_matches(generators, dense_generator_residuals(sys_, gens, spectrum))
    assert max(relations.values()) > eps / 100
    assert max(generators.values()) > eps / 100


def test_generators_outside_the_blocks_are_rejected():
    sys_, spectrum, _, gens = pipeline(2, 4)
    para, frac, direct = dense_generators(gens)
    para[0, sys_.dim - 1] = 1e-3
    # the stray entry links the vacuum to the last boundary state, a pair that
    # no block of the spectrum holds
    blocks = block_partition(sys_.dim, *np.nonzero((para != 0) | (frac != 0) | (direct != 0)))
    with pytest.raises(DimensionError):
        SusyGenerators(spectrum, *(cut(blocks, g) for g in (para, frac, direct)))


def natural_and_coupled():
    """The natural (2, 4) and the same with |2, 0> coupled to |1, 0> by Q_1."""
    natural = build_system(2, 4)
    Q, H = natural.dense()
    return natural, system_from_dense(2, [couple(Q[0], 3, 6, 1e-3, hermitian=False),
                                             *Q[1:]], H)


def test_generators_on_another_partition_are_rejected():
    natural, coupled = (spectral(system) for system in natural_and_coupled())
    for gens, spectrum in [(build_generators(coupled), natural),
                           (build_generators(natural), coupled)]:
        with pytest.raises(DimensionError):
            replace(gens, spectrum=spectrum)


def spectrum_table(analyses, spectrum):
    return [(round(a.energy, 12), mult, a.copies)
            for a, mult in zip(analyses, spectrum.multiplicities)]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(p=st.integers(1, 3), levels=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_pipeline_is_basis_covariant(p, levels, seed):
    natural, natural_spectrum, natural_analyses, natural_gens = pipeline(p, levels)
    u = haar_unitary(natural.dim, np.random.default_rng(seed))
    Q, H = natural.dense()
    turned = system_from_dense(p, [u @ q @ u.conj().T for q in Q], u @ H @ u.conj().T)
    spectrum = spectral(turned)
    assert [rows.shape for rows in turned.blocks] == [(1, natural.dim)]
    assert max(check_relations(spectrum).values()) <= 1e-10
    analyses = eigenspace_reps(spectrum)
    gens = build_generators(spectrum)
    for name, value in check_generators(gens).items():
        assert value <= (CLOSED_FORM_TOL if "closed form" in name else DEFAULT_GENERATOR_TOL), name
    assert spectrum_table(analyses, spectrum) == \
        spectrum_table(natural_analyses, natural_spectrum)
    # one block holds every cluster; the generators and H^a still turn with the basis
    for got, want in [*zip(dense_generators(gens), dense_generators(natural_gens)),
                      (h_power(spectrum, -0.5), h_power(natural_spectrum, -0.5))]:
        assert max_abs(got - u @ want @ u.conj().T) <= 1e-10
