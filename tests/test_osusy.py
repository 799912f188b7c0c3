import contextlib
import copy
import importlib
import io
import itertools
import math
import pickle
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthofermi import cli, osusy, reptheory
from orthofermi.canonical import (OrthoRep, canonical, conjugate, cyclic_from, held_rows,
                                  lowering_from)
from orthofermi.errors import (ClusteringError, DimensionError, NotARepresentationError,
                               OrderError, TruncationError)
from orthofermi.linalg import DEFAULT_TOL, dagger, haar_unitary, max_abs
from orthofermi.osusy import (OsusySystem, SusyGenerators, block_partition, build_generators,
                              build_system, check_generators, check_relations, closed_form_frac,
                              closed_form_para, eigenspace_reps, run_suite, spectral,
                              system_from_dense)
from oracles import (block_residual, cluster_bases, commutator, cut, dense, dense_generators,
                     h_power, loop_clusters, pair_relation_defects, restricted,
                     sum_rule_recurrence)


def pipeline(p, levels):
    sys_ = build_system(p, levels)
    spectrum = spectral(sys_)
    copies = eigenspace_reps(spectrum)
    gens = build_generators(spectrum)
    return sys_, spectrum, copies, gens


def two_stacks(p, levels):
    """The oscillator of (p, levels) from its dense form: the finest
    partition, whose first stack holds the vacuum and the boundary states
    as 1 x 1 blocks and whose second stack holds the sectors."""
    return system_from_dense(p, *build_system(p, levels).dense())


def stacks_of(system):
    """The value arrays of a system's charge stacks, then its H stacks."""
    return [*(q.values for q in system.charges), *system.H]


def scaled(system, factor):
    """``system`` with every charge times ``factor``."""
    return replace(system, charges=[OrthoRep(factor * q.values, q.rows) for q in system.charges])


def suite_table(system):
    """The spectrum table of :func:`run_suite` on ``system``, once every
    residual of the suite is within its tolerance."""
    residuals, tolerances, table = run_suite(system)
    for name, value in residuals.items():
        assert value <= tolerances[name], name
    return table


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


@pytest.mark.parametrize("levels", [np.nan, np.inf, -np.inf, None, 2.5, 1, 1.0, "3", True, 3 + 0j])
def test_every_non_integer_or_too_small_truncation_is_refused(levels):
    with pytest.raises(TruncationError, match="^need at least 2 boson levels"):
        build_system(2, levels)


@pytest.mark.parametrize("p, levels", [(1, 2), (2, 5), (3, 7), (8, 6), (16, 3)])
def test_blockwise_hamiltonian_equals_the_dense_formula(p, levels):
    Q, H = build_system(p, levels).dense()
    dense = 0.5 * (Q[0] @ Q[0].conj().T + sum(q.conj().T @ q for q in Q))
    assert np.array_equal(H, dense)


@pytest.mark.parametrize("p, levels", [(1, 2), (2, 5), (3, 7), (8, 6), (16, 3)])
def test_charges_equal_the_kron_formula_bitwise(p, levels):
    # the stacks are written from the index pattern of a^dag (x) c_a; assembled,
    # they must be the dense sqrt(2) a^dag (x) c_a to the last bit, cast to the
    # stacks' dtype, which is float64: the oscillator is real
    a = np.diag(np.sqrt(np.arange(1, levels)), 1).astype(complex)
    kron = np.array([math.sqrt(2.0) * np.kron(a.conj().T, c) for c in canonical(p).dense()])
    sys_ = build_system(p, levels)
    assert {stack.dtype for stack in stacks_of(sys_)} == {np.dtype(float)}
    Q, _ = sys_.dense()
    assert not kron.imag.any()  # so the cast drops nothing
    assert [q.tobytes() for q in Q] == [q.tobytes() for q in kron.real.astype(Q.dtype)]


@pytest.mark.parametrize("p, levels", [*itertools.product(range(1, 5), (2, 5)), (16, 3)])
def test_a_real_system_runs_the_suite_as_its_complex_cast(p, levels):
    # the oscillator runs in float64; the same operators held as complex128
    # stay complex and give the same residuals, tolerances and table exactly
    natural = build_system(p, levels)
    Q, H = natural.dense()
    cast = system_from_dense(p, Q.astype(complex), H.astype(complex))
    assert {stack.dtype for stack in stacks_of(cast)} == {np.dtype(complex)}
    assert run_suite(cast) == run_suite(natural)
    spectrum = spectral(natural)
    assert {a.dtype for eig, c in zip(spectrum.eigs, spectrum.charges)
            for a in (eig.values, eig.vectors, c.values)} == {np.dtype(float)}


def test_a_dense_system_takes_the_common_dtype_of_its_operators():
    Q, H = build_system(2, 3).dense()
    for charges, h, want in [(Q, H, float), (Q.astype(int), H, float),
                             (Q, H.astype(complex), complex),
                             ([Q[0].astype(np.complex64), Q[1]], H, complex)]:
        sys_ = system_from_dense(2, charges, h)
        assert {stack.dtype for stack in stacks_of(sys_)} == {np.dtype(want)}
        assert all(m.dtype == want for m in sys_.dense())


def test_a_turned_system_stays_complex_and_the_suite_warns_nothing():
    # no stage writes a complex value into a real array: numpy would warn
    system = turned(3, 5, 7)
    assert {stack.dtype for stack in stacks_of(system)} == {np.dtype(complex)}
    assert max_abs(system.charges[0].values.imag) > 0.1 and max_abs(system.H[0].imag) > 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residuals, tolerances, table = run_suite(system)
        assert all(eig.vectors.dtype == complex for eig in spectral(system).eigs)
    assert all(residuals[name] <= tolerances[name] for name in residuals)
    assert table == suite_table(build_system(3, 5))


@pytest.mark.parametrize("p, levels", [*itertools.product(range(1, 9), range(2, 9)), (16, 3)])
def test_a_dense_system_has_the_same_blocks_and_stacks(p, levels):
    # build_system writes its sectors and its null states; the partition that
    # the nonzero pattern gives must be the null states, as 1 x 1 blocks,
    # and then the sectors, and cutting the dense operators must give the
    # sectors' stacks and zero 1 x 1 stacks
    sys_ = build_system(p, levels)
    Q, H = sys_.dense()
    pattern = (np.asarray([H, *Q]) != 0).any(axis=0)
    finest = [rows.tolist() for rows in block_partition(sys_.dim, *np.nonzero(pattern))]
    null = [[[i] for i in sys_.null.tolist()]]
    assert finest == null + [rows.tolist() for rows in sys_.blocks]
    again = system_from_dense(p, Q, H)
    assert (again.p, again.dim, again.null.size) == (sys_.p, sys_.dim, 0)
    assert [rows.tolist() for rows in again.blocks] == finest
    assert not again.charges[0].values.any() and not again.H[0].any()
    assert again.charges[0].shape == (p, p + 1, 1, 1) and again.H[0].shape == (p + 1, 1, 1)
    for got, want in [*zip((q.dense() for q in again.charges[1:]),
                           (q.dense() for q in sys_.charges)),
                      *zip(again.H[1:], sys_.H)]:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_dense_system_is_cut_without_copying_its_operators():
    # the dense operators are read one at a time: no copy of all p + 1 of them
    Q, H = build_system(3, 80).dense()
    tracemalloc.start()
    try:
        sys_ = system_from_dense(3, Q, H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sys_.dim == 320
    assert peak < (Q.nbytes + H.nbytes) / 4


def test_a_dense_system_needs_p_square_charges_of_the_size_of_h():
    Q, H = build_system(2, 3).dense()
    for charges, h in [(Q[:1], H), (Q, H[:, :-1]), ([q[:-1, :-1] for q in Q], H)]:
        with pytest.raises(DimensionError):
            system_from_dense(2, charges, h)


def test_order_and_dimension_are_read_off_the_stacks():
    assert [f.name for f in fields(OsusySystem)] == ["blocks", "charges", "H", "null"]
    sys_ = build_system(3, 4)
    assert (sys_.p, sys_.dim) == (3, 16)
    fewer = replace(sys_, charges=[OrthoRep(q.values[:2], q.rows) for q in sys_.charges])
    assert (fewer.p, fewer.dim) == (2, 16)
    Q, H = sys_.dense()
    whole = OsusySystem([np.arange(16)[None]], [OrthoRep.of(Q[:, None])], [H[None]])
    assert (whole.p, whole.dim) == (3, 16)


def test_build_system_writes_its_blocks_without_a_partition(monkeypatch):
    def refused(*args):
        raise AssertionError("block_partition called")
    monkeypatch.setattr(osusy, "block_partition", refused)
    assert build_system(2, 4).dim == 12


def broken_systems(sys_):
    """Field replacements that leave ``sys_`` inconsistent: a stack that does
    not fit its blocks, or blocks that skip or repeat an index."""
    last = sys_.dim - 1
    q0, q1 = sys_.charges
    return [
        {"charges": [OrthoRep.of(np.zeros((*q.shape[:-2], q.dim + 1, q.dim + 1)))
                     for q in sys_.charges]},
        {"charges": [q0, OrthoRep(q1.values[:1], q1.rows)]},
        {"charges": sys_.charges[:1]},
        {"charges": []},
        {"H": [h[:-1] for h in sys_.H]},
        {"H": sys_.H[::-1]},
        {"H": [h[None] for h in sys_.H]},
        {"blocks": [np.where(rows == last, last + 1, rows) for rows in sys_.blocks]},
        {"blocks": [np.where(rows == 0, 1, rows) for rows in sys_.blocks]},
        {"blocks": [rows.ravel() for rows in sys_.blocks]},
        {"blocks": [], "charges": [], "H": []},
        {"charges": [q0, q1[:1]]},
        {"charges": [q0, q1.dense()]},
    ]


@pytest.mark.parametrize("case", range(len(broken_systems(two_stacks(2, 3)))))
def test_a_system_refuses_stacks_that_do_not_fit_and_blocks_that_do_not_partition(case):
    sys_ = two_stacks(2, 3)
    change = broken_systems(sys_)[case]
    with pytest.raises(DimensionError):
        replace(sys_, **change)
    with pytest.raises(DimensionError):
        OsusySystem(**{"blocks": sys_.blocks, "charges": sys_.charges, "H": sys_.H, **change})


# build_system(2, 3) has the sectors [1, 2, 3] and [4, 5, 6] and the null states [0, 7, 8]
@pytest.mark.parametrize("null", [
    [0, 7, 8, 3], [0, 1, 7, 8], [3, 7, 8], [0, 8], [1, 7, 8], [0, 7, 9], [-1, 7, 8], [0, 7, 8, 10],
    [0, 7, 7], [0, 7, 8, 8], [[0, 7, 8]], [[0], [7], [8]],
], ids=["overlaps-last", "overlaps-first", "overlaps-for-0", "skips-7", "skips-0",
        "out-of-range", "negative", "beyond-dim", "repeated", "repeated-extra",
        "2-d-row", "2-d-column"])
def test_a_system_refuses_null_states_that_do_not_partition_with_the_blocks(null):
    sys_ = build_system(2, 3)
    assert sys_.null.tolist() == [0, 7, 8]
    with pytest.raises(DimensionError):
        replace(sys_, null=np.array(null))
    with pytest.raises(DimensionError):
        OsusySystem(sys_.blocks, sys_.charges, sys_.H, np.array(null))


@pytest.mark.parametrize("case, dtype", [("float-blocks", "float64"), ("float-null", "float64"),
                                         ("bool-null", "bool"), ("nested-list-blocks", "list")],
                         ids=["float-blocks", "float-null", "bool-null", "nested-list-blocks"])
def test_a_system_refuses_index_arrays_that_are_not_integer(case, dtype):
    # each partitions 0..dim-1 by value (1.0 == 1, True == 1), so only the
    # dtype can refuse it; float blocks would fail later, as indices in dense(),
    # and nested lists of ints, whose dtype is an integer one, when the
    # stacks are checked against the blocks' shapes
    sys_ = build_system(2, 3)
    blocks, null = sys_.blocks, sys_.null
    if case == "float-blocks":
        blocks = [rows.astype(float) for rows in blocks]
    elif case == "nested-list-blocks":
        blocks = [rows.tolist() for rows in blocks]
    elif case == "float-null":
        null = null.astype(float)
    else:  # the null states 0, 1 beside the sectors moved to 2..7
        blocks, null = [rows + 1 for rows in blocks], np.array([0, 1])
        OsusySystem(blocks, sys_.charges, sys_.H, null)
        null = null.astype(bool)
    with pytest.raises(DimensionError, match=f"got {dtype}$"):
        OsusySystem(blocks, sys_.charges, sys_.H, null)


def test_an_empty_null_list_is_held_as_no_null_states():
    # numpy reads [] as float64; it names no state, so its dtype is not refused
    sys_ = OsusySystem([np.arange(9).reshape(3, 3)], [OrthoRep.of(np.zeros((2, 3, 3, 3)))],
                       [np.zeros((3, 3, 3))], [])
    assert sys_.null.dtype == np.dtype(int) and sys_.null.size == 0 and sys_.dim == 9


@pytest.mark.parametrize("p, levels",
                         [*itertools.product(range(1, 17), range(2, 13)), (2, 100), (64, 4)])
def test_null_states_run_the_suite_as_the_finest_partition(p, levels):
    # the vacuum and the boundary states held as null states, or as 1 x 1
    # blocks of zeros: the residuals, the tolerances and the table are equal
    natural = build_system(p, levels)
    assert natural.null.size == p + 1 and len(natural.blocks) == 1
    assert run_suite(natural) == run_suite(two_stacks(p, levels))


def test_a_system_needs_a_block_beside_its_null_states():
    sys_ = build_system(2, 3)
    with pytest.raises(DimensionError):
        OsusySystem([], [], [], np.arange(sys_.dim))


def test_null_states_are_carried_by_replace_copy_and_pickle():
    sys_ = build_system(2, 3)
    for again in (replace(sys_), scaled(sys_, 2.0), copy.copy(sys_),
                  copy.deepcopy(sys_), pickle.loads(pickle.dumps(sys_))):
        assert again.null.tolist() == [0, 7, 8] and again.dim == 9
    # a null state may be any index: here the first state of the first sector
    moved = OsusySystem([np.array([[0, 2, 3], [4, 5, 6]])], sys_.charges, sys_.H,
                        np.array([1, 7, 8]))
    Q, H = moved.dense()
    assert not Q[:, 1].any() and not Q[:, :, 1].any() and not H[1].any() and not H[:, 1].any()
    assert np.array_equal(Q[:, [0, 2, 3]][:, :, [0, 2, 3]], sys_.dense()[0][:, 1:4, 1:4])


def test_a_system_without_charges_is_refused():
    # a stack of no charges is refused where it is held, before a system
    sys_ = build_system(2, 3)
    with pytest.raises(OrderError):
        replace(sys_, charges=[OrthoRep.of(q.dense()[:0]) for q in sys_.charges])
    with pytest.raises(DimensionError):
        replace(sys_, charges=[OrthoRep(q.values[:0], q.rows) for q in sys_.charges])


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


def test_a_large_order_holds_no_dense_charge_stack():
    # (256, 2): one sector of 257 states, whose 256 charges hold one entry
    # each; a dense (p, count, p + 1, p + 1) stack of them alone would take
    # 135 MB, and every stack derived from it as much again
    tracemalloc.start()
    try:
        residuals, tolerances, table = run_suite(build_system(256, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(residuals[name] <= tolerances[name] for name in residuals)
    assert table[1] == {"E": 1.0, "dim": 257, "copies": 1}
    assert peak < 100 * 10**6


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
        q = sys_.charges[1].dense()
        defect = sys_.H[1] @ q - q @ sys_.H[1]
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
    sys_, spectrum, copies, _ = pipeline(2, 4)
    for energy, mult, m in zip(spectrum.energies, spectrum.multiplicities, copies):
        if energy > 0:
            assert m == 1
            assert mult == 3
        else:
            # the E = 0 eigenspace is trivial: no copy, the whole kernel
            assert m == 0
            assert mult == 1 + sys_.p


def test_kernel_charges_vanish():
    sys_ = build_system(3, 4)
    spectrum = spectral(sys_)
    basis0 = cluster_bases(spectrum)[0]
    assert spectrum.energies[0] == 0.0
    for q in sys_.dense()[0]:
        assert max_abs(basis0.conj().T @ q @ basis0) < 1e-12


def test_positive_eigenspace_dimensions_are_multiples():
    for p, levels in [(1, 3), (2, 3), (3, 4)]:
        _, spectrum, copies, _ = pipeline(p, levels)
        for energy, mult, m in zip(spectrum.energies, spectrum.multiplicities, copies):
            if energy > 0:
                assert mult == m * (p + 1)


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
    # one restricted c_a scaled by 1 + 1e-6 breaks only its relations
    q = Q[0].copy()
    q[np.ix_(rows, rows)] *= 1 + 1e-6
    with pytest.raises(NotARepresentationError) as info:
        eigenspace_reps(spectral(system_from_dense(2, [q, *Q[1:]], H)))
    assert str(info.value) == \
        "eigenspace E = 5: relations fail with residual 2.000e-06 > tol 1.000e-10"


def test_eigenspace_refusal_messages_are_pinned():
    sys_ = build_system(2, 8)
    Q, H = sys_.dense()

    def refusal(scale, noise=0.0, energies=(5,), index=0):
        q = [m.copy() for m in Q]
        for e in energies:
            rows = np.ix_(*2 * [sector_rows(sys_, e)])
            for a in np.atleast_1d(index):
                q[a][rows] *= scale
            q[0][rows] += noise * np.random.default_rng(3).standard_normal((3, 3))
        with pytest.raises(NotARepresentationError) as info:
            eigenspace_reps(spectral(system_from_dense(2, q, H)))
        return str(info.value)
    assert refusal(1.0, noise=1e-3) == \
        "eigenspace E = 5: relations fail with residual 1.277e-03 > tol 1.000e-10"
    # every restricted charge times sqrt(2): a family whose unit is 2I
    assert refusal(np.sqrt(2), index=[0, 1]) == \
        "eigenspace E = 5: relations fail with residual 2.000e+00 > tol 1.000e-10"
    # two failing sectors among the class's pieces: the lower energy is named
    assert refusal(1 + 1e-6, energies=(6, 3), index=1) == \
        "eigenspace E = 3: relations fail with residual 2.000e-06 > tol 1.000e-10"


def test_charges_scaled_off_the_unit_are_refused():
    # 1.01 Q_a keeps both relations up to the unit: only the law with unit I breaks
    sys_ = build_system(3, 6)
    with pytest.raises(NotARepresentationError, match=r"eigenspace E = 1\b"):
        eigenspace_reps(spectral(scaled(sys_, 1.01)))


def test_a_positive_piece_with_a_trivial_block_is_refused(monkeypatch):
    # no system the certificate accepts splits off a trivial block on E > 0,
    # so the split reports one: the first piece trades a copy for p + 1
    # trivial dimensions, and its eigenspace is no pure sum of copies
    def impure(c, *args, **kwargs):
        dec = reptheory.decompose_stack(c, *args, **kwargs)
        copies, trivial = dec.multiplicity.copy(), dec.trivial_dim.copy()
        copies[0] -= 1
        trivial[0] += c.p + 1
        return replace(dec, multiplicity=copies, trivial_dim=trivial)
    monkeypatch.setattr(osusy, "decompose_stack", impure)
    with pytest.raises(NotARepresentationError) as info:
        eigenspace_reps(spectral(build_system(2, 4)))
    assert str(info.value) == ("eigenspace E = 1 of dimension 3 is not a pure sum of "
                               "canonical copies (got 0 copies, trivial 3)")


def pieces(spectrum):
    """(energy, size) of every piece: the part of a cluster in one block."""
    return [(energy, size) for level in spectrum.levels for row in level
            for energy, size in Counter(row.tolist()).items()]


def test_one_relation_check_per_cluster_class(monkeypatch):
    calls = Counter()
    for module, name in ((osusy, "decompose_stack"), (reptheory, "_relation_defects"),
                         (reptheory, "_infer_units")):
        kernel = getattr(module, name)

        def counted(*args, _kernel=kernel, _name=name, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    sys_ = build_system(3, 80)
    spectrum = spectral(sys_)
    eigenspace_reps(spectrum)
    # the E = 0 pieces are counted as trivial with no decomposition; a class
    # that passes is certified by its unitaries, with no pair-relation table
    positive_classes = {size for energy, size in pieces(spectrum) if energy > 0}
    assert len(spectrum.energies) == 80 and len(positive_classes) == 1
    assert calls == {"decompose_stack": len(positive_classes)}


# -- generators -------------------------------------------------------------------

def test_build_generators_forms_each_lowering_operator_once(monkeypatch):
    # F = L + c_p^dag reuses the L of each block size; only frac_direct
    # builds its own cyclic operator, from the charges
    calls = Counter()
    for name in ("lowering_from", "cyclic_from"):
        make = getattr(osusy, name)

        def counted(*args, _make=make, _name=name):
            calls[_name] += 1
            return _make(*args)
        monkeypatch.setattr(osusy, name, counted)
    spectrum = spectral(build_system(2, 6))
    build_generators(spectrum)
    assert calls == {"lowering_from": len(spectrum.eigs), "cyclic_from": len(spectrum.eigs)}


def test_generator_identity_suite():
    sys_, spectrum, _, gens = pipeline(2, 4)
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
    sys_, spectrum, _, gens = pipeline(3, 5)
    residuals = check_generators(gens)
    assert max(residuals.values()) < 1e-8


def test_a_nan_generator_entry_is_not_folded_away():
    # a NaN in the N-sectors' stack of para, after the singletons' exact zeros
    gens = build_generators(spectral(two_stacks(2, 4)))
    para = [stack.copy() for stack in gens.para]
    para[1][0, 0, 0] = np.nan
    residuals = check_generators(replace(gens, para=para))
    for name in ("para^{p+1} = 0", "sum_k para^{p-k} para^dag para^k = 2p para^{p-1} H",
                 "[para, H] = 0", "para closed form"):
        assert math.isnan(residuals[name]), name
    assert not math.isnan(residuals["frac^{p+1} = H"])


def test_a_nilpotency_scale_beyond_the_float_range_is_divided_out():
    # (2 max|H|)^{3/2} overflows a float for H x 1e210; the scaled residual
    # must still come out, not an OverflowError
    Q, H = build_system(2, 4).dense()
    with np.errstate(over="ignore", invalid="ignore"):
        sys_ = system_from_dense(2, 1e105 * Q, 1e210 * H)
        gens = build_generators(spectral(sys_))
        assert check_generators(gens)["para^{p+1} = 0"] == 0.0
        # a finite nonzero defect is divided by the scale, not folded to 0 or inf
        para = [stack.copy() for stack in gens.para]
        para[1][0] += 1e95 * np.triu(np.ones_like(para[1][0]))
        defect = max(max_abs(np.linalg.matrix_power(m, 3)) for m in para)
        residual = check_generators(replace(gens, para=para))["para^{p+1} = 0"]
    h = max(max_abs(m) for m in sys_.H)
    assert math.isfinite(defect) and defect > 0.0
    assert math.isclose(residual, math.exp(math.log(defect) - 1.5 * math.log(2.0 * h)),
                        rel_tol=1e-12)


def test_order_one_generators():
    sys_, spectrum, _, gens = pipeline(1, 3)
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
    sys_, spectrum, _, gens = pipeline(2, 4)
    p, H, para = sys_.p, sys_.dense()[1], dense(sys_, gens.para)
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
    sys_, spectrum, _, gens = pipeline(2, 4)
    p, Q, frac = sys_.p, sys_.dense()[0], dense(sys_, gens.frac)
    transfer = Q[0].conj().T @ Q[1]
    outer_bad = (2 ** -0.5) * h_power(spectrum, -(p - 1) / (p + 1))
    inner = 0.5 * h_power(spectrum, -p / (p + 1))
    bad = outer_bad @ Q[0] + inner @ transfer + outer_bad @ Q[p - 1].conj().T
    assert max_abs(dense(sys_, closed_form_frac(spectrum)) - frac) < 1e-12
    assert max_abs(bad - frac) > 0.05


def test_closed_form_para_matches_spectral_assembly():
    for p, levels in [(2, 4), (3, 4), (4, 3)]:
        sys_, spectrum, _, gens = pipeline(p, levels)
        para, frac, _ = dense_generators(gens)
        assert max_abs(dense(sys_, closed_form_para(spectrum)) - para) < 1e-9
        assert max_abs(dense(sys_, closed_form_frac(spectrum)) - frac) < 1e-9


def test_clusters_spanning_blocks_match_the_single_system():
    # kron(I_2, .) doubles every sector, so each positive cluster spans two blocks
    single, single_spectrum, single_copies, single_gens = pipeline(2, 5)

    def twice(m):
        return np.kron(np.eye(2), m)
    Q, H = single.dense()
    sys_ = system_from_dense(single.p, [twice(q) for q in Q], twice(H))
    spectrum = spectral(sys_)
    copies = eigenspace_reps(spectrum)
    gens = build_generators(spectrum)
    assert spectrum.multiplicities == [2 * m for m in single_spectrum.multiplicities]
    assert copies == [2 * m for m in single_copies]
    for got, want in [*zip(dense_generators(gens), dense_generators(single_gens)),
                      (dense(sys_, closed_form_frac(spectrum)),
                       dense(single, closed_form_frac(single_spectrum))),
                      (h_power(spectrum, -0.5), h_power(single_spectrum, -0.5))]:
        assert max_abs(got - twice(want)) < 1e-12
    suite_table(sys_)


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
    assert suite_table(sys_) == [{"E": 0, "dim": 9, "copies": 0}, {"E": 1, "dim": 9, "copies": 3},
                                 {"E": 2, "dim": 9, "copies": 3}, {"E": 3, "dim": 3, "copies": 1}]


def test_pieces_cut_from_a_real_and_a_complex_stack_keep_their_imaginary_parts():
    # the natural (2, 4) held real beside a turned (2, 3) held complex: the
    # E = 1 and E = 2 classes cut 3-row pieces from both stacks into one stack,
    # which must be complex, and the suite reads as on the all-complex system
    mixed = natural_beside_turned_copies(*build_system(2, 4).dense(),
                                         *build_system(2, 3).dense(), copies=1)
    assert {rows.shape[1]: rows.shape[0] for rows in mixed.blocks} == {1: 3, 3: 3, 9: 1}
    held_real = OsusySystem(mixed.blocks, [q if q.dim == 9 else OrthoRep(q.values.real, q.rows)
                                           for q in mixed.charges],
                            [h if h.shape[-1] == 9 else h.real for h in mixed.H])
    assert [h.dtype for h in held_real.H] == [np.dtype(float), np.dtype(float), np.dtype(complex)]
    for got, want in zip(held_real.dense(), mixed.dense()):
        assert got.dtype == complex and np.array_equal(got, want)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_suite(held_real) == run_suite(mixed)


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
    # the split is the first stage of the suite that refuses
    with pytest.raises(NotARepresentationError) as through_suite:
        run_suite(broken)
    assert str(through_suite.value) == str(info.value)
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


def test_the_suite_holds_beyond_the_oscillator():
    # a turned system and a natural one beside a turned one: every check holds
    # within its tolerance, and no row carries a note, which only the
    # oscillator's report adds
    natural = build_system(2, 4).dense()
    for system in (turned(2, 4, 24),
                   natural_beside_turned_copies(*natural, *build_system(2, 3).dense())):
        assert all(row.keys() == {"E", "dim", "copies"} for row in suite_table(system))


def test_the_suite_refuses_levels_too_close_to_cluster():
    values = [1.0, 1.006, 1.012]
    with pytest.raises(ClusteringError) as info:
        spectral(diag_system(values), cluster_tol=1e-2)
    with pytest.raises(ClusteringError) as through_suite:
        run_suite(diag_system(values), cluster_tol=1e-2)
    assert str(through_suite.value) == str(info.value)


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
            c = OrthoRep.of([b.conj().T @ q @ b / np.sqrt(2 * e) for q in Q])
            para = para + np.sqrt(2 * e) * b @ lowering_from(c) @ b.conj().T
            frac = frac + e ** (1 / (sys_.p + 1)) * b @ cyclic_from(c) @ b.conj().T
    assert max_abs(dense(sys_, gens.para) - para) < 1e-12
    assert max_abs(dense(sys_, gens.frac) - frac) < 1e-12


def test_generators_vanish_on_the_kernel():
    sys_, spectrum, _, gens = pipeline(2, 3)
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
    [sectors] = sys_.blocks
    assert sectors.shape == (levels - 1, p + 1)
    assert sorted([*sectors.ravel(), *sys_.null]) == list(range(sys_.dim))
    for rows in sectors:
        assert len({number_of_state(p, i) for i in rows}) == 1
    # every sector is a full one: |n, 0> and the p states |n-1, a>, for N = 1..levels-1
    assert [number_of_state(p, i) for i in sectors[:, 0]] == list(range(1, levels))
    # the null states are the vacuum |0, 0> and the p boundary states |levels-1, a>
    assert sys_.null.tolist() == [0, *((levels - 1) * (p + 1) + np.arange(1, p + 1))]
    assert [divmod(int(i), p + 1) for i in sys_.null] == \
        [(0, 0), *((levels - 1, a) for a in range(1, p + 1))]


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


def assert_basis_covariant(p, levels, seed):
    """The pipeline on the natural system of (p, levels) turned by a Haar
    unitary, one dense block: every check passes, the spectrum table is the
    natural one, and the generators and H^a turn with the basis."""
    natural, natural_spectrum, _, natural_gens = pipeline(p, levels)
    u = haar_unitary(natural.dim, np.random.default_rng(seed))
    Q, H = natural.dense()
    turned = system_from_dense(p, [u @ q @ u.conj().T for q in Q], u @ H @ u.conj().T)
    assert [rows.shape for rows in turned.blocks] == [(1, natural.dim)]
    assert suite_table(turned) == suite_table(natural)
    spectrum = spectral(turned)
    gens = build_generators(spectrum)
    # one block holds every cluster; the generators and H^a still turn with the basis
    for got, want in [*zip(dense_generators(gens), dense_generators(natural_gens)),
                      (h_power(spectrum, -0.5), h_power(natural_spectrum, -0.5))]:
        assert max_abs(got - u @ want @ u.conj().T) <= 1e-10


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(p=st.integers(1, 3), levels=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_pipeline_is_basis_covariant(p, levels, seed):
    assert_basis_covariant(p, levels, seed)


@pytest.mark.parametrize("p, levels, seed", [(8, 12, 81), (16, 6, 166)])
def test_a_large_order_pipeline_is_basis_covariant(p, levels, seed):
    assert_basis_covariant(p, levels, seed)


# -- products on the rows that hold an entry --------------------------------------

def gaussian_integers(rng, shape):
    return rng.integers(-3, 4, (*shape, 2)) @ [1, 1j]


def phased_permutations(rng, count, n):
    """(count, n, n) unitaries that move each basis vector to another with a
    phase in {1, -1, i, -i}: every product with them is exact."""
    out = np.zeros((count, n, n), dtype=complex)
    for m in out:
        m[rng.permutation(n), np.arange(n)] = 1j ** rng.integers(4, size=n)
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(p=st.integers(1, 5), count=st.integers(1, 3), n=st.integers(1, 7),
       held=st.sampled_from(["none", "one", "some", "all"]),
       turn=st.sampled_from(["gaussian", "permutation", "haar"]), seed=st.integers(0, 2**32 - 1))
def test_support_products_match_the_dense_oracles(p, count, n, held, turn, seed):
    # every kernel takes the stack on its held rows and returns its result
    # on the rows that can be nonzero; assembled, each is the dense product.
    # Gaussian-integer entries and phased permutations make every sum exact
    # in any order, so those products must be the dense ones bitwise; a
    # permutation moves the held rows R to other rows J, and a Haar V, which
    # is not exact, spreads them over every row
    rng = np.random.default_rng(seed)
    held_count = {"none": 0, "one": 1, "some": int(rng.integers(1, max(n, 2))), "all": n}[held]
    rows = rng.permutation(n)[:held_count]
    q = np.zeros((p, count, n, n), dtype=complex)
    q[..., rows, :] = gaussian_integers(rng, (p, count, held_count, n))
    q[rng.integers(p), :, rows, rng.integers(n)] = 1 + 2j  # every chosen row holds an entry
    c = OrthoRep.of(q)
    mask = c.rows
    assert np.array_equal(np.flatnonzero(mask), np.sort(rows))
    assert np.array_equal(c.values, q[..., mask, :])
    h = gaussian_integers(rng, (count, n, n))
    got = osusy._commutator(h, c)
    assert np.array_equal(got.rows, mask | (h[..., mask] != 0).any(axis=(0, -1)))
    assert np.array_equal(got.dense(), commutator(h, q))
    v = {"gaussian": lambda: gaussian_integers(rng, (count, n, n)),
         "permutation": lambda: phased_permutations(rng, count, n),
         "haar": lambda: np.stack([haar_unitary(n, rng) for _ in range(count)])}[turn]()
    want = restricted(v, q)
    m = int(rng.integers(n // (p + 1) + 1))
    # the stack on its held rows, and on every row, which forms the dense products
    for got in (conjugate(c, v), conjugate(c.on(np.ones(n, dtype=bool)), v)):
        assert not want[..., ~got.rows, :].any()
        if turn == "haar":
            np.testing.assert_allclose(got.dense(), want, rtol=0, atol=1e-13 * n)
        else:
            assert np.array_equal(got.dense(), want)
    if turn == "permutation":
        # J = the rows that V^dag moves R to, in some block
        found = conjugate(c, v).rows
        moved = (v[..., mask, :] != 0).any(axis=(0, 1))
        assert np.array_equal(found, moved) and found.sum() <= count * mask.sum()
    got = reptheory._block_defects(c, v, m)
    if turn == "haar":
        np.testing.assert_allclose(got.dense(), block_residual(v, q, m), rtol=0,
                                   atol=1e-13 * n)
    else:
        assert np.array_equal(got.dense(), block_residual(v, q, m))


@pytest.mark.parametrize("p, levels, seed", [(8, 12, 81), (16, 6, 166)])
def test_support_products_of_a_turned_system_are_the_dense_products_bitwise(
        p, levels, seed, monkeypatch):
    # every row of a Haar-turned system holds an entry: every stack is held
    # on all its rows, and the products are the dense ones, formed in the
    # same association
    split = []

    def recorded(c, *args, **kwargs):
        split.append((OrthoRep(c.values.copy(), c.rows),
                      reptheory.decompose_stack(c, *args, **kwargs)))
        return split[-1][-1]
    monkeypatch.setattr(osusy, "decompose_stack", recorded)
    spectrum = spectral(turned(p, levels, seed))
    [charges], [h], [eig] = spectrum.system.charges, spectrum.system.H, spectrum.eigs
    q = charges.dense()
    assert held_rows(q).all() and charges.rows.all() and np.array_equal(charges.values, q)
    got = osusy._commutator(h, charges)
    assert got.rows.all() and np.array_equal(got.values, commutator(h, q))
    assert spectrum.charges[0].rows.all()
    assert np.array_equal(spectrum.charges[0].values, restricted(eig.vectors, q))
    eigenspace_reps(spectrum)
    [(c, dec)] = split
    assert c.rows.all() and held_rows(c.values).all() and set(dec.multiplicity.tolist()) == {1}
    got = reptheory._block_defects(c, dec.basis, 1)
    assert got.rows.all() and np.array_equal(got.values, block_residual(dec.basis, c.values, 1))


def test_the_commutator_sees_h_off_the_rows_that_hold_a_charge():
    # |0, 1> (index 1) holds no charge entry; H couples it to |1, 0> (index 3),
    # which does, inside the N = 1 sector: the commutator is formed on row 1
    # as well as on the held row
    p, eps = 2, 0.25
    Q, H = build_system(p, 4).dense()
    H = couple(H, 1, p + 1, eps, hermitian=True)
    sys_ = system_from_dense(p, Q, H)
    assert not Q[:, 1].any() and Q[:, p + 1].any()
    for h, q in zip(sys_.H, sys_.charges):
        got = osusy._commutator(h, q)
        assert np.array_equal(got.dense(), commutator(h, q.dense()))
    assert np.flatnonzero(got.rows).tolist() == [0, p]
    got = check_relations(spectral(sys_))["[H, Q_a] = 0"]
    assert got == max(max_abs(H @ q - q @ H) for q in Q) > eps


def test_a_target_outside_the_rows_of_a_piece_is_compared_against_zero():
    # c_1 = E_{2,2} at p = 1, n = 3, turned by the identity: the product
    # holds row 2 alone, while the one copy's target E_{0,1} lies on row 0,
    # outside it. The defect there is the target's own 1, so the block
    # residual is 1 and the split that this basis would certify is refused.
    # (A split grown by decompose_stack never meets this: each vacuum
    # meets the held rows, or its copy vectors fail the Gram check.)
    c = np.zeros((1, 1, 3, 3))
    c[0, 0, 2, 2] = 1
    basis = np.eye(3)[None]
    got = reptheory._block_defects(OrthoRep.of(c), basis, 1)
    assert got.rows.tolist() == [True, False, True]
    assert np.array_equal(got.dense(), block_residual(basis, c, 1))
    assert max_abs(got.values[..., 0, :]) == 1.0
    block = max_abs(got.values, axis=(0, -2, -1))
    bound = np.maximum(*reptheory._pair_bounds(np.zeros(1), block, np.zeros(1), 3, 1))
    assert block[0] == 1.0 and not bound[0] <= DEFAULT_TOL


def test_an_osusy_op_reads_each_support_once(monkeypatch):
    # the support of a stack is known where the stack is made: build_system
    # writes its charges on their one held row, spectral carries the rows of
    # C that can hold an entry, and the pieces are cut on those; the one read
    # is of the rows that keep an entry in build_generators' cut, made on the
    # held rows of C, so no dense pass reads the rows of C or of the pieces
    reads = []
    canonical_module = importlib.import_module("orthofermi.canonical")
    read = canonical_module.held_rows

    def counted(c, *args, **kwargs):
        reads.append(np.shape(c))
        return read(c, *args, **kwargs)
    for module in (canonical_module, osusy, reptheory):
        if hasattr(module, "held_rows"):
            monkeypatch.setattr(module, "held_rows", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["osusy", "--p", "3", "--levels", "6", "--json"]) == 0
    # 5 sectors of 4 states, each held on its one charge row
    assert reads == [(3, 5, 1, 4)]


def test_a_carried_support_cannot_go_stale():
    # the values of a held stack are its rows R alone, so no write into
    # them can put an entry off R, and its mask is read-only, in copies too
    sys_ = two_stacks(2, 4)
    spectrum = spectral(sys_)
    copies = (copy.copy(sys_), copy.deepcopy(sys_), pickle.loads(pickle.dumps(sys_)))
    for q in (sys_.charges[1], spectrum.system.charges[1], build_system(2, 4).charges[0],
              *(copied.charges[1] for copied in copies)):
        assert q.values.shape[-2] == np.count_nonzero(q.rows) == 1
        with pytest.raises(ValueError):
            q.rows[0] = True
    # a system made from arrays its caller keeps holds copies of the rows it
    # holds, where they are not all of them
    Q = [q.dense().copy() for q in sys_.charges]
    own = OsusySystem(sys_.blocks, [OrthoRep.of(q) for q in Q], sys_.H)
    Q[1][0, 0, -1, 1] = 0.5
    assert own.charges[1].values[0, 0, 0, 1] == 0 and not own.charges[1].rows[0]
    # a charge entry in row 0 of a sector, which held none: the replaced
    # system reads its support anew, and both relations see the entry (H is
    # a multiple of the identity on the sector, so [H, Q_a] stays 0)
    q = sys_.charges[1].dense().copy()
    q[0, 0, 0, 1] = 0.5
    moved = replace(sys_, charges=[sys_.charges[0], OrthoRep.of(q)])
    assert not sys_.charges[1].rows[0] and moved.charges[1].rows[0]
    assert np.array_equal(moved.charges[1].rows, held_rows(q))
    Q, H = moved.dense()
    nilpotent, mixed = pair_relation_defects(Q[:, None], 2 * H)
    expected = {"[H, Q_a] = 0": max(max_abs(H @ m - m @ H) for m in Q),
                "Q_a Q_b = 0": nilpotent[0],
                "Q_a Q_b^dag + d_ab sum Q^dag Q = 2 d_ab H": mixed[0]}
    got = check_relations(spectral(moved))
    for name, value in expected.items():
        assert got[name] == pytest.approx(value, rel=1e-12)
    assert min(nilpotent[0], mixed[0]) > 0.1


def test_whole_block_pieces_are_taken_in_c_order():
    spectrum = spectral(two_stacks(4, 6))
    charges, size = spectrum.charges, 5
    block = np.array([3, 0, 2])
    found = osusy._cut_pieces(charges, np.ones(3, dtype=int), block, np.zeros(3, dtype=int), size)
    assert found.values.flags.c_contiguous and found.values.flags.writeable
    # held on the one charge row of each sector, as C is
    assert np.flatnonzero(found.rows).tolist() == [4]
    assert np.shares_memory(found.rows, charges[1].rows)
    assert np.array_equal(found.values, charges[1].values[:, block])


def partial_monomials(rng, count, n):
    """(count, n, n) matrices that map some basis vectors to others with phases
    in {1, -1, i, -i}: every product of them is one too, so every sum of such
    products has small Gaussian-integer entries and is exact in any order."""
    out = np.zeros((count, n, n), dtype=complex)
    for m in out:
        keep = rng.random(n) < 0.8
        m[rng.permutation(n)[keep], np.arange(n)[keep]] = 1j ** rng.integers(4, size=keep.sum())
    return out


@pytest.mark.parametrize("p", range(2, 21))
def test_the_doubled_sum_rule_is_the_recurrence_bitwise(p):
    rng = np.random.default_rng(p)
    para = partial_monomials(rng, 3, 5)
    H = gaussian_integers(rng, (3, 5, 5))
    lhs, rhs = osusy._sum_rule(p, H, para)
    want_lhs, want_rhs = sum_rule_recurrence(p, H, para)
    assert np.array_equal(lhs, want_lhs) and np.array_equal(rhs, want_rhs)
    assert np.array_equal(lhs, sum(mpow(para, p - k) @ dagger(para) @ mpow(para, k)
                                   for k in range(p + 1)))


@pytest.mark.parametrize("p, levels, seed", [(2, 6, 21), (3, 5, 31), (5, 4, 51), (12, 3, 121)])
def test_the_doubled_sum_rule_of_a_turned_system_is_the_recurrence(p, levels, seed):
    gens = build_generators(spectral(turned(p, levels, seed)))
    for h, para in zip(gens.spectrum.system.H, gens.para):
        for got, want in zip(osusy._sum_rule(p, h, para), sum_rule_recurrence(p, h, para)):
            assert max_abs(got - want) <= 1e-13 * max(1.0, max_abs(want))
