import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthofermi.algebra import basis, rho0
from orthofermi.canonical import (OrthoRep, canonical, cyclic_from, held_rows,
                                  ladder_identity_residuals, ladder_operators, lowering_from,
                                  occupied, transfer)
from orthofermi.errors import DimensionError, OrderError
from orthofermi.linalg import dagger, max_abs
from orthofermi.reptheory import random_rep
from oracles import dense_ladder_residuals, ladder_closed_form_residuals, transfer_sum


def ladder_L(p):
    return ladder_operators(p)[1]


def ladder_F(p):
    return ladder_operators(p)[2]


def ket(n, dim):
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v


def test_canonical_entry_formula():
    rep = canonical(2)
    assert len(rep.c) == 2 and rep.dim == 3
    e12 = np.zeros((3, 3), dtype=complex); e12[0, 1] = 1.0
    e13 = np.zeros((3, 3), dtype=complex); e13[0, 2] = 1.0
    assert np.array_equal(rep.c[0], e12)
    assert np.array_equal(rep.c[1], e13)

    assert np.array_equal(canonical(1).c[0], np.array([[0.0, 1.0], [0.0, 0.0]]))
    for m in canonical(3).c:
        assert np.count_nonzero(m) == 1


@pytest.mark.parametrize("p", range(1, 13))
def test_canonical_is_the_stacked_rho0_images(p):
    # basis(p) lists Pi, then c_1 .. c_p
    images = np.stack([rho0(x) for x in basis(p)[1:p + 1]])
    c = canonical(p).c
    # the matrix units are real, so both stacks are float64 under linalg.field
    assert (c.shape, c.dtype) == (images.shape, np.float64) and images.dtype == np.float64
    assert np.array_equal(c, images)


def test_canonical_rejects_bad_order():
    for p in (0, True):
        with pytest.raises(OrderError):
            canonical(p)


def test_vacuum_projector_of_canonical():
    assert np.array_equal(np.eye(3) - occupied(canonical(2).c), np.diag([1.0, 0.0, 0.0]))
    assert np.array_equal(np.eye(2) - occupied(canonical(1).c), np.diag([1.0, 0.0]))


def test_vacuum_projector_of_trivial_rep():
    # the unit of the zero representation is 0, and so is its vacuum projector
    zero = OrthoRep(np.zeros((2, 3, 3)))
    assert np.array_equal(np.zeros((3, 3)) - occupied(zero.c), np.zeros((3, 3)))


def test_lowering_operator_shifts_kets_down():
    L = ladder_L(2)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = 1.0
    assert np.array_equal(L, expected)
    assert np.array_equal(ladder_L(1), np.array([[0.0, 1.0], [0.0, 0.0]]))

    L3 = ladder_L(3)
    assert max_abs(L3 @ ket(0, 4)) == 0.0
    for n in range(1, 4):
        assert np.array_equal(L3 @ ket(n, 4), ket(n - 1, 4))
    # raising from the top ket leaves the space
    assert max_abs(L3.conj().T @ ket(3, 4)) == 0.0


def test_cyclic_operator_wraps_the_vacuum():
    F = ladder_F(2)
    assert np.array_equal(F @ ket(0, 3), ket(2, 3))
    assert np.array_equal(F @ ket(1, 3), ket(0, 3))
    assert np.array_equal(F @ ket(2, 3), ket(1, 3))
    assert np.array_equal(np.linalg.matrix_power(F, 3), np.eye(3, dtype=complex))
    assert np.array_equal(ladder_F(1), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_cyclic_minus_lowering_is_top_creator():
    for p in range(1, 6):
        rep = canonical(p)
        assert np.array_equal(ladder_F(p) - ladder_L(p), rep.c[-1].conj().T)


@pytest.mark.parametrize("p", range(1, 9))
def test_ladder_identity_suite_is_exact(p):
    residuals = ladder_identity_residuals(*ladder_operators(p))
    assert residuals, "empty identity catalog"
    for name, value in residuals.items():
        assert value == 0.0, f"{name} has residual {value}"


@pytest.mark.parametrize("p", [2, 3, 5, 8])
def test_ladder_closed_forms_match_the_pairwise_oracle_off_the_exact_case(p):
    # the canonical entries scaled by real factors 1 + 0.1 N(0, 1): one entry
    # per row still, and no closed form is exact. At p = 1 no such change
    # moves a closed form: L = c_1 and L^2 = 0 whatever the entry
    rng = np.random.default_rng(p)
    c = canonical(p).c
    c[c != 0] *= 1 + 0.1 * rng.normal(size=p)
    rep = OrthoRep(c)
    L = lowering_from(rep.c)
    residuals = ladder_identity_residuals(rep, L, cyclic_from(rep.c))
    oracle = ladder_closed_form_residuals(rep.c, L)
    assert max(oracle.values()) > 1e-3
    assert {name: residuals[name] for name in oracle} == oracle


@pytest.mark.parametrize("p", [*range(1, 41), 64])
def test_ladder_catalog_on_the_rows_is_the_dense_catalog_bitwise(p):
    operators = ladder_operators(p)
    got = ladder_identity_residuals(*operators)
    # same keys in the same order, same values; no residual is NaN or -0.0
    assert list(got.items()) == list(dense_ladder_residuals(*operators).items())


@pytest.mark.parametrize("p", [1, 2, 5, 17])
def test_ladder_catalog_on_complex_operands_is_the_dense_catalog(p):
    # c_a -> e^{i theta_a} c_a is still a representation with one entry per
    # row; its catalog runs in complex128 and holds to rounding
    theta = np.random.default_rng(p).uniform(0, 2 * np.pi, p)
    rep = OrthoRep(np.exp(1j * theta)[:, None, None] * canonical(p).c)
    operators = rep, lowering_from(rep.c), cyclic_from(rep.c)
    got, want = ladder_identity_residuals(*operators), dense_ladder_residuals(*operators)
    assert rep.c.dtype == complex and list(got) == list(want)
    assert all(abs(got[k] - want[k]) <= 1e-14 and got[k] <= 1e-14 for k in got), (got, want)


def perturbed(p, which, change):
    """The canonical rep, L and F with one operand changed in row 0:
    "scaled" scales the operand by 1 + 1e-6, a number replaces the one entry
    of row 0, and "extra" puts a second entry, 0.5, at (0, 0). The operand
    is L, F or c_{p//2+1}; L and F are built anew from a changed c."""
    rep, L, F = ladder_operators(p)
    c = rep.c.copy()
    target = c[p // 2] if which == "c" else {"L": L, "F": F}[which]
    if change == "scaled":
        target *= 1 + 1e-6
    elif change == "extra":
        target[0, 0] = 0.5
    else:
        target[0, np.flatnonzero(target[0])] = change
    if which == "c":
        rep = OrthoRep(c)
        L, F = lowering_from(rep.c), cyclic_from(rep.c)
    return rep, L, F


@pytest.mark.parametrize("p", [1, 2, 5, 9])
@pytest.mark.parametrize("which", ["L", "F", "c"])
@pytest.mark.parametrize("change", ["scaled", 0.75, 1 + 2e-6])
def test_ladder_catalog_off_the_exact_case_is_the_dense_catalog_bitwise(p, which, change):
    # one entry per row still, the catalog's domain; the residuals are inexact
    operators = perturbed(p, which, change)
    got = ladder_identity_residuals(*operators)
    want = dense_ladder_residuals(*operators)
    assert max(want.values()) > 0.0
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("p", [1, 3, 6])
@pytest.mark.parametrize("which", ["L", "F", "c"])
def test_ladder_catalog_with_two_entries_in_a_row_is_refused(p, which):
    named = f"c_{p // 2 + 1}" if which == "c" else which
    with pytest.raises(ValueError, match=rf"^{named} holds two entries in row 0$"):
        ladder_identity_residuals(*perturbed(p, which, "extra"))


def test_ladder_catalog_names_the_row_of_an_adjoint_with_two_entries():
    # a second entry in column 1 of L, in its empty last row: L keeps one
    # entry per row, L^dag holds two in row 1
    rep, L, F = ladder_operators(3)
    L[3, 1] = 0.5
    with pytest.raises(ValueError, match=r"^L\^dag holds two entries in row 1$"):
        ladder_identity_residuals(rep, L, F)


def test_ladder_closed_form_with_two_terms_in_a_row_is_refused():
    # every operand holds one entry per row, but c_1 + c_1^dag c_2 holds two terms in row 0
    c = np.zeros((2, 3, 3))
    c[0, 0, 0] = c[1, 0, 0] = c[1, 1, 2] = 1
    rep = OrthoRep(c)
    with pytest.raises(ValueError, match=r"^closed form of L\^1 holds two terms in row 0$"):
        ladder_identity_residuals(rep, lowering_from(rep.c), cyclic_from(rep.c))


def test_ladder_catalog_refuses_operators_of_another_dimension():
    _, L, F = ladder_operators(5)
    with pytest.raises(DimensionError, match=r"^L and F must be 4 x 4, got \(6, 6\) and \(6, 6\)$"):
        ladder_identity_residuals(canonical(3), L, F)
    rep, L, _ = ladder_operators(3)
    with pytest.raises(DimensionError, match=r"^L and F must be 4 x 4, got \(4, 4\) and \(6, 6\)$"):
        ladder_identity_residuals(rep, L, F)


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("copies", [2, 3])
def test_ladder_catalog_of_canonical_copies_is_exact(p, copies):
    # every identity holds on each copy, so on their direct sum, by the rows
    # and by the dense products alike
    rep = OrthoRep(np.kron(np.eye(copies), canonical(p).c))
    operators = rep, lowering_from(rep.c), cyclic_from(rep.c)
    got = ladder_identity_residuals(*operators)
    assert list(got.items()) == list(dense_ladder_residuals(*operators).items())
    assert set(got.values()) == {0.0}


def test_nilpotency_at_large_order():
    assert ladder_identity_residuals(*ladder_operators(5))["L^{p+1} = 0"] == 0.0


def test_parasusy_sum_at_order_three():
    L = ladder_L(3)
    total = sum(np.linalg.matrix_power(L, 3 - k) @ L.conj().T @ np.linalg.matrix_power(L, k)
                for k in range(4))
    assert np.array_equal(total, 3 * np.linalg.matrix_power(L, 2))


def test_lowering_operator_rank_and_kernel():
    for p in range(1, 7):
        L = ladder_L(p)
        assert np.linalg.matrix_rank(L) == p
        # kernel is exactly the vacuum direction
        _, s, vh = np.linalg.svd(L)
        kernel = vh[-1].conj()
        assert s[-1] < 1e-14
        assert np.allclose(np.abs(kernel), np.abs(ket(0, p + 1)))


def test_generators_span_the_full_matrix_algebra():
    # witness of irreducibility: generators and their pairwise products
    # already span all (p+1)^2 matrix units
    for p in range(1, 5):
        rep = canonical(p)
        gens = list(rep.c) + [m.conj().T for m in rep.c]
        products = [a @ b for a in gens for b in gens]
        stacked = np.array([m.ravel() for m in gens + products])
        assert np.linalg.matrix_rank(stacked) == (p + 1) ** 2


def test_lowering_from_matches_formula_on_restricted_matrices():
    # the builders accept any family of matrices, not only the canonical one
    rep = canonical(2)
    u = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    moved = [u @ m @ u.conj().T for m in rep.c]
    assert np.array_equal(lowering_from(moved), u @ ladder_L(2) @ u.conj().T)
    assert np.array_equal(cyclic_from(moved), u @ ladder_F(2) @ u.conj().T)


def test_builders_act_matrix_by_matrix_on_stacks():
    # p = 3 annihilators, each a stack of 4 random 5x5 matrices
    rng = np.random.default_rng(8)
    c = rng.standard_normal((3, 4, 5, 5)) + 1j * rng.standard_normal((3, 4, 5, 5))
    for build in (occupied, lowering_from, cyclic_from):
        stacked = build(c)
        assert stacked.shape == (4, 5, 5)
        for k in range(4):
            assert max_abs(stacked[k] - build([m[k] for m in c])) < 1e-13, build.__name__


def test_cyclic_power_of_a_stack_is_the_identity():
    stack = np.stack([canonical(3).c] * 2, axis=1)  # 3 annihilators, 2 copies each
    power = np.linalg.matrix_power(cyclic_from(stack), 4)
    assert np.array_equal(power, np.broadcast_to(np.eye(4), (2, 4, 4)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.integers(1, 6), n=st.integers(1, 7), lead=st.sampled_from([(), (1,), (3,)]),
       held=st.sampled_from(["none", "one", "some", "all"]), as_list=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_transfer_matches_the_pair_oracle(p, n, lead, held, as_list, seed):
    # Gaussian-integer entries make every sum exact in any order, so the
    # grouped products on the held rows must give the oracle's values bitwise
    rng = np.random.default_rng(seed)
    count = {"none": 0, "one": 1, "some": int(rng.integers(1, max(n, 2))), "all": n}[held]
    rows = rng.permutation(n)[:count]
    c = np.zeros((p, *lead, n, n), dtype=complex)
    c[..., rows, :] = rng.integers(-3, 4, (p, *lead, count, n, 2)) @ [1, 1j]
    c[rng.integers(p), ..., rows, rng.integers(n)] = 1 + 2j  # every chosen row holds an entry
    assert np.array_equal(np.flatnonzero(held_rows(c)), np.sort(rows))
    for k in range(p + 2):
        got = transfer(list(c) if as_list else c, k)
        assert got.shape == (*lead, n, n) and got.dtype == complex
        assert np.array_equal(got, transfer_sum(c, k)), k
        if k >= p:
            assert not got.any()


@pytest.mark.parametrize("p, copies, trivial, seed", [(2, 7, 3, 1), (3, 5, 2, 4), (5, 3, 0, 3)])
def test_occupied_on_a_dense_stack_is_the_sequential_sum_bitwise(p, copies, trivial, seed):
    # the unit that random-rep writes into a rep file is inferred from this sum,
    # and the written files are compared byte for byte
    turned = random_rep(p, copies, trivial, seed).c
    rng = np.random.default_rng(seed)
    for c in (turned[:, None], rng.standard_normal((p, 4, 9, 9, 2)) @ [1, 1j]):
        assert held_rows(c).all()
        assert np.array_equal(occupied(c), sum(dagger(m) @ m for m in c))
