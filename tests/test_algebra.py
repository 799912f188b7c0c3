import dataclasses
import itertools

import numpy as np
import pytest

from oracles import adjoint_label, image, monomial_product, monomials
from orthofermi import algebra
from orthofermi.algebra import AlgebraElement, alg_mul, basis, rho0
from orthofermi.canonical import canonical
from orthofermi.errors import OrderError

ORDERS = [1, 2, 3, 4, 5, 6]


def labelled(p):
    """The monomial labels of order p, each with its element of ``basis(p)``."""
    return dict(zip(monomials(p), basis(p)))


def test_annihilator_times_creator_gives_vacuum():
    m = labelled(1)
    assert np.array_equal(rho0(m["c", 1] * m["cdag", 1]), rho0(m["Pi",]))


def test_annihilators_multiply_to_zero():
    m = labelled(2)
    for a, b in itertools.product((1, 2), repeat=2):
        assert not rho0(m["c", a] * m["c", b]).any()


def test_vacuum_is_idempotent():
    pi = labelled(3)["Pi",]
    assert np.array_equal(rho0(pi * pi), rho0(pi))


def test_adjoint_fixes_vacuum_and_swaps_ladder():
    m = labelled(2)
    assert np.array_equal(rho0(m["Pi",]).conj().T, rho0(m["Pi",]))
    assert np.array_equal(rho0(m["c", 1]).conj().T, rho0(m["cdag", 1]))


def test_adjoint_conjugate_transposes_transfer_coefficients():
    m = labelled(2)
    assert np.array_equal(rho0(m["cdag c", 1, 2]).conj().T, rho0(m["cdag c", 2, 1]))


def test_rho0_places_matrix_units():
    m = labelled(2)
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    assert np.array_equal(rho0(m["c", 1]), expected)
    assert np.array_equal(rho0(m["Pi",]), np.diag([1.0, 0.0, 0.0]))


def test_rho0_all_coefficients_one():
    assert np.array_equal(sum(rho0(x) for x in basis(1)), np.ones((2, 2)))


def test_rho0_is_a_linear_bijection_onto_matrix_units():
    for p in (1, 2, 3):
        images = [rho0(b) for b in basis(p)]
        stacked = np.array([m.ravel() for m in images])
        assert stacked.shape == ((p + 1) ** 2, (p + 1) ** 2)
        # each basis monomial hits a distinct matrix unit exactly once
        assert np.array_equal(np.sort(np.abs(stacked), axis=1)[:, ::-1][:, 0], np.ones((p + 1) ** 2))
        assert np.linalg.matrix_rank(stacked) == (p + 1) ** 2


@pytest.mark.parametrize("p", ORDERS)
def test_basis_is_the_float64_monomials_in_label_order(p):
    elements = basis(p)
    assert len(elements) == (p + 1) ** 2
    assert all(isinstance(x, AlgebraElement) and x.square.dtype == np.float64
               and x.square.shape == (p + 1, p + 1) for x in elements)
    c = canonical(p).dense()
    for label, x in zip(monomials(p), elements):
        assert rho0(x).dtype == np.float64
        assert np.array_equal(rho0(x), image(c, label)), label


@pytest.mark.parametrize("p", ORDERS)
def test_product_and_adjoint_commute_with_rho0_exactly(p):
    m = labelled(p)
    for lx, x in m.items():
        assert np.array_equal(rho0(m[adjoint_label(lx)]), rho0(x).conj().T)
        for y in m.values():
            assert np.array_equal(rho0(x * y), rho0(x) @ rho0(y))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_product_is_associative_on_the_monomial_basis(p):
    elements = basis(p)
    for x, y, z in itertools.product(elements, repeat=3):
        assert np.array_equal(rho0((x * y) * z), rho0(x * (y * z)))


def test_unit_element_acts_as_identity():
    for p in (1, 2, 3):
        one = AlgebraElement(np.eye(p + 1))
        for b in basis(p):
            assert np.array_equal(rho0(one * b), rho0(b))
            assert np.array_equal(rho0(b * one), rho0(b))


def test_mixed_orders_raise():
    with pytest.raises(OrderError, match=r"^mixed orders p=1 and p=2$"):
        alg_mul(basis(1)[0], basis(2)[0])
    with pytest.raises(OrderError, match=r"^order p must be a positive integer, got 0$"):
        basis(0)


@pytest.mark.parametrize("p", ORDERS)
def test_monomials_and_the_unit_are_real(p):
    m = labelled(p)
    # the unit is Pi + sum_a c_a^dag c_a, as Pi := 1 - sum_a c_a^dag c_a
    unit = rho0(m["Pi",]) + sum(rho0(m["cdag c", a, a]) for a in range(1, p + 1))
    assert unit.dtype == np.float64 and np.array_equal(unit, np.eye(p + 1))
    assert {(x * y).square.dtype for x in m.values() for y in m.values()} == {np.dtype(np.float64)}


@pytest.mark.parametrize("s", [2, 2.0, -1.5, 1 - 2j, np.float64(0.5), np.complex128(3j), 1 + 0j])
def test_a_scalar_multiplies_from_neither_side(s):
    x = basis(2)[0]
    with pytest.raises(TypeError):
        x * s
    with pytest.raises(TypeError):
        s * x


@pytest.mark.parametrize("other", [1, 2.0, 1j, None, "x", [1, 2], np.zeros(3)])
def test_adding_a_non_element_is_a_type_error(other):
    x = basis(2)[0]
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)


@pytest.mark.parametrize("p", ORDERS)
def test_product_matches_the_symbolic_oracle_on_every_monomial_pair(p):
    c = canonical(p).dense()
    m = labelled(p)
    for lx, x in m.items():
        for ly, y in m.items():
            assert np.array_equal(rho0(x * y), image(c, monomial_product(lx, ly))), (lx, ly)


@pytest.mark.parametrize("p", ORDERS)
def test_the_symbolic_product_is_an_associative_star_product(p):
    # (xy)z = x(yz) and (xy)^dag = y^dag x^dag from the relations alone,
    # None standing for 0
    def times(x, y):
        return None if x is None or y is None else monomial_product(x, y)

    def star(x):
        return None if x is None else adjoint_label(x)

    labels = monomials(p)
    for x, y in itertools.product(labels, repeat=2):
        assert star(times(x, y)) == times(star(y), star(x)), (x, y)
        for z in labels:
            assert times(times(x, y), z) == times(x, times(y, z)), (x, y, z)
    assert [star(star(x)) for x in labels] == labels


def test_product_never_calls_rho0(monkeypatch):
    def forbidden(x):
        raise AssertionError("rho0 called")

    c = canonical(2).dense()
    m = labelled(2)
    monkeypatch.setattr(algebra, "rho0", forbidden)
    for lx, x in m.items():
        for ly, y in m.items():
            assert np.array_equal((x * y).square, image(c, monomial_product(lx, ly)))


def test_elements_refuse_attribute_assignment():
    x = basis(2)[0]
    for name in ("square", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, 1.0)
    assert np.array_equal(rho0(x), rho0(basis(2)[0]))


def test_arithmetic_on_mixed_orders_raises():
    x, y = basis(2)[0], basis(3)[0]
    for op in (alg_mul, lambda a, b: a * b):
        with pytest.raises(OrderError, match=r"^mixed orders p=2 and p=3$"):
            op(x, y)


def test_rho0_returns_a_fresh_writable_array_on_every_call():
    x = labelled(2)["cdag c", 1, 2]
    first, second = rho0(x), rho0(x)
    assert first.flags.writeable and not np.shares_memory(first, second)
    assert not np.shares_memory(first, x.square)
    first[0, 0] = 5.0
    assert np.array_equal(rho0(x), second)
