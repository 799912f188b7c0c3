import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coefficient_product, monomial_element, monomial_product, monomials
from orthofermi import algebra
from orthofermi.algebra import AlgebraElement, alg_adjoint, alg_mul, basis, check_order, rho0
from orthofermi.errors import OrderError


def same(x, y):
    return (x.lam == y.lam and np.array_equal(x.nu, y.nu)
            and np.array_equal(x.mu, y.mu) and np.array_equal(x.sigma, y.sigma))


def test_annihilator_times_creator_gives_vacuum():
    c = AlgebraElement.annihilator(1, 1)
    assert same(alg_mul(c, c.adjoint()), AlgebraElement.vacuum(1))


def test_annihilators_multiply_to_zero():
    c1 = AlgebraElement.annihilator(2, 1)
    c2 = AlgebraElement.annihilator(2, 2)
    assert same(alg_mul(c1, c2), AlgebraElement.zero(2))


def test_vacuum_is_idempotent():
    pi = AlgebraElement.vacuum(3)
    assert same(alg_mul(pi, pi), pi)


def test_adjoint_fixes_vacuum_and_swaps_ladder():
    pi = AlgebraElement.vacuum(2)
    assert same(alg_adjoint(pi), pi)
    assert same(alg_adjoint(AlgebraElement.annihilator(2, 1)), AlgebraElement.creator(2, 1))


def test_adjoint_conjugate_transposes_transfer_coefficients():
    x = (2 + 1j) * AlgebraElement.transfer(2, 1, 2)
    expected = (2 - 1j) * AlgebraElement.transfer(2, 2, 1)
    assert same(alg_adjoint(x), expected)


def test_rho0_places_matrix_units():
    m = rho0(AlgebraElement.annihilator(2, 1))
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    assert np.array_equal(m, expected)
    assert np.array_equal(rho0(AlgebraElement.vacuum(2)), np.diag([1.0, 0.0, 0.0]).astype(complex))


def test_rho0_all_coefficients_one():
    x = AlgebraElement(1, lam=1.0, nu=[1.0], mu=[1.0], sigma=[[1.0]])
    assert np.array_equal(rho0(x), np.ones((2, 2), dtype=complex))


def test_rho0_is_a_linear_bijection_onto_matrix_units():
    for p in (1, 2, 3):
        images = [rho0(b) for b in basis(p)]
        stacked = np.array([m.ravel() for m in images])
        assert stacked.shape == ((p + 1) ** 2, (p + 1) ** 2)
        # each basis monomial hits a distinct matrix unit exactly once
        assert np.array_equal(np.sort(np.abs(stacked), axis=1)[:, ::-1][:, 0], np.ones((p + 1) ** 2))
        assert np.linalg.matrix_rank(stacked) == (p + 1) ** 2


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_product_and_adjoint_commute_with_rho0_exactly(p):
    elements = basis(p)
    for x in elements:
        assert np.array_equal(rho0(alg_adjoint(x)), rho0(x).conj().T)
        for y in elements:
            assert np.array_equal(rho0(alg_mul(x, y)), rho0(x) @ rho0(y))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_product_is_associative_on_the_monomial_basis(p):
    elements = basis(p)
    for x, y, z in itertools.product(elements, repeat=3):
        left = alg_mul(alg_mul(x, y), z)
        right = alg_mul(x, alg_mul(y, z))
        assert same(left, right)


def test_unit_element_acts_as_identity():
    for p in (1, 2, 3):
        one = AlgebraElement.one(p)
        assert np.array_equal(rho0(one), np.eye(p + 1, dtype=complex))
        for b in basis(p):
            assert same(alg_mul(one, b), b)
            assert same(alg_mul(b, one), b)


def test_mixed_orders_raise():
    with pytest.raises(OrderError, match=r"^mixed orders p=1 and p=2$"):
        alg_mul(AlgebraElement.vacuum(1), AlgebraElement.vacuum(2))
    with pytest.raises(OrderError, match=r"^order p must be a positive integer, got 0$"):
        AlgebraElement(0)


def test_linear_structure():
    x = AlgebraElement.annihilator(2, 1)
    y = AlgebraElement.creator(2, 2)
    s = x + y
    assert s.nu[0] == 1.0 and s.mu[1] == 1.0
    assert same(s - y, x)
    assert same(2.0 * x + (-2.0) * x, AlgebraElement.zero(2))


@pytest.mark.parametrize("s", [2, 2.0, -1.5, 1 - 2j, np.float64(0.5), np.complex128(3j), 1 + 0j])
def test_a_scalar_multiplies_from_either_side(s):
    x = AlgebraElement(2, 1 - 1j, [1, 2j], [3, 0.5], [[1, 2], [3j, 4]])
    assert same(x * s, s * x)
    assert same(AlgebraElement.vacuum(2) * s, AlgebraElement(2, lam=s))
    # a real multiple of a real element stays real; a complex scalar, even
    # 1+0j, makes it complex
    dtype = np.complex128 if isinstance(s, complex) else np.float64
    for z in (s * AlgebraElement.vacuum(2), AlgebraElement.vacuum(2) * s, AlgebraElement(2, lam=s)):
        assert z.square.dtype == dtype


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_monomials_and_the_unit_are_real(p):
    elements = [*basis(p), AlgebraElement.zero(p), AlgebraElement.vacuum(p), AlgebraElement.one(p),
                AlgebraElement.annihilator(p, p), AlgebraElement.creator(p, 1),
                AlgebraElement.transfer(p, 1, p), AlgebraElement(p, 2, [1] * p, np.ones(p),
                                                                 np.eye(p, dtype=np.float32))]
    assert [x.square.dtype for x in elements] == [np.float64] * len(elements)


@pytest.mark.parametrize("coefficients", [
    {"lam": 1 + 0j}, {"lam": np.complex128(2)}, {"nu": [1, 2 + 0j]}, {"mu": [0, 1 + 0j]},
    {"sigma": np.eye(2, dtype=complex)}, {"lam": 1.0, "nu": np.zeros(2, dtype=np.complex64)},
], ids=["lam-1+0j", "lam-complex128", "nu", "mu-1+0j", "sigma-zero-imaginary", "nu-complex64"])
def test_a_complex_coefficient_makes_the_square_complex(coefficients):
    # the dtype decides, never the values: every imaginary part here is 0
    x = AlgebraElement(2, **coefficients)
    assert x.square.dtype == np.complex128 and type(x.lam) is complex
    assert same(x, AlgebraElement(2, **{k: np.real(v) for k, v in coefficients.items()}))


def test_arithmetic_on_a_real_and_a_complex_element_is_complex():
    real, cplx = AlgebraElement.annihilator(2, 1), AlgebraElement(2, 1 + 0j, [1, 0], [0, 2])
    for z in (real * cplx, cplx * real, real + cplx, cplx + real, real - cplx, cplx - real,
              alg_adjoint(cplx), 1j * real):
        assert z.square.dtype == np.complex128
    for z in (real * real, real + real, real - real, alg_adjoint(real)):
        assert z.square.dtype == np.float64


@pytest.mark.parametrize("make, error", [
    (lambda x: "x" * x, ValueError), (lambda x: x * "x", ValueError),
    (lambda x: None * x, TypeError), (lambda x: x * [1, 2], TypeError),
    (lambda x: AlgebraElement(2, lam="x"), ValueError),
    (lambda x: AlgebraElement(2, lam=None), TypeError),
    (lambda x: AlgebraElement(2, nu=["a", "b"]), ValueError),
    (lambda x: AlgebraElement(2, sigma="x"), ValueError),
    # numpy would read None as NaN, and complex() would parse "1"
    (lambda x: AlgebraElement(2, nu=[None, None]), TypeError),
    (lambda x: AlgebraElement(2, lam="1"), ValueError), (lambda x: "1" * x, ValueError),
], ids=["str-times", "times-str", "None-times", "times-list", "str-lam", "None-lam", "str-nu",
        "str-sigma", "None-nu", "numeric-str-lam", "numeric-str-times"])
def test_a_non_number_is_refused(make, error):
    with pytest.raises(error):
        make(AlgebraElement.vacuum(2))


@pytest.mark.parametrize("other", [1, 2.0, 1j, None, "x", [1, 2], np.zeros(3)])
def test_adding_a_non_element_is_a_type_error(other):
    x = AlgebraElement.vacuum(2)
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, None, "3", 2.5, True, 0, -1, 1j])
def test_check_order_rejects_every_non_positive_integer(p):
    with pytest.raises(OrderError):
        check_order(p)


def test_check_order_accepts_integral_values():
    assert check_order(3.0) == 3 and type(check_order(3.0)) is int
    assert check_order(np.int64(4)) == 4
    assert check_order(1) == 1


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_product_matches_the_symbolic_oracle_on_every_monomial_pair(p):
    labels = monomials(p)
    elements = basis(p)
    for lx, x in zip(labels, elements):
        assert same(x, monomial_element(p, lx))
        for ly, y in zip(labels, elements):
            assert same(alg_mul(x, y), monomial_element(p, monomial_product(lx, ly))), (lx, ly)


def test_product_and_adjoint_never_call_rho0(monkeypatch):
    def forbidden(x):
        raise AssertionError("rho0 called")

    monkeypatch.setattr(algebra, "rho0", forbidden)
    labels = monomials(2)
    for lx, x in zip(labels, basis(2)):
        assert same(alg_adjoint(alg_adjoint(x)), x)
        for ly, y in zip(labels, basis(2)):
            assert same(x * y, monomial_element(2, monomial_product(lx, ly)))


def test_constructor_rejects_wrong_shapes():
    with pytest.raises(OrderError, match=r"^nu must have shape \(2,\), got \(3,\)$"):
        AlgebraElement(2, nu=[1.0, 2.0, 3.0])
    with pytest.raises(OrderError, match=r"^mu must have shape \(2,\), got \(1,\)$"):
        AlgebraElement(2, mu=[1.0])
    with pytest.raises(OrderError, match=r"^sigma must have shape \(2, 2\), got \(3, 3\)$"):
        AlgebraElement(2, sigma=np.eye(3))
    with pytest.raises(OrderError, match=r"^sigma must have shape \(2, 2\), got \(2,\)$"):
        AlgebraElement(2, sigma=[1.0, 0.0])


def test_elements_refuse_attribute_assignment():
    x = AlgebraElement.vacuum(2)
    for name in ("square", "p", "lam", "nu", "mu", "sigma", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, 1.0)
    assert np.array_equal(rho0(x), rho0(AlgebraElement.vacuum(2)))


def test_coefficients_are_views_of_the_square():
    x = AlgebraElement(2, 1 + 2j, [3, 4], [5, 6], [[7, 8], [9, 10]])
    assert x.p == 2 and x.square.shape == (3, 3) and x.square.dtype == np.complex128
    assert type(x.lam) is complex and x.lam == 1 + 2j
    for name, shape in (("nu", (2,)), ("mu", (2,)), ("sigma", (2, 2))):
        view = getattr(x, name)
        assert view.dtype == np.complex128 and view.shape == shape
        assert np.shares_memory(view, x.square)
    assert np.array_equal(x.square, [[1 + 2j, 3, 4], [5, 7, 8], [6, 9, 10]])


def random_element(p, data):
    values = data.draw(st.lists(st.floats(-1, 1), min_size=2 * (p + 1) ** 2,
                                max_size=2 * (p + 1) ** 2))
    m = np.reshape(values[::2], (p + 1, p + 1)) + 1j * np.reshape(values[1::2], (p + 1, p + 1))
    return AlgebraElement(p, m[0, 0], m[0, 1:], m[1:, 0], m[1:, 1:])


def close(x, y):
    return np.allclose(x.square, y.square, rtol=0, atol=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.data())
def test_random_products_match_the_coefficient_formulas_and_the_star_algebra(p, data):
    x, y, z = (random_element(p, data) for _ in range(3))
    assert close(alg_mul(x, y), coefficient_product(x, y))
    assert close(alg_mul(alg_mul(x, y), z), alg_mul(x, alg_mul(y, z)))
    assert close(alg_adjoint(alg_mul(x, y)), alg_mul(alg_adjoint(y), alg_adjoint(x)))


def test_arithmetic_on_mixed_orders_raises():
    x, y = AlgebraElement.vacuum(2), AlgebraElement.vacuum(3)
    for op in (alg_mul, lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(OrderError):
            op(x, y)


def test_arithmetic_results_are_complex_fresh_and_shaped():
    # a complex x with a real y gives complex results; the all-real pair u, y
    # gives float64 ones, the adjoint included
    p = 3
    rng = np.random.default_rng(5)
    x = AlgebraElement(p, 1 - 2j, rng.normal(size=p), rng.normal(size=p),
                       rng.normal(size=(p, p)) + 1j)
    y = AlgebraElement(p, 0.5, rng.normal(size=p), rng.normal(size=p), rng.normal(size=(p, p)))
    u = AlgebraElement(p, -1.5, rng.normal(size=p), rng.normal(size=p), rng.normal(size=(p, p)))
    for (a, b), dtype in (((x, y), np.complex128), ((u, y), np.float64)):
        for z in (a * b, alg_adjoint(a), a + b, a - b, 2 * a):
            assert z.p == p and isinstance(z.lam, complex)
            assert z.square.dtype == dtype
            for name, shape in (("square", (p + 1, p + 1)), ("nu", (p,)), ("mu", (p,)),
                                ("sigma", (p, p))):
                arr = getattr(z, name)
                assert arr.dtype == dtype and arr.shape == shape, name
                for operand in (a, b):
                    assert not np.shares_memory(arr, operand.square), name


def test_rho0_returns_a_fresh_writable_array_on_every_call():
    x = AlgebraElement.transfer(2, 1, 2)
    first, second = rho0(x), rho0(x)
    assert first.flags.writeable and not np.shares_memory(first, second)
    first[0, 0] = 5.0
    assert np.array_equal(rho0(x), second)
