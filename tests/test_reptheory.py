from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import EXACT_MAX_DIM, exact_verify, pair_relation_defects
from orthofermi import reptheory
from orthofermi.canonical import _hold, canonical
from orthofermi.errors import (DimensionError, NotARepresentationError, NumericalDegeneracyError,
                               OrderError, OrthofermiError)
from orthofermi.linalg import DEFAULT_TOL, dagger, haar_unitary, max_abs, orthonormal_range
from orthofermi.reptheory import (OrthoRep, decompose, decompose_stack, infer_unit, random_rep,
                                  relation_residuals, verify)


def as_rep(canon):
    return OrthoRep.of(canon.dense())


def zero_rep(p, dim):
    return OrthoRep.of(np.zeros((p, dim, dim), dtype=complex))


def block_rep(p, copies, trivial):
    """Unscrambled direct sum, for oracle comparisons."""
    n = copies * (p + 1) + trivial
    mats = []
    model = canonical(p)
    for a in range(p):
        m = np.zeros((n, n), dtype=complex)
        for i in range(copies):
            lo = i * (p + 1)
            m[lo:lo + p + 1, lo:lo + p + 1] = model.dense()[a]
        mats.append(m)
    return OrthoRep.of(mats)


# -- verify -------------------------------------------------------------------

def test_relation_residuals_on_stacks_take_the_worst_matrix():
    # 3 annihilators, each a stack of 4 random matrices, against a stack of units
    rng = np.random.default_rng(12)
    c = rng.standard_normal((3, 4, 5, 5)) + 1j * rng.standard_normal((3, 4, 5, 5))
    unit = rng.standard_normal((4, 5, 5))
    each = [relation_residuals(OrthoRep.of([m[k] for m in c]), unit[k]) for k in range(4)]
    worst = [max(r[i] for r in each) for i in range(2)]
    assert relation_residuals(OrthoRep.of(c), unit) == pytest.approx(worst, rel=1e-13)


@pytest.mark.parametrize("p", [1, 2, 5])
def test_a_real_stack_with_a_complex_unit_has_the_complex_stacks_residuals(p):
    # the unit's dtype rules the products: a complex unit adds into the
    # products of a real stack, as into those of a complex one
    c, unit = canonical(p).dense(), np.eye(p + 1, dtype=complex)
    assert (relation_residuals(OrthoRep.of(c.real), unit)
            == relation_residuals(OrthoRep.of(c.astype(complex)), unit) == (0.0, 0.0))
    broken = c.real.copy()
    broken[0, 0, 1] = 1.5
    assert (relation_residuals(OrthoRep.of(broken), unit)
            == relation_residuals(OrthoRep.of(broken.astype(complex)), unit))
    assert relation_residuals(OrthoRep.of(broken), unit)[1] > 1.0


#: Entries of the exact stacks; their pair products are single rounded terms.
EXACT_VALUES = np.array([1, -1, 1j, 2**0.5, 3**0.5, -(5**0.5)])

#: Stack kinds of :func:`kernel_stack`.
KINDS = ("dense", "exact", "rep")


def kernel_stack(p, n, k, kind, row_mode, col_mode, seed):
    """A seeded (p, k, n, n) stack of ``kind`` and its unit.

      * "dense": complex Gaussian annihilators and units;
      * "exact": at most one entry from ``EXACT_VALUES`` per row and column
        of each matrix, so every pair product entry is one term and occ sums
        one term per annihilator; a diagonal unit of such entries;
      * "rep": canonical copies plus a trivial block in a permuted basis and
        their unit, off by 1e-3 in one entry of one element, so that the
        relations hold exactly everywhere else.

    A mode of 0, 1 or 2 then zeroes no rows (columns) of an annihilator, a
    random half or all of them, in every element of the stack; a mode of 3
    zeroes a random half in each element independently, so that the kernel's
    support is a union over elements as well as over annihilators.
    """
    rng = np.random.default_rng(seed)
    if kind == "dense":
        c = rng.standard_normal((p, k, n, n, 2)) @ [1, 1j]
        unit = rng.standard_normal((k, n, n, 2)) @ [1, 1j]
    elif kind == "exact":
        c = np.zeros((p, k, n, n), dtype=complex)
        slots = rng.permuted(np.broadcast_to(np.arange(n), (p, k, n)), axis=-1)
        values = rng.choice(EXACT_VALUES, (p, k, n)) * (rng.random((p, k, n)) < 0.7)
        np.put_along_axis(c, slots[..., None], values[..., None], axis=-1)
        unit = np.diag(rng.choice(EXACT_VALUES, n))
    else:
        copies = int(rng.integers(n // (p + 1) + 1))
        rep = block_rep(p, copies, n - copies * (p + 1))
        turn = np.eye(n)[rng.permutation(n)]
        c = np.repeat((turn @ rep.dense() @ turn.T)[:, None], k, axis=1)
        unit = np.repeat((turn @ infer_unit(rep) @ turn.T)[None], k, axis=0)
        unit[rng.integers(k), rng.integers(n), rng.integers(n)] += 1e-3
    rows, cols = (rng.random((p, k if mode == 3 else 1, n)) < 0.5 if mode in (1, 3)
                  else np.full((p, 1, n), mode == 2) for mode in (row_mode, col_mode))
    c[np.broadcast_to(rows[..., None], c.shape)] = 0
    c[np.broadcast_to(cols[..., None, :], c.shape)] = 0
    return c, unit


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.integers(1, 8), n=st.integers(1, 12), k=st.integers(1, 3), kind=st.sampled_from(KINDS),
       row_mode=st.integers(0, 3), col_mode=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_relation_kernel_matches_the_pair_oracle(p, n, k, kind, row_mode, col_mode, seed):
    # the kernel multiplies on the stack's support; the oracle forms every
    # pair in full
    c, unit = kernel_stack(p, n, k, kind, row_mode, col_mode, seed)
    found = reptheory._relation_defects(OrthoRep.of(c), unit)
    expected = pair_relation_defects(c, unit)
    for got, want in zip(found, expected):
        if kind == "dense":
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        else:
            assert np.array_equal(got, want)


def test_a_row_that_only_some_annihilators_hold_still_counts_the_unit():
    # c_2 = 0 beside c_1 = E_{0,1}: the block (2, 2) is occ - unit alone, and
    # it fails on row 0, which only c_1 holds
    c = np.zeros((2, 1, 3, 3), dtype=complex)
    c[0, 0, 0, 1] = 1
    unit = np.diag([1.0, 1.0, 0.0])
    assert relation_residuals(OrthoRep.of(c), unit) == (0.0, 1.0)
    assert [v.tolist() for v in pair_relation_defects(c, unit)] == [[0.0], [1.0]]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p=st.integers(1, 8), n=st.integers(1, 12), k=st.integers(1, 3), kind=st.sampled_from(KINDS),
       row_mode=st.integers(0, 3), col_mode=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       bad=st.sampled_from([np.nan, np.inf, complex(0, -np.inf)]), in_unit=st.booleans())
def test_one_non_finite_entry_fails_the_relation_kernel(p, n, k, kind, row_mode, col_mode, seed,
                                                         bad, in_unit):
    # also where the entry sits in a row or column that is otherwise zero
    c, unit = kernel_stack(p, n, k, kind, row_mode, col_mode, seed)
    unit = np.array(np.broadcast_to(unit, (k, n, n)))
    rng = np.random.default_rng(seed)
    where = (rng.integers(k), rng.integers(n), rng.integers(n))
    if in_unit:
        unit[where] = bad
    else:
        c[(rng.integers(p), *where)] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        nilpotent, mixed = reptheory._relation_defects(_hold(c), unit)
    worst = np.maximum(nilpotent, mixed)[where[0]]
    assert not np.isfinite(worst) and not worst <= DEFAULT_TOL


@pytest.mark.parametrize("p", range(1, 7))
def test_canonical_satisfies_all_relations_exactly(p):
    residuals = verify(as_rep(canonical(p)), np.eye(p + 1, dtype=complex))
    assert all(v == 0.0 for v in residuals.values())


def test_zero_rep_satisfies_relations_with_zero_unit():
    residuals = verify(zero_rep(2, 3), np.zeros((3, 3)))
    assert all(v == 0.0 for v in residuals.values())


def test_verify_reports_injected_perturbation():
    c = canonical(2).dense()
    c[0][2, 2] += 1e-3
    rep = OrthoRep.of(c)
    residuals = verify(rep, np.eye(3, dtype=complex))
    worst = max(residuals.values())
    assert 5e-4 < worst < 5e-3


def test_verify_rejects_a_unit_that_is_not_a_matrix():
    with pytest.raises(DimensionError, match=r"^expected a matrix, got array of shape \(3,\)$"):
        verify(canonical(2), np.ones(3))


def test_verify_rejects_a_nan_unit():
    unit = np.eye(3, dtype=complex)
    unit[2, 0] = np.nan
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        verify(canonical(2), unit)


# -- infer_unit ---------------------------------------------------------------

def test_infer_unit_of_canonical_is_identity():
    for p in (1, 2, 4):
        assert max_abs(infer_unit(as_rep(canonical(p))) - np.eye(p + 1)) == 0.0


def test_infer_unit_of_zero_rep_is_zero():
    assert max_abs(infer_unit(zero_rep(1, 3))) == 0.0


def test_infer_unit_of_mixed_sum_is_a_projector():
    rep = block_rep(2, 1, 2)
    assert np.array_equal(infer_unit(rep), np.diag([1.0, 1.0, 1.0, 0.0, 0.0]).astype(complex))


def test_infer_unit_rejects_scaled_generators():
    c = canonical(1).dense()
    c[0] *= 2.0
    rep = OrthoRep.of(c)
    with pytest.raises(NotARepresentationError):
        infer_unit(rep)


def test_infer_unit_rejects_inconsistent_candidates():
    # shrink only one of two species so the two unit candidates disagree
    c = canonical(2).dense()
    c[1] *= 0.5
    rep = OrthoRep.of(c)
    with pytest.raises(NotARepresentationError):
        infer_unit(rep)


# -- decompose ----------------------------------------------------------------

def test_decompose_canonical_is_one_copy():
    dec = decompose(as_rep(canonical(2)))
    assert (dec.multiplicity, dec.trivial_dim) == (1, 0)
    # basis is the identity up to one overall phase per copy
    assert max_abs(np.abs(dec.basis) - np.eye(3)) < 1e-12


def test_decompose_zero_rep_is_all_trivial():
    dec = decompose(zero_rep(2, 4))
    assert (dec.multiplicity, dec.trivial_dim) == (0, 4)
    assert np.array_equal(dec.basis, np.eye(4, dtype=complex))


def test_decompose_recovers_scrambled_blocks():
    rep = random_rep(2, copies=2, trivial=2, seed=7)
    dec = decompose(rep)
    assert (dec.multiplicity, dec.trivial_dim) == (2, 2)
    assert dec.residuals["block"] < 1e-9
    assert dec.residuals["unitarity"] < 1e-10


def test_decompose_rejects_non_representation():
    c = canonical(2).dense()
    c[0][2, 2] += 1e-3
    rep = OrthoRep.of(c)
    with pytest.raises(NotARepresentationError):
        decompose(rep)


def test_decompose_refuses_borderline_orthonormality():
    # at a deliberately loose tolerance a uniformly shrunk generator slips
    # through the relation screen (worst residual 0.288), but the copy
    # vectors it grows have Gram defect 1 - 0.8^2 = 0.36; the split must
    # refuse to guess rather than classify
    c = canonical(1).dense()
    c[0] *= 0.8
    rep = OrthoRep.of(c)
    with pytest.raises(NumericalDegeneracyError):
        decompose(rep, tol=0.32)


def test_decompose_block_residual_against_explicit_conjugation():
    # oracle: conjugating the recovered basis back must reproduce the
    # unscrambled block matrices themselves
    rep = random_rep(3, copies=2, trivial=1, seed=11)
    dec = decompose(rep)
    expected = block_rep(3, 2, 1)
    for a in range(3):
        rebuilt = dec.basis.conj().T @ rep.dense()[a] @ dec.basis
        assert max_abs(rebuilt - expected.dense()[a]) < 1e-9


def test_decompose_with_a_given_unit_skips_inference():
    rep = random_rep(2, copies=2, trivial=0, seed=3)
    dec = decompose(rep, unit=np.eye(rep.dim))
    assert (dec.multiplicity, dec.trivial_dim) == (2, 0)
    # against the given identity, a uniformly scaled copy fails the relations
    scaled = OrthoRep.of(1.01 * rep.dense())
    with pytest.raises(NotARepresentationError):
        decompose(scaled, unit=np.eye(rep.dim))
    with pytest.raises(DimensionError):
        decompose(rep, unit=np.eye(rep.dim + 1))


# -- decompose_stack --------------------------------------------------------------

def test_decompose_stack_rejects_an_inf_annihilator():
    c = np.repeat(canonical(2).dense()[:, None], 2, axis=1)
    c[1, 1, 0, 2] = np.inf
    with pytest.raises(ValueError, match="^annihilators contain non-finite entries$"):
        decompose_stack(_hold(c))


MIXED = [(2, 0, 11), (1, 3, 12), (0, 6, 13)]  # (copies, trivial, seed) at p = 2, dim 6


def stack_of(reps):
    return OrthoRep.of(np.stack([rep.dense() for rep in reps], axis=1))


def test_decompose_stack_of_mixed_ranks_matches_each_instance():
    # a stack takes one vacuum rank, so each rank group of MIXED is its own
    # stack, with a second member drawn at another seed
    for copies, trivial, seed in MIXED:
        reps = [random_rep(2, copies, trivial, seed), random_rep(2, copies, trivial, seed + 10)]
        got = decompose_stack(stack_of(reps))
        assert got.multiplicity.tolist() == [copies] * 2
        assert got.trivial_dim.tolist() == [trivial] * 2
        for i, rep in enumerate(reps):
            want = decompose(rep)
            assert (got.multiplicity[i], got.trivial_dim[i]) == (want.multiplicity,
                                                                 want.trivial_dim)
            assert list(got.residuals) == list(want.residuals)
            for name, value in want.residuals.items():
                assert abs(got.residuals[name][i] - value) <= 1e-14, name
            assert max_abs(got.basis[i] - want.basis) <= 1e-12


def test_a_stack_of_mixed_vacuum_ranks_is_refused_naming_the_first_other_rank():
    reps = [random_rep(2, copies, trivial, seed) for copies, trivial, seed in MIXED]
    with pytest.raises(NumericalDegeneracyError) as info:
        decompose_stack(stack_of(reps))
    assert str(info.value) == ("representation 1: vacuum rank 1 differs from the first "
                               "element's 2; a stack takes one vacuum rank")
    with pytest.raises(NumericalDegeneracyError,
                       match="^representation 2: vacuum rank 2 differs from the first element's 0;"):
        decompose_stack(stack_of([reps[2], reps[2], reps[0]]))
    # a relation that fails in a later element is named first: its unit is
    # inferred within tol and its projector rows hold, and only Pi c_a = c_a
    # exceeds tol
    bent = perturbed(random_rep(2, 1, 3, seed=9), 10**-6.5, seed=9)
    with pytest.raises(NotARepresentationError) as info:
        decompose_stack(stack_of([reps[0], reps[2], bent]), tol=1e-6)
    assert str(info.value) == ("representation 2: relations fail with residual 1.011e-06 "
                               "> tol 1.000e-06")


def test_decompose_stack_names_the_failing_element():
    reps = [random_rep(2, copies, trivial, seed) for copies, trivial, seed in MIXED]
    broken = random_rep(2, 1, 3, seed=14).dense().copy()
    broken[0][0, 0] += 1e-3
    broken = OrthoRep.of(broken)
    with pytest.raises(NotARepresentationError, match="representation 2"):
        decompose_stack(stack_of([reps[0], reps[1], broken, reps[2]]))
    with pytest.raises(NotARepresentationError, match="^third: "):
        decompose_stack(stack_of([reps[0], reps[1], broken]), labels=["first", "second", "third"].__getitem__)


def test_decompose_stack_forms_only_the_failing_label():
    reps = [random_rep(2, 1, 3, seed) for seed in (12, 15, 16)]
    asked = []

    def label(i):
        asked.append(i)
        return f"rep #{i}"
    decompose_stack(stack_of(reps), labels=label)
    assert asked == []
    broken = random_rep(2, 1, 3, seed=14).dense().copy()
    broken[0][0, 0] += 1e-3
    broken = OrthoRep.of(broken)
    with pytest.raises(NotARepresentationError, match="^rep #2: "):
        decompose_stack(stack_of([reps[0], reps[1], broken, reps[2]]), labels=label)
    assert asked == [2]


def test_decompose_stack_checks_every_element_against_a_given_unit():
    reps = [random_rep(3, 1, 0, seed) for seed in (1, 2, 3)]
    c = stack_of(reps)
    assert decompose_stack(c, np.eye(4)).multiplicity.tolist() == [1, 1, 1]
    c = c.dense().copy()
    c[:, 1] *= 1.01
    c = OrthoRep.of(c)
    with pytest.raises(NotARepresentationError, match="representation 1"):
        decompose_stack(c, np.eye(4))
    with pytest.raises(DimensionError):
        decompose_stack(c, np.eye(5))
    with pytest.raises(DimensionError):
        decompose_stack(c[0])


def broken_family(name):
    """A seeded broken p = 3 family of dim 8, the unbroken family it came
    from and the unit both are checked against (None: inferred)."""
    if name == "trivial-block leak":
        # x E_{5,6} in c_1, inside the trivial block: both pair relations hold
        # within tol, and only the rows Pi c_a = c_a and c_a^dag Pi = c_a^dag
        # see that the given unit misses it
        u = haar_unitary(8, np.random.default_rng(45))
        good = block_rep(3, 1, 4).dense()
        leak = good.copy()
        leak[0, 4, 5] = 1e-6
        unit = np.diag([1.0, 1, 1, 1, 0, 0, 0, 0])
        return u @ leak @ dagger(u), u @ good @ dagger(u), u @ unit @ dagger(u)
    good = random_rep(3, 2, 0, seed=41).dense()
    c = good.copy()
    if name.startswith("scaled"):
        c[0] *= 1 + 1e-6
    if name.startswith("perturbed"):
        c += noise(c.shape, 1e-3, 41)
    unit = {"unit I": np.eye(8), "unit 2I": 2 * np.eye(8)}.get(name.rpartition(", ")[2])
    return c, good, unit


# decompose's message for each broken family; decompose_stack names it as
# element 2 of [good, good, broken, good], except that a unit of 2I fails all
REFUSALS = {
    "scaled": "unit candidates from indices 1 and 2 disagree by 9.673e-07",
    "scaled, unit I": "relations fail with residual 1.672e-06 > tol 1.000e-10",
    "perturbed": "unit candidates from indices 1 and 2 disagree by 3.558e-03",
    "perturbed, unit I": "relations fail with residual 4.611e-03 > tol 1.000e-10",
    "good, unit 2I": "relations fail with residual 1.000e+00 > tol 1.000e-10",
    "trivial-block leak": "relations fail with residual 2.800e-07 > tol 1.000e-10",
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_messages_are_pinned(name):
    c, good, unit = broken_family(name)
    with pytest.raises(NotARepresentationError) as alone:
        decompose(OrthoRep.of(c), unit=unit)
    assert str(alone.value) == REFUSALS[name]
    with pytest.raises(NotARepresentationError) as stacked:
        decompose_stack(OrthoRep.of(np.stack([good, good, c, good], axis=1)), unit)
    first = 0 if name.endswith("unit 2I") else 2
    assert str(stacked.value) == f"representation {first}: {REFUSALS[name]}"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(p=st.integers(1, 6), copies=st.integers(0, 4), trivial=st.integers(0, 5),
       seed=st.integers(0, 2**32 - 1))
def test_decompose_round_trips_random_reps(p, copies, trivial, seed):
    if copies + trivial == 0:
        copies = 1
    dec = decompose(random_rep(p, copies, trivial, seed))
    assert (dec.multiplicity, dec.trivial_dim) == (copies, trivial)
    assert all(value <= 10 * DEFAULT_TOL for value in dec.residuals.values()), dec.residuals


def noise(shape, size, seed):
    """Seeded complex Gaussian entries of scale ``size``."""
    return size * (np.random.default_rng(seed).standard_normal((*shape, 2)) @ [1, 1j])


def perturbed(rep, size, seed):
    """``rep`` with :func:`noise` added to every annihilator."""
    return OrthoRep.of(rep.dense() + noise(rep.shape, size, seed))


def test_a_split_that_cannot_certify_the_relations_is_refused():
    # the relations hold within tol, but the residuals of the built unitary
    # bound them only by more: the certificate refuses, and its error stands
    rep = random_rep(2, 2, 1, seed=21)
    unit = infer_unit(rep)
    bent = perturbed(rep, 1e-8, seed=21)
    assert max(verify(bent, unit).values()) <= 1e-6
    with pytest.raises(NumericalDegeneracyError,
                       match=r"^the split certifies the relations only within \S+ > tol 1.000e-06$"):
        decompose(bent, 1e-6, unit=unit)


def certified_split(p, copies, trivial, seed, exponent, unit_exponent, bound):
    """Decompose a perturbed ``random_rep`` against a perturbed unit,
    recording what ``reptheory.<bound>`` returns.

    Generators and unit are perturbed apart, at a tolerance loose enough that
    the certificate passes on perturbations up to about 1e-4; the unit is
    shifted on the trivial block only, where no residual of U sees it.
    Returns the family, its unit and the recorded bound, or None when the
    split is refused.
    """
    rep = random_rep(p, copies, trivial, seed)
    unit = infer_unit(rep)
    outside = np.eye(rep.dim) - unit
    shift = noise((rep.dim, rep.dim), 10.0**unit_exponent, seed + 1)
    unit = unit + outside @ (shift + shift.conj().T) @ outside
    bent = perturbed(rep, 10.0**exponent, seed)
    value = recorded_bound(bent, unit, bound)
    return None if value is None else (bent, unit, value)


def recorded_bound(rep, unit, bound):
    """What ``reptheory.<bound>`` returns while ``rep`` is decomposed against
    ``unit`` at tol 1e-2, or None when the split is refused."""
    found = []

    def recorded(*args, _bound=getattr(reptheory, bound)):
        found.append(_bound(*args))
        return found[-1]
    with mock.patch.object(reptheory, bound, recorded):
        try:
            decompose(rep, 1e-2, unit=unit)
        except OrthofermiError:
            return None
    [value] = found
    return value


SPLITS = dict(p=st.integers(1, 5), copies=st.integers(1, 3), trivial=st.integers(0, 3),
              seed=st.integers(0, 2**32 - 1), exponent=st.floats(-10, -4),
              unit_exponent=st.floats(-10, -4))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**SPLITS)
def test_a_certified_split_bounds_both_pair_defects(p, copies, trivial, seed, exponent,
                                                    unit_exponent):
    split = certified_split(p, copies, trivial, seed, exponent, unit_exponent, "_pair_bounds")
    if split is None:
        return
    bent, unit, ((nilpotent,), (mixed,)) = split
    assert max(nilpotent, mixed) <= 1e-2
    defects = relation_residuals(bent, unit)
    assert defects[0] <= nilpotent and defects[1] <= mixed, (defects, nilpotent, mixed)


VACUUM_ROWS = ("Pi c_a = c_a", "c_a^dag Pi = c_a^dag", "c_a Pi = 0", "Pi c_a^dag = 0")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**SPLITS)
def test_a_certified_split_bounds_the_four_vacuum_rows(p, copies, trivial, seed, exponent,
                                                       unit_exponent):
    split = certified_split(p, copies, trivial, seed, exponent, unit_exponent, "_vacuum_bound")
    if split is None:
        return
    bent, unit, (bound,) = split
    assert bound <= 1e-2
    rows = verify(bent, unit)
    assert all(rows[name] <= bound for name in VACUUM_ROWS), (rows, bound)


def test_a_unit_off_on_the_trivial_block_by_less_than_tol_over_sqrt_n_is_accepted():
    # the row bound charges R - F F^dag by sqrt(n) d_1; here d_1 = 3e-11 at
    # n = 8, and every row of verify holds within tol
    rep = random_rep(2, 2, 2, seed=3)
    outside = np.eye(8) - infer_unit(rep)
    unit = infer_unit(rep) + 3e-11 / max_abs(outside) * outside
    assert max(verify(rep, unit).values()) <= DEFAULT_TOL
    dec = decompose(rep, unit=unit)
    assert (dec.multiplicity, dec.trivial_dim) == (2, 2)


def unit_off_on_the_trivial_block(rep, off):
    """The inferred unit of ``rep`` plus ``off`` times its largest-entry-normed
    complement: off by ``off`` where the copies do not reach."""
    unit = infer_unit(rep)
    outside = np.eye(rep.dim) - unit
    return unit + off / max_abs(outside) * outside


@pytest.mark.parametrize("copies, trivial, off", [(2, 2, 4e-11), (30, 10, 2e-11)])
def test_a_unit_off_on_the_trivial_block_by_more_than_tol_over_sqrt_n_is_accepted(
        copies, trivial, off):
    # sqrt(n) d_1 alone exceeds tol, but the unit is exact on the copy columns
    # F, so R F - F is roundoff and the row bound through it certifies the split
    rep = random_rep(2, copies, trivial, seed=3)
    unit = unit_off_on_the_trivial_block(rep, off)
    assert rep.dim**0.5 * off > DEFAULT_TOL
    assert max(verify(rep, unit).values()) <= DEFAULT_TOL
    dec = decompose(rep, unit=unit)
    assert (dec.multiplicity, dec.trivial_dim) == (copies, trivial)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(p=st.integers(1, 5), copies=st.integers(1, 3), trivial=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1), unit_exponent=st.floats(-10, -4),
       gap=st.floats(0, 4), hermitian=st.booleans())
def test_the_vacuum_row_bound_holds_for_a_unit_off_on_the_copies(p, copies, trivial, seed,
                                                                 unit_exponent, gap, hermitian):
    # a shift on the trivial block, plus one smaller by 10^gap on every block:
    # R F - F is then not roundoff, and for about half of these splits the
    # bound through it is the smaller one; a non-Hermitian shift makes
    # F^dag R - F^dag differ from R F - F
    rep = random_rep(p, copies, trivial, seed)
    unit = infer_unit(rep)
    outside = np.eye(rep.dim) - unit
    shift = noise((rep.dim, rep.dim), 10.0**unit_exponent, seed + 1)
    stray = noise((rep.dim, rep.dim), 10.0**(unit_exponent - gap), seed + 2)
    unit = (unit + outside @ (shift + shift.conj().T) @ outside
            + (stray + stray.conj().T if hermitian else stray))
    bound = recorded_bound(rep, unit, "_vacuum_bound")
    if bound is None:
        return
    rows = verify(rep, unit)
    assert all(rows[name] <= bound[0] for name in VACUUM_ROWS), (rows, bound)


@pytest.mark.parametrize("hermitian", [True, False])
def test_the_vacuum_row_bound_sees_a_unit_off_on_one_copy_column(hermitian):
    # R + 1e-4 |f><g| with f = c_1^dag e_1 keeps the vacua, so U and its block
    # residuals stay roundoff, while c_1 Pi moves by about 1e-4: only d_1 and
    # d_F see it. With g a trivial vector, R F = F, and only F^dag R - F^dag does.
    rep = random_rep(2, 2, 2, seed=3)
    basis = decompose(rep).basis
    f, g = basis[:, 1], basis[:, 1 if hermitian else -1]
    unit = infer_unit(rep) + 1e-4 * np.outer(f, g.conj())
    (bound,) = recorded_bound(rep, unit, "_vacuum_bound")
    rows = verify(rep, unit)
    assert rows["c_a Pi = 0"] > 1e-5
    assert all(rows[name] <= bound for name in VACUUM_ROWS), (rows, bound)


def test_expected_blocks_are_the_padded_canonical_copies():
    for p in range(1, 7):
        for m in range(4):
            for t in range(4):
                old = np.pad(np.kron(np.eye(m), canonical(p).dense()), ((0, 0), (0, t), (0, t)))
                new = reptheory._expected_blocks(p, m, t).dense()
                assert (new.shape, new.dtype) == (old.shape, old.dtype)
                assert new.tobytes() == old.tobytes(), (p, m, t)


@pytest.mark.parametrize("unit_dtype", [float, complex, None])
def test_decompose_stack_keeps_a_real_stack_real(unit_dtype):
    # the basis takes the common dtype of the stack and the unit, so a real
    # stack with a real (or inferred) unit splits in float64 and otherwise
    # in complex128, with the same split either way
    c = block_rep(3, 2, 1).dense().real
    turn = [*range(7, -1, -1), 8]  # a permutation that keeps the trivial index 8
    c = np.stack([c, c[:, turn][..., turn]], axis=1)
    unit = None if unit_dtype is None else np.diag([1.0] * 8 + [0.0]).astype(unit_dtype)
    for stack, want in [(c, complex if unit_dtype is complex else float),
                        (c.astype(complex), complex)]:
        dec = decompose_stack(OrthoRep.of(stack), unit)
        assert dec.basis.dtype == want
        assert (dec.multiplicity.tolist(), dec.trivial_dim.tolist()) == ([2, 2], [1, 1])
        assert all(value.max() <= DEFAULT_TOL for value in dec.residuals.values())


@pytest.mark.parametrize("p", [1, 2, 5])
def test_the_canonical_rep_splits_in_float64(p):
    dec = decompose(canonical(p))
    assert dec.basis.dtype == np.float64
    assert (dec.multiplicity, dec.trivial_dim) == (1, 0)


def test_decompose_stack_keeps_the_imaginary_part_of_a_complex_stack():
    rep = random_rep(2, 2, 1, seed=3)
    dec = decompose_stack(OrthoRep.of(rep.dense()[:, None]))
    assert dec.basis.dtype == complex and max_abs(dec.basis.imag) > 0.1
    u = dec.basis[0]
    blocks = reptheory._expected_blocks(2, 2, 1).dense()
    assert max_abs(u.conj().T @ rep.dense() @ u - blocks) <= 1e-10


# -- random_rep ---------------------------------------------------------------

def test_random_rep_is_deterministic():
    r1 = random_rep(2, 1, 1, seed=3)
    r2 = random_rep(2, 1, 1, seed=3)
    for a, b in zip(r1.dense(), r2.dense()):
        assert np.array_equal(a, b)


def test_random_rep_single_block_is_equivalent_to_canonical():
    rep = random_rep(2, copies=1, trivial=0, seed=5)
    assert max(verify(rep).values()) <= 1e-12
    dec = decompose(rep)
    assert (dec.multiplicity, dec.trivial_dim) == (1, 0)


def test_random_rep_trivial_only_is_zero():
    rep = random_rep(1, copies=0, trivial=3, seed=2)
    assert rep.dim == 3
    assert all(max_abs(m) == 0.0 for m in rep.dense())


def test_random_rep_round_trip():
    rep = random_rep(3, copies=2, trivial=1, seed=7)
    assert max(verify(rep).values()) <= 1e-12
    dec = decompose(rep)
    assert (dec.multiplicity, dec.trivial_dim) == (2, 1)


def test_random_rep_validates_sizes():
    with pytest.raises(DimensionError):
        random_rep(2, copies=0, trivial=0, seed=1)


@pytest.mark.parametrize("copies,trivial", [
    (1.5, 0), (1, 0.5), (np.nan, 1), (1, np.inf), (-np.inf, 1), (None, 1), (1, "2"), (True, 1),
])
def test_random_rep_rejects_non_integer_sizes(copies, trivial):
    with pytest.raises(DimensionError):
        random_rep(2, copies, trivial, seed=1)


@pytest.mark.parametrize("p", [None, 0, 1.5, np.nan, "2"])
def test_random_rep_rejects_a_bad_order(p):
    with pytest.raises(OrderError):
        random_rep(p, 1, 0, seed=1)


def test_random_rep_takes_integral_floats():
    assert np.array_equal(random_rep(2, 2.0, 1.0, seed=4).dense(),
                          random_rep(2, 2, 1, seed=4).dense())


def test_ortho_rep_validates_shapes():
    for c in (np.zeros((3, 3)), np.zeros((2, 3, 4)), np.zeros((2, 0, 0)), np.zeros(()),
              [np.zeros((3, 3)), np.zeros((2, 2))]):
        with pytest.raises(DimensionError):
            OrthoRep.of(c)
    for c in (np.zeros((0, 3, 3)), []):
        with pytest.raises(OrderError, match="^order p must be a positive integer, got 0$"):
            OrthoRep.of(c)
    # a (p, 1, n, n) family holds one, but the functions of one
    # representation refuse its stack axis
    family = OrthoRep.of(np.zeros((2, 1, 3, 3)))
    for check in (verify, decompose, infer_unit):
        with pytest.raises(DimensionError, match=r"^expected a \(p, n, n\) representation"):
            check(family)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_ortho_rep_rejects_non_finite_entries(bad):
    c = np.zeros((2, 3, 3), dtype=complex)
    c[1, 2, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        OrthoRep.of(c)


def test_ortho_rep_of_a_list_is_the_stack():
    # linalg.field's rule: a complex stack stays complex128, even with an
    # imaginary part of zeros, and any other becomes float64
    rep = random_rep(3, copies=1, trivial=2, seed=5)
    c = rep.dense()
    real = c.real
    for given, dtype in [(list(c), complex), (c, complex), (real.astype(complex), complex),
                         (real.astype(np.float32), float), (list(real), float)]:
        built = OrthoRep.of(given)
        assert built.values.dtype == dtype and built.dense().shape == built.shape == (3, 6, 6)
        assert (built.p, built.dim) == (3, 6)
    assert np.array_equal(OrthoRep.of(list(c)).dense(), c)


@pytest.mark.parametrize("p, copies, trivial", [(1, 1, 0), (2, 2, 1), (4, 2, 2)])
def test_exact_verify_matches_verify_up_to_roundoff(p, copies, trivial):
    rep = random_rep(p, copies, trivial, seed=7)
    unit = infer_unit(rep)
    bent = perturbed(rep, 1e-7, seed=7)
    exact, rows = exact_verify(bent.dense(), unit), verify(bent, unit)
    assert exact.keys() == rows.keys()
    assert all(abs(float(exact[name]) ** 0.5 - rows[name]) <= 1e-14 for name in rows), (exact, rows)
    assert set(exact_verify(canonical(3).dense(), np.eye(4)).values()) == {0}
    with pytest.raises(ValueError, match=f"^exact_verify takes n <= {EXACT_MAX_DIM}, got 13$"):
        exact_verify(np.zeros((1, 13, 13)), np.eye(13))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p=st.integers(1, 4), copies=st.integers(1, 2), trivial=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1), exponent=st.floats(-9, -3),
       gap=st.integers(0, 40).map(lambda k: k / 10 - 4))
def test_an_accepted_split_holds_every_exact_row_within_tol(p, copies, trivial, seed, exponent,
                                                            gap):
    # perturbations from 1e-4 tol up to tol, across where the certificate and
    # then verify begin to refuse (the simplest draw, 1e-4 tol, is accepted);
    # n <= 12, so every row of verify is formed exactly
    tol = 10.0**exponent
    rep = random_rep(p, copies, trivial, seed)
    unit = infer_unit(rep)
    bent = perturbed(rep, tol * 10.0**gap, seed)
    try:
        dec = decompose(bent, tol, unit=unit)
    except OrthofermiError:
        return
    assert (dec.multiplicity, dec.trivial_dim) == (copies, trivial)
    rows = exact_verify(bent.dense(), unit)
    assert all(value <= Fraction(tol) ** 2 for value in rows.values()), (rows, tol)


# -- structural invariants on a small grid -------------------------------------

@pytest.mark.parametrize("p,copies,trivial,seed", [
    (1, 1, 0, 1), (1, 0, 2, 2), (2, 2, 1, 3), (3, 1, 3, 4), (4, 2, 0, 5),
])
def test_round_trip_invariants(p, copies, trivial, seed):
    rep = random_rep(p, copies, trivial, seed)
    unit = infer_unit(rep)
    vacuum = unit - sum(m.conj().T @ m for m in rep.dense())
    # the vacuum operator is a Hermitian projector of rank = multiplicity
    assert max_abs(vacuum @ vacuum - vacuum) < 1e-12
    assert max_abs(vacuum - vacuum.conj().T) < 1e-12
    dec = decompose(rep)
    assert (dec.multiplicity, dec.trivial_dim) == (copies, trivial)
    assert np.linalg.matrix_rank(vacuum, tol=1e-8) == dec.multiplicity
    assert dec.multiplicity * (p + 1) + dec.trivial_dim == rep.dim
    assert dec.residuals["unitarity"] < 1e-10
    # trivial block is annihilated from both sides
    comp = dec.basis[:, copies * (p + 1):]
    for m in rep.dense():
        assert max_abs(m @ comp) < 1e-10
        assert max_abs(m.conj().T @ comp) < 1e-10


@pytest.mark.parametrize("trivial, ranges", [(0, 1), (2, 2)])
def test_a_pure_split_runs_no_complement_svd(trivial, ranges, monkeypatch):
    # the complement of a pure split is zero within tol, so only the vacuum
    # projector's range takes an SVD
    widths = []

    def counted(a):
        widths.append(a.shape)
        return orthonormal_range(a)
    monkeypatch.setattr(reptheory, "orthonormal_range", counted)
    dec = decompose(random_rep(3, 2, trivial, seed=5))
    assert (dec.multiplicity, dec.trivial_dim) == (2, trivial)
    assert len(widths) == ranges


def test_ranges_skip_the_svd_only_below_frobenius_norm_one_half(monkeypatch):
    # no singular value exceeds the Frobenius norm, so below 1/2 every rank is
    # 0 at the gap; at or above it the SVD counts, even where it counts 0
    calls = []

    def counted(a):
        calls.append(len(a))
        return orthonormal_range(a)
    monkeypatch.setattr(reptheory, "orthonormal_range", counted)

    def bases(a):
        rank, vectors = reptheory._ranges(a)
        assert rank.dtype.kind == "i" and vectors.ndim == 3 and len(vectors) == len(a)
        return [v[:, :r].shape for v, r in zip(vectors, rank)]
    a = np.zeros((2, 3, 3))
    a[0, 0, 0], a[1] = 0.49, 0.16 * np.eye(3)
    assert bases(a) == [(3, 0), (3, 0)]
    assert calls == []
    a[1] = 0.4 * np.diag([1.0, 1, 0])
    assert bases(a) == [(3, 0), (3, 0)]
    a[0, 1, 1] = 0.51
    assert bases(a) == [(3, 1), (3, 0)]
    assert calls == [2, 2]


def loose_draws(count):
    """``count`` seeded exact ``random_rep`` draws, each with its copies,
    trivial dimension and a tolerance from 1e-3 to 1/4."""
    rng = np.random.default_rng(1)
    for _ in range(count):
        p, copies, trivial = (int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                              int(rng.integers(0, 60)))
        seed, tol = int(rng.integers(0, 2**31)), 10 ** rng.uniform(-3, np.log10(0.25))
        yield random_rep(p, copies, trivial, seed), copies, trivial, tol


def holds_its_residuals_within(dec, tol, n):
    """Every residual of an accepted split is within ``tol``: gram and
    complement annihilation are refused above it, and the certificate's
    bound, at most ``tol``, is at least 2n d_U and 2n d_B."""
    return (max(dec.residuals.values()) <= tol
            and max(dec.residuals["unitarity"], dec.residuals["block"]) <= tol / (2 * n))


def test_every_exact_rep_splits_with_its_counts_at_a_loose_tol():
    for rep, copies, trivial, tol in loose_draws(40):
        unit = infer_unit(rep)
        assert max(verify(rep, unit, tol).values()) <= tol
        dec = decompose(rep, tol, unit=unit)
        assert (dec.multiplicity, dec.trivial_dim) == (copies, trivial), tol
        assert holds_its_residuals_within(dec, tol, rep.dim), (dec.residuals, tol)


@pytest.mark.parametrize("p, copies, trivial, seed, tol", [
    (2, 2, 1, 7, DEFAULT_TOL), (3, 2, 0, 11, DEFAULT_TOL), (3, 0, 5, 1, DEFAULT_TOL),
    (2, 1, 97, 1, 0.06), (2, 33, 1, 5, 0.06)])
def test_an_accepted_split_has_its_counts_and_its_four_residuals_within_tol(p, copies, trivial,
                                                                           seed, tol):
    # the inputs of the scrambled goldens, and two at n = 100 and tol 0.06,
    # where every entry of the rank-one vacuum projector (copies = 1), or of
    # the rank-one complement (trivial = 1), lies within tol, and its rank is
    # still 1 at the projector gap
    rep = random_rep(p, copies, trivial, seed)
    dec = decompose(rep, tol, unit=infer_unit(rep))
    assert (dec.multiplicity, dec.trivial_dim) == (copies, trivial)
    assert holds_its_residuals_within(dec, tol, rep.dim), dec.residuals


def hadamard_split(eps, tol):
    """Steps 3 to 5 at ``tol`` on the p = 1 family F = A V of two copies, with
    A = 1 + eps e_1 e_1^dag and V a real Hadamard matrix over 2.

    F^dag F - 1 spreads its defect 2 eps + eps^2 over every entry as a
    quarter of it, while 1 - F F^dag = -(2 eps + eps^2) e_1 e_1^dag is a
    complement of rank one and of that size.
    """
    v = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
    family = (np.eye(4) + eps * np.diag([1.0, 0, 0, 0])) @ v
    # columns (e_1, c^dag e_1, e_2, c^dag e_2)
    vacua, created = family[:, [0, 2]], family[:, [1, 3]]
    c = dagger(created @ np.linalg.pinv(vacua))
    return reptheory._grow_copies(OrthoRep.of(c[None, None]), vacua[None].astype(complex),
                                  np.eye(4)[None], tol, lambda i: "")


def test_a_complement_beyond_tol_fails_the_dimension_bookkeeping():
    # (1 + eps)^2 = 0.4: the Gram defect 0.15 is within tol 0.2, and the
    # complement 0.6 lies beyond tol and above the projector gap 1/2, so it
    # counts as one trivial dimension too many
    with pytest.raises(NumericalDegeneracyError) as info:
        hadamard_split(0.4**0.5 - 1, 0.2)
    assert str(info.value) == "dimension bookkeeping failed: 2 copies of 2 plus 1 != 4"


def test_a_complement_beyond_tol_below_the_gap_is_refused_at_the_certificate():
    # eps = tol = 1e-6: the complement 2e-6 lies beyond tol but below the
    # projector gap, so the dimensions add up, and the certificate refuses
    with pytest.raises(NumericalDegeneracyError) as info:
        hadamard_split(1e-6, 1e-6)
    assert str(info.value) == ("the split certifies the relations only within 1.800e-05 "
                               "> tol 1.000e-06")
