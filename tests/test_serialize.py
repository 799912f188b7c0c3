import gc
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthofermi import serialize
from orthofermi.canonical import canonical
from orthofermi.errors import IoError, ParseError
from orthofermi.reptheory import OrthoRep, random_rep
from orthofermi.serialize import (decode_matrix, dump_json, encode_matrix, read_rep_file,
                                  render_json, rep_from_dict, rep_to_dict, write_rep_file)


def test_matrix_encoding_round_trips_losslessly():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    m[0, 0] = np.sqrt(2) + 1j * np.pi
    back = decode_matrix(encode_matrix(m).tolist(), 3, 4, "m")
    assert np.array_equal(back, m)


def test_encoded_matrix_is_the_nested_pair_list():
    m = np.array([[1.5 - 0.0j, -0.0 + 2j], [np.nan, 1e308 - 1j * np.inf]])
    encoded = encode_matrix(m)
    expected = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    assert type(encoded) is np.ndarray and encoded.dtype == np.float64
    assert repr(encoded.tolist()) == repr(expected)


def test_rep_file_round_trip(tmp_path):
    rep = random_rep(2, copies=1, trivial=1, seed=9)
    path = tmp_path / "rep.json"
    write_rep_file(path, rep, np.eye(4, dtype=complex))
    loaded, unit = read_rep_file(path)
    assert loaded.p == rep.p and loaded.dim == rep.dim
    for a, b in zip(loaded.c, rep.c):
        assert np.array_equal(a, b)
    assert np.array_equal(unit, np.eye(4))


def complex_array(draw, shape):
    """A complex array of ``shape`` with arbitrary finite parts, signed zeros included."""
    parts = draw(st.lists(finite_floats, min_size=2 * math.prod(shape),
                          max_size=2 * math.prod(shape)))
    out = np.empty(shape, dtype=complex)
    out.real.flat[:], out.imag.flat[:] = parts[0::2], parts[1::2]
    return out


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(), p=st.integers(1, 6), n=st.integers(1, 8), with_unit=st.booleans())
def test_rep_dict_round_trip_is_bitwise(data, p, n, with_unit):
    rep = OrthoRep(complex_array(data.draw, (p, n, n)))
    unit = complex_array(data.draw, (n, n)) if with_unit else None
    loaded, loaded_unit = rep_from_dict(rep_to_dict(rep, unit))
    assert (loaded.p, loaded.dim) == (p, n)
    assert loaded.c.dtype == rep.c.dtype and loaded.c.tobytes() == rep.c.tobytes()
    if with_unit:
        assert loaded_unit.dtype == unit.dtype and loaded_unit.tobytes() == unit.tobytes()
    else:
        assert loaded_unit is None


def test_rep_file_without_unit(tmp_path):
    rep = OrthoRep([canonical(1).c[0]])
    path = tmp_path / "rep.json"
    write_rep_file(path, rep)
    _, unit = read_rep_file(path)
    assert unit is None


def test_malformed_json_raises_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        read_rep_file(path)


def test_wrong_schema_raises_parse_error():
    doc = rep_to_dict(OrthoRep([canonical(1).c[0]]))
    doc["schema_version"] = "something-else/9"
    with pytest.raises(ParseError):
        rep_from_dict(doc)


def test_shape_mismatch_raises_parse_error():
    doc = rep_to_dict(OrthoRep([canonical(1).c[0]]))
    doc["dim"] = 3
    with pytest.raises(ParseError):
        rep_from_dict(doc)


@pytest.mark.parametrize("dim", [3, -1])
def test_a_file_of_order_zero_names_the_order(dim):
    doc = {"schema_version": "orthofermion-rep/1", "p": 0, "dim": dim, "matrices": []}
    with pytest.raises(ParseError, match="^order p must be a positive integer, got 0$"):
        rep_from_dict(doc)


def test_missing_field_raises_parse_error():
    with pytest.raises(ParseError):
        rep_from_dict({"schema_version": "orthofermion-rep/1", "p": 1})


def test_non_numeric_entries_raise_parse_error():
    doc = rep_to_dict(OrthoRep([canonical(1).c[0]]))
    doc["matrices"][0][0][0] = ["a", "b"]
    with pytest.raises(ParseError):
        rep_from_dict(doc)


NOT_NUMBERS = [True, False, "1", None, 10**400]
NOT_NUMBER_IDS = ["true", "false", "string", "null", "400-digit-integer"]


@pytest.mark.parametrize("field", ["matrices", "unit"])
@pytest.mark.parametrize("value", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
def test_an_entry_that_is_no_json_number_raises_parse_error(field, value):
    # float() reads true as 1.0 and " 1e0 " as 1.0, and an integer beyond the
    # float range overflows: each must be a refusal, in the real or the
    # imaginary part, through the file's text as well
    for part in (0, 1):
        doc = rep_to_dict(canonical(2), np.eye(3))
        matrix = doc["matrices"][1] if field == "matrices" else doc["unit"]
        matrix[2][0][part] = value
        with pytest.raises(ParseError, match="entries must be JSON numbers$"
                           if type(value) is not int else "beyond the float range$"):
            rep_from_dict(doc)
        with pytest.raises(ParseError):
            rep_from_dict(json.loads(json.dumps(doc)))


def test_integer_entries_read_as_their_floats():
    doc = rep_to_dict(canonical(2), np.eye(3))
    doc["unit"] = [[[int(re), int(im)] for re, im in row] for row in doc["unit"]]
    doc["matrices"][0][0][1] = [1, -0]
    rep, unit = rep_from_dict(doc)
    assert np.array_equal(unit, np.eye(3)) and np.array_equal(rep.c, canonical(2).c)


@pytest.mark.parametrize("data", [
    [[[1.0, 0.0]] * 3] * 2, [[[1.0, 0.0]] * 2] * 3, [[[1.0, 0.0, 0.0]] * 3] * 3,
    [[[1.0]] * 3] * 3, [[[1.0, 0.0]] * 3, [[1.0, 0.0]] * 3, [[1.0, 0.0]] * 2 + [[1.0]]],
    [[1.0] * 3] * 3, [[[1.0, 0.0]] * 3] * 2 + [{"a": [1.0, 0.0]}], "abc", 1.0, None,
    [[[[1.0], [0.0]]] * 3] * 3, [[{"re": 1.0, "im": 0.0}] * 3] * 3, [["10"] * 3] * 3,
], ids=["two-rows", "two-columns", "triples", "singles", "one-short-pair", "no-pairs",
        "object-row", "string", "number", "null", "nested-pairs", "object-pairs",
        "string-pairs"])
def test_a_matrix_of_another_shape_raises_parse_error(data):
    with pytest.raises(ParseError):
        decode_matrix(data, 3, 3, "m")


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        read_rep_file(tmp_path / "does-not-exist.json")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_reading_a_rep_file_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, enabled):
    good, broken, true_entry = tmp_path / "rep.json", tmp_path / "broken.json", tmp_path / "true.json"
    write_rep_file(good, canonical(2), np.eye(3))
    broken.write_text("{not json", encoding="utf-8")
    doc = rep_to_dict(canonical(2))
    doc["matrices"][1][2][0][0] = True
    true_entry.write_text(json.dumps(doc), encoding="utf-8")
    cases = [(good, None), (broken, ParseError), (true_entry, ParseError),
             (tmp_path / "does-not-exist.json", IoError)]
    during = []

    def decode(doc):
        during.append(gc.isenabled())
        return rep_from_dict(doc)

    monkeypatch.setattr(serialize, "rep_from_dict", decode)
    was = gc.isenabled()
    try:
        for path, error in cases:
            (gc.enable if enabled else gc.disable)()
            if error is None:
                assert read_rep_file(path)[0].dim == 3
            else:
                with pytest.raises(error):
                    read_rep_file(path)
            assert gc.isenabled() is enabled, path.name
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]


def test_unwritable_path_raises_io_error(tmp_path):
    rep = OrthoRep([canonical(1).c[0]])
    with pytest.raises(IoError):
        write_rep_file(tmp_path / "no-such-dir" / "rep.json", rep)


# -- the JSON writer against json.dumps(indent=2, sort_keys=True) -----------------

FINITE_SPECIALS = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1e16, 1e-7, 0.1]
NON_FINITE = [float("nan"), float("inf"), -float("inf")]
finite_floats = st.one_of(st.sampled_from(FINITE_SPECIALS),
                          st.floats(allow_nan=False, allow_infinity=False))
floats = st.one_of(finite_floats, st.sampled_from(NON_FINITE))
# characters that json escapes or that look like the matrix layout
texts = st.text(st.one_of(st.sampled_from('[],"\\ \n\t\x00e\u00e9\u20ac\U0001f600'),
                          st.characters()), max_size=6)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, floats.map(np.float64),
                    texts)


@st.composite
def matrices(draw):
    """The nested-list encoding of a matrix up to 5 x 5; one draw in four
    has a non-finite entry."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    parts = draw(st.lists(finite_floats, min_size=2 * rows * cols, max_size=2 * rows * cols))
    if parts and draw(st.integers(0, 3)) == 0:
        parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(NON_FINITE))
    m = np.empty((rows, cols), dtype=complex)
    m.real.flat[:], m.imag.flat[:] = parts[0::2], parts[1::2]
    return encode_matrix(m).tolist()


# nested lists that almost have a matrix's shape: rows of unequal length,
# pairs of other lengths and entries that are not plain floats
pairs = st.lists(finite_floats, min_size=2, max_size=2)
near_matrices = st.one_of(
    st.lists(st.lists(pairs, min_size=1, max_size=3), min_size=2, max_size=3),
    st.lists(st.lists(st.lists(finite_floats, min_size=1, max_size=3), min_size=1, max_size=3),
             min_size=1, max_size=3),
    st.lists(st.lists(st.lists(st.one_of(floats, scalars), min_size=1, max_size=3),
                      min_size=1, max_size=3), min_size=1, max_size=3))


@st.composite
def tables(draw):
    """A list of flat dicts, as a report's table: rows over a few keys, so
    that key sets are shared and differ. Half the draws hold only int, float
    and str values under str keys, which the writer renders in one pass,
    non-finite floats and escaped texts included; the others draw every
    scalar, may take int keys and may hold an empty dict or a nested value
    in the middle of the list."""
    plain = draw(st.booleans())
    names = texts if plain or draw(st.booleans()) else st.integers()
    keys = st.sampled_from(draw(st.lists(names, min_size=1, max_size=4, unique=True)))
    values = st.one_of(st.integers(), floats, texts) if plain else scalars
    rows = draw(st.lists(st.dictionaries(keys, values, min_size=1, max_size=4),
                         min_size=1, max_size=5))
    if not plain and draw(st.booleans()):
        odd = draw(st.sampled_from([{}, [1.0, 2.0], {"k": [0.5]}]))
        at = draw(st.integers(0, len(rows)))
        if draw(st.booleans()):
            rows.insert(at, odd)
        else:
            rows[min(at, len(rows) - 1)][draw(keys)] = odd
    return rows


documents = st.recursive(
    st.one_of(scalars, matrices(), matrices(), near_matrices, tables()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(texts, inner, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.floats(allow_nan=False)), inner, max_size=3),
    ),
    max_leaves=12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=documents)
@example(doc=encode_matrix(np.zeros((0, 0))).tolist())
@example(doc=encode_matrix(np.zeros((1, 0))).tolist())
@example(doc={"a": [], "b": {}, "c": [[], {}], "m": [encode_matrix(np.eye(2)).tolist(), []]})
@example(doc={"spectrum": [{"E": 0.0, "copies": 0, "dim": 3, "note": "1 vacuum"},
                           {"E": 1.0, "copies": 1, "dim": 3}, {"dim": 3, "copies": 1, "E": 2.0}]})
def test_writer_matches_stdlib(doc, tmp_path_factory):
    expected = json.dumps(doc, indent=2, sort_keys=True)
    assert render_json(doc) == expected
    path = tmp_path_factory.getbasetemp() / "writer-doc.json"
    dump_json(doc, path)
    assert path.read_text(encoding="utf-8") == expected + "\n"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table=tables())
@example(table=[{"E": float("nan"), "dim": 3}, {"E": float("inf")}, {"E": -float("inf")}])
@example(table=[{"copies": 1, "pure": True}, {"copies": False}])
def test_tables_match_stdlib(table):
    # a table at the top and nested, where its indent is deeper
    for doc in (table, {"payload": {"spectrum": table}}):
        assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


# the writer given encode_matrix arrays, against stdlib writing each as its tolist()

ARRAY_SPECIALS = [-0.0, 5e-324, 1e16, 1e-05, 1e22]
array_floats = st.one_of(finite_floats, st.sampled_from(ARRAY_SPECIALS))


def array_as_list(o):
    """The ``default`` of json.dumps that writes an ndarray as its tolist()."""
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


@st.composite
def pair_arrays(draw):
    """A float64 array of shape (rows, cols, 2), rows and cols in 0..5, as
    encode_matrix returns; one draw in four has a NaN or an infinity, and one
    in eight has another shape."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    values = draw(st.lists(array_floats, min_size=2 * rows * cols, max_size=2 * rows * cols))
    if values and draw(st.integers(0, 3)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(NON_FINITE))
    shape = draw(st.sampled_from([(rows, cols, 2)] * 7 + [(1, rows, cols, 2), (rows, 2 * cols),
                                                          (2 * rows * cols,)]))
    return np.array(values, dtype=np.float64).reshape(shape)


def as_pairs(values: list, dtype) -> np.ndarray:
    """``values`` as an array of dtype ``dtype``: of [a, b] pairs, as an
    encoded matrix holds them, when there is an even number of them."""
    a = np.array(values, dtype=dtype)
    return a.reshape(-1, 1, 2) if len(values) % 2 == 0 else a


other_arrays = st.one_of(
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=12).map(lambda v: as_pairs(v, np.int64)),
    st.lists(st.booleans(), max_size=8).map(lambda v: as_pairs(v, bool)))

array_documents = st.recursive(
    st.one_of(pair_arrays(), pair_arrays(), other_arrays, scalars),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(texts, inner, max_size=4)),
    max_leaves=10)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=array_documents)
@example(doc=np.zeros((0, 0, 2)))
@example(doc=np.zeros((1, 0, 2)))
@example(doc={"m": [encode_matrix(np.eye(2) + 1j), {"u": [encode_matrix(np.eye(1))]}]})
@example(doc=encode_matrix([[np.nan, 1.0], [np.inf, -np.inf * 1j]]))
def test_array_writer_matches_stdlib(doc, tmp_path_factory):
    expected = json.dumps(doc, indent=2, sort_keys=True, default=array_as_list)
    assert render_json(doc) == expected
    path = tmp_path_factory.getbasetemp() / "writer-array-doc.json"
    dump_json(doc, path)
    assert path.read_text(encoding="utf-8") == expected + "\n"


def test_writer_refuses_what_stdlib_refuses():
    for doc in [{"x": object()}, {"x": np.int64(1)}, {1: "a", "b": 2}, {(1, 2): 0}]:
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            render_json(doc)
    # with arrays written as their tolist(), a complex entry is still refused
    for doc in [{"x": np.eye(2, dtype=complex)}, [np.int64(1), np.zeros((1, 1, 2))]]:
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True, default=array_as_list)
        with pytest.raises(TypeError):
            render_json(doc)
