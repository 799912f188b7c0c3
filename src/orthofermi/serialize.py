"""JSON serialization of representations and related matrices.

Complex entries are stored as two-element [re, im] arrays in row-major
nested lists, which round-trips float64 values losslessly through JSON.
Representation files carry a ``schema_version`` tag so the layout can
evolve without silent misreads.

The layout of every file and report is a contract: :func:`render_json`
writes exactly the text of ``json.dumps(doc, indent=2, sort_keys=True)``,
with each ``np.ndarray`` in ``doc`` written as its ``tolist()``. It walks
dicts and lists itself and renders scalars with the encoders stdlib uses.
The package hands it matrices as the float64 arrays of
:func:`encode_matrix`; a finite one is written in one pass, one
``float.__repr__`` per entry joined with fixed separators, and no nested
list is built. A table, a list of flat dicts with str keys and float, int
or str values such as the ``spectrum`` of an osusy report, is also
written in one pass: the text before each value is built once per key
set, and each value is rendered by a lookup on its exact type.

A representation file is read with the cycle collector paused: the tree
``json.loads`` builds holds no reference cycle, so a collection pass
while it is alive frees nothing.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import IoError, ParseError
from .canonical import OrthoRep

REP_SCHEMA = "orthofermion-rep/1"
BASIS_SCHEMA = "orthofermion-basis/1"
SYSTEM_SCHEMA = "orthofermion-osusy/1"


def encode_matrix(m: np.ndarray) -> np.ndarray:
    """The float64 array of shape (..., rows, cols, 2) that holds each entry
    of ``m`` as its [re, im] pair; its ``tolist()`` is the nested-list
    encoding of the file format, which :func:`render_json` writes."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1)


def decode_matrix(data, rows: int, cols: int, what: str) -> np.ndarray:
    """Inverse of :func:`encode_matrix`, validating the expected shape and
    that every entry is a finite JSON number: an int, not a bool, or a
    float. The nested lists are flattened and their types read in C loops,
    with no Python step per entry; the flat values then convert as one."""
    # a row or a pair that is no list is refused here by its length, or
    # below by the type of what it holds: a JSON object yields its keys
    try:
        pairs = list(chain.from_iterable(data))
        shaped = (len(data) == rows and set(map(len, data)) <= {cols}
                  and set(map(len, pairs)) <= {2})
    except TypeError:
        shaped = False
    if not shaped:
        raise ParseError(f"{what}: expected {rows} rows of {cols} [re, im] pairs")
    values = list(chain.from_iterable(pairs))
    if set(map(type, values)) - {int, float}:
        raise ParseError(f"{what}: entries must be JSON numbers")
    try:
        m = np.array(values, dtype=float).reshape(rows, cols, 2)
    except OverflowError as exc:
        raise ParseError(f"{what}: an entry lies beyond the float range") from exc
    if not np.isfinite(m).all():
        raise ParseError(f"{what}: entries must be finite")
    # m is a fresh C-ordered array, so it views as complex; re + 1j * im would
    # drop the sign of a zero part
    return m.view(complex)[..., 0]


def _rep_doc(rep: OrthoRep, unit: np.ndarray | None, encode) -> dict:
    """The key layout of a representation file, each matrix or stack of
    matrices as ``encode`` writes it."""
    doc = {
        "schema_version": REP_SCHEMA,
        "p": rep.p,
        "dim": rep.dim,
        "matrices": list(encode(rep.dense())),
    }
    if unit is not None:
        doc["unit"] = encode(unit)
    return doc


def rep_to_dict(rep: OrthoRep, unit: np.ndarray | None = None) -> dict:
    """The document of a representation file as ``json.loads`` reads it
    back, with nested lists for matrices: the inverse of :func:`rep_from_dict`."""
    return _rep_doc(rep, unit, lambda m: encode_matrix(m).tolist())


def rep_from_dict(doc: dict) -> tuple[OrthoRep, np.ndarray | None]:
    if not isinstance(doc, dict):
        raise ParseError("representation file must hold a JSON object")
    if doc.get("schema_version") != REP_SCHEMA:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}, "
                         f"expected {REP_SCHEMA!r}")
    try:
        p, dim, raw = doc["p"], doc["dim"], doc["matrices"]
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from exc
    if type(p) is not int or type(dim) is not int:
        raise ParseError(f"p and dim must be JSON integers, got {p!r} and {dim!r}")
    if not isinstance(raw, list) or len(raw) != p:
        raise ParseError(f"expected {p} matrices, got {len(raw) if isinstance(raw, list) else raw!r}")
    mats = [decode_matrix(m, dim, dim, f"matrix {i + 1}") for i, m in enumerate(raw)]
    unit = None
    if "unit" in doc:
        unit = decode_matrix(doc["unit"], dim, dim, "unit")
    try:
        rep = OrthoRep.of(mats)
    except Exception as exc:
        raise ParseError(str(exc)) from exc
    return rep, unit


def render_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, with
    each ``np.ndarray`` in ``doc`` written as its ``tolist()``; anything
    else that stdlib refuses, a ``np.int64`` scalar say, raises
    ``TypeError``."""
    out: list[str] = []
    _render(doc, 0, out)
    return "".join(out)


def _render(o, level: int, out: list[str]) -> None:
    if isinstance(o, np.ndarray):
        text = _matrix_text(o, level)
        if text is not None:
            out.append(text)
            return
        o = o.tolist()
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        text = _rows_text(o, level)
        if text is not None:
            out.append(text)
            return
        inner = "\n" + "  " * (level + 1)
        out.append("[" + inner)
        for i, item in enumerate(o):
            if i:
                out.append("," + inner)
            _render(item, level + 1, out)
        out.append("\n" + "  " * level + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = "\n" + "  " * (level + 1)
        out.append("{" + inner)
        for i, (key, value) in enumerate(sorted(o.items())):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                key = _scalar_text(key)
            if i:
                out.append("," + inner)
            out.append(_encode_str(key) + ": ")
            _render(value, level + 1, out)
        out.append("\n" + "  " * level + "}")
    else:
        out.append(_scalar_text(o))


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _scalar_text(o) -> str:
    # The type tests run in the order of json.encoder's _iterencode.
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _matrix_text(a: np.ndarray, level: int) -> str | None:
    """The text of a nonempty float64 array of shape (rows, cols, 2) with
    finite entries at indent ``level``, or None for any other array, which
    :func:`_render` then walks as its ``tolist()``: stdlib spells a
    non-finite float NaN or Infinity, not as its repr."""
    if (a.dtype != np.float64 or a.ndim != 3 or a.shape[2] != 2 or not a.size
            or not np.isfinite(a).all()):
        return None
    i0, i1, i2, i3 = ("\n" + "  " * (level + k) for k in range(4))
    # The text before each value: a row's first real part, any other real
    # part, an imaginary part; and the text after the last value.
    seps = [i2 + "]," + i2 + "[" + i3, "," + i3] * a.shape[1]
    seps[0] = i2 + "]" + i1 + "]," + i1 + "[" + i2 + "[" + i3
    seps *= a.shape[0]
    seps[0] = "[" + i1 + "[" + i2 + "[" + i3
    seps.append(i2 + "]" + i1 + "]" + i0 + "]")
    parts = [""] * (2 * len(seps) - 1)
    parts[0::2] = seps
    parts[1::2] = map(float.__repr__, a.ravel().tolist())
    return "".join(parts)


#: The renderer of each value type that :func:`_rows_text` writes itself.
_VALUE_TEXT = {float: float.__repr__, int: int.__repr__, str: _encode_str}


def _rows_text(rows: list, level: int) -> str | None:
    """The text of a nonempty list of nonempty flat dicts with str keys and
    values of exact type float, int or str at indent ``level``, or None for
    any other list, which :func:`_render` then walks. The rows' key sets
    may differ; the text before each value is built once per key set, and
    each value is rendered by a lookup on its type."""
    if (type(rows[0]) is not dict or set(map(type, rows)) != {dict} or not all(rows)
            or set(map(type, chain.from_iterable(rows))) != {str}
            or not set(map(type, chain.from_iterable(map(dict.values, rows))))
            <= _VALUE_TEXT.keys()):
        return None
    i0, i1, i2 = ("\n" + "  " * (level + k) for k in range(3))
    after = i1 + "},"  # closes a row that another row follows
    heads, seps, values = {}, [], []
    for row in rows:
        found = heads.get(tuple(row))  # by the keys in insertion order
        if found is None:
            keys = tuple(sorted(row))
            found = heads[tuple(row)] = keys, [
                ("," if j else after + i1 + "{") + i2 + _encode_str(key) + ": "
                for j, key in enumerate(keys)]
        seps += found[1]
        values += map(row.__getitem__, found[0])
    seps[0] = "[" + seps[0][len(after):]  # the first row follows no row
    texts = [_VALUE_TEXT[type(v)](v) for v in values]
    # a str's text is quoted, so only a float's text can be 'nan', 'inf' or
    # '-inf', which JSON spells NaN and Infinity
    if not {"nan", "inf", "-inf"}.isdisjoint(texts):
        texts = [_scalar_text(v) if "n" in text else text for v, text in zip(values, texts)]
    return "".join(chain.from_iterable(zip(seps, texts))) + i1 + "}" + i0 + "]"


def dump_json(doc: dict, path: str | Path) -> None:
    """Write a JSON document deterministically: :func:`render_json` and a newline."""
    try:
        Path(path).write_text(render_json(doc) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON or an integer of more digits than int()
        # converts; RecursionError: arrays or objects nested too deeply
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def write_rep_file(path: str | Path, rep: OrthoRep, unit: np.ndarray | None = None) -> None:
    dump_json(_rep_doc(rep, unit, encode_matrix), path)


@contextmanager
def _collector_paused():
    """Pause the cycle collector for the body, if it runs; a collector the
    caller turned off stays off. Reading a file builds a ``json.loads``
    tree of one list per row and per entry that is alive until the file is
    decoded and holds no reference cycle, so every pass in that window
    traverses it and frees nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def read_rep_file(path: str | Path) -> tuple[OrthoRep, np.ndarray | None]:
    # the parsed tree is released when rep_from_dict returns, inside the pause
    with _collector_paused():
        return rep_from_dict(load_json(path))
