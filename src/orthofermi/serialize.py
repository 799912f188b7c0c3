"""JSON serialization of representations and related matrices.

Complex entries are stored as two-element [re, im] arrays in row-major
nested lists, which round-trips float64 values losslessly through JSON.
Representation files carry a ``schema_version`` tag so the layout can
evolve without silent misreads.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import IoError, ParseError
from .canonical import OrthoRep

REP_SCHEMA = "orthofermion-rep/1"
BASIS_SCHEMA = "orthofermion-basis/1"
SYSTEM_SCHEMA = "orthofermion-osusy/1"


def encode_matrix(m: np.ndarray) -> list:
    """Nested-list encoding with [re, im] entry pairs, row major."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def decode_matrix(data, rows: int, cols: int, what: str) -> np.ndarray:
    """Inverse of :func:`encode_matrix`, validating the expected shape."""
    try:
        m = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: entries are not numeric") from exc
    if m.shape != (rows, cols, 2):
        raise ParseError(f"{what}: expected shape {rows}x{cols} of [re, im] pairs, got {m.shape}")
    if not np.isfinite(m).all():
        raise ParseError(f"{what}: entries must be finite")
    return m[..., 0] + 1j * m[..., 1]


def rep_to_dict(rep: OrthoRep, unit: np.ndarray | None = None) -> dict:
    doc = {
        "schema_version": REP_SCHEMA,
        "p": rep.p,
        "dim": rep.dim,
        "matrices": [encode_matrix(m) for m in rep.c],
    }
    if unit is not None:
        doc["unit"] = encode_matrix(unit)
    return doc


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
        rep = OrthoRep(p=p, dim=dim, c=mats)
    except Exception as exc:
        raise ParseError(str(exc)) from exc
    return rep, unit


def dump_json(doc: dict, path: str | Path) -> None:
    """Write a JSON document deterministically (sorted keys, fixed layout)."""
    try:
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def write_rep_file(path: str | Path, rep: OrthoRep, unit: np.ndarray | None = None) -> None:
    dump_json(rep_to_dict(rep, unit), path)


def read_rep_file(path: str | Path) -> tuple[OrthoRep, np.ndarray | None]:
    return rep_from_dict(load_json(path))
