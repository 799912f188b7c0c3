"""Command-line front end with deterministic table and JSON reports.

Commands: ``canonical``, ``verify``, ``decompose``, ``random-rep``,
``osusy``, ``ladder``. Every command builds one :class:`Report`; pass
``--json`` for the machine-readable form. Exit codes: 0 all checks pass,
1 a mathematical check failed, 2 an input could not be read or parsed.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import osusy as osy
from . import reptheory as rt
from . import serialize as ser
from .canonical import canonical, ladder_F, ladder_L, ladder_identity_residuals
from .errors import DimensionError, IoError, OrderError, OrthofermiError, ParseError, TruncationError
from .linalg import DEFAULT_RANK_TOL, DEFAULT_TOL

REPORT_SCHEMA = "orthofermion-report/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_IO = 2

#: Errors that only unreadable files or invalid argument values can cause.
INPUT_ERRORS = (ParseError, IoError, OrderError, TruncationError, DimensionError)

#: Options whose value must be finite and >= 0, by argparse destination: a
#: NaN, negative or infinite tolerance would turn every verdict into a
#: mathematical failure, and numpy refuses a negative seed.
NONNEGATIVE = ("tol", "rank_tol", "cluster_tol", "seed")

#: A negative number as ``float`` reads it. argparse's own pattern misses the
#: exponent form, so ``--tol -1e-10`` failed as a missing value before the
#: range check could name it.
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
                             re.IGNORECASE)


@dataclass
class Report:
    """Residuals, verdicts and payload of one command invocation."""

    command: str
    inputs: dict
    residuals: dict[str, float] = field(default_factory=dict)
    tolerances: dict[str, float] = field(default_factory=dict)
    payload: dict = field(default_factory=dict)

    @property
    def verdicts(self) -> dict[str, bool]:
        return {name: self.residuals[name] <= self.tolerances[name] for name in self.residuals}

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())

    def add(self, name: str, residual: float, tol: float) -> None:
        self.residuals[name] = float(residual)
        self.tolerances[name] = float(tol)

    def to_json(self) -> str:
        doc = {
            "schema_version": REPORT_SCHEMA,
            "command": self.command,
            "inputs": self.inputs,
            "residuals": self.residuals,
            "tolerances": self.tolerances,
            "verdicts": self.verdicts,
            "payload": self.payload,
        }
        return ser.render_json(doc)

    def to_table(self) -> str:
        lines = [f"command: {self.command}"]
        if self.inputs:
            lines.append("inputs:  " + "  ".join(f"{k}={v}" for k, v in sorted(self.inputs.items())))
        if self.residuals:
            width = max(len(name) for name in self.residuals)
            lines.append("")
            lines.append(f"{'check':<{width}}  {'residual':>12}  {'tolerance':>10}  verdict")
            for name, value in self.residuals.items():
                verdict = "pass" if value <= self.tolerances[name] else "FAIL"
                lines.append(f"{name:<{width}}  {value:>12.4e}  {self.tolerances[name]:>10.1e}  {verdict}")
        for key, value in self.payload.items():
            lines.append("")
            lines.append(f"{key}:")
            lines.append(_render_payload(value))
        lines.append("")
        lines.append(f"overall: {'PASS' if self.all_pass else 'FAIL'}")
        return "\n".join(lines)


def _render_payload(value) -> str:
    if isinstance(value, list) and value and isinstance(value[0], dict):
        rows = ["  " + "  ".join(f"{k}={v}" for k, v in row.items()) for row in value]
        return "\n".join(rows)
    if isinstance(value, list) and value and isinstance(value[0], list):
        return "\n".join("  " + "  ".join(_fmt_entry(z) for z in row) for row in value)
    if isinstance(value, list):
        return "\n".join(f"  {item}" for item in value)
    return f"  {value}"


def _fmt_entry(z) -> str:
    # [re, im] pair from encode_matrix
    re, im = z
    if im == 0 and float(re).is_integer():
        return f"{int(re):3d}"
    return f"{complex(re, im):.3g}"


# -- commands ----------------------------------------------------------------


def cmd_canonical(args) -> Report:
    rep = canonical(args.p)
    ser.write_rep_file(args.out, rep, np.eye(rep.dim, dtype=complex))
    report = Report("canonical", {"p": args.p, "out": str(args.out)})
    report.payload["written"] = str(args.out)
    report.payload["dim"] = rep.dim
    return report


def cmd_verify(args) -> Report:
    rep, unit = ser.read_rep_file(args.input)
    residuals = rt.verify(rep, unit, args.tol)
    report = Report("verify", {"input": str(args.input), "tol": args.tol})
    for name, value in residuals.items():
        report.add(name, value, args.tol)
    report.payload["p"] = rep.p
    report.payload["dim"] = rep.dim
    report.payload["unit"] = "from file" if unit is not None else "inferred from relations"
    return report


def cmd_decompose(args) -> Report:
    rep, unit = ser.read_rep_file(args.input)
    dec = rt.decompose(rep, args.tol, args.rank_tol, unit=unit)
    report = Report("decompose", {"input": str(args.input), "tol": args.tol,
                                  "rank_tol": args.rank_tol})
    for name, value in dec.residuals.items():
        report.add(name, value, 10.0 * args.tol)
    report.payload["multiplicity"] = dec.multiplicity
    report.payload["trivial_dim"] = dec.trivial_dim
    report.payload["dim"] = rep.dim
    if args.emit_basis:
        ser.dump_json({"schema_version": ser.BASIS_SCHEMA, "dim": rep.dim,
                       "matrix": ser.encode_matrix(dec.basis)}, args.emit_basis)
        report.payload["basis_written"] = str(args.emit_basis)
    return report


def cmd_random_rep(args) -> Report:
    rep = rt.random_rep(args.p, args.copies, args.trivial, args.seed)
    unit = rt.infer_unit(rep)
    ser.write_rep_file(args.out, rep, unit)
    report = Report("random-rep", {"p": args.p, "copies": args.copies,
                                   "trivial": args.trivial, "seed": args.seed,
                                   "out": str(args.out)})
    report.payload["written"] = str(args.out)
    report.payload["dim"] = rep.dim
    return report


def cmd_osusy(args) -> Report:
    sys_ = osy.build_system(args.p, args.levels)
    report = Report("osusy", {"p": args.p, "levels": args.levels,
                              "tol": args.tol, "cluster_tol": args.cluster_tol})
    spectrum = osy.spectral(sys_, args.cluster_tol)
    for name, value in osy.check_relations(spectrum).items():
        report.add(name, value, args.tol)

    analyses = osy.eigenspace_reps(spectrum, args.tol)
    gens = osy.build_generators(spectrum)
    for name, value in osy.check_generators(gens).items():
        tol = osy.CLOSED_FORM_TOL if "closed form" in name else osy.DEFAULT_GENERATOR_TOL
        report.add(name, value, tol)

    table = []
    for analysis, mult in zip(analyses, spectrum.multiplicities):
        row = {"E": round(analysis.energy, 12), "dim": mult, "copies": analysis.copies}
        if analysis.energy <= 0.0:
            row["note"] = f"1 vacuum + {sys_.p} truncation-boundary states"
        table.append(row)
    report.payload["spectrum"] = table
    report.payload["dim"] = sys_.dim
    notes = ["generator sum rule uses the standard normalization "
             "sum_k Q^{p-k} Q^dag Q^k = 2p Q^{p-1} H"]
    if sys_.p == 1:
        notes.append("sum rule omitted for p = 1: its right-hand side contains the "
                     "zeroth power of the generator; checked for p >= 2 only")
    report.payload["notes"] = notes
    if args.out:
        Q, H = sys_.dense()
        ser.dump_json({"schema_version": ser.SYSTEM_SCHEMA, "p": sys_.p,
                       "levels": args.levels, "dim": sys_.dim,
                       "Q": [ser.encode_matrix(q) for q in Q],
                       "H": ser.encode_matrix(H)}, args.out)
        report.payload["system_written"] = str(args.out)
    return report


def cmd_ladder(args) -> Report:
    report = Report("ladder", {"p": args.p, "tol": args.tol})
    for name, value in ladder_identity_residuals(args.p).items():
        report.add(name, value, args.tol)
    report.payload["L"] = ser.encode_matrix(ladder_L(args.p))
    report.payload["F"] = ser.encode_matrix(ladder_F(args.p))
    return report


# -- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Parser, subparsers included, that reads every :data:`NEGATIVE_NUMBER`
    as a value, never as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orthofermi",
        description="Orthofermion algebra toolkit: canonical representation, "
                    "decomposition, ladder operators and the orthosupersymmetric "
                    "oscillator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=True):
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                           help=f"residual tolerance (default {DEFAULT_TOL:g})")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")

    p = sub.add_parser("canonical", help="write the canonical representation to a file")
    p.add_argument("--p", type=int, required=True, help="orthofermion order")
    p.add_argument("--out", required=True, help="output representation file")
    common(p, tol=False)
    p.set_defaults(func="cmd_canonical")

    p = sub.add_parser("verify", help="check the orthofermion relations of a representation file")
    p.add_argument("input", help="representation file")
    common(p)
    p.set_defaults(func="cmd_verify")

    p = sub.add_parser("decompose", help="split a representation into canonical copies "
                                         "plus a trivial block")
    p.add_argument("input", help="representation file")
    p.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL,
                   help=f"relative rank threshold (default {DEFAULT_RANK_TOL:g})")
    p.add_argument("--emit-basis", metavar="PATH", default=None,
                   help="also write the block-diagonalizing unitary")
    common(p)
    p.set_defaults(func="cmd_decompose")

    p = sub.add_parser("random-rep", help="write a scrambled direct-sum test instance")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--copies", type=int, required=True, help="number of canonical blocks")
    p.add_argument("--trivial", type=int, required=True, help="dimension of the zero block")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output representation file")
    common(p, tol=False)
    p.set_defaults(func="cmd_random_rep")

    p = sub.add_parser("osusy", help="build the truncated oscillator model and run the "
                                     "full identity suite")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--levels", type=int, required=True, help="boson truncation (>= 2)")
    p.add_argument("--cluster-tol", type=float, default=osy.DEFAULT_CLUSTER_TOL,
                   help=f"relative eigenvalue clustering tolerance "
                        f"(default {osy.DEFAULT_CLUSTER_TOL:g})")
    p.add_argument("--out", default=None, help="optionally write the system matrices")
    common(p)
    p.set_defaults(func="cmd_osusy")

    p = sub.add_parser("ladder", help="print the ladder operators and their identity residuals")
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(func="cmd_ladder")

    return parser


def _check_ranges(args) -> None:
    """Raise :class:`ParseError` for a :data:`NONNEGATIVE` option out of range."""
    for name in NONNEGATIVE:
        value = getattr(args, name, None)
        if value is not None and not 0 <= value < math.inf:
            raise ParseError(f"--{name.replace('_', '-')} must be finite and >= 0, got {value!r}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use and then reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_ranges(args)
        # by name, so that the command runs whatever the module binds at call time
        report = globals()[args.func](args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OrthofermiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(report.to_json() if args.json else report.to_table())
    return EXIT_PASS if report.all_pass else EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
