"""Workloads of the orthofermi benchmark: seeded op streams and their checks.

An op is one or more in-process calls to ``orthofermi.cli.main(argv)`` with
stdout captured, followed by a correctness check. Each op class returns
*observations* from the reports it read and states the *expected* values; an
op fails when they differ, when a call exits non-zero or when it raises
(:meth:`Call.check`).

The seed makes the inputs: for ``decompose-scrambled`` it draws the
instances, for every other workload it only shuffles the order of a fixed set
of configurations within each round.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from orthofermi import algebra, cli

#: Algebra orders checked exhaustively inside every ``ladder-catalog`` op.
ALGEBRA_ORDERS = (3, 4, 5)

#: decompose-scrambled sizes each instance so that (p+1) * dim^2, the number
#: of matrix entries the three calls write and read, is about this constant:
#: serialization dominates an op, so op cost hardly depends on the drawn p.
#: p = 2 gives dim 95, p = 12 gives dim 46.
SCRAMBLED_ENTRIES = 27_000
TINY_SCRAMBLED_ENTRIES = 300


class Call:
    """Runs ``cli.main`` in process and parses its JSON report.

    ``report_bytes`` adds up the size of every captured report, which the
    traced run turns into the ``cli.report.bytes`` counter.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.report_bytes = 0

    def __call__(self, argv: list[str]) -> tuple[int, dict | None]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
        text = out.getvalue()
        self.report_bytes += len(text.encode())
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        return code, doc

    def check(self, op) -> str | None:
        """Run one op; return None when it passes, else why it failed."""
        try:
            seen = op.observe(self)
        except Exception as exc:  # any crash of an op is a counted failure, not a stop
            return f"{type(exc).__name__}: {exc}"
        wrong = {k: seen.get(k) for k, v in op.expect.items() if seen.get(k) != v}
        return f"unexpected {wrong}" if wrong else None


def _all_verdicts(*docs) -> bool:
    return all(doc is not None and all(doc["verdicts"].values()) for doc in docs)


@dataclass(frozen=True)
class Osusy:
    """``osusy --p P --levels N --json``: relations, degeneracy law, generators."""

    p: int
    levels: int
    expect: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.expect is None:
            object.__setattr__(self, "expect", {
                "exit": [0], "verdicts": True, "levels": self.levels,
                "positive (dim, copies)": [[self.p + 1, 1]], "E = 0 dim": [1 + self.p]})

    def observe(self, call: Call) -> dict:
        code, doc = call(["osusy", "--p", str(self.p), "--levels", str(self.levels), "--json"])
        spectrum = doc["payload"]["spectrum"]
        positive = sorted({(row["dim"], row["copies"]) for row in spectrum if row["E"] > 0})
        return {"exit": [code], "verdicts": _all_verdicts(doc), "levels": len(spectrum),
                "positive (dim, copies)": [list(pair) for pair in positive],
                "E = 0 dim": [row["dim"] for row in spectrum if row["E"] <= 0]}


@dataclass(frozen=True)
class Scrambled:
    """``random-rep`` (write), ``verify`` (read), ``decompose --emit-basis``."""

    p: int
    copies: int
    trivial: int
    seed: int
    expect: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.expect is None:
            object.__setattr__(self, "expect", {
                "exit": [0, 0, 0], "verdicts": True,
                "multiplicity": self.copies, "trivial_dim": self.trivial})

    def observe(self, call: Call) -> dict:
        rep = str(call.workdir / "rep.json")
        basis = str(call.workdir / "basis.json")
        made, _ = call(["random-rep", "--p", str(self.p), "--copies", str(self.copies),
                        "--trivial", str(self.trivial), "--seed", str(self.seed),
                        "--out", rep, "--json"])
        checked, verified = call(["verify", rep, "--json"])
        split, dec = call(["decompose", rep, "--emit-basis", basis, "--json"])
        return {"exit": [made, checked, split], "verdicts": _all_verdicts(verified, dec),
                "multiplicity": dec["payload"]["multiplicity"],
                "trivial_dim": dec["payload"]["trivial_dim"]}


def inexact_products(p: int) -> int:
    """Pairs (x, y) of ``basis(p)`` with ``rho0(x*y) != rho0(x) @ rho0(y)``."""
    elements = algebra.basis(p)
    return sum(not np.array_equal(algebra.rho0(x * y), algebra.rho0(x) @ algebra.rho0(y))
               for x in elements for y in elements)


@dataclass(frozen=True)
class Ladder:
    """``ladder --p P --json`` plus the exhaustive rho0 product check."""

    p: int
    algebra_orders: tuple[int, ...] = ALGEBRA_ORDERS
    expect: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.expect is None:
            object.__setattr__(self, "expect", {
                "exit": [0], "verdicts": True, "nonzero residuals": [],
                "inexact products": 0})

    def observe(self, call: Call) -> dict:
        code, doc = call(["ladder", "--p", str(self.p), "--json"])
        return {"exit": [code], "verdicts": _all_verdicts(doc),
                "nonzero residuals": sorted(k for k, v in doc["residuals"].items() if v != 0.0),
                "inexact products": sum(inexact_products(q) for q in self.algebra_orders)}


# -- workloads -----------------------------------------------------------------


def scrambled_triple(rng: np.random.Generator, entries: int) -> list[Scrambled]:
    """Three seeded decompose instances, exactly one of them with trivial = 0.

    p is uniform in 2..12 and dim is about sqrt(entries / (p+1)); the split of
    dim into canonical copies and a trivial block is drawn as well.
    """
    exact = int(rng.integers(3))
    out = []
    for slot in range(3):
        p = int(rng.integers(2, 13))
        target = round(math.sqrt(entries / (p + 1)))
        most = max(1, target // (p + 1))
        if slot == exact:
            copies, trivial = max(1, round(target / (p + 1))), 0
        else:
            copies = int(rng.integers((most + 1) // 2, most + 1))
            trivial = max(1, target - copies * (p + 1))
        out.append(Scrambled(p, copies, trivial, int(rng.integers(2**31))))
    return out


@dataclass(frozen=True)
class Workload:
    """A named, seeded stream of op rounds.

    A round is one seeded permutation of ``configs``, or for
    ``decompose-scrambled`` three fresh instances. Runs stop only at the end
    of a round, so every configuration is timed equally often.
    """

    name: str
    configs: tuple = ()
    tiny_configs: tuple = ()

    def rounds(self, seed: int, tiny: bool = False):
        """Endless iterator over the rounds that ``seed`` makes."""
        rng = np.random.default_rng(seed)
        configs = self.tiny_configs if tiny else self.configs
        while True:
            if not configs:
                yield scrambled_triple(rng, TINY_SCRAMBLED_ENTRIES if tiny else SCRAMBLED_ENTRIES)
            else:
                yield [configs[i] for i in rng.permutation(len(configs))]


# Each two-configuration workload of the design gains a middle-cost third
# configuration: with two clusters of op latency the median would fall in the
# gap between them and jump from run to run.
WORKLOADS = {w.name: w for w in [
    Workload("osusy-wide", (Osusy(12, 10), Osusy(14, 9), Osusy(16, 8)),
             (Osusy(2, 3), Osusy(3, 3), Osusy(4, 2))),
    Workload("osusy-deep", (Osusy(2, 100), Osusy(2, 105), Osusy(3, 80)),
             (Osusy(2, 4), Osusy(2, 5), Osusy(3, 3))),
    Workload("decompose-scrambled"),
    Workload("ladder-catalog", tuple(Ladder(p) for p in (8, 16, 24, 32, 40)),
             tuple(Ladder(p, (1, 2)) for p in (1, 2, 3, 4, 5))),
]}
