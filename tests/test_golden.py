"""Replay a fixed set of CLI calls against the reports recorded in tests/golden/.

Every report must match its recording byte for byte, except residual values,
which may move by at most ``RESIDUAL_TOL``. The temporary directory a case
runs in is written as ``{tmp}`` in argv and in the recorded reports. The
files a case writes are recorded in tests/golden/written/ and must match byte
for byte too, except the float entries of a basis file, which come from an
SVD and may move by at most ``RESIDUAL_TOL`` like residuals. Every JSON report
and file must also be laid out exactly as ``json.dumps(doc, indent=2,
sort_keys=True)`` lays it out.

Re-record with ``PYTHONPATH=src python tests/test_golden.py``: it writes
only the recordings that are missing or that the test would reject, and a
JSON report it rewrites keeps each recorded residual that lies within
``RESIDUAL_TOL`` of the new value.
"""

import contextlib
import difflib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from orthofermi.cli import EXIT_PASS, main

GOLDEN = Path(__file__).parent / "golden"
WRITTEN = GOLDEN / "written"
RESIDUAL_TOL = 1e-14

# The residual column of a table report ('.4e'); tolerances print as '.1e'.
TABLE_RESIDUAL = re.compile(r"-?\d\.\d{4}e[+-]\d+")

# A float as float.__repr__ writes it: with a fraction, an exponent or both.
FLOAT = re.compile(r"-?\d+(?:\.\d+)?e[+-]\d+|-?\d+\.\d+")

SCRAMBLED = ["verify {tmp}/rep.json --json",
             "decompose {tmp}/rep.json --emit-basis {tmp}/basis.json --json"]

#: Each case runs its commands in order in one fresh directory.
CASES = {
    "ladder-p1": ["ladder --p 1 --json"],
    "ladder-p2": ["ladder --p 2 --json"],
    "ladder-p5": ["ladder --p 5 --json"],
    "ladder-p17": ["ladder --p 17 --json"],
    "ladder-p3-table": ["ladder --p 3"],
    "osusy-p1-l3": ["osusy --p 1 --levels 3 --json"],
    "osusy-p2-l5": ["osusy --p 2 --levels 5 --json"],
    "osusy-p3-l7": ["osusy --p 3 --levels 7 --json"],
    "osusy-p4-l20": ["osusy --p 4 --levels 20 --json"],
    "osusy-p12-l10": ["osusy --p 12 --levels 10 --json"],
    "osusy-p3-l80": ["osusy --p 3 --levels 80 --json"],
    "osusy-p2-l100": ["osusy --p 2 --levels 100 --json"],
    "osusy-p16-l8": ["osusy --p 16 --levels 8 --json"],
    "osusy-p2-l300": ["osusy --p 2 --levels 300 --json"],
    "osusy-p32-l10": ["osusy --p 32 --levels 10 --json"],
    "osusy-p64-l4": ["osusy --p 64 --levels 4 --json"],
    "osusy-p2-l5-table": ["osusy --p 2 --levels 5"],
    "osusy-p2-l3-out": ["osusy --p 2 --levels 3 --out {tmp}/sys.json --json"],
    "canonical-p3": ["canonical --p 3 --out {tmp}/rep.json --json"],
    "scrambled-trivial": ["random-rep --p 2 --copies 2 --trivial 1 --seed 7 "
                          "--out {tmp}/rep.json --json"] + SCRAMBLED,
    "scrambled-pure": ["random-rep --p 3 --copies 2 --trivial 0 --seed 11 "
                       "--out {tmp}/rep.json --json"] + SCRAMBLED,
    "scrambled-zero": ["random-rep --p 3 --copies 0 --trivial 5 --seed 1 "
                       "--out {tmp}/rep.json --json"] + SCRAMBLED,
}

#: The files each case writes into its directory, recorded after its reports.
WRITES = {
    "osusy-p2-l3-out": ["sys.json"],
    "canonical-p3": ["rep.json"],
    "scrambled-trivial": ["rep.json", "basis.json"],
    "scrambled-pure": ["rep.json", "basis.json"],
    "scrambled-zero": ["rep.json", "basis.json"],
}


def golden_path(case: str, command: str) -> Path:
    argv = command.split()
    return GOLDEN / f"{case}-{argv[0]}.{'json' if '--json' in argv else 'txt'}"


def run_case(case: str, tmp: Path, read_stdout):
    """Yield (recording path, normalized report) for each command of a case,
    then (recording path, text) for each file it wrote."""
    for command in CASES[case]:
        code = main(command.format(tmp=tmp).split())
        out = read_stdout()
        assert code == EXIT_PASS, (case, command)
        yield golden_path(case, command), out.replace(str(tmp), "{tmp}")
    for name in WRITES.get(case, []):
        yield WRITTEN / f"{case}-{name}", (tmp / name).read_text(encoding="utf-8")


def split_residuals(path: Path, text: str) -> tuple[str, list[str], list[float]]:
    """The text without the values that may move, their names, and the values.

    Those are the residuals of a report and the float entries of a basis file;
    nothing else of a written file may move.
    """
    if path.name.endswith("basis.json"):
        return FLOAT.sub("<float>", text), [], [float(v) for v in FLOAT.findall(text)]
    if path.parent == WRITTEN:
        return text, [], []
    if path.suffix == ".json":
        doc = json.loads(text)
        residuals = doc.pop("residuals")
        return json.dumps(doc, indent=2, sort_keys=True), list(residuals), list(residuals.values())
    values = [float(v) for v in TABLE_RESIDUAL.findall(text)]
    return TABLE_RESIDUAL.sub("<residual>", text), [], values


def mismatch(path: Path, out: str) -> str | None:
    """Why ``out`` fails the recording at ``path``, or None when it passes."""
    if path.suffix == ".json" and out != json.dumps(json.loads(out), indent=2,
                                                    sort_keys=True) + "\n":
        return "not laid out as json.dumps(doc, indent=2, sort_keys=True)"
    if not path.exists():
        return "no recording"
    expected = split_residuals(path, path.read_text(encoding="utf-8"))
    got = split_residuals(path, out)
    if got[0] != expected[0]:
        return "\n".join(difflib.unified_diff(expected[0].splitlines(), got[0].splitlines(),
                                              "recorded", "got", lineterm=""))
    if got[1] != expected[1]:
        return f"residual names {got[1]} != recorded {expected[1]}"
    if len(got[2]) != len(expected[2]):
        return f"{len(got[2])} values != {len(expected[2])} recorded"
    for i, (new, old) in enumerate(zip(got[2], expected[2])):
        if abs(new - old) > RESIDUAL_TOL:
            return f"value {i} moved from {old!r} to {new!r}"
    return None


def keep_drifted(recorded: str, out: str) -> str:
    """The JSON report ``out`` with each residual that lies within
    ``RESIDUAL_TOL`` of its value in the report ``recorded`` set back to that
    value; the rest, the fields and the residual names, are those of ``out``."""
    old, doc = json.loads(recorded)["residuals"], json.loads(out)
    doc["residuals"] = {name: old[name] if name in old and abs(value - old[name]) <= RESIDUAL_TOL
                        else value for name, value in doc["residuals"].items()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_re_recording_keeps_the_residuals_that_drifted_within_tolerance():
    def report(residuals, payload):
        return json.dumps({"command": "ladder", "residuals": residuals, "payload": payload},
                          indent=2, sort_keys=True) + "\n"

    recorded = report({"drifted": 1e-15, "moved": 1e-15, "removed": 0.0}, {"gone": 1})
    out = report({"drifted": 8e-15, "moved": 2e-14, "added": 0.5}, {})
    assert keep_drifted(recorded, out) == report({"drifted": 1e-15, "moved": 2e-14, "added": 0.5}, {})
    for path in GOLDEN.glob("*.json"):
        text = path.read_text(encoding="utf-8")
        assert keep_drifted(text, text) == text, path.name


@pytest.mark.parametrize("case", CASES)
def test_reports_match_the_recording(case, tmp_path, capsys):
    for path, out in run_case(case, tmp_path, lambda: capsys.readouterr().out):
        problem = mismatch(path, out)
        assert problem is None, f"{path.name}: {problem}"


def record() -> None:
    WRITTEN.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()

    def read_stdout() -> str:
        out = buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()
        return out

    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buffer):
            reports = list(run_case(case, Path(tmp), read_stdout))
        for path, out in reports:
            problem = mismatch(path, out)
            if problem is not None:
                if path.suffix == ".json" and path.parent != WRITTEN and path.exists():
                    out = keep_drifted(path.read_text(encoding="utf-8"), out)
                path.write_text(out, encoding="utf-8")
                print(f"recorded {path} ({problem.splitlines()[0]})", file=sys.stderr)


if __name__ == "__main__":
    record()
