import errno
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orthofermi.canonical import canonical
from orthofermi import cli, osusy, reptheory
from orthofermi.cli import EXIT_FAIL, EXIT_IO, EXIT_PASS, main
from orthofermi.linalg import max_abs
from orthofermi.reptheory import infer_unit, random_rep
from orthofermi.serialize import read_rep_file, rep_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


canonical_module = importlib.import_module("orthofermi.canonical")


def subprocess_env():
    """The environment of this process, with the package's ``src`` on the path."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path for path in paths if path)}


def canonical_file(tmp_path, capsys, p=2):
    path = tmp_path / "canonical.json"
    code, _ = run(capsys, "canonical", "--p", str(p), "--out", str(path))
    assert code == EXIT_PASS
    return path


# -- canonical ------------------------------------------------------------------

def test_canonical_writes_the_expected_matrices(tmp_path, capsys):
    path = canonical_file(tmp_path, capsys, p=2)
    rep, unit = read_rep_file(path)
    assert rep.p == 2 and rep.dim == 3
    e12 = np.zeros((3, 3)); e12[0, 1] = 1
    e13 = np.zeros((3, 3)); e13[0, 2] = 1
    assert np.array_equal(rep.dense()[0], e12)
    assert np.array_equal(rep.dense()[1], e13)
    assert np.array_equal(unit, np.eye(3))


def test_canonical_order_one(tmp_path, capsys):
    path = canonical_file(tmp_path, capsys, p=1)
    rep, _ = read_rep_file(path)
    assert rep.dim == 2 and rep.p == 1


def test_canonical_unwritable_path_is_io_failure(tmp_path, capsys):
    code, _ = run(capsys, "canonical", "--p", "2", "--out",
                  str(tmp_path / "missing-dir" / "rep.json"))
    assert code == EXIT_IO


# -- verify -----------------------------------------------------------------------

def test_verify_canonical_passes(tmp_path, capsys):
    path = canonical_file(tmp_path, capsys)
    code, doc = run_json(capsys, "verify", str(path))
    assert code == EXIT_PASS
    assert all(doc["verdicts"].values())
    assert all(v == 0.0 for v in doc["residuals"].values())


def test_verify_reports_injected_perturbation(tmp_path, capsys):
    path = canonical_file(tmp_path, capsys)
    doc = json.loads(path.read_text())
    doc["matrices"][0][2][2] = [1e-3, 0.0]
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "verify", str(path))
    assert code == EXIT_FAIL
    worst = max(report["residuals"].values())
    assert 5e-4 < worst < 5e-3


def test_verify_zero_rep_with_inferred_unit(tmp_path, capsys):
    path = tmp_path / "zero.json"
    zero = [[[0.0, 0.0]] * 3 for _ in range(3)]
    path.write_text(json.dumps({"schema_version": "orthofermion-rep/1", "p": 2,
                                "dim": 3, "matrices": [zero, zero]}))
    code, doc = run_json(capsys, "verify", str(path))
    assert code == EXIT_PASS
    assert doc["payload"]["unit"] == "inferred from relations"


def test_verify_malformed_file_is_parse_failure(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("]]]")
    code, _ = run(capsys, "verify", str(path))
    assert code == EXIT_IO

    nan_unit = rep_to_dict(canonical(2), np.eye(3))
    nan_unit["unit"][1][1] = [float("nan"), 0.0]
    path.write_text(json.dumps(nan_unit))
    code, _ = run(capsys, "verify", str(path))
    assert code == EXIT_IO


@pytest.mark.parametrize("content", [
    b"\xff\xfe{\x00}\x00", b"[" * 100_000, b"9" * 5000,
], ids=["not-utf8", "nested-too-deep", "integer-too-long"])
def test_unparseable_file_is_parse_failure(tmp_path, capsys, content):
    path = tmp_path / "rep.json"
    path.write_bytes(content)
    assert main(["verify", str(path)]) == EXIT_IO
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, p, dim", [
    ("verify", 0, 3), ("decompose", 0, 3), ("verify", True, 3), ("verify", 2.5, 3),
    ("verify", "2", 3), ("verify", 2, 3.0), ("decompose", 2, "3"),
], ids=["p-zero-verify", "p-zero-decompose", "p-bool", "p-float", "p-string",
        "dim-float", "dim-string"])
def test_rep_file_needs_positive_integer_order_and_dim(tmp_path, capsys, command, p, dim):
    # keeping int(p) matrices makes each file consistent under int() coercion,
    # so only the type or the range of p and dim is wrong
    doc = rep_to_dict(canonical(2))
    doc["p"], doc["dim"] = p, dim
    doc["matrices"] = doc["matrices"][:int(p)]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path)])
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["verify", "decompose"])
@pytest.mark.parametrize("doc", [[1, 2], "rep"], ids=["array", "string"])
def test_a_rep_file_that_holds_no_object_is_a_parse_failure(tmp_path, capsys, command, doc):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == EXIT_IO
    assert capsys.readouterr().err == "error: representation file must hold a JSON object\n"


@pytest.mark.parametrize("command", ["verify", "decompose"])
@pytest.mark.parametrize("field", ["p", "dim"])
@pytest.mark.parametrize("value", [2.0, True, "2"], ids=["float", "bool", "string"])
def test_a_rep_file_p_or_dim_of_another_json_type_is_a_parse_failure(tmp_path, capsys, command,
                                                                     field, value):
    doc = rep_to_dict(canonical(2))
    doc[field] = value
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == EXIT_IO
    p, dim = (value, 3) if field == "p" else (2, value)
    assert capsys.readouterr().err == \
        f"error: p and dim must be JSON integers, got {p!r} and {dim!r}\n"


# -- decompose ---------------------------------------------------------------------

def test_decompose_round_trip_through_files(tmp_path, capsys):
    rep_path = tmp_path / "scrambled.json"
    code, _ = run(capsys, "random-rep", "--p", "2", "--copies", "2", "--trivial", "2",
                  "--seed", "7", "--out", str(rep_path))
    assert code == EXIT_PASS
    code, doc = run_json(capsys, "decompose", str(rep_path))
    assert code == EXIT_PASS
    assert doc["payload"]["multiplicity"] == 2
    assert doc["payload"]["trivial_dim"] == 2


def test_decompose_canonical_and_zero(tmp_path, capsys):
    path = canonical_file(tmp_path, capsys)
    code, doc = run_json(capsys, "decompose", str(path))
    assert code == EXIT_PASS
    assert (doc["payload"]["multiplicity"], doc["payload"]["trivial_dim"]) == (1, 0)

    zero_path = tmp_path / "zero.json"
    zero = [[[0.0, 0.0]] * 5 for _ in range(5)]
    zero_path.write_text(json.dumps({"schema_version": "orthofermion-rep/1", "p": 1,
                                     "dim": 5, "matrices": [zero]}))
    code, doc = run_json(capsys, "decompose", str(zero_path))
    assert code == EXIT_PASS
    assert (doc["payload"]["multiplicity"], doc["payload"]["trivial_dim"]) == (0, 5)


def test_decompose_emits_basis(tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    run(capsys, "random-rep", "--p", "1", "--copies", "1", "--trivial", "1",
        "--seed", "4", "--out", str(rep_path))
    basis_path = tmp_path / "basis.json"
    code, _ = run(capsys, "decompose", str(rep_path), "--emit-basis", str(basis_path))
    assert code == EXIT_PASS
    doc = json.loads(basis_path.read_text())
    assert doc["schema_version"] == "orthofermion-basis/1"
    assert doc["dim"] == 3


def test_decompose_rejects_perturbed_input(tmp_path, capsys):
    path = canonical_file(tmp_path, capsys)
    doc = json.loads(path.read_text())
    doc["matrices"][0][2][2] = [1e-3, 0.0]
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "decompose", str(path))
    assert code == EXIT_FAIL


def test_decompose_checks_against_the_unit_in_the_file(tmp_path, capsys):
    # the canonical matrices are a representation for the unit I, not for 2 I
    path = tmp_path / "doubled-unit.json"
    path.write_text(json.dumps(rep_to_dict(canonical(2), 2 * np.eye(3))))
    assert run(capsys, "verify", str(path))[0] == EXIT_FAIL
    assert run(capsys, "decompose", str(path))[0] == EXIT_FAIL


def test_decompose_accepts_a_file_unit_off_on_the_trivial_block(tmp_path, capsys):
    # 4e-11 off where no copy reaches: every row of verify holds within tol at
    # n = 6, although sqrt(n) times that offset does not
    rep = random_rep(2, 2, 2, seed=3)
    unit = infer_unit(rep)
    outside = np.eye(rep.dim) - unit
    path = tmp_path / "shifted-unit.json"
    path.write_text(json.dumps(rep_to_dict(rep, unit + 4e-11 / max_abs(outside) * outside)))
    assert run(capsys, "verify", str(path))[0] == EXIT_PASS
    code, doc = run_json(capsys, "decompose", str(path))
    assert code == EXIT_PASS
    assert (doc["payload"]["multiplicity"], doc["payload"]["trivial_dim"]) == (2, 2)


def test_a_nudged_file_is_refused_at_the_certificate_and_split_at_a_looser_tol(tmp_path,
                                                                                capsys):
    # 1e-6 on one entry keeps every relation within --tol 1e-5. The vacua are
    # counted at the projector gap, so all 5 are found, but at 1e-5 the
    # certificate's norm bounds exceed tol; at 1e-4 the split is certified
    path = tmp_path / "nudged.json"
    run(capsys, "random-rep", "--p", "3", "--copies", "5", "--trivial", "2", "--seed", "4",
        "--out", str(path))
    doc = json.loads(path.read_text())
    doc["matrices"][0][3][5][0] += 1e-6
    path.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(path), "--tol", "1e-5")[0] == EXIT_PASS
    code = main(["decompose", str(path), "--tol", "1e-5"])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_FAIL, "")
    assert err == ("error: the split certifies the relations only within 5.607e-05 "
                   "> tol 1.000e-05\n")
    assert run(capsys, "verify", str(path), "--tol", "1e-4")[0] == EXIT_PASS
    code, doc = run_json(capsys, "decompose", str(path), "--tol", "1e-4")
    assert code == EXIT_PASS
    assert (doc["payload"]["multiplicity"], doc["payload"]["trivial_dim"]) == (5, 2)


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_an_overflowing_entry_fails_with_an_error_not_a_traceback(tmp_path, command):
    # 1e155 is finite, but its square overflows, so the inferred unit is NaN. In a
    # fresh process, numpy's overflow warnings do not meet this suite's warning filter.
    path = tmp_path / "overflow.json"
    c = [[[0.0, 0.0], [1e155, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path.write_text(json.dumps({"schema_version": "orthofermion-rep/1", "p": 1, "dim": 2,
                                "matrices": [c]}))
    out = subprocess.run([sys.executable, "-m", "orthofermi.cli", command, str(path)],
                         env=subprocess_env(), capture_output=True, text=True)
    assert out.returncode == EXIT_FAIL
    assert "Traceback" not in out.stderr
    assert any(line.startswith("error: ") for line in out.stderr.splitlines())


@pytest.mark.parametrize("command", ["verify", "decompose"])
@pytest.mark.parametrize("value", [True, 10**400], ids=["true", "400-digit-integer"])
def test_an_entry_that_is_no_json_number_is_a_parse_failure(tmp_path, command, value):
    # verify passed a file with true for 1.0, and a 400-digit integer ended
    # in an uncaught OverflowError; both are input errors
    doc = rep_to_dict(canonical(2), np.eye(3))
    doc["matrices"][0][0][1][0] = value
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    out = subprocess.run([sys.executable, "-m", "orthofermi.cli", command, str(path)],
                         env=subprocess_env(), capture_output=True, text=True)
    assert out.returncode == EXIT_IO
    assert out.stderr.startswith("error: matrix 1: ") and "Traceback" not in out.stderr


def test_the_decompose_path_reads_each_support_once(tmp_path, capsys, monkeypatch):
    # each command reads the support of its rep once, where the (p, n, n)
    # stack is made: random-rep where it draws the rep, verify and decompose
    # where they read the file; no kernel reads one
    reads = []
    read = canonical_module.held_rows

    def counted(c, *args, **kwargs):
        reads.append(np.shape(c))
        return read(c, *args, **kwargs)
    for module in (canonical_module, osusy, reptheory):
        if hasattr(module, "held_rows"):
            monkeypatch.setattr(module, "held_rows", counted)
    rep = tmp_path / "rep.json"
    found = {}
    for argv in (["random-rep", "--p", "3", "--copies", "5", "--trivial", "2", "--seed", "4",
                  "--out", str(rep)],
                 ["verify", str(rep), "--json"],
                 ["decompose", str(rep), "--emit-basis", str(tmp_path / "basis.json"), "--json"]):
        reads.clear()
        assert main(argv) == EXIT_PASS
        found[argv[0]] = list(reads)
    capsys.readouterr()
    # 5 copies of 4 states and a trivial block of 2
    stack = (3, 22, 22)
    assert found == {"random-rep": [stack], "verify": [stack], "decompose": [stack]}


# -- random-rep ----------------------------------------------------------------------

def test_random_rep_files_are_byte_identical_for_a_seed(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "random-rep", "--p", "2", "--copies", "3", "--trivial", "0",
        "--seed", "1", "--out", str(p1))
    run(capsys, "random-rep", "--p", "2", "--copies", "3", "--trivial", "0",
        "--seed", "1", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    rep, _ = read_rep_file(p1)
    assert rep.dim == 9


def test_random_rep_passes_verify(tmp_path, capsys):
    path = tmp_path / "rep.json"
    run(capsys, "random-rep", "--p", "3", "--copies", "2", "--trivial", "1",
        "--seed", "7", "--out", str(path))
    code, _ = run(capsys, "verify", str(path))
    assert code == EXIT_PASS


# -- osusy ---------------------------------------------------------------------------

def test_osusy_report_contents(tmp_path, capsys):
    code, doc = run_json(capsys, "osusy", "--p", "2", "--levels", "4")
    assert code == EXIT_PASS
    spectrum = doc["payload"]["spectrum"]
    assert [row["E"] for row in spectrum] == [0.0, 1.0, 2.0, 3.0]
    assert [row["dim"] for row in spectrum] == [3, 3, 3, 3]
    assert [row["copies"] for row in spectrum] == [0, 1, 1, 1]
    assert all(doc["verdicts"].values())


def test_osusy_every_positive_level_has_full_degeneracy(capsys):
    code, doc = run_json(capsys, "osusy", "--p", "3", "--levels", "3")
    assert code == EXIT_PASS
    assert doc["payload"]["dim"] == 12
    for row in doc["payload"]["spectrum"]:
        if row["E"] > 0:
            assert row["dim"] == 4


def test_osusy_order_one_notes_skipped_sum_rule(capsys):
    code, doc = run_json(capsys, "osusy", "--p", "1", "--levels", "2")
    assert code == EXIT_PASS
    assert any("sum rule omitted for p = 1" in note for note in doc["payload"]["notes"])
    assert not any("sum_k" in name for name in doc["residuals"])


def test_osusy_writes_system_file(tmp_path, capsys):
    out = tmp_path / "system.json"
    code, _ = run(capsys, "osusy", "--p", "1", "--levels", "2", "--out", str(out))
    assert code == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "orthofermion-osusy/1"
    assert doc["dim"] == 4
    assert len(doc["Q"]) == 1


# -- ladder --------------------------------------------------------------------------

def test_ladder_report_is_exact(capsys):
    code, doc = run_json(capsys, "ladder", "--p", "4")
    assert code == EXIT_PASS
    assert all(v == 0.0 for v in doc["residuals"].values())


def test_ladder_cyclic_matrix_is_a_permutation(capsys):
    code, doc = run_json(capsys, "ladder", "--p", "2")
    assert code == EXIT_PASS
    f = np.array(doc["payload"]["F"])[:, :, 0]
    assert np.array_equal(f, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))


def test_ladder_order_one_nilpotency(capsys):
    code, doc = run_json(capsys, "ladder", "--p", "1")
    assert code == EXIT_PASS
    assert doc["residuals"]["L^{p+1} = 0"] == 0.0



def test_ladder_builds_the_representation_and_lowering_operator_once(capsys, monkeypatch):
    module = sys.modules["orthofermi.canonical"]
    calls = {"canonical": 0, "lowering_from": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    code, _ = run_json(capsys, "ladder", "--p", "5")
    assert code == EXIT_PASS
    assert calls == {"canonical": 1, "lowering_from": 1}


# -- argument values -----------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["osusy", "--p", "0", "--levels", "3"],
    ["osusy", "--p", "2", "--levels", "1"],
    ["ladder", "--p", "0"],
    ["random-rep", "--p", "2", "--copies", "-1", "--trivial", "1", "--seed", "0"],
    ["random-rep", "--p", "2", "--copies", "0", "--trivial", "0", "--seed", "0"],
    ["random-rep", "--p", "2", "--copies", "1", "--trivial", "0", "--seed", "-1"],
    ["osusy", "--p", "2", "--levels", "3", "--tol", "nan"],
    ["osusy", "--p", "2", "--levels", "3", "--tol=-1e-10"],
    ["osusy", "--p", "2", "--levels", "3", "--tol", "inf"],
    ["osusy", "--p", "2", "--levels", "3", "--cluster-tol", "nan"],
    ["osusy", "--p", "2", "--levels", "3", "--cluster-tol", "-1"],
    ["osusy", "--p", "2", "--levels", "3", "--cluster-tol", "inf"],
    ["decompose", "{rep}", "--rank-tol", "nan"],
    ["decompose", "{rep}", "--rank-tol=-1e-8"],
    ["decompose", "{rep}", "--rank-tol", "1"],
    ["decompose", "{rep}", "--tol", "nan"],
    ["verify", "{rep}", "--tol", "-1"],
    ["ladder", "--p", "2", "--tol", "nan"],
    # each asks for more than one numpy array can address, so that the size is
    # refused before any array is made
    ["osusy", "--p", "2", "--levels", "1000000000000000000"],
    ["random-rep", "--p", "2", "--copies", "1000000000", "--trivial", "0", "--seed", "1"],
    ["osusy", "--p", "3", "--levels", "99999999999999999999"],
    ["osusy", "--p", "2", "--levels", "4611686018427387904"],
    ["osusy", "--p", "99999999999999999999", "--levels", "2"],
    ["random-rep", "--p", "99999999999999999999", "--copies", "1", "--trivial", "0",
     "--seed", "1"],
    ["random-rep", "--p", "2", "--copies", "99999999999999999999", "--trivial", "0",
     "--seed", "1"],
    ["random-rep", "--p", "2", "--copies", "1", "--trivial", "99999999999999999999",
     "--seed", "1"],
    ["ladder", "--p", "99999999999999999999"],
    ["canonical", "--p", "99999999999999999999"],
    # the (p+1) x (p+1) square fits, the (p, p+1, p+1) stack of annihilators does not
    ["ladder", "--p", "3000000"],
    ["canonical", "--p", "3000000"],
    # addressable, but petabytes at once, so that the request fails and nothing is allocated
    ["osusy", "--p", "2", "--levels", "10000000000000000"],
], ids=["osusy-p", "osusy-levels", "ladder-p", "random-rep-negative", "random-rep-empty",
        "random-rep-seed", "osusy-tol-nan", "osusy-tol-negative", "osusy-tol-inf",
        "osusy-cluster-tol-nan", "osusy-cluster-tol-negative", "osusy-cluster-tol-inf",
        "decompose-rank-tol-nan", "decompose-rank-tol-negative", "decompose-rank-tol-one",
        "decompose-tol-nan", "verify-tol-negative", "ladder-tol-nan", "osusy-levels-too-large",
        "random-rep-too-large", "osusy-levels-past-intp", "osusy-levels-past-bytes",
        "osusy-p-past-intp", "random-rep-p-past-intp", "random-rep-copies-past-intp",
        "random-rep-trivial-past-intp", "ladder-p-past-intp", "canonical-p-past-intp",
        "ladder-stack-past-intp", "canonical-stack-past-intp", "osusy-levels-beyond-memory"])
def test_invalid_argument_values_are_input_failures(tmp_path, capsys, request, argv):
    if argv[0] in ("random-rep", "canonical"):
        argv = argv + ["--out", str(tmp_path / "rep.json")]
    if "{rep}" in argv:
        # a readable file, so that only the option value can be at fault
        argv = [str(canonical_file(tmp_path, capsys)) if a == "{rep}" else a for a in argv]
        capsys.readouterr()
    removed = {"decompose": "--rank-tol", "ladder": "--tol"}.get(argv[0])
    at = [i for i, a in enumerate(argv) if a.partition("=")[0] == removed]
    if at:
        # decompose counts its ranks at the projector gap and takes no rank
        # threshold, and ladder's catalog is exact, so it takes no tolerance:
        # argparse refuses the option itself, with the same code
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_IO
        assert f"error: unrecognized arguments: {' '.join(argv[at[0]:])}\n" in (
            capsys.readouterr().err)
        return
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if request.node.callspec.id.endswith(("too-large", "past-intp")):
        assert "too large" in err, err


@pytest.mark.parametrize("argv", [
    ["osusy", "--p", "2", "--levels", "3", "--tol", "-1e-10"],
    ["osusy", "--p", "2", "--levels", "3", "--cluster-tol", "-1e-10"],
    ["osusy", "--p", "2", "--levels", "3", "--tol", "-1.5E+3"],
    ["osusy", "--p", "2", "--levels", "3", "--tol", "-inf"],
    ["decompose", "{rep}", "--tol", "-1e-8"],
], ids=["osusy-tol", "osusy-cluster-tol", "osusy-tol-upper-case", "osusy-tol-inf",
        "decompose-tol"])
def test_a_negative_value_after_a_space_reaches_the_range_check(tmp_path, capsys, argv):
    # argparse's own pattern takes "-1e-10" for an option and blames a missing value
    if "{rep}" in argv:
        argv = [str(canonical_file(tmp_path, capsys)) if a == "{rep}" else a for a in argv]
        capsys.readouterr()
    assert main(argv) == EXIT_IO
    assert "must be finite and >= 0" in capsys.readouterr().err


def test_a_positive_exponent_after_a_space_still_parses(capsys):
    code, doc = run_json(capsys, "osusy", "--p", "2", "--levels", "3", "--tol", "1e-10")
    assert code == EXIT_PASS
    assert doc["inputs"]["tol"] == 1e-10


def test_calls_in_one_process_reuse_the_parser_and_answer_as_fresh_ones(tmp_path, capsys):
    path = canonical_file(tmp_path, capsys, p=3)
    calls = [["osusy", "--p", "2", "--levels", "4", "--json"],
             ["osusy", "--p", "2", "--levels", "3", "--tol=-1"],
             ["ladder", "--p", "3"],
             ["verify", str(path), "--json"]]

    def answers(fresh):
        out = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            code = main(argv)
            out.append((code, *capsys.readouterr()))
        return out

    cli._parser.cache_clear()
    reused = answers(fresh=False)
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in reused] == [EXIT_PASS, EXIT_IO, EXIT_PASS, EXIT_PASS]
    assert reused == answers(fresh=True)


# -- report contract -------------------------------------------------------------------

class FailingStdout(io.StringIO):
    """A stdout with no file descriptor whose ``method`` raises ``error``."""

    def __init__(self, method, error):
        super().__init__()
        self.error = error
        setattr(self, method, self.fail)

    def fail(self, *args):
        raise self.error


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                   OSError(errno.ENOSPC, "No space left on device")],
                         ids=["broken-pipe", "device-full"])
@pytest.mark.parametrize("argv", [["ladder", "--p", "3", "--json"], ["osusy", "--p", "2",
                                                                     "--levels", "3"]])
def test_a_report_that_cannot_be_written_is_an_io_failure(capsys, monkeypatch, method, error,
                                                          argv):
    monkeypatch.setattr(sys, "stdout", FailingStdout(method, error))
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err == f"error: cannot write the report: {error}\n"


def test_a_failed_write_points_the_descriptor_of_stdout_at_the_null_device(tmp_path,
                                                                          monkeypatch):
    # whatever is left in stdout's buffer then goes there at interpreter
    # shutdown, so that flush cannot fail a second time
    with open(tmp_path / "out", "w") as kept:
        stdout = FailingStdout("write", BrokenPipeError(errno.EPIPE, "Broken pipe"))
        stdout.fileno = kept.fileno
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["ladder", "--p", "2", "--json"]) == EXIT_IO
        assert os.path.samestat(os.fstat(kept.fileno()), os.stat(os.devnull))


def test_a_closed_pipe_exits_2_with_no_traceback():
    # the reader takes 100 bytes of a 184 kB report and closes the pipe
    with subprocess.Popen([sys.executable, "-m", "orthofermi.cli", "ladder", "--p", "40",
                           "--json"], env=subprocess_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == EXIT_IO
    assert err == "error: cannot write the report: [Errno 32] Broken pipe\n"


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, "osusy", "--p", "2", "--levels", "3", "--json")
    _, second = run(capsys, "osusy", "--p", "2", "--levels", "3", "--json")
    assert first == second


def test_every_verdict_has_residual_and_tolerance(capsys):
    _, doc = run_json(capsys, "osusy", "--p", "2", "--levels", "4")
    for name in doc["verdicts"]:
        assert name in doc["residuals"]
        assert name in doc["tolerances"]


def test_table_and_json_come_from_the_same_report(tmp_path, capsys):
    path = canonical_file(tmp_path, capsys)
    code, table = run(capsys, "verify", str(path))
    assert code == EXIT_PASS
    assert "overall: PASS" in table
    code, doc = run_json(capsys, "verify", str(path))
    for name in doc["residuals"]:
        assert name in table


def test_importing_the_cli_loads_no_scipy():
    # the package declares numpy as its only dependency
    probe = ("import sys, orthofermi.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
