"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines alongside the pytest verdicts. Tolerances are pinned here and are not
meant to be tuned.
"""

import itertools
import json
from contextlib import contextmanager

import numpy as np

from orthofermi.algebra import alg_adjoint, alg_mul, basis, rho0
from orthofermi.canonical import canonical, ladder_identity_residuals
from orthofermi.cli import EXIT_FAIL, EXIT_IO, EXIT_PASS, main
from orthofermi.linalg import herm_eig, max_abs
from orthofermi.osusy import (build_generators, build_system, check_generators,
                              check_relations, closed_form_frac, closed_form_para,
                              eigenspace_reps, spectral)
from orthofermi.reptheory import decompose, random_rep, verify
from oracles import cluster_bases, dense, dense_generators

SEEDS = (1, 2, 3, 7, 11)


@contextmanager
def criterion(number, description):
    ok = True
    try:
        yield
    except BaseException:
        ok = False
        raise
    finally:
        print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {description}")


def test_criterion_1_canonical_relations_exact():
    with criterion(1, "canonical representation satisfies the relations exactly, p = 1..8"):
        for p in range(1, 9):
            residuals = verify(canonical(p), np.eye(p + 1, dtype=complex))
            assert all(v == 0.0 for v in residuals.values()), (p, residuals)


def test_criterion_2_coefficient_algebra_isomorphism():
    with criterion(2, "coefficient algebra maps isomorphically onto matrices, p = 1..3"):
        for p in (1, 2, 3):
            elements = basis(p)
            for x in elements:
                assert np.array_equal(rho0(alg_adjoint(x)), rho0(x).conj().T)
                for y in elements:
                    assert np.array_equal(rho0(alg_mul(x, y)), rho0(x) @ rho0(y))


def test_criterion_3_ladder_identities_exact():
    with criterion(3, "ladder identity catalog is exact, p = 1..8"):
        for p in range(1, 9):
            for name, value in ladder_identity_residuals(p).items():
                assert value == 0.0, (p, name, value)


def test_criterion_4_decomposition_round_trip():
    with criterion(4, "decomposition recovers scrambled direct sums on the full grid"):
        for p in range(1, 6):
            for copies, trivial in itertools.product(range(4), range(4)):
                if copies + trivial < 1:
                    continue
                for seed in SEEDS:
                    rep = random_rep(p, copies, trivial, seed)
                    dec = decompose(rep)
                    assert (dec.multiplicity, dec.trivial_dim) == (copies, trivial), \
                        (p, copies, trivial, seed)
                    assert dec.residuals["block"] < 1e-9
                    assert dec.residuals["unitarity"] < 1e-10


def test_criterion_5_orthosupersymmetry_relations():
    with criterion(5, "orthosupersymmetry relations on the truncated model, p = 1..4, levels = 2..8"):
        for p in range(1, 5):
            for levels in range(2, 9):
                sys_ = build_system(p, levels)
                residuals = check_relations(spectral(sys_))
                assert max(residuals.values()) < 1e-10, (p, levels, residuals)
                assert herm_eig(sys_.dense()[1]).values.min() >= -1e-12


def test_criterion_6_degeneracy_law():
    with criterion(6, "every positive level is (p+1)-fold degenerate with one canonical copy"):
        for p in range(1, 5):
            for levels in range(2, 9):
                sys_ = build_system(p, levels)
                spectrum = spectral(sys_, cluster_tol=1e-8)
                analyses = eigenspace_reps(spectrum)
                for analysis, mult, b in zip(analyses, spectrum.multiplicities,
                                             cluster_bases(spectrum)):
                    if analysis.energy > 0:
                        assert mult == p + 1, (p, levels, analysis.energy, mult)
                        assert analysis.copies == 1
                    else:
                        assert mult == 1 + p, (p, levels, mult)
                        stray = max(max_abs(b.conj().T @ q @ b) for q in sys_.dense()[0])
                        assert stray < 1e-12


def test_criterion_7_generator_identities():
    with criterion(7, "parasupersymmetry and fractional-supersymmetry identities, "
                      "p = 2..4, levels = 3..6"):
        for p in (2, 3, 4):
            for levels in range(3, 7):
                sys_ = build_system(p, levels)
                spectrum = spectral(sys_)
                analyses = eigenspace_reps(spectrum)
                gens = build_generators(spectrum)
                residuals = check_generators(gens)
                for name in ("para^{p+1} = 0",
                             "sum_k para^{p-k} para^dag para^k = 2p para^{p-1} H",
                             "frac^{p+1} = H",
                             "frac_direct^{p+1} = (2H)^p",
                             "[para, H] = 0",
                             "[frac, H] = 0"):
                    assert residuals[name] < 1e-8, (p, levels, name, residuals[name])


def test_criterion_8_closed_forms_match_spectral_assembly():
    with criterion(8, "charge closed forms agree entrywise with the spectral generators"):
        for p in (2, 3, 4):
            for levels in range(3, 7):
                sys_ = build_system(p, levels)
                spectrum = spectral(sys_)
                analyses = eigenspace_reps(spectrum)
                gens = build_generators(spectrum)
                para, frac, _ = dense_generators(gens)
                assert max_abs(dense(sys_.blocks, closed_form_para(spectrum)) - para) < 1e-9
                assert max_abs(dense(sys_.blocks, closed_form_frac(spectrum)) - frac) < 1e-9


def test_criterion_9_cli_contract(tmp_path, capsys):
    with criterion(9, "CLI: deterministic reports, exit codes 0/1/2 on pass, "
                      "perturbed and malformed inputs"):
        rep_path = tmp_path / "rep.json"
        assert main(["canonical", "--p", "2", "--out", str(rep_path)]) == EXIT_PASS
        capsys.readouterr()

        # determinism of machine-readable reports
        assert main(["verify", str(rep_path), "--json"]) == EXIT_PASS
        first = capsys.readouterr().out
        assert main(["verify", str(rep_path), "--json"]) == EXIT_PASS
        second = capsys.readouterr().out
        assert first == second

        # pass cases across the remaining commands
        scrambled = tmp_path / "scrambled.json"
        assert main(["random-rep", "--p", "2", "--copies", "1", "--trivial", "1",
                     "--seed", "5", "--out", str(scrambled)]) == EXIT_PASS
        assert main(["decompose", str(scrambled)]) == EXIT_PASS
        assert main(["osusy", "--p", "2", "--levels", "3"]) == EXIT_PASS
        assert main(["ladder", "--p", "3"]) == EXIT_PASS
        capsys.readouterr()

        # injected perturbation must flip the exit code to a math failure
        doc = json.loads(rep_path.read_text())
        doc["matrices"][0][2][2] = [1e-3, 0.0]
        bad_path = tmp_path / "perturbed.json"
        bad_path.write_text(json.dumps(doc))
        assert main(["verify", str(bad_path)]) == EXIT_FAIL
        capsys.readouterr()

        # malformed file must be reported as an I/O or parse failure
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{{{{")
        assert main(["verify", str(garbage)]) == EXIT_IO
        capsys.readouterr()
