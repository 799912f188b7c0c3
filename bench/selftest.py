"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that
  1. every metric named in BENCHMARK.json is printed with its unit, by every
     workload, and no other metric is; every per-layer metric is non-zero on
     some workload, so each wrapped layer is reached;
  2. a deliberately wrong expectation counts as a failed op;
  3. another seed changes the decompose-scrambled instances and nothing else;
  4. the exact counters repeat across two traced runs with the same seed;
  5. without the package source the benchmark exits non-zero with no result.
Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SEED = 424242

sys.path.insert(0, str(HERE))
import run  # noqa: E402  (run.py sits next to this file)


def bench(*args: str, cwd: Path = ROOT, script: Path = RUN) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def result(workload: str, trace: int, seed: int = SEED) -> dict:
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                 "--trace", str(trace), "--tiny")
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict, names) -> list[str]:
    problems = []
    reached: set[str] = set()
    for workload in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = result(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: units {got} != {want}")
            if not all(isinstance(m["value"], (int, float)) for m in out["metrics"].values()):
                problems.append(f"{workload} trace {trace}: a value is not a number")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {out['attempted']} attempted, "
                                f"{out['failed']} failed, correct {out['correct']}")
            reached |= {name for name, m in out["metrics"].items() if m["value"] != 0}
    idle = [m["name"] for m in spec["per_layer"] if m["name"] not in reached]
    if idle:
        problems.append(f"no workload reaches {idle}")
    return problems


def check_wrong_expectation(workloads, call) -> list[str]:
    problems = []
    for wl in workloads.values():
        op = next(wl.rounds(SEED, tiny=True))[0]
        key = next(iter(op.expect))
        wrong = dataclasses.replace(op, expect={**op.expect, key: "deliberately wrong"})
        tally = run.Tally()
        tally.run([op, wrong], call)
        if tally.attempted != 2 or len(tally.failures) != 1 or str(wrong) not in tally.failures[0]:
            problems.append(f"{wl.name}: {tally.attempted} attempted, failures {tally.failures}")
    return problems


def first_rounds(wl, seed: int) -> list:
    rounds = wl.rounds(seed, tiny=False)
    return [next(rounds) for _ in range(4)]


def check_seeds(workloads) -> list[str]:
    problems = []
    for wl in workloads.values():
        one, two = first_rounds(wl, 1), first_rounds(wl, 2)
        if first_rounds(wl, 1) != one:
            problems.append(f"{wl.name}: the same seed gave other inputs")
        same = all(sorted(map(repr, x)) == sorted(map(repr, y)) for x, y in zip(one, two))
        if same == (wl.name == "decompose-scrambled"):
            problems.append(f"{wl.name}: another seed {'kept' if same else 'changed'} the inputs")
    return problems


def check_counters(names) -> list[str]:
    problems = []
    for workload in names:
        runs = [result(workload, 1) for _ in range(2)]
        counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"
                   and not k.startswith("trace.")} for r in runs]
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1].get(k)) for k in counts[0]
                    if counts[0][k] != counts[1].get(k)}
            problems.append(f"{workload}: counters differ between runs: {diff}")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = bench("--workload", "osusy-wide", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare, script=bare / HERE.name / RUN.name)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if run.load_package() is not None:
        print("FAIL cannot import orthofermi from the checkout")
        return 1
    from workloads import WORKLOADS, Call

    if sorted(names) != sorted(WORKLOADS):
        print(f"FAIL BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
        return 1
    work = ROOT / ".bench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        checks = [
            ("every named metric printed with its unit", lambda: check_metrics(spec, names)),
            ("a wrong expectation counts as a failure",
             lambda: check_wrong_expectation(WORKLOADS, Call(work))),
            ("another seed changes decompose-scrambled inputs only",
             lambda: check_seeds(WORKLOADS)),
            ("exact counters repeat across traced runs", lambda: check_counters(names)),
            ("no package source: non-zero exit, no result", check_bare_directory),
        ]
        failed = 0
        for title, check in checks:
            problems = check()
            failed += bool(problems)
            print(f"{'FAIL' if problems else 'PASS'} {title}")
            for problem in problems:
                print(f"     {problem}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
