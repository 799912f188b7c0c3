"""orthofermi benchmark: time to a verified verdict, through the public CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload osusy-wide --seed 1 --seconds 25 --trace 0

One op is one in-process call of ``orthofermi.cli.main(argv)`` with stdout
captured (three calls for ``decompose-scrambled``), checked for correctness.
The load is a closed loop with one client in one process, BLAS pinned to one
thread through this process's environment. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run and
the tracing overhead. Times are calibrated against a reference kernel (see
:class:`Reference` and ``bench/NOTES.md``). The last line of stdout is the result as one JSON
object; the lines before it show the metrics, the environment and where the
full record was written (``.bench_results/``). Without ``src/orthofermi`` in
the checkout the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_PROBES = 9

#: Minimum number of samples beyond the percentile reported as ``op_s.tail``.
TAIL_BEYOND = 10

#: Nominal time of the reference kernel. A calibrated time is the measured
#: time x REFERENCE_S / (the kernel's time measured just before and after it).
REFERENCE_S = 0.01

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
}

# Times and counts are per op, from the traced rounds.
PER_LAYER = {
    "osusy.check_relations.s": "s",
    "osusy.check_generators.self_s": "s",
    "osusy.spectral.s": "s",
    "osusy.build_generators.s": "s",
    "osusy.spectral_power.s": "s",
    "osusy.eigenspace_reps.self_s": "s",
    "osusy.clusters": "count",
    "reptheory.infer_unit.s": "s",
    "reptheory.verify.s": "s",
    "reptheory.decompose.self_s": "s",
    "reptheory.decompose.calls": "count",
    "reptheory.random_rep.s": "s",
    "linalg.herm_eig.s": "s",
    "linalg.herm_eig.calls": "count",
    "linalg.orthonormal_range.s": "s",
    "linalg.orthonormal_range.calls": "count",
    "linalg.max_abs.calls": "count",
    "linalg.max_abs.bytes": "bytes",
    "serialize.read_rep_file.s": "s",
    "serialize.dump_json.s": "s",
    "serialize.encode_matrix.s": "s",
    "serialize.read.bytes": "bytes",
    "serialize.write.bytes": "bytes",
    "canonical.ladder_identity_residuals.s": "s",
    "canonical.lowering_from.calls": "count",
    "algebra.alg_mul.s": "s",
    "algebra.alg_mul.calls": "count",
    "algebra.rho0.s": "s",
    "cli.self_s": "s",
    "cli.report.bytes": "bytes",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead": "%",
}


def load_package() -> str | None:
    """Import ``orthofermi`` from this checkout's ``src``, never from elsewhere.

    Returns why that failed, or None.
    """
    sys.path.insert(0, str(SRC))
    try:
        import orthofermi
    except ImportError as exc:
        return f"cannot import orthofermi from {SRC}: {exc}"
    if Path(orthofermi.__file__).resolve().parent != SRC / "orthofermi":
        return f"orthofermi imported from {orthofermi.__file__}, not from {SRC}"
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: same op types, tiny inputs")
    parser.add_argument("--probe-setup", action="store_true",
                        help="only import and make inputs, print 'ready' (times setup_s)")
    return parser.parse_args(argv)


# -- environment ---------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """Commit of the checkout read from ``.git`` directly; "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = "not installed"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


# -- measurement -----------------------------------------------------------------


class Reference:
    """Fixed work, independent of the package, that tracks the host's speed.

    Other tenants of a shared host slow this process by up to 40% for
    stretches of seconds to minutes, which swamps any change to the package
    in raw times. The kernel mixes the kinds of work the ops do: rendering
    nested lists as JSON, small complex matrix products and a memory copy.
    Timed around each round, it rescales the round's times to a host running
    the kernel in ``REFERENCE_S``; raw times are recorded as well.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.random((100, 100)) + 1j * rng.random((100, 100))
        self.stream = rng.random(500_000)
        self.nested = [[[float(x), 0.0] for x in row] for row in rng.random((40, 40))]

    def time(self) -> float:
        """Best of two timings of the kernel."""
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            json.dumps(self.nested, indent=2)
            for _ in range(8):
                self.matrix @ self.matrix
            self.stream.copy()
            best = min(best, time.perf_counter() - start)
        return best


def measure_setup(args) -> float:
    """Wall time from spawning a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"] + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: set-up probe failed (exit {code}, said {line!r})")
    return elapsed


class Tally:
    """Latencies of measured ops and the failures of every op run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = None

    def run(self, ops, call, timed: bool = True) -> None:
        for op in ops:
            if self.tracer is not None:
                self.tracer.op_id += 1  # spans of one op share this id
            start = time.perf_counter()
            why = call.check(op)
            if timed:
                self.latencies.append(time.perf_counter() - start)
            self.attempted += 1
            if why is not None:
                self.failures.append(f"{op}: {why}")


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) of the highest whole percentile with
    at least ``TAIL_BEYOND`` samples beyond it, by the nearest-rank rule."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, 0
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, -(-pct * n // 100))
    return ordered[rank - 1], pct, n - rank


def end_to_end(wl, args, call, tally: Tally) -> tuple[dict, dict]:
    """Closed loop over whole rounds for ``args.seconds``; calibrated times.

    The reference kernel is timed between rounds and between set-up probes,
    and every time is calibrated with the mean of the timings on its two
    sides. The set-up probes are spread over the run.
    """
    ref = Reference()
    rounds = wl.rounds(args.seed, args.tiny)
    tally.run(next(rounds), call, timed=False)  # warm-up
    raw = {"setup_s": [], "ops_per_s": []}
    setups: list[float] = []
    rates: list[float] = []
    latencies: list[float] = []
    before = ref.time()
    start = time.perf_counter()
    while True:
        if len(setups) < SETUP_PROBES and \
                time.perf_counter() - start >= len(setups) * args.seconds / SETUP_PROBES:
            took = measure_setup(args)
            after = ref.time()
            raw["setup_s"].append(took)
            setups.append(took * 2 * REFERENCE_S / (before + after))
            before = after
        ops, failed = len(tally.latencies), len(tally.failures)
        began = time.perf_counter()
        tally.run(next(rounds), call)
        took = time.perf_counter() - began
        after = ref.time()
        scale = 2 * REFERENCE_S / (before + after)
        before = after
        verified = len(tally.latencies) - ops - (len(tally.failures) - failed)
        raw["ops_per_s"].append(verified / took)
        rates.append(verified / (took * scale))
        latencies += [t * scale for t in tally.latencies[ops:]]
        if time.perf_counter() - start >= args.seconds and len(setups) == SETUP_PROBES:
            break
    value, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(rates),
        "op_s.p50": statistics.median(latencies),
        "op_s.tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_tail = tail(tally.latencies)[0]
    details = {"raw": {"setup_s": statistics.median(raw["setup_s"]),
                       "ops_per_s": statistics.median(raw["ops_per_s"]),
                       "op_s.p50": statistics.median(tally.latencies), "op_s.tail": raw_tail},
               "setup_samples_s": setups, "raw_setup_samples_s": raw["setup_s"],
               "round_ops_per_s": rates, "latencies_s": latencies,
               "raw_latencies_s": tally.latencies, "measured_ops": len(latencies),
               "measured_s": time.perf_counter() - start, "tail_percentile": pct,
               "tail_beyond": beyond}
    return metrics, details


def per_layer(wl, args, call, tally: Tally, out_dir: Path) -> tuple[dict, dict]:
    """Per-op layer metrics from traced rounds, and the tracing overhead.

    Every round repeats the first round of the seeded stream, so its counters
    must repeat exactly; a round that differs is reported as incorrect.
    Untraced and traced rounds alternate, so a drift in machine speed affects
    both sides of the overhead alike; each side's ops/s counts time in ops.
    Times are calibrated like the end-to-end ones.
    """
    from tracing import Tracer, span_metrics

    ref = Reference()
    ops = next(wl.rounds(args.seed, args.tiny))
    tally.run(ops, call, timed=False)  # warm-up
    tracer = Tracer()
    rounds: list[tuple[dict, dict]] = []
    busy = {False: 0.0, True: 0.0}
    before = ref.time()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not rounds:
        for traced in (False, True):
            first, timed = len(tracer.spans), len(tally.latencies)
            tracer.counters, call.report_bytes = Counter(), 0
            if traced:
                tracer.install()
                tally.tracer = tracer
            try:
                tally.run(ops, call)
            finally:
                tracer.uninstall()
                tally.tracer = None
            after = ref.time()
            scale = 2 * REFERENCE_S / (before + after)
            before = after
            busy[traced] += sum(tally.latencies[timed:]) * scale
        times = {k: v if k.endswith(".calls") else v * scale
                 for k, v in span_metrics(tracer.spans[first:]).items()}
        counts = {k: v for k, v in times.items() if k.endswith(".calls")}
        counts.update(tracer.counters, **{"cli.report.bytes": call.report_bytes})
        rounds.append((times, counts))
        if len(rounds) > 1:  # every round is the same work: keep the first one's spans
            del tracer.spans[first:]
    untraced, traced = (len(rounds) * len(ops) / busy[side] for side in (False, True))

    counts = rounds[0][1]
    repeated = all(c == counts for _, c in rounds)
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name.startswith("trace."):
            continue
        if unit == "s":
            metrics[name] = statistics.median(t.get(name, 0.0) for t, _ in rounds) / len(ops)
        else:
            metrics[name] = counts.get(name, 0) / len(ops)
    metrics["trace.untraced_ops_per_s"] = untraced
    metrics["trace.traced_ops_per_s"] = traced
    metrics["trace.overhead"] = 100.0 * (untraced / traced - 1.0)

    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_file)
    layers = {k: statistics.median(t.get(k, 0.0) for t, _ in rounds) / len(ops)
              for k in sorted(rounds[0][0])}
    details = {"round": [str(op) for op in ops], "traced_rounds": len(rounds),
               "counters_repeat": repeated, "spans_first_round": len(tracer.spans),
               "spans_file": str(spans_file.relative_to(ROOT)), "all_functions_per_op": layers}
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    problem = load_package()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Call  # bench/ is on sys.path as the script's directory

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.probe_setup:
        next(wl.rounds(args.seed, args.tiny))
        print("ready", flush=True)
        return 0

    out_dir = ROOT / ".bench_results"
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    call, tally = Call(work), Tally()
    try:
        if args.trace:
            metrics, details = per_layer(wl, args, call, tally, out_dir)
            units, correct = PER_LAYER, details["counters_repeat"]
        else:
            metrics, details = end_to_end(wl, args, call, tally)
            units, correct = END_TO_END, True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(tally.failures)
    correct = correct and failed == 0

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": env,
              "metrics": metrics, "attempted": tally.attempted, "failed": failed,
              "fail_frac": failed / tally.attempted, "failures": tally.failures[:20],
              "details": details}
    record_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    print(f"  {'fail_frac':<40} {failed / tally.attempted:>16.6g} 1"
          f"   ({failed} of {tally.attempted} ops failed)")
    if args.trace:
        print(f"  counters repeat in all {details['traced_rounds']} traced rounds: "
              f"{details['counters_repeat']}")
    else:
        print("  raw, uncalibrated: " + "  ".join(f"{k} {v:.6g}" for k, v in details["raw"].items()))
        print(f"  op_s.tail is p{details['tail_percentile']} of {details['measured_ops']} "
              f"samples, {details['tail_beyond']} beyond it")
    for why in tally.failures[:5]:
        print(f"  FAILED {why}")
    print(f"record {record_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
