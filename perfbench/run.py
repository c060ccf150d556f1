"""harecast benchmark: seeded workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; harecast is imported from ./src.  Metric
names and units come from BENCHMARK.json at the root.

--trace 0 measures the end-to-end metrics of one workload with nothing
patched: set-up time (median of fresh processes), median and p90 op
latency of a closed loop (one client, for --seconds) and peak resident
memory.  The workload's CLI command runs interleaved with the ops and is
checked.  Timings are normalised to the speed of a fixed reference kernel
run beside them (reference.py), because the shared hosts this runs on
slow down by up to ~40% for minutes at a time; the wall-clock figures are
printed too.

--trace 1 runs the unit of every workload, and the gradcheck_micro unit,
with spans recorded around the calls into each layer.  It reports the
per-layer metrics, each taken from the unit it belongs to, plus span
coverage and tracing overhead per unit, and does a fixed number of ops so
that counts repeat exactly.

Every output is checked; a failed check counts as a failed op and makes
the exit code 1.  The last stdout line is one JSON object {"correct",
"attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("train_default", "forecast_eval", "verify_theory")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5  # fresh processes per run; setup_s is their median
SETUP_REFS = 3  # reference timings in each set-up probe
CLI_SHARE = 0.1  # share of the run spent on CLI runs (at least CLI_MIN_REPS)
CLI_MIN_REPS = 2  # two runs at least, so artifacts can be compared


def cap_blas_threads() -> int:
    """Runs BLAS/OpenMP on one thread; must run before numpy is imported.

    The client is one single-threaded process.  With a second OpenBLAS
    thread on a 2-vCPU host, the worker busy-waits on the other vCPU, the
    process burns twice the CPU time of the op, and any other process on
    the host stalls every GEMM: a forecast took 340 ms instead of 110 ms
    while a second benchmark ran.  Returns nproc, for the provenance.
    """
    for var in BLAS_ENV:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, nproc: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = "unknown"
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(p.relative_to(ROOT)).encode())
        src.update(p.read_bytes())
    return {
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_thread_cap": {var: os.environ[var] for var in BLAS_ENV},
    }


class Tally:
    """Operations attempted and failed; failures are kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, failures) -> None:
        self.attempted += 1
        self.failures.extend(failures)
        self.failed += bool(failures)


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh process (imports plus the workload's set-up)
    and the median reference time measured in that process right after."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    setup, ref = proc.stdout.strip().splitlines()[-1].split()
    return float(setup), float(ref)


def normalised(seconds: float, ref_s: float) -> float:
    """Seconds at the reference speed: the host ran the reference in ref_s."""
    from reference import REF_MS

    return seconds * (REF_MS / 1e3) / ref_s


def measure(wl, seed: int, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    from reference import time_host

    probes = [probe_setup(wl.name, seed) for _ in range(SETUP_REPEATS)]
    st = wl.setup(seed)
    tally.record(wl.check(st, 0, wl.op(st, 0)))  # warm-up, untimed
    time_host()

    workdir = BENCH_DIR / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops, clis, refs = closed_loop(wl, st, seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Each op or CLI run is normalised by the host timings taken right
    # before and right after it; a wider window follows the host less
    # closely (over 30 s windows of train steps, the p90 spread was 0.03
    # with the two adjacent timings and 0.07 with all within +-1 s).
    def deciles(runs, norm):
        times = [normalised(t, (refs[k] + refs[k + 1]) / 2) if norm else t for t, k in runs]
        return statistics.quantiles(times, n=10, method="inclusive")

    op, op_wall = deciles(ops, True), deciles(ops, False)
    print(f"samples: setup={len(probes)} cli={len(clis)} ops={len(ops)} host timings={len(refs)}")
    print(f"wall clock, not bounded: setup_s={statistics.median(s for s, _ in probes)!r} "
          f"op_ms_p10={1e3 * op_wall[0]!r} op_ms_p50={1e3 * op_wall[4]!r} op_ms_p90={1e3 * op_wall[8]!r} "
          f"cli_run_s_p50={statistics.median(t for t, _ in clis)!r} "
          f"reference_ms_p50={1e3 * statistics.median(refs)!r}")
    print(f"normalised, not bounded: op_ms_p10={1e3 * op[0]!r} cli_run_s_p50="
          f"{statistics.median(normalised(t, (refs[k] + refs[k + 1]) / 2) for t, k in clis)!r}")
    return {
        "setup_s": statistics.median(normalised(s, ref) for s, ref in probes),
        "op_ms_p50": 1e3 * op[4],
        "op_ms_p90": 1e3 * op[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def closed_loop(wl, st, seconds: float, workdir: Path, tally: Tally):
    """Ops and CLI runs back to back for `seconds`.

    CLI runs are interleaved with the ops, taking CLI_SHARE of the time,
    so that both sample the whole run.  The host is timed with the
    reference kernel before each of them and once at the end.  Returns the
    ops and the CLI runs as (seconds, k) pairs, and the host timings refs:
    refs[k] was taken right before that op or CLI run and refs[k + 1]
    right after it.
    """
    from reference import time_host

    ops, clis, refs, digests = [], [], [], []
    start = time.perf_counter()
    elapsed = cli_spent = 0.0
    while elapsed < seconds or len(ops) < wl.min_ops or len(clis) < CLI_MIN_REPS:
        refs.append(time_host())
        k = len(refs) - 1
        t0 = time.perf_counter()
        if cli_spent <= CLI_SHARE * elapsed and (elapsed < seconds or len(clis) < CLI_MIN_REPS):
            code, digest = wl.cli(st, workdir, len(clis))
            clis.append((time.perf_counter() - t0, k))
            cli_spent += clis[-1][0]
            digests.append(digest)
            failures = [] if code == 0 else [f"CLI run {len(clis)} exited {code}"]
            expected = wl.cli_expected(st) or digests[0]
            if digest != expected:
                failures.append(f"CLI run {len(clis)} artifacts differ: {digest} != {expected}")
            tally.record(failures)
        else:
            i = len(ops) + 1
            result = wl.op(st, i)
            ops.append((time.perf_counter() - t0, k))
            tally.record(wl.check(st, i, result))
        elapsed = time.perf_counter() - start
    refs.append(time_host())
    return ops, clis, refs


def traced(seed: int, tally: Tally, spans_path: Path) -> dict:
    """Per-layer metrics: every unit, alternating traced and plain ops."""
    from spans import Tracer
    from workloads import UNITS, conv_stage_names, instrument, objective, training

    states = {name: wl.setup(seed) for name, wl in UNITS.items()}
    tracer = Tracer()
    instrument(tracer, conv_stage_names(states["train_default"].model.params))

    # Tracing must not change results: one step's gradients, traced and not.
    train_wl, st = UNITS["train_default"], states["train_default"]
    batch, draws = train_wl.draw(st)
    plain = objective(st.model, batch, draws, st.cfg, hare_enabled=True)
    with tracer.recording(None, "grad-equality"):
        spanned = training.objective(st.model, batch, draws, st.cfg, hare_enabled=True)
    tally.record([] if all((plain.grads[k] == spanned.grads[k]).all() for k in plain.grads)
                 else ["traced gradients differ from untraced gradients"])

    out, units = {}, {}
    for name, wl in UNITS.items():
        st = states[name]
        tally.record(wl.check(st, 0, wl.op(st, 0)))  # warm-up, untimed
        ids, times = [], {True: [], False: []}
        for i in range(1, 2 * wl.trace_pairs + 1):
            on = i % 2 == 1
            op_id = f"{name}:{i}"
            with tracer.recording(name, op_id) if on else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = wl.op(st, i)
                times[on].append(time.perf_counter() - t0)
            if on:
                ids.append(op_id)
            tally.record(wl.check(st, i, result))
        units[name] = ids
        base = statistics.median(times[False])
        out[f"bench.op_ms.{name}"] = 1e3 * base
        out[f"bench.tracing_overhead_pct.{name}"] = 100.0 * (statistics.median(times[True]) - base) / base
        covered = [tracer.coverage(op_id) for op_id in ids]
        out[f"bench.coverage.{name}"] = statistics.median(covered)

    table = tracer.per_op()
    for name, wl in UNITS.items():
        ids = units[name]
        print(f"spans of {name} per op (median over {len(ids)} traced ops): calls incl_ms self_ms")
        for span in sorted({s for op_id in ids for s in table[op_id]}):
            rows = [table[op_id].get(span, (0, 0, 0)) for op_id in ids]
            print(f"  {span:55s} {statistics.median(r[2] for r in rows):8g} "
                  f"{statistics.median(r[0] for r in rows) / 1e6:10.4f} "
                  f"{statistics.median(r[1] for r in rows) / 1e6:10.4f}")
        for metric in wl.layer_metrics:
            stem, kind = metric.rsplit(".", 1)
            if kind in ("ms", "self_ms", "calls"):
                col = {"ms": 0, "self_ms": 1, "calls": 2}[kind]
                scale = 1.0 if kind == "calls" else 1e-6
                values = [table[op_id][stem][col] * scale if stem in table[op_id] else 0.0 for op_id in ids]
                seen = any(stem in table[op_id] for op_id in ids)
            else:
                values = [tracer.counters[op_id].get(metric, 0.0) for op_id in ids]
                seen = any(metric in tracer.counters[op_id] for op_id in ids)
            if not seen:
                tally.record([f"{name}: no span or count behind per-layer metric {metric}"])
            out[metric] = statistics.median(values)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    return out


def run_all(args) -> int:
    """Every workload in its own process; prints one table and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    # One traced run already covers every unit.
    for name in WORKLOAD_NAMES if not args.trace else WORKLOAD_NAMES[:1]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"error: workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "error_rate", result["failed"] / result["attempted"], "ratio"))
    for name, metric, value, unit in rows:
        print(f"{name:16s} {metric:50s} {value:14.6g} {unit}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "harecast" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a harecast checkout; {ROOT / 'src' / 'harecast'} or "
              f"{spec_path} is missing", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        t0 = time.perf_counter()
        from workloads import WORKLOADS

        WORKLOADS[args.workload].setup(args.seed)
        setup = time.perf_counter() - t0
        from reference import time_host

        print(setup, statistics.median(time_host() for _ in range(SETUP_REFS)))
        return 0

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print("provenance " + json.dumps(provenance(args, nproc)))

    tally = Tally()
    if args.trace:
        values = traced(args.seed, tally, BENCH_DIR / "out" / f"spans-{args.workload}.jsonl.gz")
    else:
        from workloads import WORKLOADS

        values = measure(WORKLOADS[args.workload], args.seed, args.seconds, tally)
    if set(values) != set(wanted):
        print(f"error: measured metrics {sorted(set(values) ^ set(wanted))} disagree with "
              f"BENCHMARK.json", file=sys.stderr)
        return 2
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    for name, value in values.items():
        print(f"{name:55s} {value:14.6g} {wanted[name]}")
    print(f"error_rate {tally.failed / tally.attempted!r} ({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": wanted[name]} for name, value in values.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
