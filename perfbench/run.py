"""The orbmod benchmark.

    python3 perfbench/run.py --workload desk-mix --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the benchmark imports orbmod from
``src/``.  Set-up runs several times, each in a fresh child process that
imports orbmod, generates the workload's inputs from the seed and writes
them (``setup_s`` is the median); half of them run after the timed loop.
Another child replays the workload in a closed loop with one client and
BLAS pinned to one thread, checks every op's output, and reports back.  This process prints a table
of the metrics, then one JSON line: with ``--trace 0`` the end-to-end
metrics of ``BENCHMARK.json``, with ``--trace 1`` the per-layer ones.

``--workload all`` runs every workload in turn.  ``--out FILE`` appends a
full record of the run (metrics, per-op output digests, probes) to FILE
for ``perfbench/compare.py``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from cores import QuietCore

HERE = Path(__file__).resolve().parent
# restricted-oracle is not in BENCHMARK.json: on a shared host its run-to-run
# spread reached the largest bound allowed (perfbench/README.md).
WORKLOADS = ("desk-mix", "orbifold-large", "restricted-oracle")
SETUPS = 11
RUN_TIMEOUT_S = 170
SETUP_TIMEOUT_S = 30
HD_GRID = 20_000  # integration points of the Harrell-Davis weights

UNITS = {"calls": "count", "self_s": "s", "peak_mb": "MB", "bytes_in": "B", "bytes": "B",
         "bytes_out": "B", "flops": "flop", "calls_per_op": "ratio", "entries": "count",
         "block_entries": "count", "tokens": "count", "trace_overhead": "ratio"}


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def call(args: list[str], env: dict, timeout: float) -> None:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr.decode()[-3000:]}")


def measure(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set up and run one workload; return the worker's summary plus set-up times."""
    env = child_env(root)
    workdir = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    core = QuietCore(interval=0.0, patience=1.0, budget=SETUPS * 0.5)
    setup_times = []

    def set_up() -> None:
        shutil.rmtree(workdir, ignore_errors=True)
        core.settle()  # the child inherits the quieter CPU
        t0 = time.perf_counter()
        call(["setup", workload, str(seed), str(workdir)], env, SETUP_TIMEOUT_S)
        setup_times.append(time.perf_counter() - t0)
        core.release()

    try:
        # Half the set-ups run after the timed loop, so that their median
        # spans more of the machine's slow and fast phases.
        for _ in range(SETUPS - SETUPS // 2):
            set_up()
        result = workdir / "result.json"
        spans = HERE / "out" / f"spans-{workload}-seed{seed}.json"
        call(["run", str(workdir), str(seconds), "1" if trace else "0", str(result)]
             + ([str(spans)] if trace else []), env, RUN_TIMEOUT_S)
        summary = json.loads(result.read_text())
        for _ in range(SETUPS // 2):
            set_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary["setup_times"] = setup_times
    summary["spans_file"] = str(spans.relative_to(root)) if trace else None
    return summary


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the
    order statistics.  Unlike a single order statistic it does not jump when
    two ops on either side of a gap in the latency distribution swap places."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = (np.arange(HD_GRID) + 0.5) / HD_GRID
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.linspace(0, 1, HD_GRID + 1), cdf))
    return float(weights @ x)


def end_to_end(summary: dict) -> dict[str, tuple[float, str]]:
    # Each op's median latency over the untraced rounds.  On a shared host
    # it varied less between runs than the op's best latency did.
    typical = summary["typical"]
    return {
        "setup_s": (statistics.median(summary["setup_times"]), "s"),
        "ops_per_s": (len(typical) / sum(typical), "ops/s"),
        "op_p50_ms": (hd_quantile(typical, 0.5) * 1e3, "ms"),
        "op_p90_ms": (hd_quantile(typical, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }


def per_layer(summary: dict) -> dict[str, tuple[float, str]]:
    return {name: (value, UNITS[name.rsplit(".", 1)[-1]])
            for name, value in summary["layers"].items()}


def print_table(workload: str, seed: int, seconds: int, trace: bool, s: dict) -> None:
    n = s["attempted"]
    e2e = end_to_end(s)
    ops = len(s["typical"])
    beyond = ops - int(0.9 * ops)
    median_of = f"each op's median over {s['plain_rounds']} untraced rounds"
    print(f"== {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print(f"   closed loop, 1 client; {s['rounds']} rounds of {s['ops_per_round']} ops, "
          f"{s['busy_s']:.3f} s timed, {s['core_wait_s']:.3f} s untimed probing and waiting "
          f"for a quiet CPU")
    notes = {
        "setup_s": f"median of {len(s['setup_times'])} set-ups: "
                   + ", ".join(f"{t:.3f}" for t in s["setup_times"]),
        "ops_per_s": f"{ops} ops / sum of {median_of}",
        "op_p50_ms": f"Harrell-Davis, n={ops} ops, {median_of}",
        "op_p90_ms": f"Harrell-Davis, n={ops} ops, {beyond} beyond, {median_of}",
        "peak_rss_mb": "ru_maxrss of the workload's child process",
    }
    for name, (value, unit) in e2e.items():
        print(f"   {name:<16} {value:>12.4f} {unit:<6} ({notes[name]})")
    frac = s["failed"] / n
    print(f"   {'failed_ops_frac':<16} {frac:>12.4f} {'ratio':<6} ({s['failed']} failed of {n} attempted"
          f"; {s['warmup_failed']} failed in warm-up)")
    by_kind: dict[str, list[float]] = {}
    for label, t in zip(s["labels"], s["latencies"]):
        by_kind.setdefault(label, []).append(t)
    print("   per command: " + ", ".join(
        f"{k} {statistics.median(v) * 1e3:.2f} ms (n={len(v)})" for k, v in sorted(by_kind.items())))
    print(f"   outputs_sha256 {s['outputs_sha256']} over {len(s['digests'])} distinct ops:")
    for op_id, digest in sorted(s["digests"].items()):
        print(f"     sha256 {digest}  {op_id}")
    for failure in s["failures"]:
        print(f"   FAILED {failure}")
    for p in s["probes"]:
        state = "ok" if p["ok"] else f"DEFECT: {p['problem']}"
        print(f"   probe {p['id']} ({' '.join(p['args'])}): exit {p['exit']}, {state}")
    if trace:
        layers = s["layers"]
        print(f"   per-layer, per traced round ({s['traced_rounds']} traced rounds; tracing overhead "
              f"{layers['trace_overhead']:+.1%} of the untraced rounds' time, "
              f"{s['memory_overhead']:+.1%} with tracemalloc for peak_mb)")
        print(f"   {'layer':<34} {'calls':>8} {'self_s':>10} {'peak_mb':>9}  extra")
        rows = [name[: -len(".self_s")] for name in layers if name.endswith(".self_s")]
        for row in rows:
            extras = [(k[len(row) + 1:], v) for k, v in layers.items() if k.startswith(row + ".")]
            extras = "  ".join(f"{k}={v:.6g}" for k, v in extras
                               if "." not in k and k not in ("calls", "self_s", "peak_mb"))
            print(f"   {row:<34} {layers[row + '.calls']:>8.1f} {layers[row + '.self_s']:>10.4f} "
                  f"{layers.get(row + '.peak_mb', 0.0):>9.2f}  {extras}")
        print(f"   spans written to {s['spans_file']}")


def record(workload, seed, seconds, trace, started_at, s, metrics, correct) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "started_at": started_at, "correct": correct, "attempted": s["attempted"],
        "failed": s["failed"], "metrics": metrics, "outputs_sha256": s["outputs_sha256"],
        "digests": s["digests"], "probes": s["probes"], "failures": s["failures"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append a JSON record of each run to this file")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    root = Path.cwd().resolve()
    if not (root / "src" / "orbmod" / "__init__.py").is_file():
        print("error: run from the root of an orbmod source checkout (no src/orbmod here)",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        started_at = time.time()
        try:
            s = measure(root, workload, args.seed, args.seconds, trace)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in (per_layer(s) if trace else end_to_end(s)).items()}
        correct = s["failed"] == 0 and s["warmup_failed"] == 0
        print_table(workload, args.seed, args.seconds, trace, s)
        if args.out:
            with open(args.out, "a") as fh:
                rec = record(workload, args.seed, args.seconds, trace, started_at, s, metrics,
                             correct)
                fh.write(json.dumps(rec) + "\n")
        results.append((workload, correct, s["attempted"], s["failed"], metrics))
    if len(results) == 1:
        _, correct, attempted, failed, metrics = results[0]
    else:
        correct = all(r[1] for r in results)
        attempted = sum(r[2] for r in results)
        failed = sum(r[3] for r in results)
        metrics = {f"{w}.{k}": v for w, _, _, _, m in results for k, v in m.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
