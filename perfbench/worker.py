"""Child process of the orbmod benchmark.

    python3 perfbench/worker.py setup WORKLOAD SEED WORKDIR
    python3 perfbench/worker.py run WORKDIR SECONDS TRACE RESULT [SPANS]

``setup`` imports orbmod, generates the workload's inputs from the seed,
writes them into WORKDIR and saves the op plan there; ``run.py`` times it.
``run`` replays the plan's round in a closed loop with one client, in this
process, until the timed ops have taken SECONDS: CLI commands through
``orbmod.cli.main(args, standalone_mode=False)`` with stdout and stderr
captured, library ops through the public API.  Each op is checked after
its clock stops.  The summary goes to RESULT as JSON.

With TRACE 1 the timed rounds cycle through three modes: untraced, traced
for time and traced for memory (:mod:`spans`).  Per-layer counts and self
times come from the time-traced rounds, peaks from the memory-traced ones;
the tracing overhead is the time-traced rounds' time over the untraced
rounds' time.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

import inputs
import orbmod
import orbmod.cli
from cores import QuietCore
from spans import Tracer, layer_metrics

EPS = orbmod.DEFAULT_EPS
# Stop starting rounds after this much wall time, so a slow machine still
# finishes well inside the benchmark's time limit.
WALL_LIMIT_S = 100.0
# Timed rounds per run at the least: ops_per_s takes each op's median round.
MIN_ROUNDS = 3
# Before an op, wait at most this long for a fast phase of the CPU, and in
# all at most this share of SECONDS (cores.QuietCore).
PATIENCE_S = 2.0
WAIT_SHARE = 0.15


# ---------------------------------------------------------------------------
# executing ops
# ---------------------------------------------------------------------------

class Capture:
    """Stand-ins for stdout and stderr, reused for every command.

    click caches a text wrapper per stream object for the life of the
    process, so fresh streams per command would leak one wrapper each.
    """

    def __init__(self):
        self.out_b, self.err_b = io.BytesIO(), io.BytesIO()
        self.out = io.TextIOWrapper(self.out_b, encoding="utf-8", newline="")
        self.err = io.TextIOWrapper(self.err_b, encoding="utf-8", newline="")

    def run_cli(self, args: list[str]) -> tuple[int | None, bytes, bytes, str]:
        """Run one CLI command in-process: exit code (None on an uncaught
        exception), stdout, stderr, and the traceback if it crashed."""
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = self.out, self.err
        code, crash = 0, ""
        try:
            orbmod.cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except Exception:
            code, crash = None, traceback.format_exc(limit=-1)
        finally:
            sys.stdout, sys.stderr = saved
        return code, self._take(self.out, self.out_b), self._take(self.err, self.err_b), crash

    @staticmethod
    def _take(stream: io.TextIOWrapper, buffer: io.BytesIO) -> bytes:
        stream.flush()
        data = buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()
        return data


def run_export(op: dict) -> bytes:
    """Library op: export the permutation data of a source as a restricted
    spec file, the way a user script would."""
    d = orbmod.parse_modular_datum(Path(op["src"]).read_text())
    doc = orbmod.restricted_spec_to_dict(*orbmod.permutation_restriction_data(d, op["k"]))
    text = inputs.dump(doc)
    Path(op["out"]).write_text(text)
    return text.encode()


def run_t_phases(op: dict) -> bytes:
    """Library op: orbifold T-phases of a source."""
    d = orbmod.parse_modular_datum(Path(op["src"]).read_text())
    return "".join(f"{p.angle}\n" for p in orbmod.orbifold_t_phases(d, op["k"])).encode()


LIBRARY_OPS = {"export": run_export, "t_phases": run_t_phases}


def execute(op: dict, capture: Capture, tracer: Tracer | None = None,
            op_id: str = "") -> tuple[float, int | None, bytes, bytes, str]:
    """Run one op under the clock; return latency, exit code, outputs."""
    if tracer:
        root = tracer.begin_op(op_id, "cli" if op["kind"] == "cli" else "lib")
    t0 = time.perf_counter()
    if op["kind"] == "cli":
        code, out, err, crash = capture.run_cli(op["args"])
    else:
        code, out, err, crash = 0, b"", b"", ""
        try:
            out = LIBRARY_OPS[op["kind"]](op)
        except Exception:
            code, crash = None, traceback.format_exc(limit=-1)
    latency = time.perf_counter() - t0
    if tracer:
        tracer.end_op(root)
    return latency, code, out, err, crash


# ---------------------------------------------------------------------------
# correctness checks (untimed)
# ---------------------------------------------------------------------------

class Checker:
    """Per-op correctness checks.  Each returns None or a failure message.

    Only labels and T-angles of the documents are kept between ops, so that
    the checks add little to the worker's peak RSS.
    """

    def __init__(self):
        self._modules: dict[str, tuple[list[str], list[Fraction]]] = {}

    def _read(self, name: str) -> tuple[list[str], list[Fraction]]:
        if name not in self._modules:
            doc = json.loads(Path(name).read_text())
            c24 = Fraction(doc["central_charge"]) / 24
            self._modules[name] = (
                [m["label"] for m in doc["modules"]],
                [(Fraction(m["h"]) - c24) % 1 for m in doc["modules"]],
            )
        return self._modules[name]

    def labels(self, name: str) -> list[str]:
        return self._read(name)[0]

    def t_angles(self, name: str) -> list[Fraction]:
        return self._read(name)[1]

    def check(self, op: dict, code, out: bytes, err: bytes, crash: str) -> str | None:
        if crash:
            return "uncaught " + crash.strip().splitlines()[-1]
        if code != op["expect"]:
            return f"exit {code}, expected {op['expect']}: {err.decode()[:200]!r}"
        try:
            return getattr(self, "check_" + op["check"])(op, out.decode(), err.decode())
        except Exception as exc:  # a malformed output is a failed op, not a crash
            return f"output check raised {type(exc).__name__}: {exc}"

    def check_input_error(self, op, out, err):
        if out or not err.startswith("error: "):
            return f"expected only an error message, got {out[:80]!r} / {err[:80]!r}"

    def check_perm_file(self, op, out, err):
        expect = [f"modules: {op['n_out']}", "convention: minus", "validation: PASS",
                  "convention 'minus' validated"]
        if out.splitlines() != expect:
            return f"perm summary {out!r}"
        text = Path(op["out"]).read_text()
        doc = json.loads(text)
        datum = orbmod.parse_modular_datum(text)
        plain = {"central_charge": doc["central_charge"], "S": doc["S"],
                 "modules": [{"label": m["label"], "h": m["h"]} for m in doc["modules"]]}
        if orbmod.modular_datum_to_dict(datum) != plain:
            return "parse(dump(x)) != x on the perm output"
        if datum.rank != orbmod.module_count(op["n"], op["k"]) or datum.rank != op["n_out"]:
            return f"{datum.rank} modules, expected module_count = {op['n_out']}"
        if (doc["k"], doc["convention"]) != (op["k"], "minus"):
            return "perm output has the wrong k or convention"

    def check_perm_stdout(self, op, out, err):
        lines = err.splitlines()
        head = [f"modules: {op['n_out']}", "convention: plus"]
        if op["k"] == 2:
            tail = ["validation: PASS", "convention 'plus' validated"]
            if lines != head + tail:
                return f"perm summary {err!r}"
        elif lines[:3] != head + ["validation: FAIL"] or len(lines) != 4 or \
                not lines[3].startswith("check FAIL: modular_relation "):
            return f"plus convention at k={op['k']} should fail modular_relation only: {err!r}"
        doc = json.loads(out)
        if len(doc["modules"]) != op["n_out"] or doc["convention"] != "plus":
            return "perm stdout document has the wrong size or convention"

    def check_check(self, op, out, err):
        if out != f"PASS {op['doc']}: 6/6 checks\n":
            return f"check output {out!r}"

    def check_validate(self, op, out, err):
        fmt = op["fmt"]
        if fmt == "pretty":
            ok = len(out.splitlines()) == 7 and out.endswith("verdict: PASS (6/6 checks)\n")
        elif fmt == "json":
            doc = json.loads(out)
            ok = doc["ok"] is True and len(doc["checks"]) == 6 and all(c["passed"] for c in doc["checks"])
        else:
            rows = out.splitlines()
            ok = rows[0] == "check,passed,residual,detail" and len(rows) == 7 and \
                all(r.split(",")[1] == "true" for r in rows[1:])
        if not ok:
            return f"validate --format {fmt} output {out[:200]!r}"

    def check_fusion_json(self, op, out, err):
        doc = json.loads(out)
        labels = self.labels(op["doc"])
        table = np.array(doc["fusion"], dtype=np.int64)
        n = len(labels)
        if doc["labels"] != labels or table.shape != (n, n, n):
            return f"fusion json has labels/shape {table.shape} for {n} modules"
        if not (np.array_equal(table[0], np.eye(n, dtype=np.int64))
                and np.array_equal(table, table.transpose(1, 0, 2))
                and table.min() >= 0 and doc["residual"] <= orbmod.DEFAULT_EPS_INT):
            return "fusion table is not a symmetric nonnegative table with unit vacuum"

    def check_fusion_pretty(self, op, out, err):
        labels = self.labels(op["doc"])
        lines = out.splitlines()
        n = len(labels)
        v = labels[0]
        if len(lines) != n * (n + 1) // 2 + 1 or lines[0] != f"{v} x {v} = {v}" or \
                not lines[-1].startswith("max rounding residual: "):
            return f"fusion pretty output has {len(lines)} lines"

    def check_fusion_csv(self, op, out, err):
        labels = self.labels(op["doc"])
        rows = set(out.splitlines())
        v = labels[0]
        if "i,j,m,N" not in rows or any(f"{v},{l},{l},1" not in rows for l in labels):
            return "fusion csv lacks the vacuum rows"

    def check_tmatrix(self, op, out, err):
        labels = self.labels(op["doc"])
        angles = self.t_angles(op["doc"])
        fmt = op["fmt"]
        if fmt == "json":
            rows = json.loads(out)["t_phases"]
            got = [(r["label"], r["angle"]) for r in rows]
            want = [(l, str(a)) for l, a in zip(labels, angles)]
        elif fmt == "csv":
            rows = out.splitlines()
            if rows[:1] != ["label,angle,value"] or len(rows) != len(labels) + 1:
                return f"tmatrix --format csv has {len(rows)} rows for {len(labels)} modules"
            # labels may hold commas, so match whole row prefixes
            got = [r[: len(f'{l},{a},"')] for r, l, a in zip(rows[1:], labels, angles)]
            want = [f'{l},{a},"' for l, a in zip(labels, angles)]
        else:
            got = [(r.split()[0], r.split()[1]) for r in out.splitlines()]
            want = [(l, f"angle={a}") for l, a in zip(labels, angles)]
        if got != want:
            return f"tmatrix --format {fmt} phases differ from h - c/24"

    def check_restricted(self, op, out, err):
        n_out = orbmod.module_count(op["n"], op["k"])
        if op.get("out"):
            if out != f"pairs: {n_out}\n":
                return f"restricted summary {out!r}"
            out = Path(op["out"]).read_text()
        doc = json.loads(out)
        if len(doc["pairs"]) != n_out:
            return f"{len(doc['pairs'])} pairs, expected {n_out}"
        got = np.array([[complex(float(e["re"]), float(e["im"])) for e in row] for row in doc["S"]])
        source = orbmod.parse_modular_datum(Path(op["src"]).read_text())
        worst = float(np.max(np.abs(got - orbmod.assemble_orbifold_S(source, op["k"]))))
        if worst > EPS:
            return f"restricted S differs from assemble_orbifold_S by {worst:.3g} > {EPS}"

    def check_export(self, op, out, err):
        doc = json.loads(out)
        if doc["group"] != [op["k"]] or len(doc["orbits"]) != inputs.orbit_count(op["n"], op["k"]):
            return "exported spec has the wrong group or orbit count"

    def check_t_phases(self, op, out, err):
        want = [str(a) for a in self.t_angles(op["doc"])]
        if out.splitlines() != want:
            return "orbifold_t_phases disagrees with the weights perm wrote"

    def check_sl2z(self, op, out, err):
        a, b, c, d = op["matrix"]
        lines = out.splitlines()
        if lines[1:] != [f"round-trip: ({a}, {b}; {c}, {d})", "exact: yes"] or \
                not lines[0].startswith("word: "):
            return f"sl2z output {out!r}"
        m = (1, 0, 0, 1)
        for tok in lines[0][len("word: "):].split():
            g = (0, -1, 1, 0) if tok == "S" else (1, int(tok[2:]), 0, 1)
            m = (m[0] * g[0] + m[1] * g[2], m[0] * g[1] + m[1] * g[3],
                 m[2] * g[0] + m[3] * g[2], m[2] * g[1] + m[3] * g[3])
        if m != (a, b, c, d):
            return f"word evaluates to {m}"


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

def op_label(op: dict) -> str:
    return op["args"][0] if op["kind"] == "cli" else op["kind"]


def run(workdir: Path, seconds: float, trace: bool, result_path: Path, spans_path: Path | None) -> None:
    plan = json.loads((workdir / "plan.json").read_text())
    checker = Checker()
    capture = Capture()
    core = QuietCore(patience=PATIENCE_S, budget=WAIT_SHARE * seconds)
    tracers = {"plain": None, "time": Tracer(), "memory": Tracer(memory=True)}
    # With tracing, the timed rounds cycle through these three modes.
    cycle = ("plain", "time", "memory") if trace else ("plain",)
    digests: dict[str, str] = {}
    verified: dict[str, tuple] = {}  # op id -> (exit code, output digest, stderr digest)
    failures: list[str] = []
    latencies: list[float] = []
    labels: list[str] = []
    attempted = failed = warmup_failed = 0
    busy = dict.fromkeys(cycle, 0.0)
    rounds = dict.fromkeys(cycle, 0)
    plain_latencies: list[list[float]] = []  # per untraced round, each op's latency
    fusion_ops: set[str] = set()
    bytes_out = 0
    wall0 = time.perf_counter()

    def do_round(r: int, timed: bool, mode: str) -> None:
        nonlocal attempted, failed, warmup_failed, bytes_out
        tracer = tracers[mode]
        for op in plan["round"]:
            op_id = f"{r}/{op['id']}"
            if mode == "time" and op["kind"] == "cli" and op["args"][0] == "fusion" \
                    and op["expect"] == 0:
                fusion_ops.add(op_id)
            core.settle()
            latency, code, out, err, crash = execute(op, capture, tracer, op_id)
            if tracer:
                tracer.paused = True
            payload = out
            if op.get("out") and code == 0 and not crash:
                payload = out + b"\0" + Path(op["out"]).read_bytes()
            digest = hashlib.sha256(payload).hexdigest()
            # An outcome byte-identical to one that passed the check passes it
            # again; only new outcomes pay for the (untimed) check.
            outcome = (code, digest, hashlib.sha256(err).hexdigest())
            problem = None
            if crash or verified.get(op["id"]) != outcome:
                problem = checker.check(op, code, out, err, crash)
                if problem is None and digests.setdefault(op["id"], digest) != digest:
                    problem = "output bytes differ from the previous round"
                if problem is None:
                    verified[op["id"]] = outcome
            if tracer:
                tracer.paused = False
            if mode == "time" and op["kind"] == "cli":
                bytes_out += len(payload)
            if not timed:
                if problem:
                    warmup_failed += 1
                    failures.append(f"warm-up {op['id']}: {problem}")
                continue
            attempted += 1
            latencies.append(latency)
            labels.append(op_label(op))
            if problem:
                failed += 1
                if len(failures) < 20:
                    failures.append(f"{op['id']}: {problem}")

    # Warm-up rounds fill caches and write the files later ops read; they
    # are checked but not timed.
    for r in range(plan["warmup_rounds"]):
        do_round(-1 - r, timed=False, mode="plain")
    r = 0
    while True:
        mode = cycle[r % len(cycle)]
        if tracers[mode]:
            tracers[mode].install()
        n0 = len(latencies)
        do_round(r, timed=True, mode=mode)
        if tracers[mode]:
            tracers[mode].uninstall()
        busy[mode] += sum(latencies[n0:])
        rounds[mode] += 1
        if mode == "plain":
            plain_latencies.append(latencies[n0:])
        r += 1
        if r % len(cycle) == 0 and r >= MIN_ROUNDS and (
                sum(busy.values()) >= seconds or time.perf_counter() - wall0 > WALL_LIMIT_S):
            break

    probes = []
    for op in plan["probes"]:
        _, code, out, err, crash = execute(op, capture)
        problem = checker.check(op, code, out, err, crash)
        probes.append({"id": op["id"], "args": op["args"], "exit": code, "ok": problem is None,
                       "problem": problem})

    total = hashlib.sha256()
    for op_id in sorted(digests):
        total.update(f"{op_id} {digests[op_id]}\n".encode())
    summary = {
        "attempted": attempted,
        "failed": failed,
        "warmup_failed": warmup_failed,
        "failures": failures,
        "latencies": latencies,
        "labels": labels,
        "busy_s": sum(busy.values()),
        "typical": [statistics.median(op) for op in zip(*plain_latencies)],
        "plain_rounds": rounds["plain"],
        "rounds": r,
        "ops_per_round": len(plan["round"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digests": digests,
        "outputs_sha256": total.hexdigest(),
        "probes": probes,
        "core_wait_s": core.waited,
    }
    if trace:
        per_round = layer_metrics(tracers["time"].spans, rounds["time"], fusion_ops,
                                  tracers["memory"].spans)
        per_round["cli.bytes_out"] = bytes_out / rounds["time"]
        plain = busy["plain"] / rounds["plain"]
        per_round["trace_overhead"] = busy["time"] / rounds["time"] / plain - 1
        summary["layers"] = per_round
        summary["traced_rounds"] = rounds["time"]
        summary["memory_overhead"] = busy["memory"] / rounds["memory"] / plain - 1
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps({
                "fields": ["layer", "start", "end", "parent", "op", "n", "peak_bytes", "count"],
                "time_spans": tracers["time"].spans,
                "memory_spans": tracers["memory"].spans,
            }))
    result_path.write_text(json.dumps(summary))


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        workload, seed, workdir = argv[1], int(argv[2]), Path(argv[3])
        plan = inputs.setup(workload, seed, workdir)
        (workdir / "plan.json").write_text(json.dumps(plan))
        return 0
    workdir, seconds, trace, result = Path(argv[1]), float(argv[2]), argv[3] == "1", Path(argv[4])
    spans = Path(argv[5]).resolve() if len(argv) > 5 else None
    result = result.resolve()
    os.chdir(workdir)
    run(Path("."), seconds, trace, result, spans)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
