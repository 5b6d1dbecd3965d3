"""Span tracing of orbmod's public functions, from outside the package.

:class:`Tracer` wraps each public function named in :data:`LAYERS` and
rebinds the wrapper under every name that refers to the original in every
loaded ``orbmod`` module, so calls made inside the package (``cli`` calling
``validate_modular_datum``, ``rho_of`` calling ``decompose_to_generators``)
are recorded too.  Each span records its layer, start, end, parent span, op
id, the size N it worked on, a layer-specific count and, for a tracer
made with ``memory=True``, the peak ``tracemalloc`` growth above its
starting level.  ``tracemalloc`` slows every Python allocation several
times over, so the worker takes times and peaks from separate rounds.
Spans stay in memory; the worker writes them out when the run ends.

A layer's self time is its span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc

# layer -> (orbmod submodule, public functions it covers)
LAYERS = {
    "modular_data.parse": ("modular_data", ("parse_modular_datum",)),
    "modular_data.validate": ("modular_data", ("validate_modular_datum",)),
    "modular_data.verlinde": ("modular_data", ("verlinde_fusion",)),
    "modular_data.serialize": ("modular_data", ("modular_datum_to_dict",)),
    "modular_data.t_matrix": ("modular_data", ("t_matrix",)),
    "perm_orbifold.enumerate": ("perm_orbifold", ("orbifold_labels", "enumerate_orbifold_modules")),
    "perm_orbifold.assemble": ("perm_orbifold", ("assemble_orbifold_S", "twisted_sector_block")),
    "perm_orbifold.t_phases": ("perm_orbifold", ("orbifold_t_phases",)),
    "perm_orbifold.build": ("perm_orbifold", ("build_orbifold_datum",)),
    "perm_orbifold.serialize": ("perm_orbifold", ("orbifold_datum_to_dict",)),
    "perm_orbifold.restriction_data": ("perm_orbifold", ("permutation_restriction_data",)),
    "restricted.parse": ("restricted", ("parse_restricted_spec",)),
    "restricted.check": ("restricted", ("validate_group_data",)),
    "restricted.assemble": ("restricted", ("assemble_restricted_S",)),
    "restricted.serialize": ("restricted", ("restricted_spec_to_dict", "restricted_result_to_dict")),
    "sl2z.decompose": ("sl2z", ("decompose_to_generators",)),
    "sl2z.rho": ("sl2z", ("rho_of",)),
}
# Root spans opened by the worker around each op: "cli" for a CLI command
# (click dispatch, json.dumps, rendering and file writes are its self
# time), "lib" for a library op (its own JSON encoding and file writes).
ROOTS = ("cli", "lib")

# span fields
LAYER, START, END, PARENT, OP, N, PEAK, COUNT = range(8)


def _size(fname: str, args: tuple, result) -> tuple[int, int]:
    """N of the call, and the layer-specific count it adds."""
    first = args[0] if args else None
    if fname == "parse_modular_datum":
        return result.rank, len(first) if isinstance(first, str) else 0
    if fname == "parse_restricted_spec":
        return len(result[0]), len(first) if isinstance(first, str) else 0
    if fname == "decompose_to_generators":
        return len(result), len(result)
    if fname == "assemble_orbifold_S":
        return result.shape[0], result.shape[0] ** 2
    if fname == "assemble_restricted_S":
        return len(result[0]), sum(len(v) for v in args[1].values())
    if fname in ("restricted_spec_to_dict", "restricted_result_to_dict", "validate_group_data"):
        return len(first), 0
    if fname == "build_orbifold_datum":
        return result.datum.rank, 0
    if fname == "rho_of":
        first = args[1]
    datum = getattr(first, "datum", first)
    return getattr(datum, "rank", 0), 0


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores orbmod."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.op = None
        # while paused (the worker's untimed checks) wrappers record nothing
        self.paused = False
        self._stack: list[int] = []
        self._peak_seen: dict[int, int] = {}
        self._base: dict[int, int] = {}
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "orbmod" or name.startswith("orbmod."))]
        for layer, (modname, fnames) in LAYERS.items():
            home = importlib.import_module(f"orbmod.{modname}")
            for fname in fnames:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, fname, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def begin_op(self, op: str, root: str) -> int:
        """Open the root span of one op.  A memory tracer runs
        ``tracemalloc`` only from here to :meth:`end_op`, so the worker's
        checks between ops do not pay for it."""
        self.op = op
        if self.memory:
            tracemalloc.start()
        return self.open(root)

    def end_op(self, idx: int) -> None:
        self.close(idx)
        if self.memory:
            tracemalloc.stop()

    def open(self, layer: str) -> int:
        idx = len(self.spans)
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                self._peak_seen[parent] = max(self._peak_seen[parent], peak)
            tracemalloc.reset_peak()
            current, _ = tracemalloc.get_traced_memory()
            self._base[idx] = self._peak_seen[idx] = current
        self.spans.append([layer, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.op, 0, 0, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, n: int = 0, count: int = 0) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[N], span[COUNT] = n, count
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            seen = max(self._peak_seen.pop(idx), peak)
            span[PEAK] = seen - self._base.pop(idx)
            if self._stack:
                parent = self._stack[-1]
                self._peak_seen[parent] = max(self._peak_seen[parent], seen)

    def _wrap(self, layer: str, fname: str, original):
        def traced(*args, **kwargs):
            if self.paused:
                return original(*args, **kwargs)
            idx = self.open(layer)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                n, count = _size(fname, args, result) if result is not None else (0, 0)
                self.close(idx, n, count)

        traced.__wrapped__ = original
        traced.__name__ = fname
        return traced


def layer_metrics(spans: list[list], rounds: int, fusion_ops: set,
                  memory_spans: list[list]) -> dict[str, float]:
    """Per-layer totals over ``spans``, divided by the number of traced
    rounds so that counts repeat exactly from run to run, and each layer's
    largest peak over ``memory_spans``.

    ``modular_data.validate`` is split by its parent: validation called
    from ``perm_orbifold.build`` checks the assembled output, every other
    call checks an input.  ``modular_data.verlinde.calls_per_op`` is the
    number of Verlinde calls per ``orbmod fusion`` op that computes a table
    (``fusion_ops`` holds their op ids), 0 where the workload has none.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    names = list(ROOTS) + list(LAYERS)
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    peak = dict.fromkeys(names, 0)
    count = dict.fromkeys(names, 0)
    flops = vbytes = fusion_verlinde = 0
    val = {"input": [0, 0.0], "output": [0, 0.0]}
    for idx, span in enumerate(spans):
        layer = span[LAYER]
        own = span[END] - span[START] - child_time[idx]
        calls[layer] += 1
        self_s[layer] += own
        count[layer] += span[COUNT]
        if layer == "modular_data.validate":
            parent = span[PARENT]
            side = "output" if parent >= 0 and spans[parent][LAYER] == "perm_orbifold.build" else "input"
            val[side][0] += 1
            val[side][1] += own
        elif layer == "modular_data.verlinde":
            flops += span[N] ** 4
            vbytes += 16 * span[N] ** 3
            fusion_verlinde += span[OP] in fusion_ops
    for span in memory_spans:
        peak[span[LAYER]] = max(peak[span[LAYER]], span[PEAK])
    per = 1.0 / rounds
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls[name] * per
        out[f"{name}.self_s"] = self_s[name] * per
        out[f"{name}.peak_mb"] = peak[name] / 2**20
        if name == "modular_data.validate":
            for side in ("input", "output"):
                out[f"{name}.{side}.calls"] = val[side][0] * per
                out[f"{name}.{side}.self_s"] = val[side][1] * per
    out["modular_data.parse.bytes_in"] = count["modular_data.parse"] * per
    out["modular_data.verlinde.flops"] = flops * per
    out["modular_data.verlinde.bytes"] = vbytes * per
    out["modular_data.verlinde.calls_per_op"] = (
        fusion_verlinde / len(fusion_ops) if fusion_ops else 0.0
    )
    out["perm_orbifold.assemble.entries"] = count["perm_orbifold.assemble"] * per
    out["restricted.parse.bytes_in"] = count["restricted.parse"] * per
    out["restricted.assemble.block_entries"] = count["restricted.assemble"] * per
    out["sl2z.decompose.tokens"] = count["sl2z.decompose"] * per
    return out
