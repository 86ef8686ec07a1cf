"""Span tracing around the public functions of each ``arsc`` layer.

The tracer replaces chosen module-level functions with wrappers that record
a span per call: name, start, end, parent span and op id. Spans stay in
memory and are written out when the run ends. A wrapped function is
replaced in every ``arsc`` module that binds it, so names ``arsc.cli``
imported are traced too, and ``restore`` puts every original back.

verify-mul makes millions of leaf calls per op, so after ``FULL_SPANS``
calls of one name under one parent span, further calls are folded into a
single record of that (parent, name) holding their call count and summed
duration. Per-layer ``calls``, ``total_s`` and ``self_s`` are derived from
spans and folds alike.

A wrapper's own work (the outer call, stack and record updates) runs outside
the span it records, so it lands in the caller's time; the inner call and
clock read land in the span's own. ``calibrate`` measures both costs per
traced call on a no-op function, the outer one once per path (span, fold),
and ``layer_metrics`` takes them off the times of the call and of every
ancestor. The per-bit-width ``process_image`` totals are left raw: three
traced calls per op run inside ``process_image``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# record fields
NAME, PARENT, OP, START, END, CALLS, TOTAL, FOLDED = range(8)

# calls of one name under one parent kept as separate spans before folding
FULL_SPANS = 256

# (layer, module, function names); the span name is "<layer>.<function>"
TRACED = (
    ("dct", "arsc.dct", ("process_image", "reference_pipeline", "psnr")),
    ("sc_core", "arsc.sc_core", ("sng_deterministic", "unary_gen", "and_multiply",
                                 "stream_to_binary", "cbsc_multiply", "sng_conventional")),
    ("cli", "arsc.cli", ("main", "cmd_verify_mul")),
    ("pgm", "arsc.pgm", ("read_pgm", "write_pgm")),
    ("platform_model", "arsc.platform_model", (
        "calibrate_cycles", "calibrate_power", "cycle_residuals", "power_residuals",
        "frequency_at_year", "throughput", "min_bitwidth_for_throughput",
        "min_frequency_for_throughput", "select_config", "default_cycle_model",
        "default_power_model", "default_aging_schedule")),
    ("refimage", "arsc.refimage", ("reference_image",)),
)


def _file_size(path) -> int:
    return Path(path).stat().st_size


def _count_process_image(counts, duration, args, kwargs, report):
    img, sel = args[0], args[1] if len(args) > 1 else kwargs["sel"]
    h, w = img.pixels.shape
    counts["dct.blocks"] += -(-h // 8) * -(-w // 8)
    counts["dct.sim_cycles"] += report.total_cycles_fixed
    counts["dct.clamps"] += report.clamp_count
    counts[f"dct.process_image.b{sel.bitwidth}.total_s"] += duration


def _count_read_pgm(counts, duration, args, kwargs, result):
    counts["pgm.bytes"] += _file_size(args[0] if args else kwargs["path"])


def _count_write_pgm(counts, duration, args, kwargs, result):
    counts["pgm.bytes"] += _file_size(args[1] if len(args) > 1 else kwargs["path"])


# boundary counters: called with the call's duration, arguments and result
COUNTERS = {
    "dct.process_image": _count_process_image,
    "pgm.read_pgm": _count_read_pgm,
    "pgm.write_pgm": _count_write_pgm,
}


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``restore`` unwraps."""

    def __init__(self):
        self.records: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack = [-1]
        self._seen: dict[tuple, int] = {}
        self._patched: list[tuple] = []

    def span(self, name: str):
        """Context manager recording one span from the benchmark itself."""
        return _Span(self, name)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        perf = perf_counter
        stack, seen, records = self._stack, self._seen, self.records
        counts = self.counts
        fold_index: dict[int, int] = {}  # parent span -> fold record
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            key = (parent, name)
            n = seen.get(key, 0)
            if n < FULL_SPANS:
                seen[key] = n + 1
                rec = [name, parent, tracer.op, 0.0, 0.0, 1, 0.0, False]
                stack.append(len(records))
                records.append(rec)
            else:
                idx = fold_index.get(parent)
                if idx is None:
                    idx = fold_index[parent] = len(records)
                    records.append([name, parent, tracer.op, 0.0, 0.0, 0, 0.0, True])
                rec = records[idx]
                rec[CALLS] += 1
                stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if not rec[START]:
                    rec[START] = t0
                rec[END] = t1
                rec[TOTAL] += t1 - t0
            if counter is not None:
                counter(counts, t1 - t0, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever an arsc module binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, modname, names in TRACED:
            mod = sys.modules[modname]
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "arsc" and not modname.startswith("arsc."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])

    def restore(self) -> None:
        """Put every original function back and check that it is back."""
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        for mod, attr, original in self._patched:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"could not restore {mod.__name__}.{attr}")
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write every record as one JSON line: spans have folded == false."""
        keys = ("name", "parent", "op", "start", "end", "calls", "total_s", "folded")
        with open(path, "w") as f:
            for i, rec in enumerate(self.records):
                f.write(json.dumps({"id": i, **dict(zip(keys, rec))}) + "\n")

    def layer_metrics(self, ops: set[int], n_ops: int,
                      costs: tuple[float, float, float]) -> dict[str, float]:
        """calls, total_s and self_s per traced name and per layer, per op.

        Only records of the given op ids count. ``costs`` are the seconds a
        traced call adds outside its span on the span and on the fold path,
        and inside it (see ``calibrate``); they come off the times of the
        call and its ancestors. A layer's total_s sums its outermost spans
        only, so nested calls within one layer count once.
        """
        records = self.records
        span_cost, fold_cost, inside = costs
        # wrapper cost of every traced call below each record
        below = [0.0] * len(records)
        for i in range(len(records) - 1, -1, -1):
            rec = records[i]
            if rec[PARENT] >= 0:
                outside = fold_cost if rec[FOLDED] else span_cost
                below[rec[PARENT]] += below[i] + rec[CALLS] * (outside + inside)
        total = [rec[TOTAL] - below[i] - rec[CALLS] * inside for i, rec in enumerate(records)]
        child_total = defaultdict(float)
        for i, rec in enumerate(records):
            if rec[PARENT] >= 0:
                child_total[rec[PARENT]] += total[i]
        out: dict[str, float] = defaultdict(float)
        for i, rec in enumerate(records):
            if rec[OP] not in ops:
                continue
            name = rec[NAME]
            layer = name.split(".", 1)[0]
            parent_layer = (records[rec[PARENT]][NAME].split(".", 1)[0]
                            if rec[PARENT] >= 0 else None)
            out[f"{name}.calls"] += rec[CALLS]
            out[f"{name}.total_s"] += total[i]
            out[f"{name}.self_s"] += total[i] - child_total[i]
            out[f"{layer}.calls"] += rec[CALLS]
            if parent_layer != layer:
                out[f"{layer}.total_s"] += total[i]
        return {k: v / n_ops for k, v in out.items()}


def _noop(x):
    return x


def calibrate() -> tuple[float, float, float]:
    """Seconds a traced call adds to the times the tracer records.

    Times calls of a wrapped no-op, under a fresh parent span each repeat.
    Outside its span, a call costs the caller its loop time minus the time
    the spans recorded and a bare loop: for the first FULL_SPANS calls (span
    path) and for the rest (fold path). Inside, it costs the time a span
    recorded minus a plain call of the no-op. Returns the three medians.
    """
    calls, repeats = 100_000, 7
    probe = Tracer()
    traced = probe._wrap("trace.probe", _noop)
    span_costs, fold_costs, inside_costs = [], [], []
    for _ in range(repeats):
        t0 = perf_counter()
        for i in range(calls):
            pass
        t1 = perf_counter()
        for i in range(calls):
            _noop(i)
        bare, plain = (t1 - t0) / calls, (perf_counter() - t1) / calls
        with probe.span("trace.calibrate"):
            first = len(probe.records)
            t0 = perf_counter()
            for i in range(FULL_SPANS):
                traced(i)
            t1 = perf_counter()
            for i in range(calls):
                traced(i)
            t2 = perf_counter()
        spans, fold = probe.records[first:first + FULL_SPANS], probe.records[-1]
        span_costs.append((t1 - t0 - sum(r[TOTAL] for r in spans)) / FULL_SPANS - bare)
        fold_costs.append((t2 - t1 - fold[TOTAL]) / fold[CALLS] - bare)
        inside_costs.append(fold[TOTAL] / fold[CALLS] - (plain - bare))
    return tuple(statistics.median(c) for c in (span_costs, fold_costs, inside_costs))


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.rec = [self.name, t._stack[-1], t.op, perf_counter(), 0.0, 1, 0.0, False]
        t._stack.append(len(t.records))
        t.records.append(self.rec)
        return self

    def __exit__(self, *exc):
        self.rec[END] = perf_counter()
        self.rec[TOTAL] = self.rec[END] - self.rec[START]
        self.tracer._stack.pop()
        return False
