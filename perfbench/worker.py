"""One workload in one fresh interpreter: set up, run ops, check, report.

Started by run.py from the repository root with ``src`` on PYTHONPATH:

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode {setup,measure,trace} --spawned-at T --out RESULT.json

``--spawned-at`` is the parent's ``time.perf_counter()`` just before the
spawn (CLOCK_MONOTONIC on Linux, shared by all processes), so set-up time
includes interpreter start. Set-up ends when the cold warm-up op returns.
``setup`` mode stops there; ``measure`` then runs ops in a closed loop with
one client for ``--seconds``; ``trace`` runs an untraced loop and then a
traced one of the same length. Ops always run in whole rounds, so every
distinct input of the workload appears equally often.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

perf = time.perf_counter


class Session:
    """Runs ops of one workload and keeps their times and outcomes."""

    def __init__(self, workload, cli, tracer=None):
        self.wl, self.cli, self.tracer = workload, cli, tracer
        self.ops: list[dict] = []

    def run_op(self, i: int) -> float:
        wl = self.wl
        for path in wl.outputs(i):
            path.unlink(missing_ok=True)
        argv = wl.op_argv(i)
        buf = io.StringIO()
        error = None
        span = self.tracer.span("bench.op") if self.tracer else contextlib.nullcontext()
        t0 = perf()
        try:
            with span, contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception:
            rc, error = None, traceback.format_exc(limit=3)
        seconds = perf() - t0
        digests = None
        if error is None and rc != 0:
            error = f"exit code {rc}"
        if error is None:
            try:
                digests = wl.check(i, buf.getvalue())
            except OSError as e:
                error = f"missing output: {e}"
            except Exception as e:  # a mismatch or an unreadable output
                error = f"{type(e).__name__}: {e}"
        self.ops.append({"index": i, "seconds": seconds, "ok": error is None,
                         "error": error, "digests": digests})
        return seconds

    def loop(self, seconds: float) -> list[float]:
        """Whole rounds of ops until ``seconds`` have passed; op times."""
        times = []
        deadline = perf() + seconds
        while True:
            for i in range(self.wl.round_size):
                if self.tracer:
                    self.tracer.op += 1
                times.append(self.run_op(i))
            if perf() >= deadline:
                return times


def main() -> int:
    t_main = perf()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    t0 = perf()
    import numpy
    import arsc
    import arsc.cli
    import arsc.refimage
    import_s = perf() - t0
    src = (Path.cwd() / "src").resolve()
    if src not in Path(arsc.__file__).resolve().parents:
        raise SystemExit(f"arsc imported from {arsc.__file__}, not from {src}")

    from tracer import Tracer, calibrate
    from workloads import WORKLOADS, load_golden

    workdir = Path(".bench_out") / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, load_golden())
        tracer = Tracer() if args.mode == "trace" else None
        t0 = perf()
        if tracer:
            tracer.install()
            with tracer.span("setup.inputs"):
                wl.make_inputs()
            tracer.restore()
        else:
            wl.make_inputs()
        inputs_s = perf() - t0
        session = Session(wl, arsc.cli)
        t0 = perf()
        warmup_s = session.run_op(0)
        ready = t0 + warmup_s  # set-up ends when the op returns, before its check
        result = {
            "mode": args.mode,
            "numpy": numpy.__version__,
            "setup": {
                "setup_s": ready - args.spawned_at,
                "interpreter_s": t_main - args.spawned_at,
                "import_s": import_s,
                "inputs_s": inputs_s,
                "warmup_s": warmup_s,
            },
        }
        if args.mode != "setup":
            result["op_seconds"] = session.loop(args.seconds)
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            traced = Session(wl, arsc.cli, tracer)
            tracer.counts.clear()
            first_op = tracer.op + 1
            tracer.install()
            try:
                times = traced.loop(args.seconds)
            finally:
                tracer.restore()
            session.ops += traced.ops
            costs = calibrate()
            layers = tracer.layer_metrics(set(range(first_op, tracer.op + 1)), len(times), costs)
            layers.update({k: v / len(times) for k, v in tracer.counts.items()})
            for k, cost in zip(("span_call_cost_s", "fold_call_cost_s", "in_span_cost_s"), costs):
                layers[f"trace.{k}"] = cost
            setup_layers = tracer.layer_metrics({0}, 1, costs)
            layers["refimage.reference_image.total_s"] = setup_layers.get(
                "refimage.reference_image.total_s", 0.0)
            layers.update({f"setup.{k}": result["setup"][k]
                           for k in ("import_s", "inputs_s", "warmup_s")})
            layers["trace.overhead_s"] = (statistics.median(times)
                                          - statistics.median(result["op_seconds"]))
            result["traced_op_seconds"] = times
            result["per_layer"] = layers
            spans = args.out.with_suffix(".spans.jsonl")
            tracer.write(spans)
            result["spans"] = str(spans)
        result["ops"] = session.ops
        args.out.write_text(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
