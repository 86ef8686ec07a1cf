"""arsc benchmark: drives the ``arsc`` CLI in-process and checks its outputs.

Run from the repository root:

    python3 perfbench/run.py --workload sweep256 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all                 # every workload

Each workload runs in fresh interpreters (see worker.py): set-up samples
first, then one process that runs ops in a closed loop with one client.
``--trace 1`` runs one process that times an untraced loop, then a traced
loop whose spans give the per-layer metrics. A human-readable table goes to
stdout, the full result (op times, output digests, run metadata) to
``--out``, and the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, DEFAULT_SEED  # noqa: E402

BENCHMARK = Path("BENCHMARK.json")
DEADLINE_S = 170  # every run must end within 180 s

# End-to-end metrics also reported that do not apply to every workload or
# are 0 when all is well, so BENCHMARK.json cannot list them: (unit, better).
EXTRA_METRICS = {
    "mpx_per_s": ("Mpx/s", "higher"),
    "pairs_per_s": ("1/s", "higher"),
    "error_rate": ("ratio", "lower"),
}


def metadata() -> dict:
    meta = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": platform.python_version(),
        "git_commit": None,
        "started": time.time(),
        "loadavg_start": os.getloadavg(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                meta["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    if Path(".git").exists():
        try:
            meta["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return meta


def spawn(workload: str, seed: int, seconds: float, mode: str, out: Path, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--out", str(out)]
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], env=env,
                            stdout=sys.stderr, stdin=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{workload} {mode} worker passed the {DEADLINE_S} s deadline")
    if rc != 0 or not out.exists():
        raise SystemExit(f"{workload} {mode} worker failed with exit code {rc}")
    return json.loads(out.read_text())


def tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least 10 ops beyond it.

    Below 21 ops that percentile would not exceed the median, so the
    maximum stands in for it.
    """
    s = sorted(times)
    if len(s) < 21:
        return s[-1], "max"
    k = len(s) - 11
    return s[k], f"p{100 * (k + 1) / len(s):.1f}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, outdir: Path, spec: dict) -> dict:
    wl = WORKLOADS[name]
    deadline = time.perf_counter() + DEADLINE_S
    meta = metadata()
    stem = outdir / name / f"seed{seed}-trace{int(trace)}-{time.time_ns()}"
    stem.parent.mkdir(parents=True, exist_ok=True)
    results = []
    if not trace:
        for k in range(wl.setup_reps - 1):
            results.append(spawn(name, seed, seconds, "setup", stem.with_suffix(f".setup{k}.json"), deadline))
    main = spawn(name, seed, seconds, "trace" if trace else "measure",
                 stem.with_suffix(".worker.json"), deadline)
    results.append(main)
    meta["loadavg_end"] = os.getloadavg()
    meta["numpy"] = main["numpy"]
    meta["seed"] = seed

    ops = [op for r in results for op in r["ops"]]
    failed = sum(not op["ok"] for op in ops)
    times = main["op_seconds"]
    tail_s, tail_pct = tail(times)
    e2e = {
        "setup_s": statistics.median(r["setup"]["setup_s"] for r in results),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "peak_rss_mb": main["peak_rss_kb"] / 1024,
        "error_rate": failed / len(ops),
    }
    if wl.mpx_per_op:
        e2e["mpx_per_s"] = wl.mpx_per_op * len(times) / sum(times)
    if wl.pairs_per_op:
        e2e["pairs_per_s"] = wl.pairs_per_op * len(times) / sum(times)

    if trace:
        metrics = {m["name"]: {"value": main["per_layer"].get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    summary = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {
        "workload": name, "trace": trace, "seconds": seconds, "meta": meta,
        "summary": summary, "end_to_end": e2e,
        "op_tail": {"percentile": tail_pct, "samples": len(times)},
        "setup_samples_s": [r["setup"]["setup_s"] for r in results],
        "setup_phases": [r["setup"] for r in results],
        "ops": ops, "worker": main,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    for path in stem.parent.glob(stem.name + ".*.json"):
        path.unlink()
    print_table(record, spec)
    return summary


def _num(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def print_table(record: dict, spec: dict) -> None:
    name, meta = record["workload"], record["meta"]
    print(f"== {name}  seed={meta['seed']}  trace={int(record['trace'])}  "
          f"nproc={meta['nproc']}  cpu={meta['cpu_model']}  python={meta['python']}  "
          f"numpy={meta['numpy']}  commit={meta['git_commit']}  "
          f"load={meta['loadavg_start'][0]:.2f}->{meta['loadavg_end'][0]:.2f}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({k: unit for k, (unit, _) in EXTRA_METRICS.items()})
    for key, value in record["end_to_end"].items():
        note = ""
        if key == "op_tail_s":
            note = f"  ({record['op_tail']['percentile']} of {record['op_tail']['samples']} ops)"
        if key == "setup_s":
            note = f"  (median of {len(record['setup_samples_s'])} set-ups)"
        print(f"  {key:<40} {_num(value):>14} {units[key]}{note}")
    if record["trace"]:
        for m in spec["per_layer"]:
            value = record["worker"]["per_layer"].get(m["name"], 0.0)
            print(f"  {m['name']:<40} {_num(value):>14} {m['unit']}")
    for op in record["ops"]:
        if not op["ok"]:
            print(f"  FAILED op {op['index']}: {op['error']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help=f"one of {', '.join(WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=Path(".bench_out") / "results",
                    help="directory for the full result files")
    args = ap.parse_args()

    if not Path("src/arsc/__init__.py").is_file() or not BENCHMARK.is_file():
        print("run from the repository root: src/arsc and BENCHMARK.json are needed",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        ap.error(f"unknown workload {args.workload!r}")
    summaries = {n: run_workload(n, args.seed, seconds, bool(args.trace), args.out, spec)
                 for n in names}
    print(json.dumps(summaries[names[0]] if len(names) == 1 else summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
