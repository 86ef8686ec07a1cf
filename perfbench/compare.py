"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by run.py (searched recursively).
Runs of the two sets are paired by seed; several runs of one seed are paired
in the order they started. For every (metric, workload) the command prints
each side's median and quartiles and a verdict:

- better: over at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither) and the medians differ by more than the
  base's interquartile range (choosing-metrics section 8);
- unresolved: otherwise, if either side's interquartile range, as a share of
  its median, is wider than the bound, unless every change run beats every
  base run (then better);
- worse: otherwise, if the change's median is worse than the base's by more
  than the bound;
- unchanged: otherwise.

Bounds come from BENCHMARK.json; see main() for the metrics it cannot list.
Two end-to-end rows pool all paired runs instead of taking one value per run:
``error_rate`` is failed over attempted ops, and the change is worse if it
fails more ops than the base; ``op_tail_pooled_s`` is the highest percentile
of all op times with at least 10 ops beyond it, better or worse by more than
``op_tail_s``'s bound. Per-layer metrics have no bound: times are better or
worse only by the pair rule (worse mirrors better), and counts must repeat
exactly, else "changed". Runs paired with each other must produce the same
outputs: the same digests, and no failed op on either side.
Exits 1 if any end-to-end verdict is worse or unresolved, or outputs differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import BENCHMARK, EXTRA_METRICS, tail  # noqa: E402


def load(directory: Path) -> dict:
    """{(workload, trace): {(seed, k): record}}: the k-th run of each seed."""
    records = []
    for path in sorted(directory.rglob("*.json")):
        try:
            rec = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(rec, dict) and "summary" in rec:
            records.append(rec)
    records.sort(key=lambda r: r["meta"].get("started", 0.0))  # stable: older files by path
    runs: dict = {}
    for rec in records:
        by_run = runs.setdefault((rec["workload"], rec["trace"]), {})
        seed = rec["meta"]["seed"]
        by_run[(seed, sum(s == seed for s, _ in by_run))] = rec
    return runs


def metric_values(records: list[dict], name: str, trace: bool) -> list[float]:
    """One value per run; per-layer metrics a run did not record are 0."""
    if trace:
        return [r["worker"]["per_layer"].get(name, 0.0) for r in records]
    return [r["end_to_end"][name] for r in records if name in r["end_to_end"]]


def output_digests(record: dict) -> set[str]:
    """A run's distinct outputs: each op's digests, or the error of a failed op."""
    return {json.dumps(op["digests"] if op["ok"] else {"failed": op["error"]}, sort_keys=True)
            for op in record["ops"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> str:
    """Verdict for the paired samples a (base) and b (change)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - a) < 0: b is better
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    losses = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    # the pair rule needs at least ten pairs
    beyond_spread = len(a) >= 10 and abs(bm - am) > a3 - a1
    if wins >= 0.9 * len(a) and sign * (bm - am) < 0 and beyond_spread:
        return "better"
    if bound is None:
        lost = losses >= 0.9 * len(a) and sign * (bm - am) > 0 and beyond_spread
        return "worse" if lost else "unchanged"
    spread = max((a3 - a1) / abs(am) if am else 0.0, (b3 - b1) / abs(bm) if bm else 0.0)
    if spread > bound:
        return "better" if all(sign * (y - x) < 0 for x in a for y in b) else "unresolved"
    if am and sign * (bm - am) / abs(am) > bound:
        return "worse"
    return "unchanged"


def pooled_rows(a: list[dict], b: list[dict], tail_bound: float) -> list[tuple]:
    """(name, unit, base value, change value, note, verdict) over all runs of each side."""
    failed = [sum(r["summary"]["failed"] for r in side) for side in (a, b)]
    attempted = [sum(r["summary"]["attempted"] for r in side) for side in (a, b)]
    errors = "worse" if failed[1] > failed[0] else "better" if failed[1] < failed[0] else "unchanged"
    tails = [tail([t for r in side for t in r["worker"]["op_seconds"]]) for side in (a, b)]
    (ta, pa), (tb, pb) = tails
    if tb > ta * (1 + tail_bound):
        tails_v = "worse"
    elif tb < ta * (1 - tail_bound):
        tails_v = "better"
    else:
        tails_v = "unchanged"
    n_ops = [sum(len(r["worker"]["op_seconds"]) for r in side) for side in (a, b)]
    return [
        ("error_rate", "ratio", failed[0] / attempted[0], failed[1] / attempted[1],
         f"failed {failed[0]}/{attempted[0]} -> {failed[1]}/{attempted[1]} ops", errors),
        ("op_tail_pooled_s", "s", ta, tb,
         f"{pa} of {n_ops[0]} ops -> {pb} of {n_ops[1]} ops", tails_v),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args()
    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    # the rates are work per op over the mean op time, so op_p50_s's bound
    # applies to them; error_rate is pooled (pooled_rows)
    for name, (unit, better) in EXTRA_METRICS.items():
        if name != "error_rate":
            e2e[name] = (unit, better, e2e["op_p50_s"][2])
    layers = {m["name"]: (m["unit"], m["better"], None) for m in spec["per_layer"]}
    base, change = load(args.base), load(args.change)

    failing = 0
    print(f"{'workload':<11} {'metric':<36} {'unit':<6} {'base median [q1, q3]':>36}"
          f" {'change median [q1, q3]':>36} {'delta':>8}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        pairs = sorted(set(base[key]) & set(change[key]))
        a_runs = [base[key][p] for p in pairs]
        b_runs = [change[key][p] for p in pairs]
        labels = [f"{s}" if k == 0 else f"{s}#{k + 1}" for s, k in pairs]
        differ = [label for label, x, y in zip(labels, a_runs, b_runs)
                  if output_digests(x) != output_digests(y)
                  or x["summary"]["failed"] or y["summary"]["failed"]]
        failing += len(differ)
        repeats = " (seeds repeat: paired in start order)" if any(k for _, k in pairs) else ""
        print(f"-- {workload} trace={int(trace)}: {len(pairs)} paired runs{repeats}, outputs "
              + (f"differ or fail on seeds {differ}" if differ else "identical"))
        metrics = layers if trace else e2e
        for name, (unit, better, bound) in metrics.items():
            a, b = metric_values(a_runs, name, trace), metric_values(b_runs, name, trace)
            if len(a) != len(pairs) or len(b) != len(pairs):
                continue  # the metric does not apply to this workload
            if trace and not name.endswith("_s"):
                v = "unchanged" if a == b else "changed"
            else:
                v = verdict(a, b, better, None if trace else bound)
            failing += (not trace) and v in ("worse", "unresolved")
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            delta = f"{(bm - am) / abs(am):+.1%}" if am else "n/a"
            print(f"{workload:<11} {name:<36} {unit:<6} {am:>12.5g} [{a1:>9.5g}, {a3:>9.5g}]"
                  f" {bm:>12.5g} [{b1:>9.5g}, {b3:>9.5g}] {delta:>8}  {v}")
        if trace:
            continue
        for name, unit, am, bm, note, v in pooled_rows(a_runs, b_runs, e2e["op_tail_s"][2]):
            failing += v == "worse"
            delta = f"{(bm - am) / abs(am):+.1%}" if am else "n/a"
            print(f"{workload:<11} {name:<36} {unit:<6} {am:>12.5g} {'(pooled)':>23}"
                  f" {bm:>12.5g} {'(pooled)':>23} {delta:>8}  {v}  [{note}]")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
