#!/usr/bin/env python3
"""Benchmark of cmlocus: four workloads, end-to-end metrics with every
answer checked, a traced run for per-layer metrics, and a steadiness mode.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/run.py --steadiness [--workload W] [--runs 10] [--seconds T]

A run first starts SETUP_PROBES fresh interpreters that import cmlocus and
answer one query (set-up time), then runs whole rounds of the workload,
each round in a fresh worker interpreter, until T seconds have passed.
One client, closed loop, no threads; one child process at a time.  The
last line of standard output is the result as one JSON object.
"""

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

from common import BENCH, ROOT, SRC, spawn
from tracer import layer_metrics
from workloads import WORKLOADS

SETUP_PROBES = 11
INTERPRETER_PROBES = 5
# candidate tail percentiles, highest first; the tail is the highest one
# with at least ten of one round's latencies beyond it
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

END_TO_END = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "calls": "count", "self_ms": "ms", "hit_ratio": "ratio",
    "combinations": "count", "residue_per_combination": "ratio",
    "symbols": "count", "vertices": "count", "paths": "count",
    "interpreter_ms": "ms", "import_ms": "ms", "command_ms": "ms",
    "overhead_pct": "%",
}


class BenchError(Exception):
    pass


def _child(argv: list[str]) -> dict:
    r = spawn(argv)
    lines = r.out.strip().splitlines()
    if r.rc != 0 or not lines:
        raise BenchError(f"{' '.join(argv[1:])} exited {r.rc}: {r.err.strip()[-2000:]}")
    return json.loads(lines[-1])


def _worker(*args: str) -> dict:
    return _child([sys.executable, str(BENCH / "worker.py"), *args])


def percentile(sorted_vals: list, p: float):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100 * len(sorted_vals)))
    return sorted_vals[k - 1]


def tail_percentile(per_round: int) -> float | None:
    for p in LADDER:
        if per_round * (1 - p / 100) >= 10:
            return p
    return None


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    probes = [_worker("--probe") for _ in range(SETUP_PROBES)]
    origin = Path(probes[0]["origin"]).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"cmlocus was imported from {origin}, not from {SRC}")
    rounds = []  # (traced, result)
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 0
        args = ["--workload", workload, "--seed", str(seed)]
        rounds.append((traced, _worker(*args, *(["--trace"] if traced else []))))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (not trace or len(rounds) >= 4):
            break
    results = [r for _, r in rounds]
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["nbad"] == 0 for r in results)
    per_round = results[0]["ops"]
    print(f"{workload} seed={seed} backend={probes[0]['backend']} python={sys.version.split()[0]}: "
          f"{len(results)} rounds x {per_round} ops in {elapsed:.1f} s, "
          f"{failed} failed")
    for r in results:
        for line in r["errors"] + r["bad"]:
            print(f"  {line}")

    if trace:
        metrics = _per_layer(workload, rounds, probes)
    else:
        metrics = _end_to_end(results, probes, per_round)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _end_to_end(results: list[dict], probes: list[dict], per_round: int) -> dict:
    lat = sorted(x for r in results for x in r["lat_ns"])
    p = tail_percentile(per_round)
    out = {
        "throughput_qps": len(lat) / (sum(lat) / 1e9),
        "latency_p50_ms": statistics.median(lat) / 1e6,
    }
    if p is not None:
        out["latency_tail_ms"] = percentile(lat, p) / 1e6
        beyond = len(lat) - math.ceil(p / 100 * len(lat))
        print(f"latency_tail_ms is p{p:g} of {len(lat)} latencies "
              f"({beyond} beyond it; {per_round} per round)")
    out["setup_s"] = statistics.median(x["setup_s"] for x in probes)
    out["peak_rss_mb"] = statistics.median(r["maxrss_kb"] for r in results) / 1024
    return {k: (v, END_TO_END[k]) for k, v in out.items()}


def _per_layer(workload: str, rounds, probes: list[dict]) -> dict:
    traced = [r for t, r in rounds if t]
    plain = [r for t, r in rounds if not t]
    values: dict[str, list] = {}
    absent: set[str] = set()
    for r in traced:
        vals, gone = layer_metrics(r["layers"])
        absent.update(gone)
        for k, v in vals.items():
            values.setdefault(k, []).append(v)
    out = {k: statistics.median(v) for k, v in values.items()}
    interp = [
        spawn([sys.executable, "-c", "pass"]).wall_s * 1e3
        for _ in range(INTERPRETER_PROBES)
    ]
    out["cli.interpreter_ms"] = statistics.median(interp)
    out["cli.import_ms"] = statistics.median(x["import_ms"] for x in probes)
    cmd = [x for r in traced for x in (r["layers"].get("command_ms") or [])]
    out["cli.command_ms"] = statistics.median(cmd) if cmd else 0.0
    t_pass = statistics.median(sum(r["lat_ns"]) for r in traced)
    u_pass = statistics.median(sum(r["lat_ns"]) for r in plain)
    out["trace.overhead_pct"] = (t_pass / u_pass - 1) * 100
    print(f"tracing overhead: traced pass {t_pass / 1e6:.1f} ms vs untraced "
          f"{u_pass / 1e6:.1f} ms per round ({len(traced)} + {len(plain)} rounds)")
    if absent:
        print(f"absent (cache removed): {', '.join(sorted(absent))}")
    return {k: (v, PER_LAYER_UNITS[k.rsplit(".", 1)[1]]) for k, v in out.items()}


# -- steadiness ---------------------------------------------------------------


def _spread(vals: list[float]) -> float:
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)


def steadiness(workloads: list[str] | None, runs: int, seconds: int) -> None:
    """Two sets of ``runs`` runs (seeds 1..runs) of the same code, one
    workload at a time; prints each metric's spread (IQR / median within a
    set) and its set-to-set difference, against the bounds of
    BENCHMARK.json when it is present.  Without ``workloads``, runs those
    BENCHMARK.json lists (all of them when it is absent)."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        spec = json.loads(spec.read_text())
        for m in spec["end_to_end"]:
            bounds[m["name"]] = (m["bound"], m["better"])
        workloads = workloads or [w["name"] for w in spec["workloads"]]
    workloads = workloads or list(WORKLOADS)
    report = {}
    for w in workloads:
        sets = []
        for s in range(2):
            vals: dict[str, list[float]] = {}
            shares = set()
            for seed in range(1, runs + 1):
                res = _child([sys.executable, str(BENCH / "run.py"), "--workload", w,
                              "--seed", str(seed), "--seconds", str(seconds),
                              "--trace", "0"])
                if not res["correct"]:
                    raise BenchError(f"{w} seed {seed}: incorrect answers")
                shares.add(res["failed"] / res["attempted"])
                for k, m in res["metrics"].items():
                    vals.setdefault(k, []).append(m["value"])
                print(f"  {w} set {s + 1} seed {seed}: " + ", ".join(
                    f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
                    flush=True)
            sets.append((vals, shares))
        report[w] = {}
        print(f"{w}: failed share per run {sorted(sets[0][1] | sets[1][1])}")
        for k in sets[0][0]:
            a, b = sets[0][0][k], sets[1][0][k]
            ma, mb = statistics.median(a), statistics.median(b)
            bound, better = bounds.get(k, (None, "lower"))
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            row = {"median": [ma, mb], "spread": [_spread(a), _spread(b)],
                   "set_diff": (mb - ma) / ma, "worse_by": worse, "bound": bound}
            report[w][k] = row
            flag = ""
            if bound is not None:
                # the spread of setup_s is not held to its bound
                top = max(row["spread"]) if k != "setup_s" else 0.0
                if worse > bound or top > bound:
                    flag = "OVER bound"
                else:
                    flag = "steady" if top <= bound / 3 else "within bound"
            print(f"  {k:16s} medians {ma:10.4g} {mb:10.4g}  spreads "
                  f"{row['spread'][0]:6.3f} {row['spread'][1]:6.3f}  "
                  f"set-to-set {row['set_diff']:+.3f}  bound {bound}  {flag}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    if not (SRC / "cmlocus" / "__init__.py").is_file():
        print(f"perfbench: no cmlocus sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.steadiness:
            steadiness(args.workload, args.runs, args.seconds)
            return 0
        if not args.workload or len(args.workload) != 1:
            ap.error("give exactly one --workload")
        result = run(args.workload[0], args.seed, args.seconds, bool(args.trace))
    except (BenchError, TimeoutError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
