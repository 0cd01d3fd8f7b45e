"""Repeat the benchmark over several seeds and summarise it.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

For each workload it makes RUNS untraced runs (seeds 1..RUNS) and
TRACED_SEEDS + 1 traced runs (seeds 1..TRACED_SEEDS, each right after the
untraced run of its seed, then seed 1 once more), interleaving the workloads
so that machine drift falls on all of them alike. It reports, per end-to-end
metric, the median, the quartiles and their distance as a share of the
median next to the metric's bound in BENCHMARK.json; per layer, the median
of the traced runs; the tracing overhead, as the median over paired runs of
the share of ops_per_s lost; whether counts repeat exactly; and whether every
traced op's output matched its recorded digest, as every untraced op's must.
Counts exclude `rounds`, which depends on the proposal schedule. It exits 1
if a spread exceeds its bound, a count differs or an op failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
TRACED_SEEDS = 3


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    lines = done.stdout.splitlines()
    detail = next(json.loads(x[len("detail "):]) for x in lines if x.startswith("detail "))
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: {result['attempted']} ops, "
          f"{result['failed']} failed, calib {detail['calib_ms'][0]:.0f} ms", flush=True)
    return {"result": result, "detail": detail}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def exact_counts(detail: dict) -> dict:
    return {layer: {k: v for k, v in record.items() if k not in ("self_ns", "rounds")}
            for layer, record in detail["window_counts"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    plain = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for seed in range(1, RUNS + 1):
        for w in workloads:
            plain[w].append(run(w, seed, seconds, 0))
            if seed <= TRACED_SEEDS:
                traced[w].append(run(w, seed, seconds, 1))
    for w in workloads:
        traced[w].append(run(w, 1, seconds, 1))

    summary = {"run_seconds": seconds, "machine": plain[workloads[0]][0]["detail"]["machine"],
               "workloads": {}}
    ok = True
    for w in workloads:
        runs = plain[w]
        entry = {"failed": sum(r["result"]["failed"] for r in runs),
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "calib_ms": [r["detail"]["calib_ms"] for r in runs],
                 "end_to_end": {}}
        print(f"\n{w}: {len(runs)} runs of {seconds} s, fail_ratio "
              f"{entry['failed'] / entry['attempted']:.3g} ({entry['failed']}/{entry['attempted']})")
        for name in runs[0]["result"]["metrics"]:
            s = spread([r["result"]["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            limit = (" OK" if s["spread"] < bounds[name] / 3 else
                     " WIDE" if s["spread"] < bounds[name] else " OVER BOUND")
            ok = ok and limit != " OVER BOUND"
            print(f"  {name:12s} median {s['median']:.4g} {s['unit']}  "
                  f"q1 {s['q1']:.4g} q3 {s['q3']:.4g}  spread {s['spread']:.3f} "
                  f"(bound {bounds[name]}){limit}")
        for name in ("op_p50_ms", "op_p90_ms"):
            values = [r["detail"][name] for r in runs if name in r["detail"]]
            if len(values) == len(runs):
                entry[name] = spread(values)
                print(f"  {name:12s} median {entry[name]['median']:.4g} ms "
                      f"spread {entry[name]['spread']:.3f} (printed, not gated)")
        ok = ok and entry["failed"] == 0
        t = traced[w]
        per_layer = {name: statistics.median(r["result"]["metrics"][name]["value"] for r in t)
                     for name in t[0]["result"]["metrics"]}
        overhead = statistics.median(
            1 - t_run["result"]["metrics"]["trace.ops_per_s"]["value"]
            / p_run["result"]["metrics"]["ops_per_s"]["value"]
            for t_run, p_run in zip(t[:TRACED_SEEDS], runs))
        repeat = exact_counts(t[0]["detail"]) == exact_counts(t[-1]["detail"])
        same_out = all(r["result"]["failed"] == 0 for r in t)  # every op matched its digest
        entry.update(per_layer=per_layer, tracing_overhead=overhead,
                     counts_repeat=repeat, traced_outputs_match=same_out,
                     missing_sites=t[0]["detail"]["missing_sites"])
        ok = ok and repeat and same_out
        top = sorted((k for k in per_layer if k.endswith(".self_ms")),
                     key=per_layer.get, reverse=True)[:3]
        print(f"  tracing overhead {100 * overhead:.1f}% of ops_per_s; counts repeat: "
              f"{repeat}; traced outputs match: {same_out}; largest self time: "
              + ", ".join(f"{k} {per_layer[k]:.3g} ms/op" for k in top))
        summary["workloads"][w] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
