"""Repeat the benchmark over seeds and summarise it: medians, spreads, layers.

  python3 perfbench/prove.py [--runs 10] [--first-seed 1] [--seconds 20]
                             [--workloads classification,identification,apply]
                             [--out FILE]

Runs run.py once per workload and seed (seed-major, so drift of the host's
speed falls on every workload alike), then one traced run per workload. For
each end-to-end metric it prints the median, the quartiles and the spread,
(q3 - q1) / median, as statistics.quantiles(values, n=4) gives them. With
--out the summary is written as JSON: sizes, medians, spreads, the measured
input properties, the three layers with most self time and the tracing
overhead of each workload.
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

import tracing
import workloads

HERE = Path(__file__).resolve().parent
PROPERTIES = ("corpus.mentions", "corpus.eds", "crf.features",
              "identify.tfidf_distinct_share")


def bench(workload: str, seed: int, seconds: int, trace: int, record: bool = False) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)] + (["--record"] if record else []),
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def machine() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    models = [l.split(":", 1)[1].strip() for l in
              (cpuinfo.read_text().splitlines() if cpuinfo.exists() else [])
              if l.startswith("model name")]
    return {"cpu": models[0] if models else platform.processor(), "cores": os.cpu_count(),
            "python": platform.python_version()}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--workloads", default=",".join(workloads.NAMES))
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--record", action="store_true",
                   help="pass --record to run.py: store each seed's digest in reference.json")
    a = p.parse_args()
    names = a.workloads.split(",")
    seeds = range(a.first_seed, a.first_seed + a.runs)
    results: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            t = time.monotonic()
            r = bench(w, seed, a.seconds, 0, a.record)
            results[w].append(r)
            print(f"{w} seed {seed} ({time.monotonic() - t:.0f} s): correct={r['correct']} "
                  + " ".join(f"{k}={m['value']:.4f}" for k, m in r["metrics"].items()),
                  flush=True)
    summary = {"machine": machine(), "seeds": list(seeds), "seconds": a.seconds,
               "workloads": {}}
    for w in names:
        runs = results[w]
        metrics = {k: spread([r["metrics"][k]["value"] for r in runs])
                   for k in runs[0]["metrics"]}
        traced = bench(w, a.first_seed, a.seconds, 1)["metrics"]
        layers = {k: m["value"] for k, m in traced.items()}
        summary["workloads"][w] = {
            "sizes": workloads.SIZES[w],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": metrics,
            "properties": {k: layers[k] for k in PROPERTIES},
            "top_layers_by_self_time": [
                [layer, layers[f"{layer}.self_s"]] for layer in tracing.top_layers(layers)
            ],
            "trace": {"wall_s": layers["trace.wall_s"],
                      "overhead_s": layers["trace.overhead_s"]},
            "per_layer": layers,
        }
        print(f"\n{w}: {summary['workloads'][w]['failed']} of"
              f" {summary['workloads'][w]['attempted']} failed")
        for k, s in metrics.items():
            print(f"  {k:14s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}"
                  f"  q3 {s['q3']:10.4f}  spread {s['spread']:.3f}")
        print("  top layers:", summary["workloads"][w]["top_layers_by_self_time"])
    if a.out:
        a.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
