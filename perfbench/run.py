"""scriptmap benchmark: one workload, timed in fresh processes and checked.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark

  1. generates the workload's corpus for the seed (gen.py; cached under
     .perfbench_cache/ by seed and by the sources of gen.py, workloads.py
     and scriptmap, with the saved models `apply` needs);
  2. runs a tiny instance at the reference seed and compares its output
     digest with reference.json;
  3. runs the workload again and again, each time in a fresh process
     (worker.py), until S seconds have passed and at least three runs are
     done;
  4. checks that every run produced the same outputs (and, when
     reference.json holds a digest for this seed, that digest) and an F1
     above the workload's floor;
  5. prints one line per metric, then one JSON object as the last line.

With --trace 0 the metrics are the end-to-end ones, medians over the runs:
wall_s, setup_s, peak_rss_mb and f1. Times are scaled to the reference host
speed, which each run samples while it executes (worker.SpeedProbe). With
--trace 1 untraced and traced runs alternate; the metrics are the per-layer
ones from the traced runs (see tracing.py), plus trace.wall_s and
trace.overhead_s, the traced minus the untraced median wall time.

Exits 2 without a result when the scriptmap sources are missing, and 1 when
a run cannot finish within the time limit. --record writes the digests of
this run to reference.json instead of checking them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import gen
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
MIN_RUNS = 3
DEADLINE_S = 160.0  # a benchmark run must end within 180 s
KEEP_DATASETS = 4  # cached data sets kept per workload and size

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "f1": "score"}


def _child_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread per process: the benchmark runs one process at a time
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def _worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=max(timeout, 1.0),
    )


def dataset(workload: str, seed: int, tiny: bool, timeout: float) -> Path:
    """Generated (and, for apply, prepared) inputs for one seed, cached."""
    params = workloads.TINY if tiny else workloads.SIZES[workload]
    # the saved models come from scriptmap itself, so its sources are part of
    # the key: a changed program never applies models an earlier one trained
    package = sorted(f for f in (ROOT / "src" / "scriptmap").rglob("*")
                     if f.is_file() and "__pycache__" not in f.parts)
    sources = [HERE / "gen.py", HERE / "workloads.py", *package]
    digest = hashlib.sha256(json.dumps(params).encode())
    for f in sources:
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    key = digest.hexdigest()[:10]
    size = "tiny" if tiny else "full"
    d = CACHE / f"{workload}-{size}-{seed}-{key}"
    if (d / ".ready").exists():
        return d
    shutil.rmtree(d, ignore_errors=True)
    gen.generate(d, seed, **params)
    if workloads.prepare_commands(workload, d):
        done = _worker(["prepare", workload, str(d)], timeout)
        if done.returncode != 0:
            raise RuntimeError(f"preparing {d.name} failed:\n{done.stderr[-2000:]}")
    (d / ".ready").write_text("")
    stale = sorted(CACHE.glob(f"{workload}-{size}-*"), key=lambda p: p.stat().st_mtime)
    for old in stale[:-KEEP_DATASETS]:
        if old != d:
            shutil.rmtree(old, ignore_errors=True)
    return d


def run_once(workload: str, d: Path, trace: bool, timeout: float) -> dict | None:
    """One workload run in a fresh process; None if it failed."""
    result = d / ("result-trace.json" if trace else "result.json")
    result.unlink(missing_ok=True)
    args = ["run", workload, str(d), str(result)] + (["--trace"] if trace else [])
    try:
        done = _worker(args, timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: run timed out", file=sys.stderr)
        return None
    if done.returncode != 0 or not result.exists():
        print(f"{workload}: run failed ({done.returncode}):\n{done.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(result.read_text())


def _median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)



def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="write this run's digests to reference.json")
    a = p.parse_args()
    if not (ROOT / "src" / "scriptmap" / "__init__.py").is_file():
        print(f"perfbench: no scriptmap sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    begin = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - begin)

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    attempted = failed = 0

    tiny = run_once(a.workload, dataset(a.workload, REFERENCE_SEED, True, remaining()),
                    False, remaining())
    attempted += 1
    expected_tiny = reference.get("tiny", {}).get(a.workload)
    if tiny is None or (not a.record and tiny["digest"] != expected_tiny):
        print(f"{a.workload}: reference-seed outputs differ from reference.json",
              file=sys.stderr)
        failed += 1

    d = dataset(a.workload, a.seed, False, remaining())
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        done = len(plain) >= MIN_RUNS and (not a.trace or len(traced) >= MIN_RUNS - 1)
        if done and time.monotonic() - start >= a.seconds:
            break
        if remaining() < 1.5 * longest:
            break
        trace = bool(a.trace) and len(plain) > len(traced)
        t0 = time.monotonic()
        r = run_once(a.workload, d, trace, remaining())
        longest = max(longest, time.monotonic() - t0)
        attempted += 1
        if r is None:
            failed += 1
        else:
            (traced if trace else plain).append(r)
    if not plain or (a.trace and not traced):
        print(f"{a.workload}: no run finished within the time limit", file=sys.stderr)
        return 1

    runs = plain + traced
    expected = reference.get("seeds", {}).get(a.workload, {}).get(str(a.seed))
    if a.record or expected is None:
        expected = Counter(r["digest"] for r in runs).most_common(1)[0][0]
    floor = workloads.F1_FLOOR[a.workload]
    for r in runs:
        if r["digest"] != expected or r["f1"] < floor:
            print(f"{a.workload}: outputs differ from the reference or F1 {r['f1']:.4f}"
                  f" is below {floor}", file=sys.stderr)
            failed += 1
    if a.record and tiny is not None:
        reference.setdefault("tiny", {})[a.workload] = tiny["digest"]
        reference.setdefault("seeds", {}).setdefault(a.workload, {})[str(a.seed)] = expected
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    if a.trace:
        metrics = {}
        for key, unit in _layer_units(traced[0]["layers"]).items():
            metrics[key] = {"value": statistics.median(r["layers"][key] for r in traced),
                            "unit": unit}
        wall = _median(traced, "wall_s")
        metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": wall - _median(plain, "wall_s"), "unit": "s"}
    else:
        metrics = {k: {"value": _median(plain, k), "unit": u} for k, u in END_TO_END.items()}
    print(f"{a.workload} seed {a.seed}: {failed} of {attempted} runs failed")
    for r in runs:
        print(f"  {'traced' if 'layers' in r else 'run':6s} wall_s {r['wall_s']:.3f}"
              f" = measured {r['raw_wall_s']:.3f} s x host speed {r['host_speed']:.3f}")
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:12.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_units(layers: dict) -> dict[str, str]:
    units = {}
    for key in layers:
        if key.endswith("_s"):
            units[key] = "s"
        elif key.endswith(("_per_iteration", "_per_mention", "_per_story", "_share")):
            units[key] = "ratio"
        else:
            units[key] = "count"
    return units


if __name__ == "__main__":
    sys.exit(main())
