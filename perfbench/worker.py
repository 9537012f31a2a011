"""One workload run in a fresh process: the unit run.py times and checks.

  python3 perfbench/worker.py prepare WORKLOAD DATA_DIR
  python3 perfbench/worker.py run WORKLOAD DATA_DIR RESULT_JSON [--trace]

`run` executes the workload's scriptmap commands through `cli.main` inside
one root span and writes a JSON result: wall time and set-up time (the load
calls), both scaled to the reference host speed (see SpeedProbe), peak
resident memory, the headline F1 and a digest of the outputs. With --trace
every public scriptmap function is wrapped (see tracing.py), the per-layer
metrics are added and the spans, in unscaled seconds, are written next to the
result.
Expects scriptmap importable, e.g. with PYTHONPATH=src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import resource
import signal
import statistics
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

from scriptmap import cli, corpus, evaluation


def _run_cli(argv: list[str]):
    code = cli.main(argv + ["--log-level", "error"])
    if code != 0:
        raise SystemExit(f"scriptmap {argv[0]} exited with {code}")


def _apply_f1(path: Path) -> float:
    """Macro F1 over event types of the mapped corpus against gold, averaged
    over scenarios as the classification protocol averages it."""
    confusions: dict[str, evaluation.ConfusionMatrix] = {}
    scenario = ""
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#scenario"):
            scenario = line.split()[1]
        elif line and not line.startswith("#"):
            fields = line.split("\t")
            gold = fields[7]
            if gold != corpus.ABSENT and gold not in corpus.NON_SCRIPT_KINDS:
                confusions.setdefault(scenario, evaluation.ConfusionMatrix()).add(gold, fields[9])
    scores = [
        evaluation.macro_prf(cm, [l for l in cm.labels if l != corpus.NON_SCRIPT])[2]
        for cm in confusions.values()
    ]
    return sum(scores) / len(scores)


def _report(name: str, d: Path) -> tuple[str, float]:
    """(digest, headline F1) of the workload's outputs."""
    if name == "apply":
        digest = hashlib.sha256()
        for out in workloads.OUTPUTS[name]:
            digest.update((d / out).read_bytes())
        return digest.hexdigest(), _apply_f1(d / "mapped.tsv")
    systems = json.loads((d / "report.json").read_text(encoding="utf-8"))["systems"]
    text = json.dumps(systems, sort_keys=True)
    headline = "crf" if name == "classification" else "tree"
    return hashlib.sha256(text.encode()).hexdigest(), systems[headline]["f1"]


class SpeedProbe:
    """Samples the host's speed while a run executes.

    The host's speed is not steady: a fixed loop takes up to twice as long
    from one second, or one minute, to the next. So a timer signal interrupts
    the run every INTERVAL seconds and the handler times a fixed probe:
    PY_TURNS turns of a pure-Python loop and NP_OPS in-place operations on a
    short numpy array, in about equal parts, since the workloads spend their
    time in both kinds of code. `speed()` is REFERENCE_S over the trimmed mean
    of the probe times: below 1 when the host ran slower than the reference,
    which is roughly the probe's time on the 2-core machine the baseline comes
    from. The probes take about 2% of a run.
    """

    INTERVAL = 0.02
    PY_TURNS = 2500
    NP_OPS = 375
    REFERENCE_S = 3.5e-4

    def __init__(self):
        self.samples: list[float] = []
        self._acc = np.zeros(20)
        self._step = np.ones(20)

    def _probe(self, signum, frame):
        t = time.perf_counter()
        s = 0
        for i in range(self.PY_TURNS):
            s += i * i % 7
        for _ in range(self.NP_OPS):
            self._acc -= self._step
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        if not self.samples:
            return 1.0
        cut = len(self.samples) // 10
        kept = sorted(self.samples)[cut:len(self.samples) - cut]
        return self.REFERENCE_S / statistics.fmean(kept)


def run(name: str, d: Path, result_path: Path, trace: bool):
    """Time one workload run. Times are reported at the reference host speed
    (raw seconds times SpeedProbe.speed()); raw_wall_s keeps the measured one.
    Outputs of earlier runs are deleted first, so a command that writes
    nothing fails the run instead of passing on a stale file."""
    for out in workloads.OUTPUTS[name]:
        (d / out).unlink(missing_ok=True)
    tracer = tracing.Tracer(None if trace else set(tracing.LOADS))
    try:
        with SpeedProbe() as probe:
            tracer.root(lambda: [_run_cli(argv) for argv in workloads.commands(name, d)])
    finally:
        tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _, start, end, _ = tracer.spans[0]
    speed = probe.speed()
    digest, f1 = _report(name, d)
    result = {
        "wall_s": (end - start) * speed,
        "raw_wall_s": end - start,
        "host_speed": speed,
        "setup_s": tracing.setup_seconds(tracer.spans) * speed,
        "peak_rss_mb": peak_rss_mb,
        "f1": f1,
        "digest": digest,
    }
    if trace:
        layers = tracing.layer_metrics(tracer.spans, tracer.counts)
        result["layers"] = {k: v * speed if k.endswith("_s") else v for k, v in layers.items()}
        tracer.dump(result_path.with_suffix(".spans.json"))
    result_path.write_text(json.dumps(result), encoding="utf-8")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("action", choices=("prepare", "run"))
    p.add_argument("workload", choices=workloads.NAMES)
    p.add_argument("data_dir", type=Path)
    p.add_argument("result", type=Path, nargs="?")
    p.add_argument("--trace", action="store_true")
    a = p.parse_args()
    logging.disable(logging.WARNING)
    if a.action == "prepare":
        for argv in workloads.prepare_commands(a.workload, a.data_dir):
            _run_cli(argv)
    else:
        run(a.workload, a.data_dir, a.result, a.trace)


if __name__ == "__main__":
    main()
