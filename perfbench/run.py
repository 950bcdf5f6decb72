"""Benchmark runner for contactmech.

    python3 perfbench/run.py --workload scenario_mix --seed 1 --seconds 30 --trace 0

Runs one seeded workload (see ``workloads.py``) closed-loop from a single
client thread for ``--seconds`` seconds, gates every operation's output, and
prints a human-readable report followed, on the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over a fixed, seed-determined list of operations
and reports the per-layer metrics of ``tracer.py``: counts from the first
traced pass (they repeat exactly for a given seed), self times per pass, and
the traced/untraced time ratio.

``setup_s`` is the median over fresh processes, each timing a cold import,
input generation, system construction and one warm-up request.

Times in the JSON line are scaled to a reference host speed by
``hostspeed.py``; the report prints the raw value next to each, and a traced
run also reports unscaled throughput, latencies and set-up time as
``raw.*`` per-layer metrics.

The package is imported from ``src/`` next to this directory; without it the
script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_PROCESSES = 9
TAIL_PERCENTILE = 90

# workload -> (unit of work, names of the three generic metrics on it)
LABELS = {
    "scenario_mix": ("scenarios", "scenarios_per_s", "scenario_latency_p50_s", "scenario_latency_tail_s"),
    "long_trajectory": ("RK4 steps", "rk4_steps_per_s", "segment_latency_p50_s", "segment_latency_tail_s"),
    "check_sweep": ("points", "points_checked_per_s", "check_latency_p50_s", "check_latency_tail_s"),
}

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer figures of a traced run that are not scaled to the reference host
# speed, with the mean kernel time that scaling divides by
RAW_UNITS = {
    "raw.throughput_per_s": "1/s",
    "raw.latency_p50_s": "s",
    "raw.latency_p90_s": "s",
    "raw.setup_s": "s",
    "hostspeed.kernel_s": "s",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(LABELS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Tally:
    """Requests attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op, count: bool = True) -> "float | None":
        """Run one request and gate its result.

        Returns its latency, or None if it raised or failed its gate.  With
        ``count`` false (warm-up calls) only a failure is counted.
        """
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raised exception is a failed request
            self.fail(f"{op.kind}: raised {exc!r}")
            return None
        elapsed = time.perf_counter() - start
        error = op.check(result)
        if error is not None:
            self.fail(f"{op.kind}: {error}")
            return None
        self.attempted += count
        return elapsed

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


@dataclass
class Round:
    starts: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    work: int = 0


def _child_setup(args) -> int:
    """Time import, input generation, system construction and one warm-up call.

    Runs in a fresh process started by ``_setup_seconds``, so the import is
    cold.  Then times a burst of the host-speed kernel in the same busy
    process (a waiting parent's CPU clocks down, so its timings would not
    match), and prints the seconds, the kernel timings and the warm-up's
    failures as one JSON line.
    """
    start = time.perf_counter()
    import workloads

    workdir = os.path.join(OUT_DIR, f"setup-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        tally.run(workload.warmup, count=False)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import hostspeed

    print(json.dumps({"setup_s": elapsed, "kernel": hostspeed.burst(), "errors": tally.errors}))
    return 0


def _setup_seconds(args, tally: Tally, hostspeed) -> tuple[float, float]:
    """Median set-up time over fresh processes: raw, and scaled to the reference host speed."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-child"]
    if args.tiny:
        command.append("--tiny")
    raw = []
    scaled = []
    for _ in range(1 if args.tiny else SETUP_PROCESSES):
        proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up process failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(child["setup_s"])
        scaled.append(child["setup_s"] * hostspeed.factor(child["kernel"]))
        for error in child["errors"]:
            tally.fail(f"set-up: {error}")
    return statistics.median(raw), statistics.median(scaled)


def _measure(workload, seconds: float, tally: Tally, sampler) -> list[Round]:
    """Run rounds until ``seconds`` pass, timing the host kernel between requests.

    The run ends on a whole cycle of the workload's rounds, after which the
    request sizes repeat, so every seed measures the same multiset of sizes.
    """
    rounds = []
    start = time.perf_counter()
    k = 0
    while True:
        current = Round()
        for op in workload.round(k):
            sampler.tick()
            begin = time.perf_counter()
            latency = tally.run(op)
            if latency is not None:
                current.starts.append(begin)
                current.latencies.append(latency)
                current.work += op.work
        rounds.append(current)
        k += 1
        if k % workload.cycle == 0 and time.perf_counter() - start >= seconds:
            return rounds


def _tail(xs) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def _end_to_end(name: str, rounds: list[Round], setup_s: float, sampler, hostspeed) -> dict:
    """End-to-end metrics at the reference host speed, with raw values printed."""
    scaled = [[x * sampler.scale_for(t, t + x) for t, x in zip(r.starts, r.latencies)] for r in rounds]
    # the run ends on whole cycles, so every seed's rounds form the same
    # multiset; their median is robust to a burst of load from outside
    rates = [r.work / sum(xs) for r, xs in zip(rounds, scaled) if xs]
    raw_rates = [r.work / sum(r.latencies) for r in rounds if r.latencies]
    latencies = sorted(x for xs in scaled for x in xs)
    raw = sorted(x for r in rounds for x in r.latencies)
    count = len(latencies)
    if count < 2:
        raise SystemExit(f"only {count} requests succeeded; no metrics to report")

    metrics = {
        "throughput_per_s": statistics.median(rates),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": _tail(latencies),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    unit, *labels = LABELS[name]
    beyond = sum(1 for x in latencies if x > metrics["latency_p90_s"])
    work = sum(r.work for r in rounds)
    print(f"host speed: mean kernel {statistics.mean(sampler.kernel) * 1e3:.3f} ms over "
          f"{len(sampler.kernel)} timings, reference {hostspeed.REFERENCE_S * 1e3:.3f} ms")
    print(f"{labels[0]:26s} {metrics['throughput_per_s']:.6g} 1/s  (throughput_per_s; raw "
          f"{statistics.median(raw_rates):.6g}; median of {len(rates)} rounds, {work} {unit} in all)")
    print(f"{labels[1]:26s} {metrics['latency_p50_s']:.6g} s  (latency_p50_s; raw "
          f"{statistics.median(raw):.6g}; {count} requests)")
    print(f"{labels[2]:26s} {metrics['latency_p90_s']:.6g} s  (latency_p90_s; raw {_tail(raw):.6g}; "
          f"p{TAIL_PERCENTILE} of {count} requests, {beyond} beyond)")
    return metrics


def _run_pass(workload, tally: Tally, tracer=None) -> list[Round]:
    workload.reset()
    rounds = []
    request = 0
    for k in range(workload.rounds_per_pass):
        current = Round()
        for op in workload.round(k):
            if tracer is not None:
                tracer.current_request = request
            latency = tally.run(op)
            if latency is not None:
                current.latencies.append(latency)
                current.work += op.work
            request += 1
        rounds.append(current)
    return rounds


def _busy(rounds: list[Round]) -> float:
    return sum(sum(r.latencies) for r in rounds)


def _trace(workload, seconds: float, tally: Tally, name: str, hostspeed) -> dict:
    """Per-layer metrics from traced passes, raw figures from untraced ones."""
    from tracer import Tracer, summarize

    tracer = Tracer()
    untraced_rounds = []
    untraced = traced = 0.0
    passes = 0
    first_spans = None
    counters = None
    kernel = []
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        kernel += hostspeed.burst()
        rounds = _run_pass(workload, tally)
        untraced_rounds += rounds
        untraced += _busy(rounds)
        kernel += hostspeed.burst()
        tracer.install()
        try:
            traced += _busy(_run_pass(workload, tally, tracer))
        finally:
            tracer.uninstall()
        passes += 1
        if first_spans is None:
            first_spans = len(tracer.start)
            counters = dict(tracer.counters)
    metrics = summarize(tracer, first_spans, passes, counters)
    scale = hostspeed.factor(kernel)
    for key in metrics:
        if key.endswith("_s"):
            metrics[key] *= scale
    metrics["tracing.overhead_ratio"] = traced / untraced
    # unscaled figures of the untraced passes, to check a scaled gain against
    latencies = sorted(x for r in untraced_rounds for x in r.latencies)
    metrics["raw.throughput_per_s"] = statistics.median(
        r.work / sum(r.latencies) for r in untraced_rounds if r.latencies
    )
    metrics["raw.latency_p50_s"] = statistics.median(latencies)
    metrics["raw.latency_p90_s"] = _tail(latencies)
    metrics["hostspeed.kernel_s"] = statistics.mean(kernel)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"trace-{name}.npz"))
    print(f"trace: {passes} untraced/traced pass pairs of {workload.rounds_per_pass} rounds, "
          f"{len(tracer.start)} spans written to {os.path.relpath(OUT_DIR, ROOT)}/trace-{name}.npz; "
          f"times scaled by {scale:.4f} to the reference host speed, raw.* unscaled")
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "contactmech", "__init__.py")):
        print(f"contactmech sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    if args.setup_child:
        return _child_setup(args)
    import hostspeed
    import workloads

    tally = Tally()
    raw_setup_s, setup_s = _setup_seconds(args, tally, hostspeed)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"{'setup_s':26s} {setup_s:.6g} s  (raw {raw_setup_s:.6g}; median of "
          f"{1 if args.tiny else SETUP_PROCESSES} fresh processes)")
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        tally.run(workload.warmup, count=False)
        if args.trace:
            metrics = _trace(workload, args.seconds, tally, args.workload, hostspeed)
            metrics["raw.setup_s"] = raw_setup_s
            from tracer import per_layer_units

            units = {**per_layer_units(), **RAW_UNITS}
        else:
            sampler = hostspeed.Sampler()
            rounds = _measure(workload, args.seconds, tally, sampler)
            metrics = _end_to_end(args.workload, rounds, setup_s, sampler, hostspeed)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name in units:
        if name not in ("throughput_per_s", "latency_p50_s", "latency_p90_s", "setup_s"):
            print(f"{name:26s} {metrics[name]:.6g} {units[name]}")
    print(f"{'error_rate':26s} {tally.failed / tally.attempted:.6g} ratio  "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    for error in tally.errors:
        print(f"  failed: {error}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
