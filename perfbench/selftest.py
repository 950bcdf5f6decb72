"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

It checks, at a tiny size, that

* every workload exits 0, prints each end-to-end and per-layer metric by name
  with its unit, and has error_rate 0;
* the metric names and units match ``BENCHMARK.json``;
* the exact counts of a traced run repeat exactly across two runs with the
  same seed;
* without the package sources next to it, the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END_UNITS, LABELS, RAW_UNITS  # noqa: E402

WORKLOADS = sorted(LABELS)
# per-layer metrics whose value is a count of work, so must repeat exactly
EXACT_UNITS = ("count", "bytes")
# the counts each workload must exercise
NONZERO = {
    "scenario_mix": ("integrate.steps", "expr.jet_at.calls", "ad.jet_ops", "checks.points_checked",
                     "sampling.attempts", "cli.write_csv.bytes"),
    "long_trajectory": ("integrate.steps", "expr.jet_at.calls", "ad.jet_ops"),
    "check_sweep": ("expr.jet_at.calls", "ad.jet_ops", "checks.points_checked"),
}


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def tiny_run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    return result_of(bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", str(trace), "--tiny"))


def check_printed(result: dict, text: str, units: dict) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert set(result["metrics"]) == set(units), sorted(set(result["metrics"]) ^ set(units))
    for name, unit in units.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit, (name, entry)
        assert isinstance(entry["value"], (int, float)), (name, entry)
        assert any(line.split()[:1] == [name] or f"({name};" in line for line in text.splitlines()), name
    assert any(line.split()[:3] == ["error_rate", "0", "ratio"] for line in text.splitlines()), text


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == ["scenario_mix", "long_trajectory", "check_sweep"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tracer import per_layer_units

    layer_units = {**per_layer_units(), **RAW_UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units

    for workload in WORKLOADS:
        result, text = tiny_run(workload, 7, 0)
        check_printed(result, text, END_TO_END_UNITS)
        for label in LABELS[workload]:
            assert label in text, label

        first, text = tiny_run(workload, 7, 1)
        check_printed(first, text, layer_units)
        second, _ = tiny_run(workload, 7, 1)
        for name, unit in layer_units.items():
            if unit in EXACT_UNITS:
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                assert a == b, f"{workload}: {name} differs between runs with one seed: {a} != {b}"
        for name in NONZERO[workload]:
            assert first["metrics"][name]["value"] > 0, f"{workload}: {name} is zero"
        print(f"ok {workload}")

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=out_dir)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "check_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=scratch)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(scratch)
    print("ok missing sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
