"""Run the comparison set and record its outputs, or compare two records.

    python tests/compare_outputs.py OUT [--fresh] [--files-only]
    python tests/compare_outputs.py --diff A B
    python tests/compare_outputs.py --self [--files-only]

The comparison set:

- the bundled scenarios and the files of ``tests/scenarios`` at ``--tol-scale``
  1, 1e-7 and 10, each run through ``cli.main`` in a working directory of its
  own (24 runs);
- the 72 scenario files that perfbench's ``scenario_mix`` writes for seeds 3
  and 7 (``perfbench/workloads.py``, imported, not changed), each run once;
- the 360 results of ``check_sweep``'s calls at seeds 3, 7 and 11 over its 6
  distinct rounds, every float as its hex, in one process.

``OUT`` receives each run's stdout, stderr and the files it wrote, with the
path of the scratch directory the runs write in replaced by ``<work>``, each
check_sweep result as a ``result.json``, and ``manifest.json``: each entry's
exit code and the SHA-256 of each of its outputs, one folder an entry.  The scenarios run in this
process, one after another, or with ``--fresh`` each in a new interpreter
(``python -m contactmech.cli``).  ``--files-only`` runs the 24 file runs alone.

``--diff A B`` names each entry of two records that differs, with the largest
absolute and relative difference between the numbers of each differing output,
and exits 1 if any does.  ``--self`` records the set three times in this
process, with ``ad.BLOCK_ROWS`` as it is, at 1 and at 7, clearing
``_tape._trace`` before each, and diffs the last two against the first: a
row's bits must not depend on the block it comes in.

contactmech is imported from the environment (``PYTHONPATH=src`` in a
checkout), so one copy of this script records any revision of the package.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from contactmech import _tape, ad, cli

ROOT = Path(__file__).resolve().parent.parent
SCALES = ("1", "1e-7", "10")
BUNDLED = ("damped_free_particle", "damped_oscillator_rotation", "damped_particle_noether")
MIX_SEEDS = (3, 7)
SWEEP_SEEDS = (3, 7, 11)


def _workloads():
    """perfbench/workloads.py of this checkout, imported as a module."""
    spec = importlib.util.spec_from_file_location("_compared_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Record:
    """The outputs of one recording, written under ``out`` as they come."""

    def __init__(self, out: Path, work: Path):
        self.out, self.work, self.manifest = out, str(work), {}

    def add(self, entry: str, code, outputs: dict) -> None:
        """Keep ``outputs`` (name -> bytes) of ``entry`` with its exit code."""
        folder = self.out / re.sub(r"[^\w.@-]", "_", entry)
        folder.mkdir(parents=True, exist_ok=True)
        digests = {}
        for name, data in outputs.items():
            data = data.replace(self.work.encode(), b"<work>")
            (folder / name).write_bytes(data)
            digests[name] = _digest(data)
        self.manifest[entry] = {"exit": code, "folder": folder.name, "outputs": digests}

    def close(self) -> None:
        (self.out / "manifest.json").write_text(json.dumps(self.manifest, indent=1, sort_keys=True) + "\n")


def _run(args: list, cwd: Path, fresh: bool):
    """(exit code, stdout, stderr) of ``contactmech run`` with ``args`` in ``cwd``."""
    if fresh:  # the package this process imported, wherever the run's cwd is
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                                           os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "contactmech.cli", "run", *args], cwd=cwd, env=env,
                              capture_output=True, check=False)
        return done.returncode, done.stdout, done.stderr
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", *args])
    finally:
        os.chdir(previous)
    return code, out.getvalue().encode(), err.getvalue().encode()


def _files(record: _Record, work: Path, fresh: bool) -> None:
    paths = [cli.bundled_scenario_path(f"{name}.json") for name in BUNDLED]
    paths += sorted(str(p) for p in (ROOT / "tests" / "scenarios").glob("*.json"))
    for path in paths:
        for scale in SCALES:
            entry = f"file/{Path(path).stem}@{scale}"
            cwd = work / entry.replace("/", "_")
            cwd.mkdir(parents=True)
            code, stdout, stderr = _run([path, "--tol-scale", scale], cwd, fresh)
            written = {str(p.relative_to(cwd)).replace(os.sep, "_"): p.read_bytes()
                       for p in sorted(cwd.rglob("*")) if p.is_file()}
            record.add(entry, code, {"stdout": stdout, "stderr": stderr, **written})


def _mix(record: _Record, work: Path, fresh: bool, workloads) -> None:
    for seed in MIX_SEEDS:
        folder = work / f"mix{seed}"
        folder.mkdir()
        workloads.ScenarioMix(seed, str(folder))
        for path in sorted(folder.glob("*.json")):
            config = json.loads(path.read_text())
            code, stdout, stderr = _run([str(path)], folder, fresh)
            written = {Path(p).name: Path(p).read_bytes() for p in config["output"].values() if os.path.exists(p)}
            record.add(f"mix/{seed}/{path.stem}", code, {"stdout": stdout, "stderr": stderr, **written})


def _hexed(value):
    """A check result as JSON data, every float as its hex."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return _hexed(value.tolist())
    if isinstance(value, dict):
        return {str(k): _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    if hasattr(value, "to_json_dict"):
        return _hexed(value.to_json_dict())
    if dataclasses.is_dataclass(value) and type(value).__module__.startswith("contactmech.") \
            and "Quantity" not in type(value).__name__:
        return {f.name: _hexed(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return type(value).__name__  # a quantity or system object: its kind only


def _sweep(record: _Record, work: Path, workloads) -> None:
    results = {}
    for seed in SWEEP_SEEDS:
        sweep = workloads.CheckSweep(seed, str(work))
        for r in range(sweep.distinct_rounds):
            for k, op in enumerate(sweep.round(r)):
                try:
                    result = _hexed(op.run())
                except ArithmeticError as exc:
                    result = {"error": type(exc).__name__, "message": str(exc)}
                results[f"sweep/{seed}/{r}/{k:02d}:{op.kind}"] = result
    for entry, result in results.items():
        record.add(entry, None, {"result.json": (json.dumps(result, sort_keys=True) + "\n").encode()})


def record(out: Path, *, fresh: bool = False, files_only: bool = False) -> None:
    """Run the comparison set and write its record to ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="compare-"))
    rec = _Record(out, work)
    try:
        _files(rec, work, fresh)
        if not files_only:
            workloads = _workloads()
            _mix(rec, work, fresh, workloads)
            _sweep(rec, work, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        rec.close()


# -- comparing two records --------------------------------------------------------

_NUMBER = re.compile(r"-?0x[0-9a-f.]+p[-+]?\d+|[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def _numbers(text: str) -> tuple:
    """(the text with each number replaced by #, the numbers)."""
    found = [float.fromhex(t) if "0x" in t else float(t) for t in _NUMBER.findall(text)]
    return _NUMBER.sub("#", text), found


def _difference(a: bytes, b: bytes) -> str:
    """The largest absolute and relative difference between the numbers of two outputs."""
    (shape_a, xs), (shape_b, ys) = _numbers(a.decode(errors="replace")), _numbers(b.decode(errors="replace"))
    if shape_a != shape_b or len(xs) != len(ys):
        return "text differs"
    worst_abs = worst_rel = 0.0
    for x, y in zip(xs, ys):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        gap = abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
        worst_abs = max(worst_abs, gap)
        worst_rel = max(worst_rel, gap / max(abs(x), abs(y)) if gap < math.inf else math.inf)
    if worst_abs == 0.0:
        return "same numbers, other bytes"
    return f"max abs {worst_abs:.3g}, max rel {worst_rel:.3g}"


def diff(a: Path, b: Path) -> list:
    """One line for each entry of two records that differs."""
    ma, mb = (json.loads((p / "manifest.json").read_text()) for p in (a, b))
    lines = []
    for entry in sorted(ma.keys() | mb.keys()):
        if entry not in ma or entry not in mb:
            lines.append(f"{entry}: only in {a if entry in ma else b}")
            continue
        ea, eb = ma[entry], mb[entry]
        if ea["exit"] != eb["exit"]:
            lines.append(f"{entry}: exit {ea['exit']} against {eb['exit']}")
        for name in sorted(ea["outputs"].keys() | eb["outputs"].keys()):
            da, db = ea["outputs"].get(name), eb["outputs"].get(name)
            if da == db:
                continue
            if da is None or db is None:
                lines.append(f"{entry} {name}: written by one run only")
                continue
            texts = [(p / e["folder"] / name).read_bytes() for p, e in ((a, ea), (b, eb))]
            lines.append(f"{entry} {name}: {_difference(*texts)}")
    return lines


def _self(files_only: bool) -> list:
    scratch = Path(tempfile.mkdtemp(prefix="compare-self-"))
    default = ad.BLOCK_ROWS
    lines = []
    try:
        for rows in (default, 1, 7):
            ad.BLOCK_ROWS = rows
            _tape._trace.cache_clear()
            record(scratch / str(rows), files_only=files_only)
        for rows in (1, 7):
            lines += [f"BLOCK_ROWS {rows}: {line}" for line in diff(scratch / str(default), scratch / str(rows))]
    finally:
        ad.BLOCK_ROWS = default
        shutil.rmtree(scratch, ignore_errors=True)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", type=Path, help="the directory to record the set in")
    parser.add_argument("--fresh", action="store_true", help="run each scenario in a new interpreter")
    parser.add_argument("--files-only", action="store_true", help="run the 24 file runs alone")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"), help="compare two records")
    parser.add_argument("--self", action="store_true", dest="self_check",
                        help="compare the set at BLOCK_ROWS 1 and 7 with the default")
    args = parser.parse_args(argv)
    if args.diff or args.self_check:
        lines = diff(*args.diff) if args.diff else _self(args.files_only)
        print("\n".join(lines) if lines else "no difference")
        return 1 if lines else 0
    if args.out is None:
        parser.error("give OUT, --diff A B or --self")
    record(args.out, fresh=args.fresh, files_only=args.files_only)
    manifest = json.loads((args.out / "manifest.json").read_text())
    print(f"{len(manifest)} entries recorded in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
