#!/usr/bin/env python3
"""Benchmark of the weylflow command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout: the program is imported
from the checkout's src/ directory and nothing needs to be installed.

Each repetition runs one `weylflow` command in a fresh interpreter and a
fresh temporary directory, so no in-process cache carries over, on the a2q2
system relabelled by the seed.  Its output is checked against the seed-0
reference.  A repetition that exits non-zero, prints a FAIL line, differs
from the reference or reaches the time limit counts as failed and is not
timed.  Repetitions follow one another (a closed loop with one client) until
S seconds have passed; the first always runs.

With --trace 0 the last line reports the end-to-end metrics: the median
wall time and peak RSS of the repetitions, the median time of a fresh
`weylflow validate` (setup_s) and work per second.  With --trace 1 a run
is one traced repetition instead, and the last line reports its per-layer
metrics (see tracing.py).  `--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# fresh `weylflow validate` runs per run, half before the repetitions and
# half after them, so that their median spans the run's drift in CPU speed
SETUP_SAMPLES = 9
# what the installed `weylflow` console script runs
CLI = "import sys; from weylflow.cli import main; sys.exit(main())"


@dataclass
class Child:
    code: Optional[int]  # exit code; None when killed at the time limit
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: List[str], cwd: Path, timeout: float) -> Child:
    """Run argv in cwd to the end, through launch.py (see there why)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    launcher = [sys.executable, "-I", "-S", str(HERE / "launch.py"), repr(timeout), str(cwd)]
    proc = subprocess.Popen([*launcher, *argv], env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.terminate()  # launch.py kills the command before it exits
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"launch.py failed with exit code {proc.returncode}")
    report = json.loads(out.decode().splitlines()[-1])
    return Child(
        report["code"],
        report["wall_s"],
        report["rss_kb"] / 1024.0,  # Linux reports ru_maxrss in KiB
        (cwd / "stdout.txt").read_text(encoding="utf-8", errors="replace"),
        (cwd / "stderr.txt").read_text(encoding="utf-8", errors="replace"),
    )


def weylflow_argv(args: List[str], spans: Optional[Path] = None) -> List[str]:
    if spans is None:
        return [sys.executable, "-c", CLI, *args]
    return [sys.executable, str(HERE / "tracing.py"), str(spans), *args]


@dataclass
class Attempt:
    child: Child
    failure: str = ""  # empty when the repetition passed its checks
    work: int = 0
    out_bytes: int = 0


def attempt(wl, run_dir, input_path, perm, ref, deadline, spans=None) -> Attempt:
    """One repetition of the workload, in a fresh directory, checked."""
    rep = Path(tempfile.mkdtemp(prefix="rep-", dir=run_dir))
    try:
        out = rep / "out"
        args = [a.format(input=input_path, out=out) for a in wl.args]
        child = run_child(weylflow_argv(args, spans), rep, deadline - time.perf_counter())
        if child.code is None:
            return Attempt(child, "timed out")
        if child.code != 0:
            tail = child.stderr.strip().splitlines()[-1:] or [""]
            return Attempt(child, f"exit code {child.code}: {tail[0]}")
        try:
            fingerprint, work = wl.fingerprint(child.stdout, out, perm, ref)
        except (OSError, ValueError, KeyError, IndexError, workloads.Mismatch) as exc:
            return Attempt(child, f"output check failed: {exc!r}")
        if fingerprint != ref[wl.name]:
            return Attempt(child, "output differs from the seed-0 reference")
        return Attempt(child, "", work, out.stat().st_size if out.exists() else 0)
    finally:
        shutil.rmtree(rep, ignore_errors=True)


def measure_setup(run_dir, input_path, ref, deadline, count: int) -> Optional[List[float]]:
    """Wall times of `count` fresh `weylflow validate` runs; None if one fails."""
    walls = []
    for _ in range(count):
        rep = Path(tempfile.mkdtemp(prefix="setup-", dir=run_dir))
        try:
            child = run_child(
                weylflow_argv(["validate", str(input_path)]), rep, deadline - time.perf_counter()
            )
        finally:
            shutil.rmtree(rep, ignore_errors=True)
        if child.code != 0 or child.stdout != ref["validate"]:
            return None
        walls.append(child.wall_s)
    return walls


def tail_percentile(samples: List[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has ten samples beyond it (n={n})"
    return f"p{100 * (n - 10) / n:.0f} {sorted(samples)[n - 11]:.4f} s (n={n})"


def measure(wl, run_dir, input_path, perm, ref, seconds, deadline, lines, failures):
    """End-to-end metrics: repetitions until `seconds` have passed."""
    before = measure_setup(run_dir, input_path, ref, deadline, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    passed: List[Attempt] = []
    stop = time.perf_counter() + seconds
    while True:
        a = attempt(wl, run_dir, input_path, perm, ref, deadline)
        if a.failure:
            failures.append(a.failure)
        else:
            passed.append(a)
        now = time.perf_counter()
        if now >= stop or now + 1.5 * a.child.wall_s > deadline:
            break
    after = measure_setup(run_dir, input_path, ref, deadline, SETUP_SAMPLES // 2)
    if before is None or after is None:
        failures.append("setup: `weylflow validate` failed or printed other output")
    if not passed or before is None or after is None:
        return {}, len(passed)
    setup_s = statistics.median(before + after)
    walls = [a.child.wall_s for a in passed]
    wall = statistics.median(walls)
    rss = statistics.median(a.child.rss_mb for a in passed)
    work = passed[0].work
    lines.append(f"wall_s: median {wall:.4f} s over {len(walls)} samples; "
                 + tail_percentile(walls))
    lines.append("wall_s samples in order: " + " ".join(f"{w:.3f}" for w in walls))
    lines.append(f"peak_rss_mb: median {rss:.1f} MB")
    lines.append(f"setup_s: median {setup_s:.4f} s over {SETUP_SAMPLES} "
                 "fresh `weylflow validate` runs")
    lines.append(f"work_per_s: {work / wall:.4f} ({work} {wl.work_unit} per run)")
    return {
        "wall_s": (wall, "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_s, "s"),
        "work_per_s": (work / wall, "1/s"),
    }, len(passed)


def measure_traced(wl, run_dir, input_path, perm, ref, deadline, lines, failures):
    """Per-layer metrics from one traced repetition."""
    spans = run_dir / "spans.json"
    t = attempt(wl, run_dir, input_path, perm, ref, deadline, spans)
    if t.failure:
        failures.append("traced: " + t.failure)
        return {}, 0
    layer, absent, self_s = tracing.layer_metrics(spans, t.out_bytes)
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:5]
    lines.append(f"traced wall {t.child.wall_s:.4f} s; largest self times: "
                 + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    if absent:
        lines.append("absent (reported as 0): " + ", ".join(absent))
    return layer, 1


def run_workload(wl, seed: int, seconds: float, trace: bool):
    """Measure one workload; return (report lines, result object)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    ref = workloads.load_reference()
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=SCRATCH))
    lines = [f"{wl.name} seed {seed}: {sys.executable}, sources in {SRC}"]
    failures: List[str] = []
    try:
        input_path = run_dir / "input.json"
        perm = workloads.write_input(input_path, seed)
        if trace:
            metrics, passed = measure_traced(
                wl, run_dir, input_path, perm, ref, deadline, lines, failures)
        else:
            metrics, passed = measure(
                wl, run_dir, input_path, perm, ref, seconds, deadline, lines, failures)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = passed + len(failures)
    lines.append(f"fail_ratio: {len(failures)}/{attempted} = "
                 f"{len(failures) / attempted:.4f} (failed/attempted)")
    lines.extend(f"failed: {f}" for f in failures)
    return lines, {
        "correct": bool(metrics) and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "weylflow" / "cli.py").is_file():
        print(f"error: no weylflow sources under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        lines, results[name] = run_workload(
            workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace)
        )
        print("\n".join(lines), flush=True)
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
