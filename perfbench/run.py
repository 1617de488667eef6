"""tricache benchmark: four workloads over simulate, verify, pairing and curves.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measuring process is a fresh Python process (perfbench/worker.py) that
imports tricache from this checkout's src/ once and runs the workload's fixed
op list one op after another: a closed loop with one client, no pool, no
threads.  All processes are pinned to one CPU.  The seed only feeds the
generated inputs (the random demand of simulate-3srv); the program sees
nothing but those inputs.

--trace 0 prints the end-to-end metrics, measured with tracing off:
  setup_s       median over SETUP_SAMPLES + RUN_PROCESSES processes of the
                time from process start to the first op (interpreter,
                import, workload inputs)
  run_s         median over all passes of the seconds one pass of the op
                list takes; RUN_PROCESSES processes each repeat whole passes
                for a share of --seconds
  peak_rss_mib  largest peak RSS of those processes, from getrusage
Both times are calibrated against a reference kernel run around every op;
see worker.py for why and how.

--trace 1 runs passes for half of --seconds in an untraced process and for
the other half in a process whose layer boundaries are wrapped from outside
(perfbench/tracer.py), and prints the per-layer metrics per pass: self
seconds per boundary, structural counts, GF(2) elimination counts, the
tracing overhead and the share of op time that spans cover.

Every op is gated: exit codes, `verified`, counts against the closed forms in
tricache.analysis, and sha256 digests of every report, plan file and CSV
against perfbench/golden.json (recorded at the first benchmarked commit; a
mismatch is a failed op, never a reason to re-record).  With --trace 0 a gate
self-test (tampered plan, off-by-one count, missing boundary) runs too; with
--trace 1 the structural counts must equal the recorded ones.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The benchmark exits 2 without a result when it cannot measure, for example
when the checkout has no src/tricache.

Measurement is process-local: no system-wide tracing, no cache dropping.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import fmean, median

from tracer import COUNT_HOOKS, SPAN_BOUNDARIES
from worker import WORKLOADS, monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 3
# A run's passes are spread over this many fresh processes, so that what
# differs between processes (hash seeds, memory layout) averages out.
RUN_PROCESSES = 4
# Whole-run limit; one measurement must finish well inside 180 s.
DEADLINE_S = 170.0

SPAN_METRICS = {b: "cli.self_s" if b == "cli.main" else f"{b}_s" for b in SPAN_BOUNDARIES}
COUNT_METRICS = [c for _, fed in COUNT_HOOKS.values() for c in fed] + [
    "gf2.add_calls", "gf2.rank_adds", "cli.output_bytes"]


class BenchError(Exception):
    """The benchmark could not measure; exit non-zero without a result."""


def spawn(mode: str, args: argparse.Namespace, seconds: float, work: Path,
          deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode, "--work", str(work)]
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "TRICACHE_OUTDIR")}
    cmd += ["--spawned-at", repr(monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {args.workload} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report_failures(failures: list[dict]) -> None:
    for failure in failures:
        print(f"failed op {failure['op']}: {failure['problems']}", file=sys.stderr)


def end_to_end(args: argparse.Namespace, work: Path, deadline: float) -> dict:
    setups = [spawn("setup", args, 0, work, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    runs = [spawn("run", args, args.seconds / RUN_PROCESSES, work, deadline)
            for _ in range(RUN_PROCESSES)]
    self_test = spawn("self-test", args, 0, work, deadline)["problems"]
    for problem in self_test:
        print(f"gate self-test: {problem}", file=sys.stderr)
    setups += [run["setup_s"] for run in runs]
    passes = [p for run in runs for p in run["passes"]]
    failures = [f for run in runs for f in run["failures"]]
    report_failures(failures)
    print(f"{args.workload}: calibrated passes {passes}, "
          f"wall {[p for run in runs for p in run['wall_passes']]}, "
          f"calibrated setups {setups}", file=sys.stderr)
    return {
        "correct": not failures and not self_test,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": len(failures),
        "metrics": {
            "setup_s": metric(median(setups), "s"),
            "run_s": metric(median(passes), "s"),
            "peak_rss_mib": metric(max(run["peak_rss_mib"] for run in runs), "MiB"),
        },
    }


def per_layer(args: argparse.Namespace, work: Path, deadline: float) -> dict:
    plain = spawn("run", args, args.seconds / 2, work, deadline)
    traced = spawn("trace", args, args.seconds / 2, work, deadline)
    report_failures(plain["failures"] + traced["failures"])
    trace = traced["trace"]
    self_times, counts = trace["self_times"], trace["counts"]
    for name in trace["missing"]:
        print(f"boundary missing: {name}", file=sys.stderr)
    for problem in trace["changed"]:
        print(f"structural counter changed: {problem}", file=sys.stderr)

    metrics = {
        out: metric(self_times.get(name, 0.0), "s") for name, out in SPAN_METRICS.items()
    }
    metrics.update({name: metric(counts.get(name, 0), "count") for name in COUNT_METRICS})
    adds = counts.get("gf2.add_calls", 0)
    metrics["gf2.useful_ratio"] = metric(counts.get("gf2.rank_adds", 0) / adds if adds else 0.0,
                                         "ratio")
    # Self times are means per pass, so compare with mean pass times.
    op_total = fmean(traced["passes"])
    counting = self_times.get("trace.counting", 0.0)
    uncovered = self_times.get("op", 0.0)
    metrics["trace.overhead_s"] = metric(op_total - fmean(plain["passes"]), "s")
    metrics["trace.coverage"] = metric(1 - uncovered / (op_total - counting), "ratio")
    metrics["trace.missing"] = metric(len(trace["missing"]), "count")
    return {
        "correct": not (plain["failures"] or traced["failures"] or trace["changed"]),
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": len(plain["failures"]) + len(traced["failures"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = monotonic() + DEADLINE_S
    # Workers inherit this: each op and its calibration kernel share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "tricache" / "__init__.py").is_file():
        print(f"error: no tricache sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = (per_layer if args.trace else end_to_end)(args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
