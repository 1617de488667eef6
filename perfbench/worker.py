"""One benchmark process: set up a workload, run its op list, gate every output.

run.py starts this script several times per run, so that every measuring
process is a fresh interpreter that imports tricache once.  Modes:

  setup      build the workload's inputs and stop (a set-up time sample)
  run        run whole passes of the op list until --seconds is used up
  trace      the same with every layer boundary wrapped by the tracer
  self-test  check that the gate catches tampered outputs

The last line of stdout is one JSON object.  Ops run one after another in a
closed loop with a single client; their own stdout and stderr are captured.

The machine this benchmark runs on is shared, and its CPU speed drifts by up
to a factor of two within seconds.  So a fixed kernel (calibrate()) runs
right before and right after every op, and each op's wall time is rescaled by
CALIBRATION_REF_S over the mean of those two kernel times: reported seconds
are the op's seconds on a machine where the kernel takes CALIBRATION_REF_S.
A slower program reads slower; a busier machine mostly does not.  Every op
is kept short (about 0.3 s or less) because the two readings only track the
machine's speed well over short intervals; that is why the problem sizes
are modest and a run repeats whole passes.  Set-up time is rescaled by one
kernel reading taken right after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from tracer import Tracer, changed_counters

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_FILE = HERE / "golden.json"

# The seed at which the golden digests of seeded outputs were recorded.
DEFAULT_SEED = 1

# Median time of calibrate() on the 2-vCPU Intel Xeon VM the benchmark was
# defined on; only the ratio to it matters.
CALIBRATION_REF_S = 0.020


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds a fixed kernel of big-integer and dict work takes right now.

    Big-integer products tracked the speed of curves-large-k best and dict
    insertions that of pairing-middle; the table stays small so that the
    kernel does not raise the peak RSS being measured.
    """
    start = time.perf_counter()
    product = 1
    for i in range(1, 5000):
        product *= i
    product = product * product // (product + 12345)
    table = {}
    for i in range(60_000):
        table[i * 2654435761 & 8191] = i
    return time.perf_counter() - start


@dataclasses.dataclass
class Op:
    """One call into the program plus the checks on what it produced.

    `check` gets the call's result and returns the problems it finds.
    `writes` are the files the call writes; `golden` lists (key, path, seeded)
    for files whose sha256 must match golden.json (seeded files only at
    DEFAULT_SEED).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    writes: tuple[Path, ...] = ()
    golden: tuple[tuple[str, Path, bool], ...] = ()


class Gate:
    """Golden digests of outputs, recorded at the first benchmarked commit."""

    def __init__(self, golden: dict, seed: int) -> None:
        self.digests: dict[str, str] = golden["digests"]
        self.seed = seed

    def problems(self, op: Op) -> list[str]:
        out = []
        for key, path, seeded in op.golden:
            if seeded:
                if self.seed != DEFAULT_SEED:
                    continue
                key = f"{key}@{DEFAULT_SEED}"
            expected = self.digests.get(key)
            if expected is None:
                out.append(f"no golden digest for {key}")
            elif not path.is_file():
                out.append(f"{path.name} was not written")
            elif sha256(path) != expected:
                out.append(f"{path.name} differs from golden {key}")
        return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# ops


def cli_op(tc, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = tc.cli.main(argv)
        return code, out.getvalue()

    return run


def expected_unpaired(tc, K: int, t: int, scheme: str) -> int:
    if scheme == "lap":
        return tc.analysis.lap_unpaired_count(K, t)
    return tc.analysis.improved_unpaired_count(K, t)[1]


def plan_shape(tc, K: int, t: int, scheme: str) -> tuple[int, int, int]:
    """(pairs, unpaired, singles) of a three-server plan, from closed forms."""
    n = expected_unpaired(tc, K, t, scheme)
    singles = tc.analysis.layer_size(K, t, 0) + tc.analysis.layer_size(K, t, t + 1)
    pairs = (comb(K, t + 1) - n - singles) // 2
    return pairs, n, singles


def exact(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def check_3srv_report(tc, report: Path, K: int, t: int, scheme: str):
    def check(result) -> list[str]:
        code, _ = result
        problems: list[str] = []
        expect(problems, "exit code", code, 0)
        r = json.loads(report.read_text())
        pairs, n, singles = plan_shape(tc, K, t, scheme)
        F = comb(K, t)
        loads = [r["loads"][s] for s in ("A", "B", "P")]
        expect(problems, "verified", r["verified"], True)
        expect(problems, "scheme_used", r["scheme_used"], scheme)
        expect(problems, "unpaired", r["unpaired"], n)
        expect(problems, "pairs", r["pairs"], pairs)
        expect(problems, "singles", r["singles"], singles)
        expect(problems, "F", r["F"], F)
        expect(problems, "broadcasts", sum(loads), 3 * pairs + 2 * n + singles)
        expect(problems, "load balance", max(loads) - min(loads) <= 1, True)
        expect(problems, "R", r["R"]["exact"], exact(Fraction(max(loads), F)))
        expect(problems, "R_formula", r["R_formula"]["exact"],
               exact(tc.analysis.rate_theorem(K, t, scheme)))
        expect(problems, "delta_measured", r["delta_measured"]["exact"],
               exact(Fraction(n, comb(K, t + 1))))
        return problems

    return check


def check_verify(tc, plan: Path, K: int, t: int, scheme: str):
    def check(result) -> list[str]:
        code, out = result
        problems: list[str] = []
        pairs, n, singles = plan_shape(tc, K, t, scheme)
        expect(problems, "exit code", code, 0)
        expect(problems, "verify output", out,
               f"plan ok: {pairs} pairs, {n} unpaired, {singles} singles, all users decode\n")
        lines = plan.read_text().splitlines()
        expect(problems, "plan lines", len(lines), 1 + 3 * pairs + 2 * n + singles)
        expect(problems, "duplicate plan lines", len(lines) - len(set(lines)), 0)
        return problems

    return check


def three_server_ops(tc, K: int, lam: str, scheme: str, demand: str, seed: int,
                     work: Path, prefix: str) -> list[Op]:
    """simulate --plan-out followed by verify --plan on the exported file."""
    t = int(Fraction(lam) * K)
    tag = f"{scheme}-{demand}"
    report = work / f"{prefix}-{tag}.json"
    plan = work / f"{prefix}-{tag}.plan.jsonl"
    argv = ["simulate", "--K", str(K), "--lambda", lam, "--scheme", scheme,
            "--demand", demand, "--output", str(report), "--plan-out", str(plan)]
    if demand == "random":
        argv += ["--seed", str(seed)]
    return [
        # The report holds no demand, so it is the same for every seed.
        Op(f"simulate-{tag}", cli_op(tc, argv), check_3srv_report(tc, report, K, t, scheme),
           writes=(report, plan), golden=((f"{prefix}/{tag}/report", report, False),)),
        Op(f"verify-{tag}", cli_op(tc, ["verify", "--plan", str(plan)]),
           check_verify(tc, plan, K, t, scheme),
           golden=((f"{prefix}/{tag}/plan", plan, demand == "random"),)),
    ]


def simulate_3srv(tc, seed: int, work: Path) -> list[Op]:
    """Full user path at K=12, t=5: build, decode, export and re-verify plans."""
    ops = []
    for scheme in ("improved", "lap"):
        for demand in ("worst", "random"):
            ops += three_server_ops(tc, 12, "5/12", scheme, demand, seed, work, "simulate-3srv")
    return ops


def mn_op(tc, K: int, t: int, work: Path) -> Op:
    report = work / f"mn-K{K}-t{t}.json"
    argv = ["simulate", "--K", str(K), "--lambda", f"{t}/{K}", "--scheme", "mn",
            "--demand", "worst", "--output", str(report)]

    def check(result) -> list[str]:
        code, _ = result
        problems: list[str] = []
        r = json.loads(report.read_text())
        expect(problems, "exit code", code, 0)
        expect(problems, "verified", r["verified"], True)
        expect(problems, "R", r["R"]["exact"], exact(Fraction(K - t, t + 1)))
        expect(problems, "broadcasts", r["loads"]["single"], comb(K, t + 1))
        expect(problems, "F", r["F"], comb(K, t))
        return problems

    return Op(f"simulate-mn-K{K}-t{t}", cli_op(tc, argv), check, writes=(report,),
              golden=((f"simulate-mn/K{K}-t{t}/report", report, False),))


def simulate_mn(tc, seed: int, work: Path) -> list[Op]:
    """Single-server MN: the decoder on (t+1)-term XORs, with no pairing."""
    return [mn_op(tc, 12, 5, work), mn_op(tc, 12, 7, work), mn_op(tc, 14, 9, work)]


def count_op(tc, K: int, t: int, scheme: str, regime: int | None) -> Op:
    """count_unpaired checked against the closed form (and the regime it covers)."""
    config = tc.build_config(K, t, K)

    def check(result) -> list[str]:
        problems: list[str] = []
        n = expected_unpaired(tc, K, t, scheme)
        expect(problems, "unpaired", result.n, n)
        expect(problems, "delta", result.delta, Fraction(n, comb(K, t + 1)))
        expect(problems, "scheme", result.scheme, scheme)
        if regime is not None:
            expect(problems, "regime", tc.analysis.improved_unpaired_count(K, t)[0], regime)
        return problems

    return Op(f"count-{scheme}-K{K}-t{t}", lambda: tc.count_unpaired(config, scheme), check)


def pairing_middle(tc, seed: int, work: Path) -> list[Op]:
    """Middle-band matching at K=16 over all three improved regimes plus lap."""
    return [
        count_op(tc, 16, 5, "improved", 1),
        count_op(tc, 16, 7, "improved", 2),
        count_op(tc, 16, 9, "improved", 2),
        count_op(tc, 16, 11, "improved", 3),
        count_op(tc, 16, 7, "lap", None),
        count_op(tc, 16, 9, "lap", None),
    ]


CURVE_K = range(2060, 7981, 120)
CURVE_CHUNK = 5
CURVE_DENOMINATORS = (4, 6, 8, 10, 12, 16, 20)


def curves_large_k(tc, seed: int, work: Path) -> list[Op]:
    """Closed-form curves over big K: big-integer analysis plus CSV rendering.

    The K range goes in chunks of CURVE_CHUNK values, one curves call each.
    """
    lambdas = sorted({Fraction(p, d) for d in CURVE_DENOMINATORS for p in range(1, d)})
    ops = []
    for i in range(0, len(CURVE_K), CURVE_CHUNK):
        Ks = CURVE_K[i:i + CURVE_CHUNK]
        csv = work / f"curves-K{Ks[0]}.csv"
        argv = ["curves", "--K", ",".join(map(str, Ks)),
                "--lambdas", ",".join(map(str, lambdas)), "--output", str(csv)]
        rows = sum(
            1 for lam in lambdas for K in Ks
            if (K * lam).denominator == 1 and 1 <= K * lam <= K - 1 and int(K * lam) % 2 == 1
        )

        def check(result, csv=csv, rows=rows) -> list[str]:
            code, _ = result
            problems: list[str] = []
            expect(problems, "exit code", code, 0)
            expect(problems, "csv rows", len(csv.read_text().splitlines()) - 1, rows)
            return problems

        ops.append(Op(f"curves-K{Ks[0]}", cli_op(tc, argv), check, writes=(csv,),
                      golden=((f"curves-large-k/K{Ks[0]}/csv", csv, False),)))
    return ops


WORKLOADS = {
    "simulate-3srv": simulate_3srv,
    "simulate-mn": simulate_mn,
    "pairing-middle": pairing_middle,
    "curves-large-k": curves_large_k,
}


# ---------------------------------------------------------------------------
# running and gating


@dataclasses.dataclass
class OpResult:
    name: str
    wall_s: float
    calibration_s: float  # kernel time right after the op
    problems: list[str]
    output_bytes: int


def run_op(op: Op, gate: Gate, span=contextlib.nullcontext) -> OpResult:
    """Time the call inside `span`, calibrate, then check its outputs."""
    with span():
        start = time.perf_counter()
        try:
            result = op.run()
            raised = None
        except Exception:  # an op that raises is a failed op, not a crashed run
            result = None
            raised = traceback.format_exc(limit=3)
        wall_s = time.perf_counter() - start
    calibration_s = calibrate()
    if raised is not None:
        problems = [f"raised: {raised}"]
    else:
        try:
            problems = op.check(result) + gate.problems(op)
        except Exception as exc:  # missing or malformed output
            problems = [f"check failed: {exc!r}"]
    out_bytes = sum(p.stat().st_size for p in op.writes if p.is_file())
    if isinstance(result, tuple):
        out_bytes += len(result[1].encode())
    return OpResult(op.name, wall_s, calibration_s, problems, out_bytes)


def run_pass(ops: list[Op], gate: Gate,
             tracer: Tracer | None) -> tuple[list[OpResult], list[float]]:
    """One pass of the op list; returns the results and each op's calibrated seconds."""
    span = contextlib.nullcontext if tracer is None else (lambda: tracer.span("op"))
    before = calibrate()
    results, scaled = [], []
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
        res = run_op(op, gate, span)
        scaled.append(res.wall_s * CALIBRATION_REF_S / ((before + res.calibration_s) / 2))
        before = res.calibration_s
        results.append(res)
    return results, scaled


def self_test(tc, work: Path, gate: Gate) -> list[str]:
    """The gate must pass good outputs and flag a plan file with one duplicated
    line, a count that is off by one, and a boundary that does not exist."""
    problems = []
    work = work / "self-test"
    work.mkdir(parents=True, exist_ok=True)
    sim, ver = three_server_ops(tc, 6, "1/2", "improved", "worst", DEFAULT_SEED, work, "self-test")
    for op in (sim, ver):
        res = run_op(op, gate)
        if res.problems:
            problems.append(f"gate rejects good {op.name}: {res.problems}")

    plan = ver.golden[0][1]
    lines = plan.read_text().splitlines(keepends=True)
    tampered = work / "tampered.plan.jsonl"
    tampered.write_text("".join(lines[:2] + lines[1:]))
    bad = Op("verify-tampered", cli_op(tc, ["verify", "--plan", str(tampered)]),
             check_verify(tc, tampered, 6, 3, "improved"),
             golden=((ver.golden[0][0], tampered, False),))
    if not run_op(bad, gate).problems:
        problems.append("gate passed a plan file with a duplicated line")

    count = count_op(tc, 10, 3, "lap", None)
    result = count.run()
    if count.check(result):
        problems.append("gate rejects a correct count")
    if not count.check(dataclasses.replace(result, n=result.n + 1)):
        problems.append("gate passed a count that is off by one")

    probe = Tracer()
    probe.install(boundaries=("cli.no_such_boundary",), hooks={})
    if probe.missing != ["cli.no_such_boundary"]:
        problems.append(f"tracer did not report a missing boundary: {probe.missing}")
    return problems


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_tricache():
    """Import tricache from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tricache
    import tricache.cli  # noqa: F401  (cli is not imported by the package)

    if Path(tricache.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"tricache imported from {tricache.__file__}, not {src}")
    return tricache


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "self-test"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="monotonic time at which the parent started this process")
    parser.add_argument("--work", type=Path, required=True, help="directory for outputs")
    args = parser.parse_args(argv)

    tc = import_tricache()
    args.work.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[args.workload](tc, args.seed, args.work)
    setup_wall_s = monotonic() - args.spawned_at
    out: dict = {"setup_s": setup_wall_s * CALIBRATION_REF_S / calibrate()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    golden = json.loads(GOLDEN_FILE.read_text())
    gate = Gate(golden, args.seed)
    if args.mode == "self-test":
        print(json.dumps({"problems": self_test(tc, args.work, gate)}))
        return 0
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
        tracer.count_gf2_adds()

    passes: list[float] = []
    results: list[OpResult] = []
    scaled: list[float] = []
    started = time.perf_counter()
    while True:
        pass_results, pass_scaled = run_pass(ops, gate, tracer)
        passes.append(sum(pass_scaled))
        results += pass_results
        scaled += pass_scaled
        elapsed = time.perf_counter() - started
        # Stop unless the next pass is expected to end within half a pass
        # of --seconds.
        if elapsed * (len(passes) + 0.5) / len(passes) > args.seconds:
            break

    out.update(
        passes=passes,
        wall_passes=[sum(r.wall_s for r in results[i:i + len(ops)])
                     for i in range(0, len(results), len(ops))],
        peak_rss_mib=peak_rss_mib(),
        attempted=len(results),
        failures=[{"op": r.name, "problems": r.problems} for r in results if r.problems],
        output_bytes=sum(r.output_bytes for r in results[: len(ops)]),
    )
    if tracer is not None:
        # Per pass: every pass runs the same inputs, so counts divide exactly.
        n = len(passes)
        counts = {k: v // n if v % n == 0 else v / n for k, v in tracer.counts.items()}
        counts["cli.output_bytes"] = out["output_bytes"]
        op_scale = [w / r.wall_s if r.wall_s else 1.0 for w, r in zip(scaled, results)]
        out["trace"] = {
            "self_times": {k: v / n for k, v in tracer.self_times(op_scale).items()},
            "counts": counts,
            "missing": tracer.missing,
            "changed": changed_counters(counts, golden["counters"][args.workload],
                                        tracer.missing),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
