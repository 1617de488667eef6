"""Command-line front end: simulate, curves, verify.

Reports are machine readable and deterministic: identical invocations
(including seeds) produce byte-identical files.  Exact rationals are
rendered both as floats and as "p/q" strings; plan exports are line-oriented
JSON with one broadcast per line so they diff and stream cleanly.

Exit codes: 0 success, 1 verification failure, 2 invalid invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from . import analysis, delivery
from .mn import KIND_MN, KIND_PAIR, KIND_SINGLE, KIND_UNPAIRED, ORIGIN_SINGLE
from .planfile import (SCHEMES, SpecError, _demand_from_json, _plan_lines, fraction_str,
                       load_plan, parse_fraction)
from .system import Demand, SystemConfig, build_config, random_demand, worst_demand

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2

OUTDIR_ENV = "TRICACHE_OUTDIR"

# Report key of a server's load, where it differs from the origin tag.
LOAD_KEYS = {ORIGIN_SINGLE: "single"}


def float12(value: Fraction | float) -> str:
    return format(float(value), ".12g")


def resolve_output(path: str | None) -> Path | None:
    if path is None or path == "-":
        return None
    p = Path(path)
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not p.is_absolute():
        p = Path(outdir) / p
    return p


def _write_text(path: Path | None, pieces: Iterable[str]) -> None:
    """Write the pieces in order to `path`, or to stdout for None.  A reader
    that closes stdout early is invalid use, not a failed verification."""
    if path is None:
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except BrokenPipeError:
            # the interpreter flushes stdout at exit: let that flush reach devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SpecError("stdout was closed before all output was written") from None
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.writelines(pieces)
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# simulate

def _config_from_args(args: argparse.Namespace) -> SystemConfig:
    if args.lam is not None:
        if args.M is not None:
            raise SpecError("give either --lambda or --M/--N, not both")
        lam = parse_fraction(args.lam)
        N = args.N if args.N is not None else args.K
        M = lam * N
    else:
        if args.M is None or args.N is None:
            raise SpecError("give --lambda, or both --M and --N")
        M = Fraction(args.M)
        N = args.N
    try:
        return build_config(args.K, M, N)
    except ValueError as exc:
        raise SpecError(str(exc)) from None


def _demand_from_args(args: argparse.Namespace, config: SystemConfig) -> Demand:
    if args.demand == "worst":
        try:
            return worst_demand(config)
        except ValueError as exc:
            raise SpecError(str(exc)) from None
    if args.demand == "random":
        if args.seed is None:
            raise SpecError("--seed is required for --demand random")
        return random_demand(config, random.Random(args.seed))
    if args.demand_file is None:
        raise SpecError("--demand-file is required for --demand file")
    try:
        raw = json.loads(Path(args.demand_file).read_text())
    except OSError as exc:
        raise SpecError(f"cannot read --demand-file: {exc}") from None
    except ValueError as exc:
        raise SpecError(f"--demand-file is not JSON: {exc}") from None
    return _demand_from_json(config, raw)


def _rational_fields(value: Fraction | None) -> dict | None:
    if value is None:
        return None
    return {"float": float(value), "exact": fraction_str(value)}


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    demand = _demand_from_args(args, config)
    scheme = args.scheme
    if scheme != delivery.SCHEME_MN and not demand.is_symmetric(config):
        raise SpecError(
            f"scheme {scheme} requires a symmetric demand (every user asks its "
            "own data server); use --scheme mn"
        )

    try:
        plan = delivery.build_plan(config, demand, scheme)
    except delivery.CoverageError as exc:
        raise SpecError(f"scheme {scheme} cannot serve K={config.K}, t={config.t}: {exc}") from None
    problems, recovery = delivery.verify_plan(plan)
    rr = delivery.measure_rate(plan)
    report = {
        "K": config.K,
        "N": config.N,
        "M": _rational_fields(config.M),
        "t": config.t,
        "lambda": _rational_fields(config.lam),
        "scheme": scheme,
        "loads": {LOAD_KEYS.get(origin, origin): n for origin, n in rr.loads.items()},
        "F": rr.packets_per_file,
        "R": _rational_fields(rr.rate),
        "R_formula": _rational_fields(rr.rate_formula),
        "delta_measured": _rational_fields(rr.delta_measured),
        "delta_formula": _rational_fields(rr.delta_formula),
        "verified": recovery.all_ok and not problems,
        "unpaired": rr.unpaired,
        "pairs": rr.pairs,
        "singles": rr.singles,
    }
    if plan.scheme != delivery.SCHEME_MN:
        report["scheme_used"] = plan.scheme  # what auto chose; mn chooses nothing
    # a PacketId is a tuple, so JSON spells first_failed as [server, file, users]
    failures = [
        {"user": u.user, "missing": u.missing, "first_failed": u.first_failed}
        for u in recovery.failures()
    ]
    if problems:
        failures.append({"audit": problems})
    if failures:
        report["failures"] = failures

    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = _report_csv(report)
    _write_text(resolve_output(args.output), [text])

    if args.plan_out:
        _write_text(resolve_output(args.plan_out), _plan_lines(plan))

    return EXIT_OK if report["verified"] else EXIT_VERIFICATION


def _report_csv(report: dict) -> str:
    flat: dict[str, object] = {}
    for key, value in sorted(report.items()):
        if key == "failures":
            continue
        if isinstance(value, dict) and set(value) == {"float", "exact"}:
            flat[key] = float12(value["float"])
            flat[key + "_exact"] = value["exact"]
        elif isinstance(value, dict):
            for sub, v in sorted(value.items()):
                flat[f"{key}_{sub}"] = v
        else:
            flat[key] = value
    header = ",".join(flat)
    row = ",".join(str(v) for v in flat.values())
    return header + "\n" + row + "\n"


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args: argparse.Namespace) -> int:
    path = Path(args.plan)
    if not path.exists():
        raise SpecError(f"plan file {path} does not exist")
    try:
        plan = load_plan(path)
    except SpecError:
        raise
    except Exception as exc:
        raise SpecError(f"malformed plan file: {exc}") from None
    problems, recovery = delivery.verify_plan(plan)
    for p in problems:
        print(f"audit failure: {p}")
    for u in recovery.failures():
        print(f"decode failure: user {u.user} misses {u.missing} packets, "
              f"first {u.first_failed}")
    if problems or not recovery.all_ok:
        return EXIT_VERIFICATION
    groups = delivery.group_counts(plan)
    if plan.scheme == delivery.SCHEME_MN:
        print(f"plan ok: {groups[KIND_MN]} mn sets, all users decode")
    else:
        print(f"plan ok: {groups[KIND_PAIR]} pairs, {groups[KIND_UNPAIRED]} unpaired, "
              f"{groups[KIND_SINGLE]} singles, all users decode")
    return EXIT_OK


# ---------------------------------------------------------------------------
# curves

CURVE_COLUMNS = [
    "lambda", "lambda_num", "lambda_den",
    "K", "t", "regime",
    "n_exact", "ni_exact",
    "ni_over_n", "ni_over_n_num", "ni_over_n_den",
    "asymptote", "asymptote_num", "asymptote_den",
    "delta", "delta_num", "delta_den",
    "delta_prime", "delta_prime_num", "delta_prime_den",
    "delta_ratio", "delta_ratio_num", "delta_ratio_den",
]


def _rational_cells(value: Fraction | None) -> list[str]:
    if value is None:
        return ["", "", ""]
    return [float12(value), str(value.numerator), str(value.denominator)]


def _curve_csv(rows: list[analysis.CurveRow]) -> str:
    lines = [",".join(CURVE_COLUMNS)]
    for r in rows:
        ratio = _rational_cells(r.ni_over_n)
        cells = (
            _rational_cells(r.lam)
            + [str(r.K), str(r.t), str(r.regime), str(r.n), str(r.n_i)]
            + ratio
            + _rational_cells(r.asymptote)
            + _rational_cells(r.delta)
            + _rational_cells(r.delta_prime)
            + ratio  # delta_ratio: delta'/delta = n_i/n
        )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_curves(args: argparse.Namespace) -> int:
    try:
        K_values = [int(k) for k in args.K.split(",") if k]
    except ValueError as exc:
        raise SpecError(f"bad --K list: {exc}") from None
    lambdas = [parse_fraction(item) for item in args.lambdas.split(",") if item]
    if not K_values or not lambdas:
        raise SpecError("curves need at least one K and one lambda")

    rows, skipped = analysis.ratio_curves(K_values, lambdas)
    for s in skipped:
        print(f"skipped lambda={s.lam} K={s.K}: {s.reason}", file=sys.stderr)
    if not rows:
        print("no admissible grid points", file=sys.stderr)
        return EXIT_INVALID
    _write_text(resolve_output(args.output), [_curve_csv(rows)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricache",
        description="Three-server coded caching: simulate delivery plans, "
        "verify decodability, and tabulate rate curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="build, verify and measure one delivery plan")
    sim.add_argument("--K", type=int, required=True, help="number of users (even)")
    sim.add_argument("--lambda", dest="lam", default=None,
                     help="cache fraction M/N as an exact fraction, e.g. 1/2")
    sim.add_argument("--M", type=int, default=None, help="cache size in files")
    sim.add_argument("--N", type=int, default=None,
                     help="number of files (defaults to K with --lambda)")
    sim.add_argument("--scheme", choices=SCHEMES, default="auto")
    sim.add_argument("--demand", choices=["worst", "random", "file"], default="worst")
    sim.add_argument("--demand-file", default=None, help="JSON map user -> [server, file]")
    sim.add_argument("--seed", type=int, default=None, help="seed for --demand random")
    sim.add_argument("--output", default=None, help="report path ('-' or omit for stdout)")
    sim.add_argument("--format", choices=["json", "csv"], default="json")
    sim.add_argument("--plan-out", default=None, help="also export the plan, one broadcast per line")
    sim.set_defaults(func=cmd_simulate)

    cur = sub.add_parser("curves", help="tabulate unpaired-ratio curves over a grid")
    cur.add_argument("--K", required=True, help="comma-separated user counts, e.g. 14,22,30")
    cur.add_argument("--lambdas", required=True,
                     help="comma-separated cache fractions, e.g. 1/3,1/2,2/3")
    cur.add_argument("--output", default=None, help="CSV path ('-' or omit for stdout)")
    cur.set_defaults(func=cmd_curves)

    ver = sub.add_parser("verify", help="re-audit a previously exported plan file")
    ver.add_argument("--plan", required=True, help="plan file from simulate --plan-out")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
