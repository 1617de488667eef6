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
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import analysis, delivery, mn
from .analysis import SCHEME_AUTO, SCHEME_IMPROVED, SCHEME_LAP
from .mn import KIND_MN, KIND_PAIR, KIND_SINGLE, KIND_UNPAIRED, ORIGIN_SINGLE
from .system import (
    SERVER_A,
    SERVER_B,
    Demand,
    SystemConfig,
    build_config,
    demand_from_mapping,
    mask_of,
    packet,
    random_demand,
    worst_demand,
    xor_sum,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2

OUTDIR_ENV = "TRICACHE_OUTDIR"

# Report key of a server's load, where it differs from the origin tag.
LOAD_KEYS = {ORIGIN_SINGLE: "single"}

# The schemes simulate builds and a plan file may name.
SCHEMES = (delivery.SCHEME_MN, SCHEME_LAP, SCHEME_IMPROVED, SCHEME_AUTO)


class SpecError(Exception):
    """Invalid invocation or configuration; maps to exit code 2."""


def parse_fraction(text: str) -> Fraction:
    """Parse an exact fraction such as '1/2', '3' or '0.5'.  A decimal is read
    exactly ('0.5' is 1/2, '1e-1' is 1/10), never through a binary float, so
    integrality checks stay exact.

    The length of the text before any exponent, plus the exponent's size,
    bounds the digits of the numerator and denominator it spells.  Under the
    interpreter's int-to-text digit limit (`sys.get_int_max_str_digits`), text
    whose bound exceeds the limit is refused before any number is built: the
    number might not print, and 1e10000000 alone takes seconds to build."""
    text = text.strip()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    mantissa, _, exponent = text.lower().partition("e")
    try:
        if limit and len(mantissa) + abs(int(exponent or 0)) > limit:
            raise SpecError(f"fraction {text[:40]!r}{'...' if len(text) > 40 else ''} could spell "
                            f"a number of more than {limit} digits, the interpreter's int-to-text limit")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"expected an exact fraction like 1/2, got {text!r}: {exc}") from None


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


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
    if args.demand == "file":
        if args.demand_file is None:
            raise SpecError("--demand-file is required for --demand file")
        try:
            raw = json.loads(Path(args.demand_file).read_text())
        except OSError as exc:
            raise SpecError(f"cannot read --demand-file: {exc}") from None
        except ValueError as exc:
            raise SpecError(f"--demand-file is not JSON: {exc}") from None
        return _demand_from_json(config, raw)
    raise SpecError(f"unknown demand source {args.demand!r}")


def _demand_from_json(config: SystemConfig, raw) -> Demand:
    """The demand a JSON object spells, user id text -> [server, file index].
    Two keys that name one user, such as "3" and "03", are refused."""
    try:
        mapping = {int(k): (server, idx) for k, (server, idx) in raw.items()}
    except (AttributeError, TypeError, ValueError):
        raise SpecError("demand must map every user to [server, file index]") from None
    if len(mapping) != len(raw):
        raise SpecError("demand names a user under two keys")
    try:
        return demand_from_mapping(config, mapping)
    except ValueError as exc:
        raise SpecError(str(exc)) from None


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
# plan files

def _plan_lines(plan: delivery.DeliveryPlan) -> Iterator[str]:
    """The plan file line by line, each line as json.dumps(record,
    sort_keys=True) spells it, assembled from text made once per plan.

    The plan must be whole, as `delivery.build_plan` gives it: its terms
    name t users and its index sets t+1, so the tables of all such subsets
    are no larger than the plan, and every term is a copy, on server A or
    B, of a requested file (`Demand.packet_bases`), so the (server, file)
    heads come from the demand, not from a scan of the terms."""
    config = plan.config
    meta = {
        "kind": "meta",
        "K": config.K,
        "M": fraction_str(config.M),
        "N": config.N,
        "t": config.t,
        "scheme": plan.scheme,
        "demand": {str(u): [plan.demand.of(u)[0], plan.demand.of(u)[1]] for u in config.users},
    }
    yield json.dumps(meta, sort_keys=True) + "\n"
    K, t, low = config.K, config.t, (1 << config.K) - 1
    # Text made once per plan: a spelling per t-subset (a term's users) and
    # (t+1)-subset (an index set's), and a '["A", 3, ' head per (server,
    # file).  `combinations` yields subsets in the lexicographic order of
    # their user lists, so a t-subset's place in it is its rank.  A term sorts
    # by one int key, (server, file, rank of its users) as PacketIds sort,
    # whose high bits index its head and whose low bits its users.
    bits = [1 << u for u in config.users]
    rank = {m: r for r, m in enumerate(map(sum, combinations(bits, t)))}
    tails = [f"{list(u)}]" for u in combinations(config.users, t)]  # an int list's str is its JSON
    spell = dict(zip(map(sum, combinations(bits, t + 1)),
                     map(str, map(list, combinations(config.users, t + 1)))))
    rank_bits = len(tails).bit_length()
    bases = plan.demand.packet_bases
    files = sorted({b >> K for b in bases[SERVER_A] + bases[SERVER_B]},
                   key=lambda f: (f & 1, f >> 1))  # f = file << 1 | server bit
    code = {f: i << rank_bits for i, f in enumerate(files)}
    heads = [f'["{SERVER_B if f & 1 else SERVER_A}", {f >> 1}, ' for f in files]
    low_bits = (1 << rank_bits) - 1
    for g in plan.groups:
        # a line ends in its group's index sets, spelt once per group
        end = ", ".join([f'"{f}": {spell[m]}'
                         for f, m in zip(delivery.GROUPS[g.kind][0], g.index_sets)]) + "}\n"
        for bc in g.broadcasts:
            keys = sorted([code[p >> K] | rank[p & low] for p in bc.payload])
            payload = ", ".join([heads[k >> rank_bits] + tails[k & low_bits] for k in keys])
            yield f'{{"kind": "{g.kind}", "origin": "{bc.origin}", "payload": [{payload}], {end}'


def _plan_checks(config: SystemConfig) -> list[Callable]:
    """The checks behind the loader's memos.  Each returns what its key
    stands for or raises the SpecError that refuses it: a payload term's
    (server, file index) gives that file's packet base, and a term's t users
    or an index set's t+1 users their mask.  Only strictly increasing ints
    in 0..K-1 make a mask; any other list would alias one.  Masks are built
    per subset, not read from a table of 1 << u: that table would hold
    K^2/2 bits for whatever K the meta line claims, before the line count
    is checked."""
    K = config.K

    def base(key: tuple) -> int:
        server, idx = key
        if config.names_file(server, idx):
            return packet(server, idx, 0, K)
        raise SpecError(f"payload term of file {[server, idx]} names no packet: it needs "
                        f"server A or B and a file index in 1..{config.N // 2}")

    def subset(size: int, refusal: str) -> Callable[[Sequence], int]:
        def check(users: Sequence) -> int:
            users = tuple(users)
            valid = len(users) == size and set(map(type, users)) == {int}
            if valid and users == tuple(sorted(set(users))) and 0 <= users[0] and users[-1] < K:
                return mask_of(users)
            raise SpecError(f"{refusal.format(list(users))}: it needs {size} strictly "
                            f"increasing users in 0..{K - 1}")
        return check

    return [base, subset(config.t, "payload term with users {} names no packet"),
            subset(config.t + 1, "index set {} names no subset")]


class _Checked(dict):
    """Memo of checked plan values: a key seen first is checked, then kept."""

    def __init__(self, check: Callable) -> None:
        self.check = check

    def __missing__(self, key):
        self[key] = value = self.check(key)
        return value


class _Unkept(_Checked):
    """The same checks run on every lookup, keeping nothing and hashing no key."""

    def __getitem__(self, key):
        return self.check(key)


def _broadcast(record: dict, kind: str, bases: dict, terms: dict, sets: dict) -> tuple:
    """A plan line's index sets and broadcast: one memo lookup per index set, two per term."""
    index_sets = tuple([sets[tuple(record[f])] for f in delivery.GROUPS[kind][0]])
    origin = record["origin"]  # read first: a line lacking it and a term is refused for it
    payload = xor_sum([bases[s, i] | terms[tuple(u)] for s, i, u in record["payload"]])
    return index_sets, mn.Broadcast(origin, payload)


# Plan numbers are ints.  A JSON float stays its text, which equals no int, so
# it names no user or file index whatever line it comes on.
_PLAN_DECODER = json.JSONDecoder(parse_float=str)


def load_plan(path: Path) -> delivery.DeliveryPlan:
    """Rebuild a plan from an exported file, one broadcast per line, without
    trusting it.  Lines are parsed and grouped as they are read: the lines
    of a kind and index sets form a group, in the order of its first line,
    and a second line from one origin in a group is refused.

    Every line is read by `_broadcast` through memos of `_plan_checks`.  JSON
    true and false equal 1 and 0 and would hit a kept int, so a line holding
    either is read with memos that keep nothing; so is a line with a key
    that cannot be hashed (a list among users), for the check to name it.

    Every set takes at least one broadcast line: a pair's three lines serve
    two sets, an unpaired set takes two and a single or MN set one.  So a
    valid plan has at least C(K, t+1) lines.  Auditing enumerates that many
    sets, so a file with fewer than half of them is refused before any work
    of that size; a plan that lost fewer lines is audited and fails there.
    """
    with path.open() as f:
        lines = (line for line in f if line.strip())
        meta = _PLAN_DECODER.decode(next(lines, "{}"))
        if meta.get("kind") != "meta":
            raise SpecError("plan file must start with a meta line")
        scheme = meta.get("scheme", SCHEME_LAP)
        if scheme not in SCHEMES:
            raise SpecError(f"unknown plan scheme {scheme!r}")
        config = build_config(int(meta["K"]), parse_fraction(str(meta["M"])), int(meta["N"]))
        demand = _demand_from_json(config, meta["demand"])
        grouped: dict[tuple[str, tuple[int, ...]], dict[str, mn.Broadcast]] = {}
        checks = _plan_checks(config)
        kept, unkept = [_Checked(c) for c in checks], [_Unkept(c) for c in checks]
        for line in lines:
            record = _PLAN_DECODER.decode(line)
            kind = record.get("kind")
            if kind not in delivery.GROUPS:
                raise SpecError(f"unknown plan line kind {kind!r}")
            memos = unkept if "true" in line or "false" in line else kept
            try:
                index_sets, bc = _broadcast(record, kind, *memos)
            except TypeError:  # a key that cannot be hashed
                index_sets, bc = _broadcast(record, kind, *unkept)
            if type(bc.origin) is not str:
                raise SpecError(f"{kind} line has origin {bc.origin!r}, which is not a string")
            if grouped.setdefault((kind, index_sets), {}).setdefault(bc.origin, bc) is not bc:
                raise SpecError(
                    f"duplicate {kind} line from {bc.origin} for {delivery.user_lists(index_sets)}"
                )
    groups = tuple([mn.Group(*key, tuple(bcs.values())) for key, bcs in grouped.items()])
    count, sets = sum(len(g.broadcasts) for g in groups), comb(config.K, config.t + 1)
    if 2 * count < sets:
        raise SpecError(
            f"plan file has {count} broadcast lines, fewer than half of "
            f"the C({config.K}, {config.t + 1}) = {sets} sets it must serve"
        )
    return delivery.DeliveryPlan(config=config, demand=demand, scheme=scheme, groups=groups)


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
