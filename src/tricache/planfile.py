"""Plan files: a plan exported as line-oriented JSON, and read back untrusted.

A plan file is a meta line (system parameters, scheme and demand) followed
by one broadcast per line.  `_plan_lines` writes it and `load_plan` rebuilds
the plan from it.  Everything a file or an invocation can get wrong is
refused with a `SpecError`, which the command line maps to exit code 2.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import delivery, mn
from .analysis import SCHEME_AUTO, SCHEME_IMPROVED, SCHEME_LAP
from .system import (SERVER_A, SERVER_B, Demand, SystemConfig, build_config, demand_from_mapping,
                     mask_of, packet, xor_sum)

# The schemes simulate builds and a plan file may name.
SCHEMES = (delivery.SCHEME_MN, SCHEME_LAP, SCHEME_IMPROVED, SCHEME_AUTO)

# Bytes of file per t- and (t+1)-subset from which the loader seeds its memos.
# Written plans carry 70-400 and an entry costs 150-200, so the tables never
# outweigh about 3x the file, whatever system a short file's meta line claims.
_SEED_BYTES_PER_ENTRY = 64


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
        digits = len(mantissa) + abs(int(exponent or 0))
    except ValueError:  # no int after the e: Fraction says what is wrong
        digits = 0
    try:
        if limit and digits > limit:
            raise SpecError(f"fraction {text[:40]!r}{'...' if len(text) > 40 else ''} could spell "
                            f"a number of more than {limit} digits, the interpreter's int-to-text limit")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"expected an exact fraction like 1/2, got {text!r}: {exc}") from None


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


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


def _plan_lines(plan: delivery.DeliveryPlan) -> Iterator[str]:
    """The plan file line by line, each line as json.dumps(record,
    sort_keys=True) spells it, assembled from text made once per plan.

    The plan must be whole, as `delivery.build_plan` gives it: its terms
    name t users and its index sets t+1, so the tables of all such subsets
    are no larger than the plan, and every term is a copy, on server A or
    B, of a requested file (`Demand.packet_bases`), so the (server, file)
    heads come from the demand, not from a scan of the terms.  The subset
    tables are `combinations` of the users' bits and names, summed and joined at C level."""
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
    bits, names = [1 << u for u in config.users], list(map(str, config.users))
    tails = list(map("[{}]]".format, map(", ".join, combinations(names, t))))
    rank = dict(zip(map(sum, combinations(bits, t)), range(len(tails))))
    spell = dict(zip(map(sum, combinations(bits, t + 1)),
                     map("[{}]".format, map(", ".join, combinations(names, t + 1)))))
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


def _plan_memos(config: SystemConfig, file_bytes: int) -> tuple[list[dict], list[dict]]:
    """The loader's memos over `_plan_checks`: (bases, terms, sets) that keep
    what they check, and the same three that keep nothing.  For a file of at
    least `_SEED_BYTES_PER_ENTRY` bytes per t- and (t+1)-subset, the kept
    term and index-set memos start with every such subset's users and mask,
    built by `combinations`: exactly the keys their checks admit."""
    checks = _plan_checks(config)
    kept, unkept = [_Checked(c) for c in checks], [_Unkept(c) for c in checks]
    K, t = config.K, config.t
    if _SEED_BYTES_PER_ENTRY * (comb(K, t) + comb(K, t + 1)) <= file_bytes:
        bits = [1 << u for u in range(K)]
        for memo, size in zip(kept[1:], (t, t + 1)):
            memo.update(zip(combinations(range(K), size), map(sum, combinations(bits, size))))
    return kept, unkept


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

    Every line is read by `_broadcast` through the memos of `_plan_memos`.
    JSON true and false equal 1 and 0 and would hit a kept int, so a line
    holding either is read with memos that keep nothing; so is a line with a
    key that cannot be hashed (a list among users), for the check to name it.
    A valid plan in a file large enough to seed the memos runs no subset
    check; any other key misses them and is refused by its check.

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
        if type(meta["t"]) is not int or meta["t"] != config.t:
            raise SpecError(f"meta line has t = {meta['t']!r}, but K*M/N = {config.t}")
        grouped: dict[tuple[str, tuple[int, ...]], dict[str, mn.Broadcast]] = {}
        kept, unkept = _plan_memos(config, path.stat().st_size)
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
