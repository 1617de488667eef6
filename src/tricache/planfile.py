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
from operator import or_
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import delivery, mn
from .analysis import SCHEME_AUTO, SCHEME_IMPROVED, SCHEME_LAP
from .system import (SERVER_A, SERVER_B, Demand, SystemConfig, build_config, demand_from_mapping,
                     mask_of, packet, xor_sum)

# The schemes simulate builds and a plan file may name.
SCHEMES = (delivery.SCHEME_MN, SCHEME_LAP, SCHEME_IMPROVED, SCHEME_AUTO)

# Bytes of file per t- and (t+1)-subset from which the loader builds its
# subset text tables.  Written plans carry 70-400 and an entry costs 130-160,
# so the tables never outweigh about 2.5x the file, whatever system a short
# file's meta line claims.
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


def _subset_texts(K: int, size: int) -> tuple[Iterator[int], Iterator[str]]:
    """Every size-subset of the users 0..K-1 as its mask and as its users
    joined by ', ', both in the order of `combinations`: the lexicographic
    order of user lists, so a subset's place in it is its rank."""
    return (map(sum, combinations([1 << u for u in range(K)], size)),
            map(", ".join, combinations(list(map(str, range(K))), size)))


def _file_heads(demand: Demand, K: int) -> dict[int, str]:
    """The requested files' copies on servers A and B (`Demand.packet_bases`),
    each as a packet base and as a term spells its (server, file): '"A", 3'.
    Sorted as PacketIds sort, server-major and files in numeric order."""
    bases = demand.packet_bases
    return {b: f'"{SERVER_B if b >> K & 1 else SERVER_A}", {b >> K + 1}'
            for b in sorted(set(bases[SERVER_A] + bases[SERVER_B]), key=lambda b: (b >> K & 1, b))}


def _plan_lines(plan: delivery.DeliveryPlan) -> Iterator[str]:
    """The plan file line by line, each line as json.dumps(record,
    sort_keys=True) spells it, assembled from text made once per plan.

    The plan must be whole, as `delivery.build_plan` gives it: its terms
    name t users and its index sets t+1, so the tables of all such subsets
    are no larger than the plan, and every term is a copy, on server A or
    B, of a requested file, so the (server, file) heads come from the
    demand (`_file_heads`), not from a scan of the terms."""
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
    # file).  A term sorts by one int key, (server, file, rank of its users)
    # as PacketIds sort, whose high bits index its head and whose low bits
    # its users.
    masks, texts = _subset_texts(K, t)
    tails = list(map("[{}]]".format, texts))
    rank = dict(zip(masks, range(len(tails))))
    spell = dict(zip(*_subset_texts(K, t + 1)))
    rank_bits = len(tails).bit_length()
    files = _file_heads(plan.demand, K)
    code = {b >> K: i << rank_bits for i, b in enumerate(files)}
    heads = [f"[{head}, " for head in files.values()]
    low_bits = (1 << rank_bits) - 1
    for g in plan.groups:
        # a line ends in its group's index sets, spelt once per group
        end = ", ".join([f'"{f}": [{spell[m]}]'
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


def _plan_memos(config: SystemConfig) -> tuple[list[dict], list[dict]]:
    """The JSON path's memos over `_plan_checks`: (bases, terms, sets) that
    keep what they check, and the same three that keep nothing."""
    checks = _plan_checks(config)
    return [_Checked(c) for c in checks], [_Unkept(c) for c in checks]


def _text_tables(config: SystemConfig, demand: Demand, file_bytes: int) -> tuple[dict, dict, dict]:
    """The writer's own spellings, each with the value the JSON path's check
    gives it: (heads, tails, sets).  A head '"A", 3' per requested file
    (`_file_heads`) gives its packet base.  For a file of at least
    `_SEED_BYTES_PER_ENTRY` bytes per t- and (t+1)-subset, a tail '0, 1]]'
    per t-subset and a set's text '0, 1, 2' per (t+1)-subset give its mask;
    for a shorter file those two tables are empty."""
    K, t = config.K, config.t
    tails, sets = {}, {}
    if _SEED_BYTES_PER_ENTRY * (comb(K, t) + comb(K, t + 1)) <= file_bytes:
        masks, texts = _subset_texts(K, t)
        tails = dict(zip(map("{}]]".format, texts), masks))
        masks, texts = _subset_texts(K, t + 1)
        sets = dict(zip(texts, masks))
    return {text: base for base, text in _file_heads(demand, K).items()}, tails, sets


def _canonical_reader(config: SystemConfig, demand: Demand, file_bytes: int) -> Callable[[str], tuple | None]:
    """A reader of the lines spelled exactly as `_plan_lines` spells them,
    through a '{"kind": "pair", "origin": "A"' prefix per kind and origin, a
    frame per kind for its index-set end, and the `_text_tables`.

    It gives a line's (kind, index sets, broadcast), or None for any other
    line.  The tables hold only valid spellings, none of them holding the
    ', [' that splits a payload into alternating heads and tails, so a line
    it reads gives exactly what the JSON path gives.  An index-set end is
    read once for the lines that repeat it."""
    prefixes = {f'{{"kind": "{kind}", "origin": "{origin}"': (kind, origin) for kind in delivery.GROUPS
                for origin in (mn.ORIGIN_A, mn.ORIGIN_B, mn.ORIGIN_P, mn.ORIGIN_SINGLE)}
    frames = {kind: ", ".join([f'"{f}": [{{}}]' for f in fields]) + "}}\n"
              for kind, (fields, _) in delivery.GROUPS.items()}
    heads, tails, sets = _text_tables(config, demand, file_bytes)
    head, tail = heads.__getitem__, tails.__getitem__
    last_kind = last_end = last_sets = None

    def read(line: str) -> tuple | None:
        nonlocal last_kind, last_end, last_sets
        prefix, _, rest = line.partition(', "payload": [[')
        payload, _, end = rest.partition("]]], ")
        try:
            kind, origin = prefixes[prefix]
            if end != last_end or kind != last_kind:  # kinds differ in their set fields
                texts = [piece.partition("[")[2] for piece in end.split("]")[:-1]]
                index_sets = tuple([sets[text] for text in texts])
                # respelled from the kind's frame: too few sets raise IndexError
                if frames[kind].format(*texts) != end:
                    return None
                last_kind, last_end, last_sets = kind, end, index_sets
            pieces = (payload + "]]").split(", [")
            terms = list(map(or_, map(head, pieces[::2]), map(tail, pieces[1::2])))
        except LookupError:
            return None
        if 2 * len(terms) != len(pieces):
            return None
        return kind, last_sets, mn.Broadcast(origin, xor_sum(terms))

    return read


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

    A line spelled as the writer spells it is read by `_canonical_reader`,
    with no JSON decode.  Any other line is decoded and read by `_broadcast`
    through the memos of `_plan_memos`.  JSON true and false equal 1 and 0
    and would hit a kept int, so a line holding either is read with memos
    that keep nothing; so is a line with a key that cannot be hashed (a list
    among users), for the check to name it.  A valid plan in a file large
    enough for the subset text tables runs no subset check; any other key
    misses them and is refused by its check.

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
        read = _canonical_reader(config, demand, path.stat().st_size)
        kept, unkept = _plan_memos(config)
        for line in lines:
            parsed = read(line)
            if parsed:
                kind, index_sets, bc = parsed
            else:
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
