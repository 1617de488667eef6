"""Single-server MN delivery and the GF(2) decoder used to certify every scheme.

The MN scheme sends one XOR per (t+1)-subset S of users: the payload combines,
for each k in S, the packet of k's requested file indexed by S without k.
Every user in S holds all terms but its own in cache, so each broadcast serves
t+1 users at once.  The three-server messages follow the same rule with
another server's copy or a subset of the members, so `message` builds every
broadcast of every scheme.  The decoder below does not assume that structure: it checks
exact GF(2) span membership, because the three-server pairing scheme requires
combining messages from several servers to extract a segment.  It peels first
(a payload with one unknown term yields that term), which settles every
packet of a well-formed plan in linear time, and runs Gaussian elimination
only on the rows peeling leaves unresolved.

Verification returns structured reports instead of raising; failures are data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from .gf2 import GF2Basis
from .system import (
    SERVER_A,
    SERVER_B,
    Demand,
    PacketId,
    SystemConfig,
    packet,
    packet_id,
    subset_masks,
    users_of,
    xor_sum,
)

ORIGIN_SINGLE = "SINGLE"
ORIGIN_A = "A"
ORIGIN_B = "B"
ORIGIN_P = "P"

# What a broadcast is part of; a plan file names it on every line.
KIND_PAIR = "pair"  # m_A, m_B or m_P of an effective pair (s1, s2)
KIND_UNPAIRED = "unpaired"  # one of two fragments that XOR to one set's signal
KIND_SINGLE = "single"  # a one-sided set sent by its own data server
KIND_MN = "mn"  # the single-server MN signal of one set


@dataclass(frozen=True)
class Broadcast:
    """One transmitted XOR: origin server, the subsets its group serves, its
    payload, and the kind of group it belongs to.

    The three messages of a pair all carry index sets (s1, s2); every other
    kind carries the one set it serves.  Origin A carries only server-A
    packets, origin B only server-B packets, and origin P only twin pairs
    (the A and B packet with identical file index and subset), since the
    parity server can only combine its stored parities.  The payload is the
    set of packet ints (`system.packet`) whose XOR is sent.
    """

    origin: str
    index_sets: tuple[tuple[int, ...], ...]
    payload: frozenset[int]
    kind: str


def origin_violations(broadcast: Broadcast, K: int) -> list[str]:
    """Audit the origin invariant for a system of K users; returns
    human-readable violations in plan-file term order."""
    origin, terms = broadcast.origin, broadcast.payload
    server_bit = 1 << K
    if origin in (ORIGIN_A, ORIGIN_B):
        foreign = 0 if origin == ORIGIN_B else server_bit
        bad = [p for p in terms if (p & server_bit) == foreign]
        template = f"origin {origin} payload holds foreign packet {{}}"
    elif origin == ORIGIN_P:
        bad = [p for p in terms if (p ^ server_bit) not in terms]
        template = "parity payload term {} lacks its twin"
    elif origin == ORIGIN_SINGLE:
        return []
    else:
        return [f"unknown origin {origin!r}"]
    return [template.format(p) for p in sorted(packet_id(p, K) for p in bad)]


def message(
    origin: str,
    kind: str,
    index_sets: tuple[tuple[int, ...], ...],
    demand: Demand,
    parts: Iterable[tuple[int, int]],
) -> Broadcast:
    """The one transmission rule of every scheme.

    For each (subset, members) part, every member k contributes the segment
    of k's requested file indexed by subset without k.  Origin A or B sends
    that server's copy, P both twins (which its stored parity combines), and
    SINGLE the requester's own file.  Subsets and members are user masks.
    """
    twins = origin == ORIGIN_P
    own = origin == ORIGIN_SINGLE
    requests = demand.requests
    K = len(requests)
    terms = []
    for subset, members in parts:
        while members:
            low = members & -members
            members ^= low
            server, idx = requests[low.bit_length() - 1]
            rest = subset & ~low
            if twins:
                terms.append(packet(SERVER_A, idx, rest, K))
                terms.append(packet(SERVER_B, idx, rest, K))
            else:
                terms.append(packet(server if own else origin, idx, rest, K))
    return Broadcast(origin, index_sets, xor_sum(terms), kind)


def mn_delivery(config: SystemConfig, demand: Demand) -> list[Broadcast]:
    """The C(K, t+1) single-server broadcasts, one per (t+1)-subset in colex order."""
    return [
        message(ORIGIN_SINGLE, KIND_MN, (users_of(m),), demand, ((m, m),))
        for m in subset_masks(config.users, config.t + 1)
    ]


def mn_rate(config: SystemConfig) -> Fraction:
    """Broadcast volume per file: C(K,t+1)/C(K,t) = (K-t)/(t+1)."""
    return Fraction(config.K - config.t, config.t + 1)


class _PayloadTable:
    """The payloads of a broadcast list with every packet interned to a dense id.

    rows[r] lists the ids in broadcast r's payload and rows_of[i] the rows
    that hold id i.  Built once and shared by every user's decode.
    """

    __slots__ = ("ids", "rows", "rows_of")

    def __init__(self, broadcasts: Iterable[Broadcast]) -> None:
        ids: dict[int, int] = {}
        rows = [[ids.setdefault(p, len(ids)) for p in bc.payload] for bc in broadcasts]
        rows_of: list[list[int]] = [[] for _ in ids]
        for r, row in enumerate(rows):
            for i in row:
                rows_of[i].append(r)
        self.ids = ids
        self.rows = rows
        self.rows_of = rows_of


def _decodable(
    table: _PayloadTable, known: bytearray, targets: Sequence[int | None]
) -> list[bool]:
    """Which target ids the rows determine, given the ids flagged in `known`.

    Peeling first: a row with one unknown term yields that term, which is then
    cancelled from every row holding it.  A target peeling leaves unresolved
    is checked by exact elimination over the residual rows, with known and
    peeled columns removed; those columns are in the span, so the answer is
    exact GF(2) span membership.  `known` gains the peeled ids.
    """
    rows, rows_of = table.rows, table.rows_of
    count = [0] * len(rows)  # unknown terms per row
    xor = [0] * len(rows)  # XOR of the unknown ids per row
    for i, flag in enumerate(known):
        if not flag:
            for r in rows_of[i]:
                count[r] += 1
                xor[r] ^= i
    stack = [r for r, c in enumerate(count) if c == 1]
    while stack:
        r = stack.pop()
        if count[r] != 1:
            continue
        i = xor[r]
        known[i] = 1
        for r2 in rows_of[i]:
            count[r2] -= 1
            xor[r2] ^= i
            if count[r2] == 1:
                stack.append(r2)

    result = [i is not None and known[i] == 1 for i in targets]
    unresolved = [n for n, i in enumerate(targets) if i is not None and not known[i]]
    if unresolved:
        col: dict[int, int] = {}
        basis = GF2Basis()
        for r, row in enumerate(rows):
            if count[r]:
                vec = 0
                for i in row:
                    if not known[i]:
                        vec |= 1 << col.setdefault(i, len(col))
                basis.add(vec)
        for n in unresolved:
            result[n] = basis.contains(1 << col[targets[n]])
    return result


def user_can_decode(
    cache: Collection[int],
    broadcasts: Iterable[Broadcast],
    target: int,
) -> bool:
    """Exact decodability: is the target's unit vector in the GF(2) span of the
    cached unit vectors plus the received payload vectors?"""
    if target in cache:
        return True
    table = _PayloadTable(broadcasts)
    known = bytearray(p in cache for p in table.ids)
    return _decodable(table, known, [table.ids.get(target)])[0]


@dataclass(frozen=True)
class UserRecovery:
    user: int
    ok: bool
    first_failed: PacketId | None
    missing: int


@dataclass(frozen=True)
class RecoveryReport:
    users: tuple[UserRecovery, ...]

    @property
    def all_ok(self) -> bool:
        return all(u.ok for u in self.users)

    def failures(self) -> list[UserRecovery]:
        return [u for u in self.users if not u.ok]


def verify_full_recovery(
    config: SystemConfig,
    demand: Demand,
    broadcasts: Sequence[Broadcast],
) -> RecoveryReport:
    """Check that every user can decode every uncached packet of its file.

    Every user hears every broadcast (audiences on broadcasts are
    informational).  The payloads are interned once and shared; each user's
    check is then independent and pure, and this routine runs them in order.
    """
    table = _PayloadTable(broadcasts)
    K = config.K
    tsubs = subset_masks(config.users, config.t)
    results = []
    for user in config.users:
        server, idx = demand.of(user)
        # The user's targets: its file's packets whose subset misses the user.
        targets = [packet(server, idx, m, K) for m in tsubs if not m >> user & 1]
        known = bytearray(p >> user & 1 for p in table.ids)
        decoded = _decodable(table, known, [table.ids.get(p) for p in targets])
        missing = decoded.count(False)
        first_failed = packet_id(targets[decoded.index(False)], K) if missing else None
        results.append(
            UserRecovery(user=user, ok=missing == 0, first_failed=first_failed, missing=missing)
        )
    return RecoveryReport(tuple(results))
