"""Single-server MN delivery and the GF(2) decoder used to certify every scheme.

The MN scheme sends one XOR per (t+1)-subset S of users: the payload combines,
for each k in S, the packet of k's requested file indexed by S without k.
Every user in S holds all terms but its own in cache, so each broadcast serves
t+1 users at once.  The three-server messages follow the same rule with
another server's copy or a subset of the members, so `message` builds every
broadcast of every scheme.  The decoder below does not assume that structure:
it checks exact GF(2) span membership, because the three-server pairing
scheme requires combining messages from several servers to extract a segment.
One bit-sliced peel serves all users at once (a payload with one term a user
does not know yields that term to the user) and settles every packet of a
well-formed plan in a few sweeps over the rows.  Only a user left with an
unknown target runs its own peel plus Gaussian elimination on the rows that
peeling leaves unresolved.

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

    Index sets are user masks, like the subsets inside packets; user lists
    appear only in text.  The three messages of a pair all carry index sets
    (s1, s2); every other kind carries the one set it serves.  Origin A
    carries only server-A packets, origin B only server-B packets, and origin
    P only twin pairs (the A and B packet with identical file index and
    subset), since the parity server can only combine its stored parities.
    The payload is the set of packet ints (`system.packet`) whose XOR is sent.
    """

    origin: str
    index_sets: tuple[int, ...]
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
    index_sets: tuple[int, ...],
    demand: Demand,
    parts: Iterable[tuple[int, int]],
) -> Broadcast:
    """The one transmission rule of every scheme.

    For each (subset, members) part, every member k contributes the segment
    of k's requested file indexed by subset without k.  Origin A or B sends
    that server's copy, P both twins (which its stored parity combines), and
    SINGLE the requester's own file.  Index sets, subsets and members are masks.
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
        message(ORIGIN_SINGLE, KIND_MN, (m,), demand, ((m, m),))
        for m in subset_masks(config.users, config.t + 1)
    ]


def mn_rate(config: SystemConfig) -> Fraction:
    """Broadcast volume per file: C(K,t+1)/C(K,t) = (K-t)/(t+1)."""
    return Fraction(config.K - config.t, config.t + 1)


class _PayloadTable:
    """The payloads of a broadcast list with every packet interned to a dense id.

    rows[r] lists the ids in broadcast r's payload.  rows_of[i], the rows that
    hold id i, is built on first use: only the per-user routine reads it.
    """

    __slots__ = ("ids", "rows", "_rows_of")

    def __init__(self, broadcasts: Iterable[Broadcast]) -> None:
        ids: dict[int, int] = {}
        self.rows = [[ids.setdefault(p, len(ids)) for p in bc.payload] for bc in broadcasts]
        self.ids = ids
        self._rows_of: list[list[int]] | None = None

    @property
    def rows_of(self) -> list[list[int]]:
        if self._rows_of is None:
            rows_of: list[list[int]] = [[] for _ in self.ids]
            for r, row in enumerate(self.rows):
                for i in row:
                    rows_of[i].append(r)
            self._rows_of = rows_of
        return self._rows_of


def _peel_all(table: _PayloadTable, K: int) -> list[int]:
    """Peel for all K users at once; returns known_by, the mask of the users
    who know each id.

    A user knows a packet it caches (bit u of the packet int) and any term of
    a row whose other terms it knows.  Each sweep visits the rows in order
    and keeps two bit-sliced counters over a row's terms: z1 holds the users
    with at least one unknown term and z2 those with at least two, so
    z1 & ~z2 are the users for whom the row yields its one unknown term.
    Sweeps repeat until one changes nothing or K of them have run, so the
    cost never exceeds K per-user passes.  Every bit set is a peeling step,
    and peeling has one closure, so at convergence each user knows exactly
    what its own peel would give it; after the cap it knows a subset of that.
    """
    everyone = (1 << K) - 1
    known_by = [p & everyone for p in table.ids]
    rows = table.rows
    for _ in range(K):
        changed = False
        for row in rows:
            z1 = z2 = 0
            for i in row:
                unknown = everyone ^ known_by[i]
                z2 |= z1 & unknown
                z1 |= unknown
            one = z1 & ~z2
            if one:
                for i in row:
                    k = known_by[i]
                    if one & ~k:
                        known_by[i] = k | one
                        changed = True
        if not changed:
            break
    return known_by


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
    informational).  The payloads are interned once and one bit-sliced peel
    (`_peel_all`) serves all users.  A user with a target that peel leaves
    unknown runs the per-user routine `_decodable`, seeded with what the
    shared peel gave it, so every answer is exact GF(2) span membership.
    """
    table = _PayloadTable(broadcasts)
    K = config.K
    ids = table.ids
    known_by = _peel_all(table, K)
    known_of = dict(zip(ids, known_by))
    tsubs = subset_masks(config.users, config.t)
    results = []
    for user in config.users:
        bit = 1 << user
        server, idx = demand.of(user)
        base = packet(server, idx, 0, K)
        # The user's targets (its file's packets whose subset misses the
        # user) that the shared peel left unknown to it, in colex order.
        failed = [base | m for m in tsubs if not m & bit and not known_of.get(base | m, 0) & bit]
        if any(p in ids for p in failed):
            known = bytearray(k >> user & 1 for k in known_by)
            decoded = _decodable(table, known, [ids.get(p) for p in failed])
            failed = [p for p, ok in zip(failed, decoded) if not ok]
        results.append(
            UserRecovery(
                user=user,
                ok=not failed,
                first_failed=packet_id(failed[0], K) if failed else None,
                missing=len(failed),
            )
        )
    return RecoveryReport(tuple(results))
