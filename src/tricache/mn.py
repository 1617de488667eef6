"""Single-server MN delivery and the GF(2) decoder used to certify every scheme.

The MN scheme sends one XOR per (t+1)-subset S of users: the payload combines,
for each k in S, the packet of k's requested file indexed by S without k.
Every user in S holds all terms but its own in cache, so each broadcast serves
t+1 users at once.  The three-server messages follow the same rule with
another server's copy or a subset of the members, so `message` builds every
broadcast of every scheme.  The decoder below does not assume that structure:
it checks exact GF(2) span membership, because the three-server pairing
scheme requires combining messages from several servers to extract a segment.
Decoding is bit-sliced over users: one sweep (`_sweep`) peels for all users
at once, a payload with one term a user does not know yielding that term to
the user.  Every member of a transmission group recovers its missing segment
from that group and its own cache, so a plan's groups are first swept one at
a time, each over a map that holds only what its users learn; a well-formed
plan is certified that way with no packet memo larger than a group and no
per-user work.  A plan that falls short (tampered, with rows moved between
groups, or given without its groups) is swept whole, and only a user left
with an unknown target runs Gaussian elimination, over the packets it does
not know after those sweeps.

Verification returns structured reports instead of raising; failures are data.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .gf2 import GF2Basis
from .system import (
    SERVER_A,
    SERVER_B,
    Demand,
    PacketId,
    SystemConfig,
    packet_id,
    subset_masks,
    xor_sum,
)

ORIGIN_SINGLE = "SINGLE"
ORIGIN_A = "A"
ORIGIN_B = "B"
ORIGIN_P = "P"

# The kind of a transmission group; a plan file names it on every line.
KIND_PAIR = "pair"  # m_A, m_B and m_P of an effective pair (s1, s2)
KIND_UNPAIRED = "unpaired"  # two fragments that XOR to one set's signal
KIND_SINGLE = "single"  # a one-sided set sent by its own data server
KIND_MN = "mn"  # the single-server MN signal of one set

# The server whose copy of a member's file each origin sends; None is the
# member's own server.  P sends the A copy and its B twin.
_BASE_SERVERS = {ORIGIN_A: SERVER_A, ORIGIN_B: SERVER_B, ORIGIN_P: SERVER_A, ORIGIN_SINGLE: None}


# Slotted: a plan holds one Broadcast per line and one Group per group, and
# per-instance dicts would add about 5 MiB to the K=18 t=9 decode peak.  Not
# frozen: a frozen dataclass sets each field through object.__setattr__, so
# building one took 1.0-1.4 us against 0.45-0.5 us (timeit, CPython 3.11), at
# the same 48 and 56 bytes.  Nothing assigns their fields or hashes them.
@dataclass(slots=True)
class Broadcast:
    """One transmitted XOR: its origin server and its payload.

    Origin A carries only server-A packets, origin B only server-B packets,
    and origin P only twin pairs (the A and B packet with identical file
    index and subset), since the parity server can only combine its stored
    parities; `delivery.origin_errors` audits that rule.
    The payload is the strictly increasing tuple of packet ints
    (`system.packet`) whose XOR is sent.  Only `system.xor_sum` builds one,
    cancelling a packet named an even number of times.
    """

    origin: str
    payload: tuple[int, ...]


@dataclass(slots=True)
class Group:
    """The unit of a plan: the broadcasts that serve one kind of index sets,
    the m_A, m_B and m_P of a pair (s1, s2), or the fragments or the one
    broadcast of a set (s,).  Index sets are user masks, like the subsets
    inside packets; user lists appear only in text."""

    kind: str
    index_sets: tuple[int, ...]
    broadcasts: tuple[Broadcast, ...]


def message(origin: str, demand: Demand, parts: Iterable[tuple[int, int]]) -> Broadcast:
    """The one transmission rule of every scheme.

    For each (subset, members) part, every member k contributes the segment
    of k's requested file indexed by subset without k.  Origin A or B sends
    that server's copy, P both twins (which its stored parity combines), and
    SINGLE the requester's own file.  Subsets and members are masks.
    A term is the member's packet base, made once per demand
    (`Demand.packet_bases`), ORed with the subset less the member; P adds the
    B twin by setting the server bit.
    """
    bases = demand.packet_bases[_BASE_SERVERS[origin]]
    twin = 1 << len(bases) if origin == ORIGIN_P else 0
    terms = []
    for subset, members in parts:
        while members:
            low = members & -members
            members ^= low
            p = bases[low.bit_length() - 1] | (subset & ~low)
            terms.append(p)
            if twin:
                terms.append(p | twin)
    return Broadcast(origin, xor_sum(terms))


def mn_delivery(config: SystemConfig, demand: Demand) -> list[Group]:
    """The C(K, t+1) single-server groups of one broadcast, one per (t+1)-subset in colex order."""
    return [
        Group(KIND_MN, (m,), (message(ORIGIN_SINGLE, demand, ((m, m),)),))
        for m in subset_masks(config.users, config.t + 1)
    ]


def _sweep(rows: Sequence[Broadcast], everyone: int, known: dict[int, int]) -> bool:
    """One peel pass over the payloads of `rows` for all users at once;
    whether any user learned anything.  `known.get(p, p) & everyone` is the
    mask of the users who know packet p, so a map that holds only what was
    learned falls back to p's cache bits (its subset bits).  Two bit-sliced
    counters run over a payload's terms: z1 holds the users with at least
    one unknown term and z2 those with at least two, so each user in
    z1 & ~z2 learns its one unknown term.  Peeling has one closure, so
    sweeps until one reports no change leave each user knowing exactly what
    its own peel would give it; fewer sweeps, a subset of that.
    """
    get = known.get
    changed = False
    for bc in rows:
        payload = bc.payload
        z1 = z2 = 0
        for p in payload:
            unknown = everyone & ~get(p, p)
            z2 |= z1 & unknown
            z1 |= unknown
        one = z1 & ~z2
        if one:
            for p in payload:
                k = get(p, p) & everyone
                new = one & ~k
                if new:
                    known[p] = k | new
                    changed = True
    return changed


def _filled(sets: Sequence[int], base_of: dict[int, int], learned: dict[int, int]) -> bool:
    """Whether each member u of each index set S has learned its target
    there, u's file indexed by S less u: packet `base_of[u] | S ^ u` (users
    as bits), whose mask in `learned` must hold u."""
    for s in sets:
        members = s
        while members:
            low = members & -members
            members ^= low
            if not learned.get(base_of[low] | s ^ low, 0) & low:
                return False
    return True


def _decode_groups(groups: Iterable[Group], bases: Sequence[int], t: int) -> bool:
    """Whether the groups, each decoded alone, fill every (user, target)
    slot; False as soon as one group cannot fill its own.

    The slots of a group are its (user, index set) pairs: each member u of
    each index set S must learn its target there, its requested file (its
    packet base `bases[u]`) indexed by S less u.  Each index set must have
    t+1 users, all of them among the K users, and come in no other group, so
    no slot counts twice, and C(K, t+1) index sets certify every target of
    every user.  A group's rows are swept (`_sweep`) with a map of their own
    that holds only what the group's users learn, at most once per row,
    until `_filled` holds.
    """
    everyone = (1 << len(bases)) - 1
    base_of = {1 << user: base for user, base in enumerate(bases)}
    get_base = base_of.get
    seen: set[int] = set()
    count = 0
    for g in groups:
        sets = g.index_sets
        for s in sets:
            if s.bit_count() != t + 1 or s & ~everyone:
                return False
        seen.update(sets)
        count += len(sets)
        bcs = g.broadcasts
        if len(bcs) == 1 and len(sets) == 1 and len(bcs[0].payload) == t + 1:
            # A row of t+1 terms that holds one set's t+1 targets holds
            # nothing else, and each member caches the other members'
            # targets, so each misses just its own and learns it: no sweep.
            # Each term must be the target of the member its subset lacks,
            # and those members must cover the set, so a repeated term,
            # which leaves a member uncovered, fails as well.
            s, got = sets[0], 0
            for p in bcs[0].payload:
                low = s & ~p
                if p != get_base(low, -1) | s ^ low:
                    return False
                got |= low
            if got != s:
                return False
        else:
            learned: dict[int, int] = {}
            for _ in bcs:
                if _sweep(bcs, everyone, learned) and _filled(sets, base_of, learned):
                    break
            else:
                return False
    return len(seen) == count == comb(len(bases), t + 1)


def _eliminate(rows: Sequence[Broadcast], known: dict[int, int], user: int,
               targets: Sequence[int]) -> list[bool]:
    """Which target packets the payloads of `rows` determine for `user`,
    given the packets whose known mask holds its bit.

    Exact elimination over the payloads with the known packets removed (they
    are in the span, so the answer is exact GF(2) span membership).  Columns
    are packet ints numbered as first met; a target that no payload holds is
    not in `known` and is not determined.
    """
    bit = 1 << user
    col: dict[int, int] = {}
    basis = GF2Basis()
    for bc in rows:
        vec = 0
        for p in bc.payload:
            if not known[p] & bit:
                vec ^= 1 << col.setdefault(p, len(col))
        if vec:
            basis.add(vec)
    return [p in known and (known[p] & bit != 0 or basis.contains(1 << col[p]))
            for p in targets]


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


def _decode_whole(config: SystemConfig, bases: Sequence[int],
                  broadcasts: Sequence[Broadcast]) -> RecoveryReport:
    """Decode the plan as one: at most K sweeps (`_sweep`) shared by all
    users, then exact elimination for each user still missing a target.

    `known` maps each payload packet to its users, seeded with the cache
    bits.  A (user, target) slot is filled when a user learns a packet of
    the file it requests (`wants` maps each file, its packet base >> K, to
    its requesters) whose subset has t users and misses it.  The slots are
    counted from `known` after each sweep; once all K * C(K-1, t) are
    filled, sweeps stop and every user is certified without reading a
    target.  Otherwise sweeps stop when one changes nothing, each user's
    targets are read from `known` in colex order, and a user with one
    unknown that some payload holds runs `_eliminate`.
    """
    K, t = config.K, config.t
    everyone = (1 << K) - 1
    known = {p: p & everyone for bc in broadcasts for p in bc.payload}
    wants: dict[int, int] = {}
    for user, base in enumerate(bases):
        wants[base >> K] = wants.get(base >> K, 0) | 1 << user
    slots = K * comb(K - 1, t)
    filled = 0  # cache bits fill no slot
    for _ in range(K):
        if filled == slots or not _sweep(broadcasts, everyone, known):
            break
        filled = sum((k & ~p & wants.get(p >> K, 0)).bit_count()
                     for p, k in known.items() if (p & everyone).bit_count() == t)
    # With every slot filled no target is read, and every user decodes.
    tsubs = () if filled == slots else subset_masks(config.users, t)
    results = []
    for user, base in enumerate(bases):
        bit = 1 << user
        # The user's targets (its file's packets whose subset misses the
        # user) that the sweeps left unknown to it, in colex order.
        failed = [base | m for m in tsubs
                  if not m & bit and not known.get(base | m, 0) & bit]
        if any(p in known for p in failed):
            decoded = _eliminate(broadcasts, known, user, failed)
            failed = [p for p, ok in zip(failed, decoded) if not ok]
        first_failed = packet_id(failed[0], K) if failed else None
        results.append(UserRecovery(user, not failed, first_failed, len(failed)))
    return RecoveryReport(tuple(results))


def verify_full_recovery(
    config: SystemConfig,
    demand: Demand,
    broadcasts: Sequence[Broadcast],
    groups: Iterable[Group] | None = None,
) -> RecoveryReport:
    """Check that every user can decode every uncached packet of its file.

    Every user hears every broadcast.  With the plan's `groups`, whose
    broadcasts are `broadcasts` grouped, the plan is first decoded group by
    group (`_decode_groups`), which keeps no packet memo larger than a
    group, only the index sets seen; a certificate there means every user
    decodes.  Without groups, or without that certificate, the whole plan
    is decoded as one (`_decode_whole`).  Both run the same sweep, and
    every answer of the whole-plan decode is exact GF(2) span membership,
    so the report does not depend on whether groups were given.
    """
    bases = demand.packet_bases[None]
    if groups is not None and _decode_groups(groups, bases, config.t):
        return RecoveryReport(tuple(UserRecovery(u, True, None, 0) for u in config.users))
    return _decode_whole(config, bases, broadcasts)
