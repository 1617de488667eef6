"""Single-server MN delivery and the GF(2) decoder used to certify every scheme.

The MN scheme sends one XOR per (t+1)-subset S of users: the payload combines,
for each k in S, the packet of k's requested file indexed by S without k.
Every user in S holds all terms but its own in cache, so each broadcast serves
t+1 users at once.  The three-server messages follow the same rule with
another server's copy or a subset of the members, so `message` builds every
broadcast of every scheme.  The decoder below does not assume that structure:
it checks exact GF(2) span membership, because the three-server pairing
scheme requires combining messages from several servers to extract a segment.
Decoding is bit-sliced over users: a peel serves all users at once (a
payload with one term a user does not know yields that term to the user) and
counts the (user, target) slots it fills.  Every member of a transmission
group recovers its missing segment from that group and its own cache, so a
plan's groups are first peeled one at a time, each seeded only with cache
bits; a slot counts only for an index set of the group that fills it, and a
well-formed plan fills them all with no packet memo larger than a group and
no per-user work.  A plan that falls short (tampered, with rows moved
between groups, or given without its groups) is peeled whole, keyed by
packet int, and only a user left with an unknown target runs Gaussian
elimination, over the packets it does not know after that peel.

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
# per-instance dicts would add about 5 MiB to the K=18 t=9 decode peak.
@dataclass(frozen=True, slots=True)
class Broadcast:
    """One transmitted XOR: its origin server and its payload.

    Origin A carries only server-A packets, origin B only server-B packets,
    and origin P only twin pairs (the A and B packet with identical file
    index and subset), since the parity server can only combine its stored
    parities; `delivery.origin_errors` audits that rule.
    The payload is the set of packet ints (`system.packet`) whose XOR is sent.
    """

    origin: str
    payload: frozenset[int]


@dataclass(frozen=True, slots=True)
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


def _peel(payloads: Sequence[frozenset[int]], known: dict[int, int], everyone: int,
          wants: dict[int, int], t: int, remaining: int) -> int:
    """Peel for all users at once: known[p], the mask of the users (bits of
    `everyone`, K of them) who know packet p, gains every packet peeling
    yields them.  Returns `remaining` less the (user, target) slots filled.

    A user knows what its caller seeds and any term of a payload whose other
    terms it knows.  Each sweep keeps two bit-sliced counters over a
    payload's terms: z1 holds the users with at least one unknown term and
    z2 those with at least two, so each user in z1 & ~z2 learns its one
    unknown term.  Each user in `new`, those p gains, fills a slot when it
    requests p's file (`wants[p >> K]`) and p's subset has t users; `new`
    has only bits not set before, so no slot counts twice.  Sweeps stop when
    one changes nothing or ends with no slot left, or after one per user.
    Peeling has one closure, so at convergence each user knows exactly what
    its own peel would give it; before it, a subset of that.
    """
    K = everyone.bit_length()
    for _ in range(K):
        changed = False
        for payload in payloads:
            z1 = z2 = 0
            for p in payload:
                unknown = everyone ^ known[p]
                z2 |= z1 & unknown
                z1 |= unknown
            one = z1 & ~z2
            if one:
                for p in payload:
                    k = known[p]
                    new = one & ~k
                    if new:
                        known[p] = k | new
                        changed = True
                        slots = new & wants.get(p >> K, 0)
                        if slots and (p & everyone).bit_count() == t:
                            remaining -= slots.bit_count()
        if not changed or not remaining:
            break
    return remaining


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


def _decode_groups(groups: Iterable[Group], everyone: int, base_of: dict[int, int],
                   t: int) -> int:
    """Decode group by group: the (user, target) slots the groups fill, or 0
    as soon as one group cannot fill its own.

    Each group's rows are peeled alone, as `_peel` peels a plan, seeded only
    with cache bits (a packet's subset bits are the users who cache it).
    The slots of a group are its (user, index set) pairs: each member u of
    each index set S must learn its target there, its requested file
    (`base_of[u]`) indexed by S less u.  Each index set must have t+1 users
    and come in no other group, so no slot counts twice, and K * C(K-1, t)
    slots certify every target of every user.  A one-row group (mn, single)
    takes at most one pass and no dict: a member that misses exactly one
    term of the row learns it, so its target must be that term.  A longer
    group keeps the masks its users learn in a dict of its own terms and
    sweeps until `_filled`, at most once per row.
    """
    seen: set[int] = set()
    count = 0
    for g in groups:
        sets = g.index_sets
        for s in sets:
            if s.bit_count() != t + 1:
                return 0
        seen.update(sets)
        count += len(sets)
        bcs = g.broadcasts
        if len(bcs) == 1:
            payload = bcs[0].payload
            # A row of t+1 terms that holds one set's t+1 targets (checked
            # below) holds nothing else, and each member caches the other
            # members' targets, so each misses just its own; only another
            # row needs its unknown terms counted.
            one = everyone
            if len(sets) != 1 or len(payload) != t + 1:
                z1 = z2 = 0
                for p in payload:
                    unknown = everyone & ~p
                    z2 |= z1 & unknown
                    z1 |= unknown
                one = z1 & ~z2
            for s in sets:
                members = s
                if one & members != members:
                    return 0
                while members:
                    low = members & -members
                    members ^= low
                    if base_of[low] | s ^ low not in payload:
                        return 0
        else:
            learned: dict[int, int] = {}
            get = learned.get
            for _ in bcs:
                for bc in bcs:
                    payload = bc.payload
                    z1 = z2 = 0
                    if learned:
                        for p in payload:
                            unknown = everyone & ~get(p, p)
                            z2 |= z1 & unknown
                            z1 |= unknown
                    else:  # nothing learned yet: cache bits only
                        for p in payload:
                            unknown = everyone & ~p
                            z2 |= z1 & unknown
                            z1 |= unknown
                    one = z1 & ~z2
                    if one:
                        for p in payload:
                            k = get(p, p) & everyone
                            new = one & ~k
                            if new:
                                learned[p] = k | new
                if _filled(sets, base_of, learned):
                    break
            else:
                return 0
    return (t + 1) * count if len(seen) == count else 0


def _eliminate(payloads: Sequence[frozenset[int]], known: dict[int, int], user: int,
               targets: Sequence[int]) -> list[bool]:
    """Which target packets the payloads determine for `user`, given the
    packets whose known mask holds its bit.

    Exact elimination over the payloads with the known packets removed (they
    are in the span, so the answer is exact GF(2) span membership).  Columns
    are packet ints numbered as first met; a target that no payload holds is
    not in `known` and is not determined.
    """
    bit = 1 << user
    col: dict[int, int] = {}
    basis = GF2Basis()
    for payload in payloads:
        vec = 0
        for p in payload:
            if not known[p] & bit:
                vec |= 1 << col.setdefault(p, len(col))
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


def verify_full_recovery(
    config: SystemConfig,
    demand: Demand,
    broadcasts: Sequence[Broadcast],
    groups: Iterable[Group] | None = None,
) -> RecoveryReport:
    """Check that every user can decode every uncached packet of its file.

    Every user hears every broadcast.  With the plan's `groups`, whose
    broadcasts are `broadcasts` grouped, the plan is first decoded group by
    group (`_decode_groups`): filling all K * C(K-1, t) (user, target)
    slots that way certifies every user, and keeps no packet memo larger
    than a group, only the index sets seen.  Without groups, or when that
    count falls short, the whole plan is decoded as one: one peel (`_peel`)
    serves all users, `known` maps each payload packet to its users, seeded
    with the cache bits, and `wants` maps each requested file (its packet
    base >> K) to its requesters, so the peel counts down the same slots;
    at 0 every user decodes.  Otherwise each user's targets are read from
    `known` in colex order, and a user with one left unknown runs
    `_eliminate`, so every answer is exact GF(2) span membership and the
    report does not depend on whether groups were given.
    """
    K, t = config.K, config.t
    everyone = (1 << K) - 1
    bases = demand.packet_bases[None]
    slots = K * comb(K - 1, t)
    certified = RecoveryReport(tuple(UserRecovery(u, True, None, 0) for u in config.users))
    base_of = {1 << user: base for user, base in enumerate(bases)}
    if groups is not None and _decode_groups(groups, everyone, base_of, t) == slots:
        return certified
    wants: dict[int, int] = {}
    for user, base in enumerate(bases):
        wants[base >> K] = wants.get(base >> K, 0) | 1 << user
    payloads = [bc.payload for bc in broadcasts]
    known = {p: p & everyone for payload in payloads for p in payload}
    if not _peel(payloads, known, everyone, wants, t, slots):
        return certified
    tsubs = subset_masks(config.users, t)
    results = []
    for user, base in enumerate(bases):
        bit = 1 << user
        # The user's targets (its file's packets whose subset misses the
        # user) that the shared peel left unknown to it, in colex order.
        failed = [base | m for m in tsubs
                  if not m & bit and not known.get(base | m, 0) & bit]
        if any(p in known for p in failed):
            decoded = _eliminate(payloads, known, user, failed)
            failed = [p for p, ok in zip(failed, decoded) if not ok]
        first_failed = packet_id(failed[0], K) if failed else None
        results.append(UserRecovery(user, not failed, first_failed, len(failed)))
    return RecoveryReport(tuple(results))
