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
unknown target runs Gaussian elimination, over the packets it does not know
after the peel.

Verification returns structured reports instead of raising; failures are data.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _intern(broadcasts: Iterable[Broadcast]) -> tuple[dict[int, int], list[list[int]]]:
    """Every payload packet interned to a dense id: ids maps a packet int to
    its id, and rows[r] lists the ids in broadcast r's payload."""
    ids: dict[int, int] = {}
    rows = [[ids.setdefault(p, len(ids)) for p in bc.payload] for bc in broadcasts]
    return ids, rows


def _peel(rows: list[list[int]], known_by: list[int], everyone: int) -> None:
    """Peel for all users at once: known_by[i], the mask of the users (bits
    of `everyone`) who know id i, gains every id peeling yields them.

    A user knows what its caller seeds and any term of a row whose other
    terms it knows.  Each sweep visits the rows in order and keeps two
    bit-sliced counters over a row's terms: z1 holds the users with at least
    one unknown term and z2 those with at least two, so z1 & ~z2 are the
    users for whom the row yields its one unknown term.  Sweeps repeat until
    one changes nothing or one per user has run, so the cost never exceeds a
    pass per user.  Every bit set is a peeling step, and peeling has one
    closure, so at convergence each user knows exactly what its own peel
    would give it; after the cap it knows a subset of that.
    """
    for _ in range(everyone.bit_length()):
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


def _eliminate(
    rows: list[list[int]], known_by: list[int], user: int, targets: Sequence[int | None]
) -> list[bool]:
    """Which target ids the rows determine for `user`, given the ids whose
    known_by mask holds its bit.

    Exact elimination over the rows with the known columns removed: those
    columns are in the span, so dropping them keeps the answer, which is
    exact GF(2) span membership.  A target id of None is not in any row.
    """
    bit = 1 << user
    col: dict[int, int] = {}
    basis = GF2Basis()
    for row in rows:
        vec = 0
        for i in row:
            if not known_by[i] & bit:
                vec |= 1 << col.setdefault(i, len(col))
        if vec:
            basis.add(vec)
    return [
        i is not None and (known_by[i] & bit != 0 or basis.contains(1 << col[i]))
        for i in targets
    ]


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

    Every user hears every broadcast (the index sets of its group are
    informational).  The payloads are interned once and one bit-sliced peel
    (`_peel`) serves all users, seeded with the packets each caches.  A user
    with a target that peel leaves unknown runs `_eliminate` over the ids it
    does not know, so every answer is exact GF(2) span membership.  Targets
    are read through the one packet map, `ids`: a packet that no payload
    holds reads an extra slot that no user knows.
    """
    ids, rows = _intern(broadcasts)
    K = config.K
    everyone = (1 << K) - 1
    known_by = [p & everyone for p in ids]
    _peel(rows, known_by, everyone)
    absent = len(known_by)
    known_by.append(0)  # the slot of every packet no payload holds
    tsubs = subset_masks(config.users, config.t)
    results = []
    for user in config.users:
        bit = 1 << user
        base = demand.packet_bases[None][user]
        # The user's targets (its file's packets whose subset misses the
        # user) that the shared peel left unknown to it, in colex order.
        failed = [base | m for m in tsubs
                  if not m & bit and not known_by[ids.get(base | m, absent)] & bit]
        if any(p in ids for p in failed):
            decoded = _eliminate(rows, known_by, user, [ids.get(p) for p in failed])
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
