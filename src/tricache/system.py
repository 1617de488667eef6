"""Core model of a (K, M, N) caching system with two data servers and a parity.

The N files are split evenly between server A (files A_1 .. A_{N/2}) and
server B (B_1 .. B_{N/2}); a parity server P stores the bitwise XOR of the
twin files A_i and B_i.  Every file is cut into C(K, t) equal packets, one
per t-subset of users, and user k caches exactly the packets whose subset
contains k (the Maddah-Ali-Niesen placement).  Packets are ints (see
`packet`), never byte payloads: correctness questions reduce to linear
algebra over GF(2) in the packet basis.

Users are 0-based integers.  The first K/2 users request from server A and
the rest from server B: users are exchangeable, so any other split is only a
relabelling.  A-side users therefore take the low K/2 bits of a mask.
Subsets of users, in packets and broadcasts alike, are int masks (bit u =
user u) iterated in colexicographic order, numeric order for masks, so that
every derived structure (layers, matchings, plans) is deterministic.  Sorted
user tuples appear only in text: plan files, reports and failure messages.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, NamedTuple, Sequence

SERVER_A = "A"
SERVER_B = "B"


class PacketId(NamedTuple):
    """One file segment W_{i,T} as text spells it: a server tag, a file index,
    and the caching t-subset as a sorted user tuple."""

    server: str
    file_index: int
    subset: tuple[int, ...]


def packet(server: str, file_index: int, subset_mask: int, K: int) -> int:
    """The segment W_{i,T} of server A or B as one int.

    Layout, from the low bits up: K bits of subset mask (bit u set iff user
    u is in T, so user u caches the packet iff p >> u & 1), one server bit
    (A = 0, B = 1, so the twin on the other data server is p ^ (1 << K)),
    then the file index:

        ((file_index << 1 | server_bit) << K) | subset_mask

    Int order is therefore (file index, server, subset in colex order), not
    the (server, file index, subset) order that `PacketId`s sort in.
    """
    return ((file_index << 1 | (server == SERVER_B)) << K) | subset_mask


def packet_id(p: int, K: int) -> PacketId:
    """The inverse of `packet`, for plan files and failure messages."""
    return PacketId(SERVER_B if p >> K & 1 else SERVER_A, p >> (K + 1), users_of(p & ((1 << K) - 1)))


def xor_sum(terms: Sequence[int]) -> tuple[int, ...]:
    """A payload from a term list: the packets that appear an odd number of
    times, as a strictly increasing tuple.  A packet that appears an even
    number of times cancels, as it does in the GF(2) sum the payload stands
    for.  A tuple of ints takes a fraction of a frozenset's memory, and
    nothing that reads a payload hashes it."""
    if len(set(terms)) == len(terms):
        return tuple(sorted(terms))
    return tuple(sorted([p for p, n in Counter(terms).items() if n % 2]))


@dataclass(frozen=True)
class SystemConfig:
    """A (K, M, N) system.  Everything else is derived from those three, so
    it cannot disagree with them: t = K*M/N is the replication parameter,
    the number of users caching each packet, lam = M/N is the cache
    fraction, and users [0, K/2) are on the A side (`users_a`, `mask_a`),
    [K/2, K) on the B side.

    Requires K and N even, t an integer in [1, K-1], and at most
    sys.maxsize (t+1)-subsets of the K users.
    """

    K: int
    M: Fraction
    N: int

    def __post_init__(self) -> None:
        K, M, N = self.K, self.M, self.N
        if K <= 0 or K % 2 != 0:
            raise ValueError(f"user count K={K} must be a positive even integer")
        if N <= 0:
            raise ValueError(f"file count N={N} must be positive")
        t_frac = Fraction(K) * M / N
        if t_frac.denominator != 1:
            raise ValueError(
                f"t = K*M/N = {t_frac} is not an integer; choose K, M, N so the "
                f"replication parameter is integral"
            )
        t = int(t_frac)
        if not 1 <= t <= K - 1:
            raise ValueError(f"t = {t} must lie in [1, {K - 1}]")
        if N % 2 != 0:
            raise ValueError(f"file count N={N} must be even to split across two servers")
        # A plan holds one group or more per (t+1)-subset, so C(K, t+1) must fit
        # in a Python sequence.  Stepping C(K, i) = C(K, i-1) (K-i+1) / i up to
        # min(t+1, K-t-1) rises all the way, so the first value past the limit
        # settles it, long before any user tuple is built.
        sets = 1
        for i in range(min(t + 1, K - t - 1)):
            sets = sets * (K - i) // (i + 1)
            if sets > sys.maxsize:
                raise ValueError(f"C({K}, {t + 1}) index sets exceed sys.maxsize = {sys.maxsize}; "
                                 f"no plan can hold them")

    @cached_property
    def lam(self) -> Fraction:
        return Fraction(self.M, self.N)

    @cached_property
    def t(self) -> int:
        return int(self.K * self.lam)

    @cached_property
    def users_a(self) -> tuple[int, ...]:
        return tuple(range(self.K // 2))

    @cached_property
    def users_b(self) -> tuple[int, ...]:
        return tuple(range(self.K // 2, self.K))

    @property
    def users(self) -> range:
        return range(self.K)

    @property
    def packets_per_file(self) -> int:
        return comb(self.K, self.t)

    @cached_property
    def mask_a(self) -> int:
        return mask_of(self.users_a)

    @cached_property
    def mask_b(self) -> int:
        return mask_of(self.users_b)

    def names_file(self, server: object, idx: object) -> bool:
        """Whether (server, idx) names a file: server A or B, an int (not bool) index in 1..N/2."""
        return server in (SERVER_A, SERVER_B) and type(idx) is int and 1 <= idx <= self.N // 2


def build_config(K: int, M: int | Fraction, N: int) -> SystemConfig:
    """A system configuration, validated by `SystemConfig`."""
    return SystemConfig(K, Fraction(M), N)


# ---------------------------------------------------------------------------
# subsets: masks are int bitsets (bit u = user u); tuples are sorted user lists

def mask_of(users: Iterable[int]) -> int:
    m = 0
    for u in users:
        m |= 1 << u
    return m


def users_of(mask: int) -> tuple[int, ...]:
    if mask < 0:
        # two's complement has endless set bits: the loop would never end
        raise ValueError(f"negative mask {mask} names no users")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def subset_masks(universe: Iterable[int], size: int) -> list[int]:
    """All size-subsets of the universe as masks, in colex order, which for
    masks is numeric order."""
    bits = [1 << u for u in universe]
    return sorted(sum(c) for c in combinations(bits, size))


# ---------------------------------------------------------------------------
# demands

@dataclass(frozen=True)
class Demand:
    """One request per user: requests[k] = (server tag, file index)."""

    requests: tuple[tuple[str, int], ...]

    def of(self, user: int) -> tuple[str, int]:
        return self.requests[user]

    @cached_property
    def packet_bases(self) -> dict[str | None, tuple[int, ...]]:
        """Each user's requested file index as a packet with an empty subset,
        per user: on server A, on server B, and (key None) on its own server."""
        K = len(self.requests)
        return {server: tuple([packet(server or own, idx, 0, K) for own, idx in self.requests])
                for server in (SERVER_A, SERVER_B, None)}

    def is_symmetric(self, config: SystemConfig) -> bool:
        """True when every user requests a file held by its own data server."""
        return all(self.requests[u][0] == SERVER_A for u in config.users_a) and all(
            self.requests[u][0] == SERVER_B for u in config.users_b
        )


def worst_demand(config: SystemConfig) -> Demand:
    """All users request distinct files; needs N >= K."""
    if config.N < config.K:
        raise ValueError(f"worst demand needs N >= K, got N={config.N}, K={config.K}")
    files = range(1, config.K // 2 + 1)
    return Demand(tuple([(SERVER_A, i) for i in files] + [(SERVER_B, i) for i in files]))


def random_demand(config: SystemConfig, rng: random.Random) -> Demand:
    """Uniform demand over each user's own data server."""
    n_a, half = config.K // 2, config.N // 2
    return Demand(tuple([(SERVER_A if u < n_a else SERVER_B, rng.randint(1, half)) for u in config.users]))


def demand_from_mapping(config: SystemConfig, mapping: dict[int, tuple[str, int]]) -> Demand:
    """A demand from user -> (server tag, file index), each naming a file
    (`SystemConfig.names_file`)."""
    # the length test comes first, so a demand far smaller than a huge K is
    # refused before any K-sized list is built
    if len(mapping) != config.K or sorted(mapping) != list(config.users):
        raise ValueError("demand must map every user exactly once")
    requests = []
    for u in config.users:
        server, idx = mapping[u]
        if not config.names_file(server, idx):
            raise ValueError(f"user {u}: invalid request ({server!r}, {idx!r})")
        requests.append((server, idx))
    return Demand(tuple(requests))
