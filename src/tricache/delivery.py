"""Turns matchings into three-server broadcast plans and measures their rate.

For an effective pair (S1, S2) the three servers send one message each:

  m_A over S1: the A-side segment of every member's request (for B-side
       requesters this is the twin A-file with the same index),
  m_B over S2: the B-side segments symmetrically,
  m_P over S1 and S2: twin A+B parity pairs for the shared users, which lets
       each shared user cancel the unwanted twin and extract its second
       segment.

Index sets no matching covers are broadcast by two servers; the two
fragments XOR to the single-server signal.  Sets drawn entirely from one
side's users (layers 0 and t+1) are served by their own data server alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable

from .analysis import SCHEME_LAP, mn_rate_formula, scheme_delta, three_server_rate
from .mn import (
    KIND_MN,
    KIND_PAIR,
    KIND_SINGLE,
    KIND_UNPAIRED,
    ORIGIN_A,
    ORIGIN_B,
    ORIGIN_P,
    ORIGIN_SINGLE,
    Broadcast,
    Group,
    RecoveryReport,
    message,
    mn_delivery,
    verify_full_recovery,
)
from .pairing import (
    build_layers,
    is_effective_pair,
    layer_weight,
    match_graphs,
    middle_pairing,
    outer_graphs,
    single_layer_weights,
)
from .system import SERVER_A, SERVER_B, Demand, SystemConfig, packet_id, subset_masks, users_of

SCHEME_MN = "mn"

# The three two-server splits of an unpaired set's signal (Luo et al. 2016),
# keyed by server pair: each fragment's origin and the side whose members'
# segments it carries (None: every member).
UNPAIRED_FRAGMENTS: dict[tuple[str, str], tuple[tuple[str, str | None], ...]] = {
    (ORIGIN_A, ORIGIN_B): ((ORIGIN_A, SERVER_A), (ORIGIN_B, SERVER_B)),
    (ORIGIN_A, ORIGIN_P): ((ORIGIN_A, None), (ORIGIN_P, SERVER_B)),
    (ORIGIN_B, ORIGIN_P): ((ORIGIN_B, None), (ORIGIN_P, SERVER_A)),
}
SERVER_PAIR_ROTATION: tuple[tuple[str, str], ...] = tuple(UNPAIRED_FRAGMENTS)

# The shape of each kind of group: the plan-file fields that hold its index
# sets, and the sorted origins of its broadcasts in every complete group.
GROUPS: dict[str, tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]] = {
    KIND_PAIR: (("s1", "s2"), ((ORIGIN_A, ORIGIN_B, ORIGIN_P),)),
    KIND_UNPAIRED: (("s",), SERVER_PAIR_ROTATION),
    KIND_SINGLE: (("s",), ((ORIGIN_A,), (ORIGIN_B,))),
    KIND_MN: (("s",), ((ORIGIN_SINGLE,),)),
}


class CoverageError(RuntimeError):
    """A one-sided set no two-server split serves: `assemble_plan` raises it, the audit never does."""


@dataclass(frozen=True)
class DeliveryPlan:
    """The groups of one delivery (`mn.Group`), in transmission order: a
    pair's three messages, an unpaired set's two fragments, or the one
    broadcast of a single or MN set.  Everything that reads a plan walks its
    groups, so none regroups broadcasts."""

    config: SystemConfig
    demand: Demand
    scheme: str
    groups: tuple[Group, ...]

    @property
    def broadcasts(self) -> tuple[Broadcast, ...]:
        """Every broadcast in transmission order, a view made anew on each read."""
        return tuple([bc for g in self.groups for bc in g.broadcasts])


def synthesize_pair_messages(s1: int, s2: int, demand: Demand, config: SystemConfig) -> Group:
    """The group of three broadcasts serving an effective pair; s1 must be the A-heavy member."""
    if not is_effective_pair(s1, s2, config):
        raise ValueError("not an effective pair (A-heavy member must come first)")
    shared = s1 & s2
    return Group(KIND_PAIR, (s1, s2), (
        message(ORIGIN_A, demand, ((s1, s1),)),
        message(ORIGIN_B, demand, ((s2, s2),)),
        message(ORIGIN_P, demand, ((s1, shared & config.mask_b), (s2, shared & config.mask_a))),
    ))


def synthesize_unpaired(
    subset: int, server_pair: tuple[str, str], demand: Demand, config: SystemConfig
) -> Group:
    """The group of two broadcasts that jointly reproduce one set's single-server signal."""
    fragments = UNPAIRED_FRAGMENTS.get(tuple(sorted(server_pair)))
    if fragments is None:
        raise ValueError(f"unknown server pair {server_pair!r}")
    side_masks = {SERVER_A: config.mask_a, SERVER_B: config.mask_b, None: subset}
    return Group(KIND_UNPAIRED, (subset,), tuple([
        message(origin, demand, ((subset, subset & side_masks[side]),))
        for origin, side in fragments
    ]))


def assemble_plan(
    config: SystemConfig,
    demand: Demand,
    pairs: Iterable[tuple[int, int]],
    unmatched: Iterable[int],
    scheme: str = SCHEME_LAP,
) -> DeliveryPlan:
    """Assemble the plan's groups: paired triples, balanced two-server
    unpaired sets, and one-server singles for layers 0 and t+1, in that order.

    Each unpaired set goes to the server pair with the least summed running
    load, which spares a busiest server; a tie goes to the first pair in the
    fixed rotation A+B, A+P, B+P.  With no singles this reproduces an even
    2n/3 split.  Each pair comes A-heavy member first, as a Matching spells
    it.  A one-sided unmatched set, which no two-server split can serve,
    raises CoverageError; the plan is not audited here, `verify_plan` is the
    one audit of every plan.
    """
    paired = sorted(pairs, key=lambda p: p[0])
    groups = [synthesize_pair_messages(s1, s2, demand, config) for s1, s2 in paired]

    # layer 0 is every (t+1)-subset of B's users and layer t+1 of A's, in colex order
    own_sides = {0: (ORIGIN_B, config.users_b), config.t + 1: (ORIGIN_A, config.users_a)}
    singles = [
        Group(KIND_SINGLE, (mask,), (message(origin, demand, ((mask, mask),)),))
        for origin, users in map(own_sides.get, single_layer_weights(config))
        for mask in subset_masks(users, config.t + 1)
    ]

    loads = dict.fromkeys((ORIGIN_A, ORIGIN_B, ORIGIN_P), len(paired))
    for group in singles:
        loads[group.broadcasts[0].origin] += 1

    for mask in sorted(unmatched):
        w = layer_weight(mask, config)
        if w == 0 or w == config.t + 1:
            raise CoverageError(
                f"one-sided subset {users_of(mask)} cannot take a two-server split"
            )
        best_pair = min(SERVER_PAIR_ROTATION, key=lambda pair: loads[pair[0]] + loads[pair[1]])
        for origin in best_pair:
            loads[origin] += 1
        groups.append(synthesize_unpaired(mask, best_pair, demand, config))

    return DeliveryPlan(config, demand, scheme, tuple(groups + singles))


def build_plan(config: SystemConfig, demand: Demand, scheme: str) -> DeliveryPlan:
    """Drive the full pipeline for one scheme: graphs, matchings, assembly.

    Scheme 'mn' is the single-server baseline, one group per set.  The plan
    is not audited here (see `assemble_plan`); `verify_plan` audits it.
    """
    if scheme == SCHEME_MN:
        return DeliveryPlan(config, demand, SCHEME_MN, tuple(mn_delivery(config, demand)))
    if not demand.is_symmetric(config):
        raise ValueError("three-server delivery requires a symmetric demand")
    layers = build_layers(config)
    matchings = match_graphs(outer_graphs(config, layers))
    unmatched: tuple[int, ...] = ()
    if config.t % 2 == 1:
        middle = middle_pairing(config, scheme)
        scheme = middle.scheme
        matchings += middle.matchings
        unmatched = middle.unmatched
        del middle
    # The pairs are spelled once, into the list assemble_plan sorts; the
    # matchings go as the last pair is read, and no second pair list is
    # held while the plan is assembled.
    pairs = (pair for m in matchings for pair in m)
    del matchings
    return assemble_plan(config, demand, pairs, unmatched, scheme=scheme)


# ---------------------------------------------------------------------------
# the audit and measurement

def user_lists(index_sets: Iterable[int]) -> list[list[int] | int]:
    """Index-set masks as the user lists that plan lines and messages spell;
    a negative mask names no users and is spelt as its int."""
    return [list(users_of(m)) if m >= 0 else m for m in index_sets]


def verify_plan(plan: DeliveryPlan) -> tuple[list[str], RecoveryReport, RateReport]:
    """The one audit of a plan: the per-user decode, then one walk over its
    groups that also tallies the rate.  Decoding first holds none of the
    walk's lists at the decode's peak.

    The walk checks that each group is complete and of a kind the scheme
    sends (mn groups in mn plans only), and each broadcast's origin rule: A
    sends only server-A packets, B only server-B packets, P only twin pairs
    (distinct terms, as in every `mn.Broadcast`, are all twins iff setting
    the server bit halves them), SINGLE anything.  Problems come in order:
    group shapes in plan order; index sets served more than once or invalid
    (negative masks first, then by user tuple); the (t+1)-subsets no group
    serves, the only reason to enumerate all C(K, t+1); origin violations in
    plan order, each broadcast's in PacketId order, as plan files spell terms.
    """
    config, K, mn = plan.config, plan.config.K, plan.scheme == SCHEME_MN
    recovery = verify_full_recovery(config, plan.demand, plan.broadcasts, plan.groups)
    server_bit = 1 << K
    foreign_bits = {ORIGIN_A: server_bit, ORIGIN_B: 0}
    problems, origin_problems, kinds, index_sets, all_origins = [], [], [], [], []
    for g in plan.groups:
        kind, sets, broadcasts = g.kind, g.index_sets, g.broadcasts
        kinds.append(kind)
        index_sets += sets
        origins = sorted([bc.origin for bc in broadcasts])
        all_origins += origins
        fields, complete = GROUPS.get(kind, ((), ()))
        if len(sets) != len(fields) or tuple(origins) not in complete:
            problems.append(f"{kind} group {user_lists(sets)} has broadcasts from {origins}")
        if (kind == KIND_MN) != mn:
            problems.append(f"{kind} group {user_lists(sets)} is not sent by scheme {plan.scheme}")
        for bc in broadcasts:
            origin, terms = bc.origin, bc.payload
            if (foreign := foreign_bits.get(origin)) is not None:
                bad = [p for p in terms if p & server_bit == foreign]
            elif origin == ORIGIN_P:
                if 2 * len({p | server_bit for p in terms}) == len(terms):
                    continue
                twins = set(terms)
                bad = [p for p in terms if p ^ server_bit not in twins]
            else:
                if origin != ORIGIN_SINGLE:
                    origin_problems.append(f"unknown origin {origin!r}")
                continue
            if bad:
                template = ("parity payload term {} lacks its twin" if origin == ORIGIN_P
                            else f"origin {origin} payload holds foreign packet {{}}")
                origin_problems.extend(template.format(q) for q in sorted(packet_id(p, K) for p in bad))
    seen = Counter(index_sets)
    size, everyone = config.t + 1, (1 << K) - 1
    invalid = {m for m in seen if not (0 <= m <= everyone and m.bit_count() == size)}
    flagged = invalid.union(m for m, n in seen.items() if n > 1)
    negative = sorted(m for m in flagged if m < 0)
    # problems name subsets as user tuples, in their lexicographic order,
    # after the negative masks, which name no users and are spelt as ints
    for m in negative + sorted(flagged.difference(negative), key=users_of):
        sub = m if m < 0 else users_of(m)
        if seen[m] > 1:
            problems.append(f"subset {sub} served {seen[m]} times")
        if m in invalid:
            problems.append(f"subset {sub} is not a valid index set")
    if len(seen) - len(invalid) < comb(K, size):
        missing = [users_of(m) for m in subset_masks(config.users, size) if m not in seen]
        problems.extend(f"subset {sub} is not served by any broadcast" for sub in sorted(missing))
    return problems + origin_problems, recovery, measure_rate(plan, Counter(kinds), Counter(all_origins))


@dataclass(frozen=True)
class RateReport:
    loads: dict[str, int]
    packets_per_file: int
    rate: Fraction
    delta_measured: Fraction | None
    delta_formula: Fraction | None
    rate_formula: Fraction
    groups: Counter


def measure_rate(plan: DeliveryPlan, kinds: Counter, loads: dict[str, int]) -> RateReport:
    """Compare the loads of the scheme's servers against the rate formula,
    from `verify_plan`'s tallies: groups by kind and broadcasts by origin.

    For the three-server schemes the formula uses the plan's own measured
    unpaired fraction: half the single-server rate, plus delta/6 for odd t;
    integer load rounding and one-sided singles leave the measured rate off
    it.  The MN plan is compared against the single-server rate.
    """
    K, t, F = plan.config.K, plan.config.t, plan.config.packets_per_file
    mn = plan.scheme == SCHEME_MN
    loads = {o: loads.get(o, 0) for o in ((ORIGIN_SINGLE,) if mn else (ORIGIN_A, ORIGIN_B, ORIGIN_P))}
    delta = delta_formula = None
    formula = mn_rate_formula(K, t)
    if not mn:
        delta = Fraction(kinds[KIND_UNPAIRED], comb(K, t + 1))
        delta_formula = scheme_delta(K, t, plan.scheme)
        formula = three_server_rate(K, t, delta)
    return RateReport(loads, F, Fraction(max(loads.values()), F), delta, delta_formula, formula, kinds)
