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
    """A delivery plan failed to serve every (t+1)-subset exactly once."""


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
    2n/3 split.  Each pair comes A-heavy member first, as max_matching emits
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
    pairs = [pair for m in matchings for pair in m]
    return assemble_plan(config, demand, pairs, unmatched, scheme=scheme)


# ---------------------------------------------------------------------------
# audits and measurement

def user_lists(index_sets: Iterable[int]) -> list[list[int] | int]:
    """Index-set masks as the user lists that plan lines and messages spell;
    a negative mask names no users and is spelt as its int."""
    return [list(users_of(m)) if m >= 0 else m for m in index_sets]


def group_counts(plan: DeliveryPlan) -> Counter:
    """Number of groups of each kind: pairs, unpaired sets, singles, MN sets."""
    return Counter(g.kind for g in plan.groups)


def coverage_errors(plan: DeliveryPlan) -> list[str]:
    """Check, walking the plan's groups in order, that every group is
    complete and of a kind the plan's scheme sends (mn groups in an mn plan
    only), and that every (t+1)-subset of users is served by exactly one
    group.  The index sets of all groups are counted in one `Counter`; the
    C(K, t+1) sets are enumerated only to name the ones no group serves."""
    config = plan.config
    mn = plan.scheme == SCHEME_MN
    problems = []
    for g in plan.groups:
        fields, complete = GROUPS.get(g.kind, ((), ()))
        origins = sorted([bc.origin for bc in g.broadcasts])
        if len(g.index_sets) != len(fields) or tuple(origins) not in complete:
            problems.append(
                f"{g.kind} group {user_lists(g.index_sets)} has broadcasts from {origins}"
            )
        if (g.kind == KIND_MN) != mn:
            problems.append(
                f"{g.kind} group {user_lists(g.index_sets)} is not sent by scheme {plan.scheme}"
            )
    seen = Counter([m for g in plan.groups for m in g.index_sets])
    size, everyone = config.t + 1, (1 << config.K) - 1
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
    if len(seen) - len(invalid) < comb(config.K, size):
        missing = [users_of(m) for m in subset_masks(config.users, size) if m not in seen]
        problems.extend(f"subset {sub} is not served by any broadcast" for sub in sorted(missing))
    return problems


def origin_errors(plan: DeliveryPlan) -> list[str]:
    """The origin rule of every broadcast, audited in one pass: origin A
    sends only server-A packets, B only server-B packets, P only twin pairs
    and SINGLE anything.  Violations come in plan order, group by group,
    and within a broadcast in the order of their PacketIds, as plan files
    spell terms."""
    K = plan.config.K
    server_bit = 1 << K
    foreign_bits = {ORIGIN_A: server_bit, ORIGIN_B: 0}
    problems = []
    for g in plan.groups:
        for bc in g.broadcasts:
            origin, terms = bc.origin, bc.payload
            if origin in foreign_bits:
                foreign = foreign_bits[origin]
                bad = [p for p in terms if p & server_bit == foreign]
            elif origin == ORIGIN_P:
                twins = set(terms)
                bad = [p for p in terms if p ^ server_bit not in twins]
            else:
                if origin != ORIGIN_SINGLE:
                    problems.append(f"unknown origin {origin!r}")
                continue
            if bad:
                template = ("parity payload term {} lacks its twin" if origin == ORIGIN_P
                            else f"origin {origin} payload holds foreign packet {{}}")
                problems.extend(template.format(q) for q in sorted(packet_id(p, K) for p in bad))
    return problems


def verify_plan(plan: DeliveryPlan) -> tuple[list[str], RecoveryReport]:
    """The one audit of a plan: coverage and origins, plus the full
    per-user decodability check."""
    problems = coverage_errors(plan) + origin_errors(plan)
    report = verify_full_recovery(plan.config, plan.demand, plan.broadcasts, plan.groups)
    return problems, report


@dataclass(frozen=True)
class RateReport:
    loads: dict[str, int]
    packets_per_file: int
    rate: Fraction
    delta_measured: Fraction | None
    delta_formula: Fraction | None
    rate_formula: Fraction
    slack: Fraction
    pairs: int
    unpaired: int
    singles: int


def measure_rate(plan: DeliveryPlan) -> RateReport:
    """Count per-server broadcasts and compare against the rate formula.

    For the three-server schemes the formula value uses the plan's own
    measured unpaired fraction: half the single-server rate for even t, plus
    delta/6 for odd t.  Slack is the leftover from integer load rounding and
    one-sided singles.  The MN plan has no unpaired fraction and is compared
    against the single-server rate.
    """
    config = plan.config
    t = config.t
    mn = plan.scheme == SCHEME_MN
    loads = dict.fromkeys((ORIGIN_SINGLE,) if mn else (ORIGIN_A, ORIGIN_B, ORIGIN_P), 0)
    for g in plan.groups:
        for bc in g.broadcasts:
            loads[bc.origin] += 1
    F = config.packets_per_file
    rate = Fraction(max(loads.values()), F)
    groups = group_counts(plan)
    delta = delta_formula = None
    formula = mn_rate_formula(config.K, t)
    if not mn:
        delta = Fraction(groups[KIND_UNPAIRED], comb(config.K, t + 1))
        delta_formula = scheme_delta(config.K, t, plan.scheme)
        formula = three_server_rate(config.K, t, delta)
    return RateReport(
        loads=loads,
        packets_per_file=F,
        rate=rate,
        delta_measured=delta,
        delta_formula=delta_formula,
        rate_formula=formula,
        slack=rate - formula,
        pairs=groups[KIND_PAIR],
        unpaired=groups[KIND_UNPAIRED],
        singles=groups[KIND_SINGLE],
    )
