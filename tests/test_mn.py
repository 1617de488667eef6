"""Single-server delivery and the span decoder, checked against a peeling
oracle and a full Gaussian-elimination oracle."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tricache import mn
from tricache.analysis import mn_rate_formula
from tricache.delivery import build_plan, verify_plan
from tricache.gf2 import GF2Basis
from tricache.mn import (
    KIND_MN,
    KIND_PAIR,
    KIND_UNPAIRED,
    ORIGIN_A,
    ORIGIN_B,
    ORIGIN_P,
    ORIGIN_SINGLE,
    Broadcast,
    RecoveryReport,
    UserRecovery,
    mn_delivery,
    verify_full_recovery,
)
from tricache.system import (
    PacketId,
    build_config,
    demand_from_mapping,
    packet,
    packet_id,
    random_demand,
    subset_masks,
    users_of,
    worst_demand,
    xor_sum,
)

from conftest import mask, pkt, user_can_decode
from paper_formulas import place_caches


def flat(groups):
    """The groups' broadcasts in transmission order."""
    return [bc for g in groups for bc in g.broadcasts]


def mn_broadcasts(cfg, demand):
    """The MN broadcasts in transmission order, one per group."""
    return flat(mn_delivery(cfg, demand))


def test_broadcast_count_k4():
    cfg = build_config(4, 2, 4)
    groups = mn_delivery(cfg, worst_demand(cfg))
    assert len(groups) == comb(4, 3) == 4
    assert all(g.kind == KIND_MN and len(g.broadcasts) == 1 for g in groups)


def test_rate_identity_sweep():
    for K in (4, 6, 8, 10):
        for t in range(1, K):
            assert mn_rate_formula(K, t) == Fraction(K - t, t + 1)
            assert Fraction(comb(K, t + 1), comb(K, t)) == mn_rate_formula(K, t)


def test_payload_instantiation():
    # the broadcast for S = {0,1,2} combines each member's request indexed by S minus it
    cfg = build_config(4, 2, 4)
    demand = worst_demand(cfg)
    bcs = {users_of(g.index_sets[0]): g.broadcasts[0] for g in mn_delivery(cfg, demand)}
    payload = bcs[(0, 1, 2)].payload
    assert payload == tuple(sorted(
        {
            pkt("A", 1, (1, 2), 4),
            pkt("A", 2, (0, 2), 4),
            pkt("B", 1, (0, 1), 4),
        }
    ))


def test_decoder_trivial_cases():
    target = pkt("A", 1, (1, 2), 4)
    assert user_can_decode({target}, [], target)
    assert not user_can_decode(set(), [], target)


def test_decoder_single_mn_message():
    cfg = build_config(4, 2, 4)
    demand = worst_demand(cfg)
    caches = place_caches(cfg)
    # user 0 obtains its segment for every broadcast whose subset contains it
    for g in mn_delivery(cfg, demand):
        sub = users_of(g.index_sets[0])
        if 0 not in sub:
            continue
        server, idx = demand.of(0)
        target = pkt(server, idx, (u for u in sub if u != 0), cfg.K)
        assert user_can_decode(caches[0], g.broadcasts, target)


def peel_oracle(cache, broadcasts, target):
    """Forward-substitution: repeatedly learn the unique unknown of any equation."""
    known = set(cache)
    pending = [set(bc.payload) for bc in broadcasts]
    progress = True
    while progress:
        progress = False
        for eq in pending:
            unknown = [p for p in eq if p not in known]
            if len(unknown) == 1:
                known.add(unknown[0])
                progress = True
    return target in known


def test_decoder_agrees_with_peeling_on_mn_plans():
    rng = random.Random(11)
    for K, t in ((4, 2), (6, 3), (6, 2)):
        cfg = build_config(K, t, K)
        for demand in (worst_demand(cfg), random_demand(cfg, rng)):
            caches = place_caches(cfg)
            groups = mn_delivery(cfg, demand)
            bcs = [g.broadcasts[0] for g in groups]
            for user in cfg.users:
                server, idx = demand.of(user)
                for sub in (users_of(g.index_sets[0]) for g in groups):
                    if user not in sub:
                        continue
                    target = pkt(server, idx, (u for u in sub if u != user), K)
                    assert user_can_decode(caches[user], bcs, target) == peel_oracle(
                        caches[user], bcs, target
                    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_decoder_monotone(data):
    cfg = build_config(4, 2, 4)
    demand = worst_demand(cfg)
    caches = place_caches(cfg)
    groups = mn_delivery(cfg, demand)
    bcs = [g.broadcasts[0] for g in groups]
    picked = data.draw(st.lists(st.booleans(), min_size=len(bcs), max_size=len(bcs)))
    subset = [bc for bc, keep in zip(bcs, picked) if keep]
    user = data.draw(st.integers(0, cfg.K - 1))
    server, idx = demand.of(user)
    subs = [users_of(g.index_sets[0]) for g in groups]
    sub = data.draw(st.sampled_from([s for s in subs if user in s]))
    target = pkt(server, idx, (u for u in sub if u != user), cfg.K)
    if user_can_decode(caches[user], subset, target):
        assert user_can_decode(caches[user], bcs, target)


def test_full_recovery_mn():
    cfg = build_config(6, 3, 6)
    demand = worst_demand(cfg)
    report = verify_full_recovery(cfg, demand, mn_broadcasts(cfg, demand))
    assert report.all_ok


def test_full_recovery_detects_missing_broadcast():
    cfg = build_config(6, 3, 6)
    demand = worst_demand(cfg)
    bcs = mn_broadcasts(cfg, demand)
    report = verify_full_recovery(cfg, demand, bcs[1:])
    assert not report.all_ok
    failing = report.failures()
    assert failing and all(u.first_failed is not None for u in failing)


def test_full_recovery_t_equals_k_minus_1():
    # every user caches all but one packet of each file; one broadcast suffices
    cfg = build_config(4, 3, 4)
    demand = worst_demand(cfg)
    bcs = mn_broadcasts(cfg, demand)
    assert len(bcs) == 1
    assert verify_full_recovery(cfg, demand, bcs).all_ok


def test_repeated_requests_still_decode():
    cfg = build_config(4, 2, 4)
    demand = random_demand(cfg, random.Random(3))
    assert verify_full_recovery(cfg, demand, mn_broadcasts(cfg, demand)).all_ok


def elimination_oracle(config, demand, broadcasts):
    """Full per-user Gaussian elimination over every payload, with no peeling."""
    users = []
    for user in config.users:
        col = {}
        basis = GF2Basis()
        for bc in broadcasts:
            row = 0
            for p in sorted(bc.payload):
                if user in packet_id(p, config.K).subset:
                    continue
                row |= 1 << col.setdefault(p, len(col))
            if row:
                basis.add(row)
        server, idx = demand.of(user)
        others = [u for u in config.users if u != user]
        first_failed = None
        missing = 0
        for sub in map(users_of, subset_masks(others, config.t)):
            bit = col.get(pkt(server, idx, sub, config.K))
            if bit is None or not basis.contains(1 << bit):
                missing += 1
                if first_failed is None:
                    first_failed = PacketId(server, idx, sub)
        users.append(UserRecovery(user, missing == 0, first_failed, missing))
    return RecoveryReport(tuple(users))


def oracle_group_plans():
    """Small MN, lap and improved plans under worst and random demands, as groups."""
    rng = random.Random(5)
    for K, t in ((4, 2), (6, 2), (6, 3), (8, 1), (8, 3), (8, 5)):
        cfg = build_config(K, t, K)
        for demand in (worst_demand(cfg), random_demand(cfg, rng)):
            yield f"mn K={K} t={t}", cfg, demand, tuple(mn_delivery(cfg, demand))
            for scheme in ("lap", "improved"):
                plan = build_plan(cfg, demand, scheme)
                yield f"{scheme} K={K} t={t}", cfg, demand, plan.groups


def oracle_plans():
    """Small MN, lap and improved plans under worst and random demands."""
    for name, cfg, demand, groups in oracle_group_plans():
        yield name, cfg, demand, flat(groups)


def tampered(broadcasts, rng):
    """A dropped broadcast, a removed payload term and a duplicated broadcast."""
    n = len(broadcasts)
    drop = rng.randrange(n)
    yield "drop", broadcasts[:drop] + broadcasts[drop + 1:]
    victim = rng.choice([i for i, bc in enumerate(broadcasts) if len(bc.payload) > 1])
    bc = broadcasts[victim]
    term = rng.choice(sorted(bc.payload))
    thinned = Broadcast(bc.origin, xor_sum(bc.payload + (term,)))
    yield "remove term", broadcasts[:victim] + [thinned] + broadcasts[victim + 1:]
    dup = rng.randrange(n)
    yield "duplicate", broadcasts[:dup + 1] + broadcasts[dup:]


def test_recovery_matches_elimination_oracle():
    rng = random.Random(17)
    checked = failing = 0
    for name, cfg, demand, bcs in oracle_plans():
        variants = [("intact", bcs), *tampered(bcs, rng)]
        for how, variant in variants:
            report = verify_full_recovery(cfg, demand, variant)
            assert report == elimination_oracle(cfg, demand, variant), (name, how)
            checked += 1
            failing += not report.all_ok
    assert failing > 0 and checked == 6 * 2 * 3 * 4


def test_intact_plans_decode_by_peeling_alone(monkeypatch):
    # elimination runs only on what peeling leaves; a well-formed plan leaves nothing
    monkeypatch.setattr(mn, "GF2Basis", None)
    for name, cfg, demand, bcs in oracle_plans():
        assert verify_full_recovery(cfg, demand, bcs).all_ok, name


def test_intact_plans_never_reach_the_fallback(monkeypatch):
    # the shared peel settles every target of a well-formed plan on its own
    def fallback(*args):
        raise AssertionError("per-user fallback reached")

    monkeypatch.setattr(mn, "_eliminate", fallback)
    for name, cfg, demand, bcs in oracle_plans():
        assert verify_full_recovery(cfg, demand, bcs).all_ok, name


def test_intact_plans_skip_the_target_scan(monkeypatch):
    # the peel counts every (user, target) slot it fills, so an intact plan
    # is certified without reading a single target
    plans = [*oracle_plans(), *shared_file_plans()]
    cfg = build_config(12, 5, 12)
    demand = worst_demand(cfg)
    plans.append(("improved K=12 t=5", cfg, demand, list(build_plan(cfg, demand, "improved").broadcasts)))

    def scan(*args):
        raise AssertionError("per-user target scan reached")

    monkeypatch.setattr(mn, "subset_masks", scan)
    for name, cfg, demand, bcs in plans:
        assert verify_full_recovery(cfg, demand, bcs).all_ok, name


def test_reversed_plans_match_elimination_oracle():
    # a pair's P line before its A and B lines: the peel needs a second sweep
    for name, cfg, demand, bcs in oracle_plans():
        report = verify_full_recovery(cfg, demand, bcs[::-1])
        assert report.all_ok, name
        assert report == elimination_oracle(cfg, demand, bcs[::-1]), name


def off_size_decoys(t_offsets):
    """User 0's MN plan at K=6, t=2 with one of its targets dropped and, per
    offset, a broadcast giving every user a packet of user 0's file whose
    subset misses user 0 and has t + offset users."""
    cfg = build_config(6, 2, 6)
    demand = worst_demand(cfg)
    bcs = mn_broadcasts(cfg, demand)
    base = demand.packet_bases[None][0]
    target = base | mask(1, 2)
    bcs = [Broadcast(bc.origin, xor_sum([p for p in bc.payload if p != target])) for bc in bcs]
    for offset in t_offsets:
        decoy = base | mask(*range(1, cfg.t + offset + 1))
        bcs.append(Broadcast(ORIGIN_SINGLE, xor_sum([decoy])))
    return cfg, demand, bcs, target


def test_slot_counter_ignores_off_size_subsets():
    # a term of a requested file counts only when its subset has t users;
    # with one decoy per dropped target an uncounted decoy would balance it
    for offsets in ((1,), (-1,), (1, -1)):
        cfg, demand, bcs, target = off_size_decoys(offsets)
        report = verify_full_recovery(cfg, demand, bcs)
        user0 = report.users[0]
        assert not user0.ok and user0.missing == 1, offsets
        assert user0.first_failed == packet_id(target, cfg.K), offsets
        assert report == elimination_oracle(cfg, demand, bcs), offsets


def shared_file_plans():
    """MN, lap and improved plans with N < K, where each file is requested
    by several users, so a `wants` mask holds several bits."""
    for K, M, N in ((6, 1, 2), (8, 1, 4), (8, Fraction(3, 2), 4), (10, Fraction(6, 5), 4)):
        cfg = build_config(K, M, N)
        half = N // 2
        demand = demand_from_mapping(cfg, {
            u: ("A" if u in cfg.users_a else "B", 1 + u % half) for u in cfg.users})
        yield f"mn K={K} N={N}", cfg, demand, mn_broadcasts(cfg, demand)
        for scheme in ("lap", "improved"):
            plan = build_plan(cfg, demand, scheme)
            yield f"{scheme} K={K} N={N}", cfg, demand, list(plan.broadcasts)


def test_shared_files_match_elimination_oracle():
    rng = random.Random(23)
    checked = failing = 0
    for name, cfg, demand, bcs in shared_file_plans():
        requests = Counter(demand.requests)
        assert min(requests.values()) >= 2, name
        assert verify_full_recovery(cfg, demand, bcs).all_ok, name
        for how, variant in [("intact", bcs), ("reversed", bcs[::-1]), *tampered(bcs, rng)]:
            report = verify_full_recovery(cfg, demand, variant)
            assert report == elimination_oracle(cfg, demand, variant), (name, how)
            checked += 1
            failing += not report.all_ok
    assert failing > 0 and checked == 4 * 3 * 5


def chain_rows(links, reverse):
    """Rows {x_j, x_{j+1}} along a chain of packets; in reverse order the
    shared peel learns one link forward per sweep."""
    rows = [
        Broadcast(ORIGIN_SINGLE, xor_sum(pair)) for pair in zip(links, links[1:])
    ]
    return rows[::-1] if reverse else rows


def chain_system():
    """K=4, t=1; every user caches x_0, nobody caches the K+1 relay packets,
    and user 0's three targets follow the relays."""
    cfg = build_config(4, 1, 4)
    demand = worst_demand(cfg)
    K = cfg.K
    server, idx = demand.of(0)
    x0 = pkt("A", 9, range(K), K)
    relays = [pkt("A", 10 + j, (), K) for j in range(K + 1)]
    targets = [pkt(server, idx, (v,), K) for v in (1, 2, 3)]
    return cfg, demand, [x0, *relays], targets


def counting_fallback(monkeypatch):
    calls = []
    eliminate = mn._eliminate

    def fallback(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(mn, "_eliminate", fallback)
    return calls


def test_sweep_cap_hands_over_to_the_fallback(monkeypatch):
    cfg, demand, links, targets = chain_system()
    calls = counting_fallback(monkeypatch)
    forward = verify_full_recovery(cfg, demand, chain_rows(links + targets, reverse=False))
    assert forward.users[0].ok and not calls  # one sweep peels the whole chain
    rows = chain_rows(links + targets, reverse=True)
    report = verify_full_recovery(cfg, demand, rows)
    # more than K links forward: the K sweeps stop short and user 0 falls back
    assert len(calls) == 1
    assert report.users[0].ok
    assert report == elimination_oracle(cfg, demand, rows)


def test_sweep_cap_then_stopping_set(monkeypatch):
    # past the capped chain, three rows hold two unknowns each yet sum to
    # x_last + d, so only elimination yields user 0's target d
    cfg, demand, links, targets = chain_system()
    d = targets[0]
    a, b, c = (pkt("B", 20 + j, (), cfg.K) for j in range(3))
    stopping = [
        Broadcast(ORIGIN_SINGLE, xor_sum(terms))
        for terms in ((links[-1], a, b), (a, c), (b, c, d))
    ]
    rows = stopping + chain_rows(links, reverse=True)
    assert not peel_oracle({links[0]}, rows, d)
    calls = counting_fallback(monkeypatch)
    report = verify_full_recovery(cfg, demand, rows)
    assert calls
    assert report.users[0].missing == 2
    assert report.users[0].first_failed == packet_id(targets[1], cfg.K)
    assert report == elimination_oracle(cfg, demand, rows)


@cache
def small_plans():
    return [(cfg, demand, tuple(bcs)) for _, cfg, demand, bcs in oracle_plans()]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tampered_recovery_matches_elimination_oracle(data):
    # Random term removals, duplicated rows and rows replaced by their XOR
    # with another row, on small MN, lap and improved plans.  A combined row
    # keeps the span but can stall peeling, so elimination must rescue it.
    cfg, demand, plan = data.draw(st.sampled_from(small_plans()))
    bcs = list(plan)
    for _ in range(data.draw(st.integers(1, 6))):
        r = data.draw(st.integers(0, len(bcs) - 1))
        bc = bcs[r]
        edit = data.draw(st.sampled_from(("remove", "duplicate", "combine")))
        if edit == "remove" and bc.payload:
            term = data.draw(st.sampled_from(sorted(bc.payload)))
            bcs[r] = Broadcast(bc.origin, xor_sum(bc.payload + (term,)))
        elif edit == "combine":
            other = bcs[data.draw(st.integers(0, len(bcs) - 1))]
            bcs[r] = Broadcast(bc.origin, xor_sum(bc.payload + other.payload))
        else:
            bcs.insert(data.draw(st.integers(0, len(bcs))), bc)
    assert verify_full_recovery(cfg, demand, bcs) == elimination_oracle(cfg, demand, bcs)


def test_stopping_set_needs_elimination():
    # every row holds two unknowns, so peeling stalls, yet the rows sum to d
    a, b, c, d = (pkt("A", 1, (u,), 4) for u in range(4))
    rows = [
        Broadcast(ORIGIN_SINGLE, xor_sum(terms))
        for terms in ((a, b), (a, c), (b, c, d))
    ]
    assert not peel_oracle(set(), rows, d)
    assert user_can_decode(set(), rows, d)
    assert not user_can_decode(set(), rows, a)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_user_can_decode_is_span_membership(data):
    # random payloads over eight packets, a random cache and target
    packets = [pkt("A", 1, (u,), 8) for u in range(8)]
    masks = data.draw(st.lists(st.integers(1, 255), max_size=8))
    cached = data.draw(st.integers(0, 255))
    target = data.draw(st.integers(0, 7))
    rows = [
        Broadcast(ORIGIN_SINGLE, xor_sum([p for j, p in enumerate(packets) if m >> j & 1]))
        for m in masks
    ]
    cache = {p for j, p in enumerate(packets) if cached >> j & 1}
    units = [1 << j for j in range(8) if cached >> j & 1]
    assert user_can_decode(cache, rows, packets[target]) == GF2Basis(masks + units).contains(
        1 << target
    )


def message_oracle(origin, demand, parts, K):
    """A message payload built term by term with `system.packet`: each member
    k of a part sends its file indexed by the part's subset without k, from
    the origin's server, both data servers for P, its own for SINGLE."""
    terms = Counter()
    for subset, members in parts:
        for k in users_of(members):
            server, idx = demand.of(k)
            for s in {ORIGIN_SINGLE: [server], ORIGIN_P: ["A", "B"]}.get(origin, [origin]):
                terms[packet(s, idx, subset & ~(1 << k), K)] += 1
    return tuple(sorted(p for p, n in terms.items() if n % 2))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_message_matches_term_by_term_packets(data):
    # N = 2K files and any request per user, so files repeat and a user may
    # ask for the twin of another's file; every part shape the synthesizers
    # use: a whole set, one side of a set, and the P message's shared users
    K = data.draw(st.sampled_from([2, 4, 6, 8, 10]), label="K")
    t = data.draw(st.integers(1, K - 1), label="t")
    cfg = build_config(K, 2 * t, 2 * K)
    files = st.tuples(st.sampled_from(["A", "B"]), st.integers(1, K))
    demand = demand_from_mapping(cfg, dict(enumerate(data.draw(
        st.lists(files, min_size=K, max_size=K), label="requests"))))
    sets = subset_masks(cfg.users, t + 1)
    s1, s2 = (data.draw(st.sampled_from(sets), label=f"s{i}") for i in (1, 2))
    shared = s1 & s2
    shapes = [((s1, s1),), ((s1, s1 & cfg.mask_a),), ((s1, s1 & cfg.mask_b),),
              ((s1, shared & cfg.mask_b), (s2, shared & cfg.mask_a))]
    for origin in (ORIGIN_A, ORIGIN_B, ORIGIN_P, ORIGIN_SINGLE):
        for parts in shapes:
            bc = mn.message(origin, demand, parts)
            assert bc == Broadcast(origin, message_oracle(origin, demand, parts, K))
            # the decoder reads a payload as distinct terms: strictly increasing
            assert type(bc.payload) is tuple
            assert all(a < b for a, b in zip(bc.payload, bc.payload[1:])), (origin, parts)


# ---------------------------------------------------------------------------
# decode group by group

def edit_row(groups, at, rows):
    """The groups with the broadcast at flat position `at` replaced by
    `rows`, inside its own group; a group left with no broadcast is dropped."""
    edited, start = [], 0
    for g in groups:
        j = at - start
        start += len(g.broadcasts)
        if 0 <= j < len(g.broadcasts):
            g = replace(g, broadcasts=g.broadcasts[:j] + tuple(rows) + g.broadcasts[j + 1:])
        if g.broadcasts:
            edited.append(g)
    return tuple(edited)


def tampered_groups(groups, rng):
    """The edits of `tampered`, each made inside the group of the broadcast it changes."""
    bcs = flat(groups)
    drop = rng.randrange(len(bcs))
    yield "drop", edit_row(groups, drop, ())
    victim = rng.choice([i for i, bc in enumerate(bcs) if len(bc.payload) > 1])
    bc = bcs[victim]
    term = rng.choice(sorted(bc.payload))
    yield "remove term", edit_row(groups, victim, (Broadcast(bc.origin, xor_sum(bc.payload + (term,))),))
    dup = rng.randrange(len(bcs))
    yield "duplicate", edit_row(groups, dup, (bcs[dup], bcs[dup]))


def test_group_decode_matches_whole_plan_and_oracle():
    rng = random.Random(29)
    checked = failing = 0
    for name, cfg, demand, groups in oracle_group_plans():
        for how, variant in [("intact", groups), *tampered_groups(groups, rng)]:
            bcs = flat(variant)
            report = verify_full_recovery(cfg, demand, bcs, variant)
            assert report == verify_full_recovery(cfg, demand, bcs), (name, how)
            assert report == elimination_oracle(cfg, demand, bcs), (name, how)
            checked += 1
            failing += not report.all_ok
    assert failing > 0 and checked == 6 * 2 * 3 * 4


def whole_plan_calls(monkeypatch):
    """Record each call of the whole-plan decode, which only a plan without a
    group-by-group certificate reaches."""
    calls = []
    decode = mn._decode_whole

    def counted(*args):
        calls.append(args)
        return decode(*args)

    monkeypatch.setattr(mn, "_decode_whole", counted)
    return calls


def no_whole_plan_decode(monkeypatch):
    def whole_plan(*args):
        raise AssertionError("whole-plan decode reached")

    monkeypatch.setattr(mn, "_decode_whole", whole_plan)
    monkeypatch.setattr(mn, "_eliminate", whole_plan)


def test_intact_plans_decode_group_by_group(monkeypatch):
    # also with each group's rows reversed: a pair's P row then comes first,
    # and the group's own sweep needs a second pass
    no_whole_plan_decode(monkeypatch)
    for name, cfg, demand, groups in oracle_group_plans():
        reversed_rows = [replace(g, broadcasts=g.broadcasts[::-1]) for g in groups]
        for variant in (groups, reversed_rows):
            assert verify_full_recovery(cfg, demand, flat(variant), variant).all_ok, name


def test_verify_plan_certifies_k12_group_by_group(monkeypatch):
    no_whole_plan_decode(monkeypatch)
    cfg = build_config(12, 5, 12)
    for scheme in ("lap", "improved", "mn"):
        problems, report = verify_plan(build_plan(cfg, worst_demand(cfg), scheme))
        assert not problems and report.all_ok, scheme


def same_arity(groups):
    """The first group after group 0 with as many index sets as it has."""
    return next(j for j in range(1, len(groups))
                if len(groups[j].index_sets) == len(groups[0].index_sets))


def test_repeated_index_sets_get_no_certificate(monkeypatch):
    # group j replaced by a copy of group 0: the copy fills as many slots as
    # group j did, so only the repeated index sets keep the count from
    # certifying a plan that lost group j's sets
    calls = whole_plan_calls(monkeypatch)
    failing = 0
    for name, cfg, demand, groups in oracle_group_plans():
        j = same_arity(groups)
        copied = groups[:j] + groups[:1] + groups[j + 1:]
        del calls[:]
        report = verify_full_recovery(cfg, demand, flat(copied), copied)
        assert calls, name
        assert report == elimination_oracle(cfg, demand, flat(copied)), name
        failing += not report.all_ok
    assert failing == 6 * 2 * 3


def test_swapped_index_sets_get_no_certificate(monkeypatch):
    # the broadcasts stay, so the plan decodes, but no group serves the sets
    # it names, so the certificate must come from the whole-plan decode
    calls = whole_plan_calls(monkeypatch)
    for name, cfg, demand, groups in oracle_group_plans():
        j = same_arity(groups)
        first, other = groups[0], groups[j]
        swapped = (replace(first, index_sets=other.index_sets), *groups[1:j],
                   replace(other, index_sets=first.index_sets), *groups[j + 1:])
        del calls[:]
        report = verify_full_recovery(cfg, demand, flat(swapped), swapped)
        assert calls, name
        assert report.all_ok and report == elimination_oracle(cfg, demand, flat(swapped)), name


def test_off_size_index_set_gets_no_certificate(monkeypatch):
    # the MN group of set S replaced by the MN signal of S plus one user,
    # under that (t+2)-set: each of its t+2 members learns a packet of its
    # file, more slots than S's t+1, but no packet it learns is a target
    calls = whole_plan_calls(monkeypatch)
    cfg = build_config(6, 2, 6)
    demand = worst_demand(cfg)
    groups = mn_delivery(cfg, demand)
    s = groups[0].index_sets[0]
    wider = s | 1 << max(set(cfg.users) - set(users_of(s)))
    signal = mn.message(ORIGIN_SINGLE, demand, ((wider, wider),))
    groups[0] = mn.Group(KIND_MN, (wider,), (signal,))
    report = verify_full_recovery(cfg, demand, flat(groups), groups)
    assert calls
    assert not report.all_ok and report == elimination_oracle(cfg, demand, flat(groups))


def test_row_with_an_uncached_term_gets_no_certificate(monkeypatch):
    # a term that no user caches, added to the first one-row group's row:
    # each member then misses two terms, though its target is still there
    calls = whole_plan_calls(monkeypatch)
    checked = 0
    for name, cfg, demand, groups in oracle_group_plans():
        i = next((i for i, g in enumerate(groups) if len(g.broadcasts) == 1), None)
        if i is None:  # a three-server plan with no single set
            continue
        bc = groups[i].broadcasts[0]
        junk = pkt("A", cfg.N, (), cfg.K)
        widened = list(groups)
        widened[i] = replace(groups[i], broadcasts=(Broadcast(bc.origin, xor_sum(bc.payload + (junk,))),))
        del calls[:]
        report = verify_full_recovery(cfg, demand, flat(widened), widened)
        assert calls, name
        assert not report.all_ok and report == elimination_oracle(cfg, demand, flat(widened)), name
        checked += 1
    assert checked >= 12  # every MN plan


def test_one_row_with_a_repeated_term_gets_no_certificate():
    # Only xor_sum builds payloads, and it never repeats a term, but the
    # one-row check must not rest on that: a row of t+1 terms that names
    # one member's target twice misses another member's target.
    cfg = build_config(6, 2, 6)
    demand = worst_demand(cfg)
    groups = mn_delivery(cfg, demand)
    s = groups[0].index_sets[0]
    bases = demand.packet_bases[None]
    targets = [bases[u] | s & ~(1 << u) for u in users_of(s)]
    groups[0] = mn.Group(KIND_MN, (s,), (Broadcast(ORIGIN_SINGLE, (targets[0], *targets[:-1])),))
    assert mn._decode_groups(groups, bases, cfg.t) is False
    groups[0] = mn.Group(KIND_MN, (s,), (Broadcast(ORIGIN_SINGLE, tuple(targets)),))
    assert mn._decode_groups(groups, bases, cfg.t) is True


def test_repeated_term_cancels_in_elimination():
    # The K=6 t=2 MN plan with user 0's target x dropped from row 0, then a
    # row (x, x), which is zero over GF(2): it must add nothing to any span,
    # so user 0 still fails, exactly as without it.
    cfg = build_config(6, 2, 6)
    demand = worst_demand(cfg)
    rows = mn_broadcasts(cfg, demand)
    x = demand.packet_bases[None][0] | mask(1, 2)
    assert x in rows[0].payload
    rows[0] = Broadcast(ORIGIN_SINGLE, tuple(p for p in rows[0].payload if p != x))
    report = verify_full_recovery(cfg, demand, rows + [Broadcast(ORIGIN_SINGLE, (x, x))])
    assert [u.user for u in report.failures()] == [0]
    assert report == verify_full_recovery(cfg, demand, rows) == elimination_oracle(cfg, demand, rows)


def test_target_learned_by_another_user_fills_no_slot(monkeypatch):
    # The MN group of S = {0, 1, 2} at K=6, t=2 replaced by two rows: user
    # 0's target with a packet that users 3 and 4 cache, and the other two
    # members' terms.  Users 3 and 4 learn user 0's target; user 0 does not.
    calls = whole_plan_calls(monkeypatch)
    cfg = build_config(6, 2, 6)
    demand = worst_demand(cfg)
    groups = mn_delivery(cfg, demand)
    s = mask(0, 1, 2)
    assert groups[0].index_sets == (s,)
    bases = demand.packet_bases[None]
    targets = [bases[u] | s & ~(1 << u) for u in range(3)]
    decoy = bases[5] | mask(3, 4)
    rows = (Broadcast(ORIGIN_SINGLE, xor_sum([targets[0], decoy])),
            Broadcast(ORIGIN_SINGLE, xor_sum(targets[1:])))
    groups[0] = mn.Group(KIND_UNPAIRED, (s,), rows)
    report = verify_full_recovery(cfg, demand, flat(groups), groups)
    assert calls
    assert [u.user for u in report.failures()] == [0]
    assert report == elimination_oracle(cfg, demand, flat(groups))


@pytest.mark.parametrize("wild", [mask(6, 7, 8), -7], ids=["users past K", "negative"])
def test_index_set_outside_the_users_gets_no_certificate(wild):
    # An API-built lap plan at K=6, t=2 whose first pair group names a set of
    # t+1 bits that are not all users: the audit reports it, and the
    # whole-plan decode answers, since the group has no members to look up.
    cfg = build_config(6, 2, 6)
    demand = worst_demand(cfg)
    plan = build_plan(cfg, demand, "lap")
    i = next(i for i, g in enumerate(plan.groups) if g.kind == KIND_PAIR)
    g = plan.groups[i]
    bad = replace(g, index_sets=(wild,) + g.index_sets[1:])
    plan = replace(plan, groups=plan.groups[:i] + (bad,) + plan.groups[i + 1:])
    problems, report = verify_plan(plan)
    assert f"subset {wild if wild < 0 else users_of(wild)} is not a valid index set" in problems
    assert report.all_ok and report == elimination_oracle(cfg, demand, flat(plan.groups))


@cache
def small_group_plans():
    return [(cfg, demand, groups) for _, cfg, demand, groups in oracle_group_plans()]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_edited_groups_match_whole_plan_and_oracle(data):
    # The edits of test_tampered_recovery_matches_elimination_oracle, each
    # inside one group (a combined row may take another group's row), and
    # a group's rows reversed.
    cfg, demand, groups = data.draw(st.sampled_from(small_group_plans()))
    groups = list(groups)
    for _ in range(data.draw(st.integers(1, 6))):
        i = data.draw(st.integers(0, len(groups) - 1))
        rows = list(groups[i].broadcasts)
        r = data.draw(st.integers(0, len(rows) - 1))
        bc = rows[r]
        edit = data.draw(st.sampled_from(("remove", "duplicate", "combine", "reverse")))
        if edit == "remove" and bc.payload:
            term = data.draw(st.sampled_from(sorted(bc.payload)))
            rows[r] = Broadcast(bc.origin, xor_sum(bc.payload + (term,)))
        elif edit == "combine":
            other = data.draw(st.sampled_from(flat(groups)))
            rows[r] = Broadcast(bc.origin, xor_sum(bc.payload + other.payload))
        elif edit == "reverse":
            rows.reverse()
        else:
            rows.insert(data.draw(st.integers(0, len(rows))), bc)
        groups[i] = replace(groups[i], broadcasts=tuple(rows))
    bcs = flat(groups)
    report = verify_full_recovery(cfg, demand, bcs, groups)
    assert report == verify_full_recovery(cfg, demand, bcs) == elimination_oracle(cfg, demand, bcs)


def chained(groups):
    """The groups with each broadcast XORed with the next one and the last
    kept, each row in its own group's place: the span, and so every
    verdict, stays, but no group decodes alone."""
    bcs = flat(groups)
    rows = iter([Broadcast(bc.origin, xor_sum(bc.payload + nxt.payload)) for bc, nxt in zip(bcs, bcs[1:])]
                + bcs[-1:])
    return tuple(replace(g, broadcasts=tuple(next(rows) for _ in g.broadcasts)) for g in groups)


def test_chained_plans_match_elimination_oracle():
    # with and without its groups, a chained plan is certified by the
    # whole-plan decode, whose elimination rescues what peeling cannot
    checked = 0
    for name, cfg, demand, groups in oracle_group_plans():
        links = chained(groups)
        bcs = flat(links)
        oracle = elimination_oracle(cfg, demand, bcs)
        for report in (verify_full_recovery(cfg, demand, bcs, links),
                       verify_full_recovery(cfg, demand, bcs)):
            assert report.all_ok and report == oracle, name
        checked += 1
    assert checked == 6 * 2 * 3
