"""Plan synthesis, balancing, coverage/origin audits, and rate measurement."""

import random
from dataclasses import replace
from itertools import count
from fractions import Fraction

import pytest

from tricache.delivery import (
    CoverageError,
    assemble_plan,
    build_plan,
    coverage_errors,
    group_counts,
    measure_rate,
    origin_errors,
    synthesize_pair_messages,
    synthesize_unpaired,
    verify_plan,
)
from tricache.mn import ORIGIN_P, verify_full_recovery
from tricache.pairing import SCHEME_IMPROVED, SCHEME_LAP
from tricache.system import (
    build_config,
    packet_id,
    random_demand,
    users_of,
    worst_demand,
    xor_sum,
)

from conftest import mask, pkt, user_can_decode
from paper_formulas import place_caches


def mn_signal(config, demand, subset_mask):
    terms = []
    for k in users_of(subset_mask):
        server, idx = demand.of(k)
        terms.append(pkt(server, idx, (u for u in users_of(subset_mask) if u != k), config.K))
    return xor_sum(terms)


def test_pair_messages_disjoint_pair_has_empty_parity():
    cfg = build_config(4, 1, 4)
    demand = worst_demand(cfg)
    group = synthesize_pair_messages(mask(0, 1), mask(2, 3), demand, cfg)
    assert (group.kind, group.index_sets) == ("pair", (mask(0, 1), mask(2, 3)))
    m_a, m_b, m_p = group.broadcasts
    assert not m_p.payload
    assert len(m_a.payload) == 2 and len(m_b.payload) == 2


def test_pair_messages_reject_bad_pair():
    cfg = build_config(4, 1, 4)
    demand = worst_demand(cfg)
    with pytest.raises(ValueError):
        synthesize_pair_messages(mask(0, 2), mask(0, 1), demand, cfg)  # reversed orientation


def test_pair_messages_decode_k6():
    # every member of S1 and S2 obtains its segment(s) from the triple plus its cache
    cfg = build_config(6, 3, 6)
    demand = worst_demand(cfg)
    caches = place_caches(cfg)
    s1, s2 = mask(0, 1, 2, 3), mask(0, 1, 3, 4)
    triple = synthesize_pair_messages(s1, s2, demand, cfg).broadcasts
    for source in (s1, s2):
        for k in users_of(source):
            server, idx = demand.of(k)
            target = pkt(server, idx, (u for u in users_of(source) if u != k), cfg.K)
            assert user_can_decode(caches[k], triple, target)


def test_pair_messages_shared_user_gets_both_segments():
    cfg = build_config(6, 3, 6)
    demand = worst_demand(cfg)
    caches = place_caches(cfg)
    s1, s2 = mask(0, 1, 2, 3), mask(0, 1, 3, 4)
    triple = synthesize_pair_messages(s1, s2, demand, cfg).broadcasts
    k = 0  # in the shared A-part
    server, idx = demand.of(k)
    for source in (s1, s2):
        target = pkt(server, idx, (u for u in users_of(source) if u != k), cfg.K)
        assert user_can_decode(caches[k], triple, target)


def test_unpaired_ab_split_partitions_mn_signal():
    cfg = build_config(6, 3, 6)
    demand = worst_demand(cfg)
    s = mask(0, 1, 3, 4)
    group = synthesize_unpaired(s, ("A", "B"), demand, cfg)
    assert (group.kind, group.index_sets) == ("unpaired", (s,))
    first, second = group.broadcasts
    assert xor_sum(first.payload + second.payload) == mn_signal(cfg, demand, s)
    assert not set(first.payload) & set(second.payload)


@pytest.mark.parametrize("pair", [("A", "P"), ("B", "P")])
def test_unpaired_parity_split_xors_to_mn_signal(pair):
    cfg = build_config(6, 3, 6)
    demand = worst_demand(cfg)
    s = mask(0, 1, 3, 4)
    first, second = synthesize_unpaired(s, pair, demand, cfg).broadcasts
    assert xor_sum(first.payload + second.payload) == mn_signal(cfg, demand, s)


def test_unpaired_users_decode():
    cfg = build_config(6, 3, 6)
    demand = worst_demand(cfg)
    caches = place_caches(cfg)
    s = mask(0, 1, 3, 4)
    for pair in (("A", "B"), ("A", "P"), ("B", "P")):
        bcs = synthesize_unpaired(s, pair, demand, cfg).broadcasts
        for k in users_of(s):
            server, idx = demand.of(k)
            target = pkt(server, idx, (u for u in users_of(s) if u != k), cfg.K)
            assert user_can_decode(caches[k], bcs, target)


def test_plan_k6_lap_covers_everything():
    cfg = build_config(6, 3, 6)
    demand = worst_demand(cfg)
    plan = build_plan(cfg, demand, SCHEME_LAP)
    assert coverage_errors(plan) == []
    assert origin_errors(plan) == []
    assert group_counts(plan) == {"pair": 6, "unpaired": 3}
    rr = measure_rate(plan)
    assert rr.loads == {"A": 8, "B": 8, "P": 8}
    assert rr.rate == Fraction(2, 5)
    assert rr.rate_formula == Fraction(2, 5)
    assert rr.slack == 0


def test_plan_balance_without_singles():
    cfg = build_config(6, 3, 6)
    plan = build_plan(cfg, worst_demand(cfg), SCHEME_LAP)
    per_server = {"A": 0, "B": 0, "P": 0}
    for g in plan.groups:
        if g.kind == "unpaired":
            for bc in g.broadcasts:
                per_server[bc.origin] += 1
    assert max(per_server.values()) - min(per_server.values()) <= 1
    n = group_counts(plan)["unpaired"]
    assert max(per_server.values()) <= -(-2 * n // 3)  # ceil(2n/3) per server


def test_plan_even_t_exact_half():
    cfg = build_config(8, 4, 8)
    plan = build_plan(cfg, worst_demand(cfg), SCHEME_LAP)
    rr = measure_rate(plan)
    assert set(group_counts(plan)) == {"pair"}
    assert rr.rate == Fraction(2, 5) == Fraction(1, 2) * Fraction(4, 5)
    problems, recovery = verify_plan(plan)
    assert not problems and recovery.all_ok


def test_plan_even_t_with_singles_still_exact():
    # t = 4, K = 12: layers 0 and 5 are nonempty but land symmetrically on A and B
    cfg = build_config(12, 4, 12)
    plan = build_plan(cfg, worst_demand(cfg), SCHEME_LAP)
    rr = measure_rate(plan)
    assert rr.singles == 12
    assert rr.rate == Fraction(8, 5) / 2
    assert rr.slack == 0
    problems, recovery = verify_plan(plan)
    assert not problems and recovery.all_ok


def test_plan_with_singles_k10_t3():
    # lambda = 0.3: layers 0 and 4 are nonempty and served by one server each
    cfg = build_config(10, 3, 10)
    demand = worst_demand(cfg)
    plan = build_plan(cfg, demand, SCHEME_IMPROVED)
    assert group_counts(plan)["single"] == 10
    by_server = {"A": 0, "B": 0}
    for g in plan.groups:
        if g.kind == "single":
            for bc in g.broadcasts:
                by_server[bc.origin] += 1
    assert by_server == {"A": 5, "B": 5}
    problems, recovery = verify_plan(plan)
    assert not problems and recovery.all_ok
    rr = measure_rate(plan)
    # singles shift load between servers, so the measured rate may sit on
    # either side of the uniform-split formula, but only within their weight
    assert abs(rr.slack) <= Fraction(5, rr.packets_per_file)


def test_plan_t1_band():
    cfg = build_config(6, 1, 6)
    plan = build_plan(cfg, worst_demand(cfg), SCHEME_LAP)
    assert group_counts(plan)["single"] == 0
    problems, recovery = verify_plan(plan)
    assert not problems and recovery.all_ok


def test_plan_random_demands_decode():
    rng = random.Random(23)
    cfg = build_config(6, 3, 6)
    for _ in range(3):
        demand = random_demand(cfg, rng)
        for scheme in (SCHEME_LAP, SCHEME_IMPROVED):
            plan = build_plan(cfg, demand, scheme)
            problems, recovery = verify_plan(plan)
            assert not problems and recovery.all_ok


def test_measured_delta_matches_counter():
    from tricache.pairing import count_unpaired

    cfg = build_config(10, 5, 10)
    plan = build_plan(cfg, worst_demand(cfg), SCHEME_IMPROVED)
    rr = measure_rate(plan)
    assert rr.unpaired == count_unpaired(cfg, SCHEME_IMPROVED).n == 60
    assert rr.delta_measured == Fraction(60, 210)
    assert rr.rate == rr.rate_formula == Fraction(115, 252)


def test_assemble_rejects_coverage_gap():
    # assembly leaves the audit to verify_plan: a set that neither a pair nor
    # the unmatched list names is reported as unserved there
    cfg = build_config(6, 3, 6)
    demand = worst_demand(cfg)
    from tricache.pairing import middle_pairing

    pairing = middle_pairing(cfg, SCHEME_LAP)
    pairs = [p for m in pairing.matchings for p in m]
    plan = assemble_plan(cfg, demand, pairs, pairing.unmatched[1:])
    gap = f"subset {users_of(pairing.unmatched[0])} is not served by any broadcast"
    assert coverage_errors(plan) == [gap]
    assert verify_plan(plan)[0] == [gap]


def test_assemble_refuses_a_one_sided_unmatched_set():
    # K=4, t=1 improved leaves {2, 3} unmatched, which no two-server split serves
    cfg = build_config(4, 1, 4)
    with pytest.raises(CoverageError, match=r"one-sided subset \(2, 3\)"):
        assemble_plan(cfg, worst_demand(cfg), [], [mask(2, 3)])


def test_tampered_plan_detected():
    cfg = build_config(6, 3, 6)
    demand = worst_demand(cfg)
    plan = build_plan(cfg, demand, SCHEME_LAP)
    first = plan.groups[0]
    assert first.kind == "pair"
    # drop one paired triple: both of its subsets go unserved
    broken = replace(plan, groups=plan.groups[1:])
    problems = coverage_errors(broken)
    s1, s2 = map(users_of, first.index_sets)
    assert any(str(s1) in p and "not served" in p for p in problems)
    assert any(str(s2) in p and "not served" in p for p in problems)
    # break the twin structure of a parity message
    m_a, m_b, m_p = first.broadcasts
    assert m_p.origin == ORIGIN_P
    bad_payload = xor_sum(m_p.payload[:-1])
    thinned = replace(first, broadcasts=(m_a, m_b, replace(m_p, payload=bad_payload)))
    broken2 = replace(plan, groups=(thinned,) + plan.groups[1:])
    assert any("twin" in p for p in origin_errors(broken2))


def test_origin_errors_spell_out_every_violation_in_plan_order():
    # some lines relabelled, so A, B and P lines and an unknown origin each
    # violate somewhere; the expected text is spelled here from PacketIds
    cfg = build_config(8, 3, 8)
    plan = build_plan(cfg, worst_demand(cfg), SCHEME_IMPROVED)
    relabel = {"A": "B", "B": "P", "P": "A"}

    def tamper(i, bc):
        if i % 10 == 9:
            return replace(bc, origin="Q")
        if i % 4 == 0:
            return replace(bc, origin=relabel[bc.origin])
        return bc

    line = count()
    broken = replace(plan, groups=tuple(
        replace(g, broadcasts=tuple(tamper(next(line), bc) for bc in g.broadcasts))
        for g in plan.groups
    ))
    tampered = broken.broadcasts
    twin_server = {"A": "B", "B": "A"}

    def violations(bc):
        spelled = sorted(packet_id(p, cfg.K) for p in bc.payload)
        if bc.origin == "Q":
            return ["unknown origin 'Q'"]
        if bc.origin == "P":
            return [f"parity payload term {q} lacks its twin" for q in spelled
                    if q._replace(server=twin_server[q.server]) not in spelled]
        return [f"origin {bc.origin} payload holds foreign packet {q}" for q in spelled
                if q.server != bc.origin]

    expected = [v for bc in tampered for v in violations(bc)]
    for prefix in ("origin A payload", "origin B payload", "parity payload", "unknown origin"):
        assert any(v.startswith(prefix) for v in expected), prefix
    assert origin_errors(broken) == expected
    assert origin_errors(plan) == []


@pytest.mark.parametrize("scheme", [SCHEME_IMPROVED, "mn"])
def test_dropped_or_relabelled_broadcast_detected(scheme):
    cfg = build_config(10, 3, 10)
    plan = build_plan(cfg, worst_demand(cfg), scheme)
    groups = plan.groups
    kinds = {g.kind for g in groups}
    assert kinds == ({"mn"} if scheme == "mn" else {"pair", "unpaired", "single"})
    assert coverage_errors(plan) == []
    for kind in kinds:
        i = next(i for i, g in enumerate(groups) if g.kind == kind)
        g = groups[i]
        # a pair or unpaired group loses a member; a single or MN set goes unserved
        rest = replace(g, broadcasts=g.broadcasts[1:])
        kept = (rest,) if rest.broadcasts else ()
        dropped = replace(plan, groups=groups[:i] + kept + groups[i + 1:])
        assert coverage_errors(dropped), kind
        # a relabelled first line is read as a group of the other kind,
        # ahead of the rest of its old group
        other = "mn" if kind == "single" else "single"
        relabelled = replace(g, kind=other, broadcasts=g.broadcasts[:1])
        mixed = replace(plan, groups=groups[:i] + (relabelled,) + kept + groups[i + 1:])
        assert any("group" in p for p in coverage_errors(mixed)), kind


@pytest.mark.parametrize("scheme", [SCHEME_LAP, "mn"])
def test_negative_index_set_reported_not_decoded(scheme):
    # a negative mask names no users, so the audit spells it as its int
    cfg = build_config(6, 3, 6)
    plan = build_plan(cfg, worst_demand(cfg), scheme)
    g = plan.groups[0]
    # the first line's index set is spelt -1: it starts a group of its own
    bad = replace(g, index_sets=(-1,) + g.index_sets[1:], broadcasts=g.broadcasts[:1])
    rest = (replace(g, broadcasts=g.broadcasts[1:]),) if len(g.broadcasts) > 1 else ()
    problems = coverage_errors(replace(plan, groups=(bad,) + rest + plan.groups[1:]))
    assert "subset -1 is not a valid index set" in problems
    if scheme == "mn":
        assert problems[-1] == f"subset {users_of(g.index_sets[0])} is not served by any broadcast"
    else:
        assert f"pair group [-1, {list(users_of(g.index_sets[1]))}] has broadcasts from ['A']" in problems
        assert problems[-1] == f"subset {users_of(g.index_sets[1])} served 2 times"


def test_full_recovery_improved_k6():
    cfg = build_config(6, 3, 6)
    demand = worst_demand(cfg)
    plan = build_plan(cfg, demand, SCHEME_IMPROVED)
    report = verify_full_recovery(cfg, demand, plan.broadcasts)
    assert report.all_ok
