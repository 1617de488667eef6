"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs them silently.  Expected values tagged as derived
in the module tests come from independent oracles (enumeration, binomial
sums, the exhaustive matcher); tolerances are pinned here, not configurable.
"""

import random
import time
from fractions import Fraction
from math import comb

from tricache.analysis import (
    HIGH,
    LOW,
    MID,
    REGIME_GRAPH_SPECS,
    ratio_curves,
    improved_unpaired_count,
    lap_unpaired_count,
    middle_weights,
    mn_rate_formula,
    rate_theorem,
    ratio_asymptote,
    scheme_delta,
)
from tricache.delivery import build_plan, coverage_errors, measure_rate, verify_plan
from tricache.mn import mn_delivery, verify_full_recovery
from tricache.pairing import (
    SCHEME_IMPROVED,
    SCHEME_LAP,
    build_layers,
    count_unpaired,
    improved_middle_graphs,
    lap_middle_graph,
    max_matching,
    middle_pairing,
)
from tricache.system import build_config, random_demand, worst_demand

from conftest import (
    Depth,
    class_members,
    exhaustive_max_matching_size,
    four_way_class_size,
    general_class_size,
    partition_classes,
    vertex_degree,
)
from paper_formulas import improved_count_simplified


def _report(number: int, detail: str) -> None:
    print(f"[acceptance] criterion {number:02d}: PASS  {detail}")


def test_criterion_01_mn_correctness():
    started = time.time()
    rng = random.Random(20260801)
    checked = 0
    for K in (4, 6, 8, 10):
        for t in range(1, K):
            cfg = build_config(K, t, K)
            for _ in range(20):
                demand = random_demand(cfg, rng)
                broadcasts = [bc for g in mn_delivery(cfg, demand) for bc in g.broadcasts]
                rate = Fraction(len(broadcasts), cfg.packets_per_file)
                assert rate == Fraction(K - t, t + 1)
                assert verify_full_recovery(cfg, demand, broadcasts).all_ok
                checked += 1
    elapsed = time.time() - started
    assert elapsed < 60
    _report(1, f"{checked} seeded MN runs decode fully at the exact rate ({elapsed:.1f}s)")


def test_criterion_02_even_t_halving():
    for K, t in ((8, 4), (12, 6)):
        cfg = build_config(K, t, K)
        plan = build_plan(cfg, worst_demand(cfg), SCHEME_LAP)
        rr = measure_rate(plan)
        assert rr.rate == mn_rate_formula(K, t) / 2
        # K/2 < t+1 empties the extreme layers symmetrically, so no slack at all
        assert comb(K // 2, t + 1) == 0
        assert rr.slack == 0
        problems, recovery = verify_plan(plan)
        assert not problems and recovery.all_ok
    _report(2, "K=8,t=4 and K=12,t=6 measure exactly half the single-server rate")


def test_criterion_03_baseline_delta():
    cfg6 = build_config(6, 3, 6)
    uc6 = count_unpaired(cfg6, SCHEME_LAP)
    assert uc6.n == 3 and uc6.delta == Fraction(1, 5)
    assert uc6.n == lap_unpaired_count(6, 3)

    cfg14 = build_config(14, 7, 14)
    uc14 = count_unpaired(cfg14, SCHEME_LAP)
    assert uc14.n == 245 == lap_unpaired_count(14, 7)
    assert uc14.delta == scheme_delta(14, 7, SCHEME_LAP)
    _report(3, "matcher-counted baseline leftovers equal the closed form (3 and 245)")


def _assert_saturated(K, t, regime, matchings):
    # every graph's matching covers its smaller side; the side sizes come
    # from the class-size oracle, so no graph is rebuilt
    weight_of = dict(zip((LOW, MID, HIGH), middle_weights(t)))

    def size(classes):
        return sum(four_way_class_size(K, t, weight_of[layer], a1, b1) for layer, a1, b1 in classes)

    specs = REGIME_GRAPH_SPECS[regime]
    assert len(matchings) == len(specs)
    for (label, x, y), m in zip(specs, matchings):
        assert len(m) == min(size(x), size(y)), label


def test_criterion_04_improved_delta_consistency():
    # matcher up to K=22
    for K, t, regime in ((14, 7, 2), (22, 11, 2), (22, 7, 1)):
        cfg = build_config(K, t, K)
        got_regime, n_formula = improved_unpaired_count(K, t)
        assert got_regime == regime
        pairing = middle_pairing(cfg, SCHEME_IMPROVED)
        assert len(pairing.unmatched) == n_formula
        _assert_saturated(K, t, regime, pairing.matchings)
        assert improved_count_simplified(K, t) == n_formula
    # closed form against the cardinality-table sums at K=30
    for K, t, regime in ((30, 15, 2), (30, 9, 1), (30, 21, 3)):
        got_regime, n_formula = improved_unpaired_count(K, t)
        assert got_regime == regime
        assert improved_count_simplified(K, t) == n_formula
    _report(4, "matcher counts equal class-cardinality sums (K<=22) and the "
               "simplified forms agree at K=30")


# verified degree-table entries at K=14, t=7: (low side class, high/mid class,
# degree of the first toward the second, and back).  Classes are
# (layer weight, contains a1, contains b1).
DEGREE_TABLE_ENTRIES = [
    ((3, True, True), (4, True, True), lambda K, t: (K - t + 1) * (t + 1) // 4,
     lambda K, t: (t - 1) * (K - t - 1) // 4),
    ((3, False, True), (4, True, True), lambda K, t: (t + 1) // 2,
     lambda K, t: (K - t - 1) // 2),
    ((3, False, True), (4, True, False), lambda K, t: 1, lambda K, t: 1),
    ((3, False, True), (4, False, True), lambda K, t: (K - t - 1) * (t + 1) // 4,
     lambda K, t: (K - t - 1) * (t + 1) // 4),
    ((3, False, True), (4, False, False), lambda K, t: (K - t - 1) // 2,
     lambda K, t: (t + 1) // 2),
    ((3, False, False), (4, True, False), lambda K, t: (t + 3) // 2,
     lambda K, t: (K - t - 3) // 2),
    ((5, True, False), (4, True, True), lambda K, t: (t + 1) // 2,
     lambda K, t: (K - t - 1) // 2),
    ((5, True, False), (4, True, False), lambda K, t: (t + 1) * (K - t - 1) // 4,
     lambda K, t: (K - t - 1) * (t + 1) // 4),
    ((5, True, False), (4, False, True), lambda K, t: 1, lambda K, t: 1),
    ((5, True, False), (4, False, False), lambda K, t: (K - t - 1) // 2,
     lambda K, t: (t + 1) // 2),
    ((3, True, True), (5, True, True),
     lambda K, t: comb((K - t + 1) // 2, 2) * comb((t + 1) // 2, 2),
     lambda K, t: comb((t + 1) // 2, 2) * comb((K - t + 1) // 2, 2)),
    ((3, False, True), (5, True, True),
     lambda K, t: (K - t - 1) // 2 * comb((t + 1) // 2, 2),
     lambda K, t: (t + 1) // 2 * comb((K - t + 1) // 2, 2)),
]


def test_criterion_05_degree_tables():
    K, t = 14, 7
    cfg = build_config(K, t, K)
    layers = build_layers(cfg)
    verified = 0
    for (w1, a1, b1), (w2, a2, b2), d_first, d_second in DEGREE_TABLE_ENTRIES:
        first = class_members(cfg, layers, w1, a1, b1)
        second = class_members(cfg, layers, w2, a2, b2)
        assert first and second
        assert all(vertex_degree(v, second, cfg) == d_first(K, t) for v in first)
        assert all(vertex_degree(v, first, cfg) == d_second(K, t) for v in second)
        verified += 1
    # the empty-entry case: no edges between (low; a1,b1) and (mid; no a1, b1)
    low_tt = class_members(cfg, layers, 3, True, True)
    mid_ft = class_members(cfg, layers, 4, False, True)
    assert all(vertex_degree(v, mid_ft, cfg) == 0 for v in low_tt)
    assert verified >= 6
    assert any(d_first(K, t) == (t + 1) // 2 and d_second(K, t) == (K - t - 1) // 2
               for _, _, d_first, d_second in DEGREE_TABLE_ENTRIES)
    _report(5, f"{verified} degree-table entries confirmed by brute force, "
               f"including the (t+1)/2 vs (K-t-1)/2 pair")


def test_criterion_06_improved_end_to_end():
    started = time.time()
    cfg = build_config(10, 5, 10)
    assert cfg.packets_per_file == 252
    demand = worst_demand(cfg)
    plan = build_plan(cfg, demand, SCHEME_IMPROVED)
    assert coverage_errors(plan) == []
    problems, recovery = verify_plan(plan)
    assert not problems
    assert recovery.all_ok
    for user_result in recovery.users:
        assert user_result.missing == 0
    elapsed = time.time() - started
    assert elapsed < 120
    _report(6, f"K=10,t=5 improved plan covers all subsets and all 10 users "
               f"recover their 252 packets ({elapsed:.1f}s)")


def test_criterion_07_asymptotic_trends():
    # exact n2/n at lambda = 1/2 strictly decreases toward 0
    ratios = []
    for K in (14, 22, 30, 46, 62):
        t = K // 2
        _, ni = improved_unpaired_count(K, t)
        ratios.append(Fraction(ni, lap_unpaired_count(K, t)))
    assert all(r > 0 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))

    # exact n1/n decreases along the lambda-near-1/3 sweep ...
    regime1_points = ((22, 7), (30, 9), (46, 15), (62, 21))
    r1 = []
    for K, t in regime1_points:
        regime, ni = improved_unpaired_count(K, t)
        assert regime == 1
        r1.append(Fraction(ni, lap_unpaired_count(K, t)))
    assert all(a > b for a, b in zip(r1, r1[1:]))
    # ... and the limiting curve at the K=62 grid point sits within 0.05 of 1/9
    asym = ratio_asymptote(Fraction(21, 62))
    assert abs(asym - Fraction(1, 9)) <= Fraction(5, 100)
    _report(7, f"n2/n falls {float(ratios[0]):.3f} -> {float(ratios[-1]):.3f}; "
               f"n1/n falls {float(r1[0]):.3f} -> {float(r1[-1]):.3f} with "
               f"asymptote {float(asym):.4f} near 1/9")


def test_criterion_08_rate_arithmetic_and_limits():
    # rate formula reproduced exactly for the criterion-4 cases
    for K, t in ((14, 7), (22, 11), (30, 15), (22, 7), (30, 9), (30, 21)):
        delta_prime = scheme_delta(K, t, SCHEME_IMPROVED)
        expected = (Fraction(1, 2) + delta_prime / 6) * mn_rate_formula(K, t)
        assert rate_theorem(K, t, SCHEME_IMPROVED) == expected

    # limiting-curve values in the curve output at K=62, within 0.08
    rows, _ = ratio_curves([62], [Fraction(31, 62), Fraction(21, 62), Fraction(41, 62)])
    by_t = {r.t: r for r in rows}
    assert set(by_t) == {31, 21, 41}
    assert abs(by_t[31].asymptote - 0) <= Fraction(8, 100)
    assert by_t[31].asymptote == 0
    assert abs(by_t[21].asymptote - Fraction(1, 9)) <= Fraction(8, 100)
    assert abs(by_t[41].asymptote - Fraction(1, 9)) <= Fraction(8, 100)
    _report(8, "theorem rate arithmetic exact; curve asymptotes hit the "
               "0 and 1/9 limits within 0.08 at K=62")


def test_criterion_09_matcher_equals_oracle():
    cfg = build_config(6, 3, 6)
    layers = build_layers(cfg)
    graphs = [lap_middle_graph(cfg, layers)]
    for regime in (1, 2, 3):
        graphs.extend(improved_middle_graphs(cfg, layers, regime))
    compared = 0
    for g in graphs:
        if len(g.x) + len(g.y) > 20 or g.edge_count() > 60:
            continue
        assert len(max_matching(g)) == exhaustive_max_matching_size(g), g.label
        compared += 1
    assert compared == len(graphs)  # everything at K=6 is toy sized
    _report(9, f"{compared} pairing graphs at K=6 match the exhaustive oracle")


def test_criterion_10_identity_audits():
    for K in (6, 10, 14):
        t = K // 2
        cfg = build_config(K, t, K)
        layers = build_layers(cfg)
        half = K // 2
        for w in range(t + 2):
            layer = layers[w]
            # generalized least-rank classes match their closed form and cover the layer
            full = partition_classes(layer, cfg, Depth.FULL)
            assert sum(len(v) for v in full.values()) == len(layer.members)
            for key, members in full.items():
                assert len(members) == general_class_size(K, t, w, key.h1, key.h2)
            # every in-range key with a nonzero formula occurs
            if 1 <= w <= t:
                for h1 in range(1, half - w + 2):
                    for h2 in range(1, half - t + w + 1):
                        size = general_class_size(K, t, w, h1, h2)
                        got = full.get((w, h1, h2), ())
                        assert len(got) == size
                # the double-sum identity over the printed index ranges
                total = sum(
                    general_class_size(K, t, w, h1, h2)
                    for h1 in range(1, half - w + 2)
                    for h2 in range(1, half - t + w + 1)
                )
                assert total == comb(half, w) * comb(half, t + 1 - w)
            # the four-way split matches the cardinality table
            four = partition_classes(layer, cfg, Depth.FOUR)
            assert sum(len(v) for v in four.values()) == len(layer.members)
            for key, members in four.items():
                assert len(members) == four_way_class_size(K, t, w, key.h1 == 1, key.h2 == 1)
    _report(10, "class cardinalities, the generalized closed form, and the "
                "double-sum identity verified by enumeration at K=6,10,14")
