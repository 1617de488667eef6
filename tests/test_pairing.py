"""Layers, classes, effective pairs, graphs, and matchings."""

import hashlib
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tricache.analysis import (
    SCHEME_AUTO,
    SCHEME_IMPROVED,
    SCHEME_LAP,
    auto_scheme,
    improved_unpaired_count,
    lap_unpaired_count,
    middle_weights,
    regime_of_lambda,
)
from tricache import pairing
from tricache.pairing import (
    build_pair_graph,
    build_layers,
    check_saturation,
    count_unpaired,
    improved_middle_graphs,
    is_effective_pair,
    lap_middle_graph,
    layer_weight,
    max_matching,
    middle_pairing,
    outer_graphs,
    single_layer_weights,
    _greedy,
    _phases,
    _runs,
)
from tricache.system import build_config, subset_masks

from conftest import (
    Depth,
    build_graphs,
    class_members,
    exhaustive_max_matching_size,
    four_way_class_size,
    general_class_size,
    list_hopcroft_karp,
    list_scan_greedy,
    mask,
    orient_pair,
    orientation,
    partition_classes,
    rows,
    vertex_degree,
)


# ---------------------------------------------------------------------------
# effective pairs

def test_effective_pair_examples_k4():
    cfg = build_config(4, 1, 4)
    s_a1a2 = mask(0, 1)
    s_a1b1 = mask(0, 2)
    assert is_effective_pair(s_a1a2, s_a1b1, cfg)
    assert not is_effective_pair(s_a1a2, s_a1a2, cfg)
    # surplus on the wrong side: {a1,b1} vs {a2,b1}
    assert not is_effective_pair(mask(0, 2), mask(1, 2), cfg)


def test_effective_pair_size_mismatch_rejected():
    cfg = build_config(4, 1, 4)
    with pytest.raises(ValueError, match="size"):
        is_effective_pair(mask(0, 1, 2), mask(0, 1), cfg)


def test_effective_pairs_enumerated_k4_t1():
    # frozen by enumerating the set-difference predicate over all 2-subsets
    cfg = build_config(4, 1, 4)
    subs = subset_masks(range(4), 2)
    found = {
        (s1, s2)
        for s1 in subs
        for s2 in subs
        if s1 != s2
        and layer_weight(s1, cfg) > layer_weight(s2, cfg)
        and is_effective_pair(s1, s2, cfg)
    }
    a1a2, b1b2 = mask(0, 1), mask(2, 3)
    middles = [mask(0, 2), mask(0, 3), mask(1, 2), mask(1, 3)]
    expected = {(a1a2, m) for m in middles} | {(a1a2, b1b2)} | {(m, b1b2) for m in middles}
    assert found == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_effective_pair_orientation_unique(data):
    cfg = build_config(6, 3, 6)
    subs = subset_masks(range(6), 4)
    s1 = data.draw(st.sampled_from(subs))
    s2 = data.draw(st.sampled_from(subs))
    if s1 == s2:
        return
    both = is_effective_pair(s1, s2, cfg) and is_effective_pair(s2, s1, cfg)
    assert not both
    if is_effective_pair(s1, s2, cfg):
        assert layer_weight(s1, cfg) > layer_weight(s2, cfg)


# ---------------------------------------------------------------------------
# layers and classes

def test_layer_cardinalities_k6():
    cfg = build_config(6, 3, 6)
    layers = build_layers(cfg)
    assert len(layers[2].members) == comb(3, 2) ** 2 == 9
    assert sum(len(l.members) for l in layers.values()) == comb(6, 4) == 15
    for w in range(cfg.t + 2):
        assert len(layers[w].members) == len(layers[cfg.t + 1 - w].members)
        assert len(layers[w].members) == comb(3, w) * comb(3, cfg.t + 1 - w)


def test_partition_four_way_sizes():
    # K=10, t=3, w=2: the class containing both first users has 4*4 members
    cfg = build_config(10, 3, 10)
    layers = build_layers(cfg)
    classes = partition_classes(layers[2], cfg, Depth.FOUR)
    sizes = {(k.h1, k.h2): len(v) for k, v in classes.items()}
    assert sizes[(1, 1)] == comb(4, 1) * comb(4, 1) == 16
    assert sum(sizes.values()) == len(layers[2].members)
    for (h1, h2), size in sizes.items():
        assert size == four_way_class_size(10, 3, 2, h1 == 1, h2 == 1)


def test_partition_four_way_k6():
    cfg = build_config(6, 3, 6)
    layers = build_layers(cfg)
    classes = partition_classes(layers[2], cfg, Depth.FOUR)
    by_flags = {(k.h1, k.h2): len(v) for k, v in classes.items()}
    assert by_flags[(2, 2)] == 1  # no a1, no b1


def test_partition_full_depth_matches_closed_form():
    cfg = build_config(10, 5, 10)
    layers = build_layers(cfg)
    for w in range(cfg.t + 2):
        classes = partition_classes(layers[w], cfg, Depth.FULL)
        assert sum(len(v) for v in classes.values()) == len(layers[w].members)
        for key, members in classes.items():
            assert len(members) == general_class_size(cfg.K, cfg.t, w, key.h1, key.h2)


def test_general_cardinality_identity():
    # summing the least-rank class formula over its index ranges refills the layer
    for K, t in ((6, 3), (10, 5)):
        half = K // 2
        for w in range(1, t + 1):
            total = sum(
                general_class_size(K, t, w, h1, h2)
                for h1 in range(1, half - w + 2)
                for h2 in range(1, half - t + w + 1)
            )
            assert total == comb(half, w) * comb(half, t + 1 - w)


# ---------------------------------------------------------------------------
# degrees

def test_degree_table_entry_and_reverse():
    cfg = build_config(14, 7, 14)
    layers = build_layers(cfg)
    t, K = cfg.t, cfg.K
    mid_ff = class_members(cfg, layers, 4, False, False)
    low_ft = class_members(cfg, layers, 3, False, True)
    for v in mid_ff[:25]:
        assert vertex_degree(v, low_ft, cfg) == (t + 1) // 2
    for v in low_ft[:25]:
        assert vertex_degree(v, mid_ff, cfg) == (K - t - 1) // 2


def test_degree_zero_class_pair():
    # adding A-users can never delete a1, so (low; a1,b1) has no edges into (mid; no-a1, b1)
    cfg = build_config(14, 7, 14)
    layers = build_layers(cfg)
    low_tt = class_members(cfg, layers, 3, True, True)
    mid_ft = class_members(cfg, layers, 4, False, True)
    for v in low_tt[:20]:
        assert vertex_degree(v, mid_ft, cfg) == 0


# ---------------------------------------------------------------------------
# graphs and regimes

def test_regime_selection():
    assert regime_of_lambda(Fraction(3, 10)) == 1
    assert regime_of_lambda(Fraction(1, 2)) == 2
    assert regime_of_lambda(Fraction(7, 10)) == 3
    # golden-ratio boundaries: nearby rationals on each side
    assert regime_of_lambda(Fraction(38, 100)) == 1
    assert regime_of_lambda(Fraction(39, 100)) == 2
    assert regime_of_lambda(Fraction(61, 100)) == 2
    assert regime_of_lambda(Fraction(62, 100)) == 3


def test_build_graphs_regime2_counts():
    cfg = build_config(6, 3, 6)
    graphs = build_graphs(cfg, SCHEME_IMPROVED)
    assert len(graphs) == 6
    assert all(g.label.startswith("BG2") for g in graphs)


def test_build_graphs_regime1_has_merged_side():
    cfg = build_config(10, 3, 10)  # lambda = 0.3
    graphs = build_graphs(cfg, SCHEME_IMPROVED)
    assert len(graphs) == 5
    g1 = graphs[0]
    weights = {layer_weight(m, cfg) for m in g1.y}
    assert weights == {1, 3}  # the y side merges two layers


def test_build_graphs_even_t():
    cfg = build_config(8, 4, 8)
    graphs = build_graphs(cfg, SCHEME_LAP)
    assert [g.label for g in graphs] == ["layers-1x4", "layers-2x3"]
    assert single_layer_weights(cfg) == (0, 5)


def test_single_layers_absent_inside_middle_band():
    cfg = build_config(6, 1, 6)  # t = 1: layers 0 and 2 join the middle band
    assert single_layer_weights(cfg) == ()
    cfg2 = build_config(10, 3, 10)  # t = 3: extremes are singles again
    assert single_layer_weights(cfg2) == (0, 4)


def test_graph_edges_are_effective_pairs():
    cfg = build_config(6, 3, 6)
    for g in build_graphs(cfg, SCHEME_LAP) + build_graphs(cfg, SCHEME_IMPROVED):
        for x, row in zip(g.x, rows(g)):
            for j in row:
                y = g.y[j]
                hi, lo = (x, y) if layer_weight(x, cfg) > layer_weight(y, cfg) else (y, x)
                assert is_effective_pair(hi, lo, cfg)


def assert_graph_matches_oracle(g):
    """Index adjacency against all-pairs enumeration."""
    cfg = g.config
    assert list(g.x) == sorted(g.x) and list(g.y) == sorted(g.y)
    brute = [
        [y for y in g.y if is_effective_pair(x, y, cfg) or is_effective_pair(y, x, cfg)]
        for x in g.x
    ]
    assert [[g.y[j] for j in row] for row in rows(g)] == brute, g.label
    assert g.edge_count() == sum(map(len, brute))


@pytest.mark.parametrize("K", [6, 8, 10])
def test_pair_graphs_equal_all_pairs_oracle(K):
    graphs = 0
    for t in range(1, K):
        cfg = build_config(K, t, K)
        candidates = build_graphs(cfg, SCHEME_LAP) + build_graphs(cfg, SCHEME_IMPROVED)
        if t % 2:
            layers = build_layers(cfg)
            for regime in (1, 2, 3):
                candidates += improved_middle_graphs(cfg, layers, regime)
        for g in candidates:
            assert_graph_matches_oracle(g)
            graphs += 1
    assert graphs > 0


def every_graph(cfg):
    """The outer, lap and improved graphs of a config, plus the middle
    graphs of all three regimes for odd t."""
    graphs = build_graphs(cfg, SCHEME_LAP) + build_graphs(cfg, SCHEME_IMPROVED)
    if cfg.t % 2:
        layers = build_layers(cfg)
        for regime in (1, 2, 3):
            graphs += improved_middle_graphs(cfg, layers, regime)
    return graphs


@pytest.mark.parametrize("t", [5, 7])
def test_product_graphs_equal_all_pairs_oracle_k12(t):
    # K=12 has two-class y sides (BG1-1, BG3-1) with thousands of edges
    graphs = every_graph(build_config(12, t, 12))
    assert {"BG1-1", "BG3-1", "lap-middle"} <= {g.label for g in graphs}
    for g in graphs:
        assert_graph_matches_oracle(g)


def test_graphs_are_biregular_and_saturate_their_smaller_side_k14():
    # check_saturation and the closed forms rest on this: every graph is
    # biregular (degrees recounted from its rows) and its maximum matching
    # covers the smaller side
    graphs = every_graph(build_config(14, 7, 14))
    assert len(graphs) == 27
    for g in graphs:
        y_counts = [0] * len(g.y)
        for row in rows(g):
            for j in row:
                y_counts[j] += 1
        assert len({len(row) for row in rows(g)}) <= 1, g.label
        assert len(set(y_counts)) <= 1, g.label
        assert len(max_matching(g)) == min(len(g.x), len(g.y)), g.label


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pair_graph_on_random_blocks_equals_oracle(data):
    # one or two blocks per side, each from its own layer with random A-parts
    # and B-parts kept, or two from one layer with disjoint A-parts: two y
    # blocks take the greedy's choice by y-index and sorted rows, two x
    # blocks the merge into colex order, walked in runs
    K = data.draw(st.sampled_from([6, 8, 10]))
    t = data.draw(st.integers(1, K - 1))
    cfg = build_config(K, t, K)
    layers = build_layers(cfg)

    def kept(parts):
        # all parts half the time, as in whole layers and a_1/b_1 classes
        if data.draw(st.booleans()):
            return lambda part: True
        flags = data.draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts)))
        return {p for p, keep in zip(parts, flags) if keep}.__contains__

    def side():
        weights = data.draw(st.lists(st.integers(0, t + 1), min_size=1, max_size=2, unique=True))
        blocks = [layers[w].restrict(kept(layers[w].parts_a), kept(layers[w].parts_b)) for w in weights]
        if len(blocks) == 1 and data.draw(st.booleans()):
            # a second block of the same layer on the A-parts the first one
            # left out, so members of the two blocks that share a B-part
            # interleave in colex order
            layer, taken = layers[weights[0]], set(blocks[0].parts_a)
            blocks.append(layer.restrict(lambda a: a not in taken, kept(layer.parts_b)))
        for b in blocks:
            assert list(b.members) == sorted(a | bb for a in b.parts_a for bb in b.parts_b)
        return blocks

    x_blocks, y_blocks = side(), side()
    g = build_pair_graph(cfg, "blocks", x_blocks, y_blocks)
    assert sorted(g.x) == sorted(m for b in x_blocks for m in b.members)
    assert sorted(g.y) == sorted(m for b in y_blocks for m in b.members)
    assert_graph_matches_oracle(g)
    # the block greedy makes the list scan's choices, the factor phases
    # the row phases' augmentations, and the matching is that scan followed
    # by the phases, oriented and sorted
    if g.x and g.y:
        start = list_scan_greedy(rows(g), len(g.y))
        assert _greedy(g, _runs(g)) == start
        assert_phases_equal_oracle(g)
        match_x, _ = list_hopcroft_karp(rows(g), *start)
        expected = sorted(orient_pair(s, g.y[j], cfg) for s, j in zip(g.x, match_x) if j >= 0)
        assert max_matching(g) == expected


# ---------------------------------------------------------------------------
# matching

def test_max_matching_empty_side():
    cfg = build_config(6, 3, 6)
    layers = build_layers(cfg)
    graphs = list(improved_middle_graphs(cfg, layers))
    g2 = graphs[1]  # y side V_{1;a1,b1-free} is empty at this size
    assert g2.y == ()
    assert max_matching(g2) == []


def test_matching_is_vertex_disjoint_and_valid():
    cfg = build_config(6, 3, 6)
    for g in build_graphs(cfg, SCHEME_LAP) + build_graphs(cfg, SCHEME_IMPROVED):
        m = max_matching(g)
        seen = set()
        for s1, s2 in m:
            assert is_effective_pair(s1, s2, cfg)
            assert s1 not in seen and s2 not in seen
            seen.update((s1, s2))


def test_matcher_equals_oracle_on_toy_graphs():
    cfg = build_config(6, 3, 6)
    layers = build_layers(cfg)
    graphs = [lap_middle_graph(cfg, layers)]
    for regime in (1, 2, 3):
        graphs.extend(improved_middle_graphs(cfg, layers, regime))
    checked = 0
    for g in graphs:
        if len(g.x) + len(g.y) <= 20:
            assert len(max_matching(g)) == exhaustive_max_matching_size(g)
            checked += 1
    assert checked >= 10


def test_exhaustive_oracle_guard():
    cfg = build_config(14, 7, 14)
    layers = build_layers(cfg)
    g = lap_middle_graph(cfg, layers)
    with pytest.raises(ValueError, match="capped"):
        exhaustive_max_matching_size(g)


def brute_matching_size(adj, ny):
    best = 0

    def go(i, used):
        nonlocal best
        if i == len(adj):
            best = max(best, used.bit_count())
            return
        go(i + 1, used)
        for y in adj[i]:
            if not used >> y & 1:
                go(i + 1, used | 1 << y)

    go(0, 0)
    return best


def assert_phases_equal_oracle(g):
    """The factor phases, from the block greedy's start, end in the same
    matching as the row phases of the conftest oracle from the list scan's."""
    runs = _runs(g)
    match_x, match_y = _greedy(g, runs)
    _phases(g, runs, match_x, match_y)
    assert (match_x, match_y) == list_hopcroft_karp(rows(g), *list_scan_greedy(rows(g), len(g.y))), g.label


@pytest.mark.parametrize("K", [2, 4, 6, 8, 10, 12, 14])
def test_phases_equal_row_oracle_on_every_graph(K):
    phased = 0
    for t in range(1, K):
        for g in every_graph(build_config(K, t, K)):
            if g.x and g.y:
                assert_phases_equal_oracle(g)
                match_x, _ = _greedy(g, _runs(g))
                phased += len(match_x) - match_x.count(-1) < min(len(g.x), len(g.y))
    # graphs the greedy start leaves unsaturated, so that phases run
    assert phased == {2: 0, 4: 0, 6: 3, 8: 8, 10: 13, 12: 18, 14: 40}[K]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hopcroft_karp_matches_brute_force(data):
    nx = data.draw(st.integers(0, 5))
    ny = data.draw(st.integers(0, 5))
    adj = [
        sorted(data.draw(st.sets(st.integers(0, max(ny - 1, 0)), max_size=ny)))
        if ny
        else []
        for _ in range(nx)
    ]
    match_x, match_y = list_hopcroft_karp(adj, *list_scan_greedy(adj, ny))
    size = sum(1 for y in match_x if y >= 0)
    assert size == brute_matching_size(adj, ny)
    for x, y in enumerate(match_x):
        if y >= 0:
            assert match_y[y] == x
            assert y in adj[x]


def test_saturation_at_k14_regime2_g3():
    cfg = build_config(14, 7, 14)
    layers = build_layers(cfg)
    g3 = list(improved_middle_graphs(cfg, layers, 2))[2]
    m = max_matching(g3)
    assert len(m) == min(len(g3.x), len(g3.y))
    check_saturation(g3, m)


def test_check_saturation_raises_one_pair_short():
    cfg = build_config(10, 5, 10)
    g = list(improved_middle_graphs(cfg, build_layers(cfg), 2))[2]
    m = max_matching(g)
    check_saturation(g, m)
    with pytest.raises(RuntimeError, match="saturate the smaller side"):
        check_saturation(g, m[:-1])


# sha256 of every matching at one K, recorded before the greedy start read
# the product factors (K <= 14) and before the phases did (K = 16, 18):
# outer graphs, then for odd t the lap middle graph and the class graphs of
# regimes 1-3, each as "t label pairs"
MATCHINGS_SHA256 = {
    2: "5e491871042c2bbc1dbb6ec138c57400229a570e6156257bdc5100117d8ae83a",
    4: "64723bc8c93ef70ab2f443a9c5f116645fd6dc42e252026f7bfa471a8c671f25",
    6: "47802e63dcce1aae1d5641bc78b576394b45361342102d50ee973369ceaae379",
    8: "f5f7ddb099f2e276185341332a720e6b015dd9f3c43fec6058b20d83ef95268f",
    10: "586b4c792441f17b494ee5594db3882c0a0ffa7c9d53c4053a68e9cd738ca8f6",
    12: "2d7f5cf5ce3dfac2e894ca56a20f4724093bd88964f4fd31bf93b6a0879f1515",
    14: "dd7d122a24335896b15b321082d7c73442c3c31cd5d1a6e88db999504f103a79",
    16: "7c3bba9434ceb7e13a5d2a4a11ab70d4f2c2dfed606d4633be5495e8c47c180d",
    18: "0e5cd444f2c00e68f32210f51f537c805b9b95519905e5e280e641ab7c08584d",
}


@pytest.mark.parametrize("K", sorted(MATCHINGS_SHA256))
def test_matchings_equal_recorded_digest(K):
    # plan files carry these pairs, so a matcher change must not move them
    h = hashlib.sha256()
    for t in range(1, K):
        cfg = build_config(K, t, K)
        layers = build_layers(cfg)
        graphs = list(outer_graphs(cfg, layers))
        if t % 2:
            graphs.append(lap_middle_graph(cfg, layers))
            for regime in (1, 2, 3):
                graphs += improved_middle_graphs(cfg, layers, regime)
        for g in graphs:
            h.update(f"{t} {g.label} {max_matching(g)}\n".encode())
    assert h.hexdigest() == MATCHINGS_SHA256[K]


@pytest.mark.parametrize("t", [7, 9])
def test_greedy_saturated_graphs_never_build_rows(monkeypatch, t):
    # at K=16 the greedy start alone saturates the lap middle graph, so no
    # Hopcroft-Karp phase runs and no adjacency row is built
    def no_row(links, a):
        raise AssertionError("row built")

    monkeypatch.setattr(pairing, "_row", no_row)
    result = count_unpaired(build_config(16, t, 16), SCHEME_LAP)
    assert result.n == lap_unpaired_count(16, t) == {7: 1372, 9: 784}[t]


def test_phases_build_rows_only_for_the_x_they_visit(monkeypatch):
    # at K=16, lambda 7/16, BG2-5 and BG2-6 need phases after the greedy
    # start, and their DFS reaches fewer than half of their x
    built, sizes = {}, {}
    row, matcher = pairing._row, pairing.max_matching

    def counted_row(links, a):
        built[label] += 1
        return row(links, a)

    def labelled_matcher(g):
        nonlocal label
        label = g.label
        built[label], sizes[label] = 0, len(g.x)
        return matcher(g)

    label = None
    monkeypatch.setattr(pairing, "_row", counted_row)
    monkeypatch.setattr(pairing, "max_matching", labelled_matcher)
    result = count_unpaired(build_config(16, 7, 16), SCHEME_IMPROVED)
    assert result.n == improved_unpaired_count(16, 7)[1]
    assert {g for g, n in built.items() if n} == {"BG2-5", "BG2-6"}
    for g in ("BG2-5", "BG2-6"):
        assert 0 < built[g] < sizes[g] / 2, (g, built[g], sizes[g])


@pytest.mark.parametrize("t", range(1, 12))
def test_edge_count_from_factors_equals_rows(t):
    for g in every_graph(build_config(12, t, 12)):
        assert g.edge_count() == sum(map(len, rows(g))), g.label


# ---------------------------------------------------------------------------
# unpaired counts

def test_count_unpaired_lap_k6():
    cfg = build_config(6, 3, 6)
    uc = count_unpaired(cfg, SCHEME_LAP)
    assert uc.n == abs(comb(3, 2) ** 2 - 2 * comb(3, 1) * comb(3, 3)) == 3
    assert uc.delta == Fraction(3, 15) == Fraction(1, 5)


def test_count_unpaired_lap_k14():
    cfg = build_config(14, 7, 14)
    uc = count_unpaired(cfg, SCHEME_LAP)
    assert uc.n == abs(comb(7, 4) ** 2 - 2 * comb(7, 3) * comb(7, 5)) == 245


def test_count_unpaired_improved_k14():
    # class-cardinality oracle: sum of |size(X) - size(Y)| over the regime-2 graphs
    cfg = build_config(14, 7, 14)
    layers = build_layers(cfg)
    expected = 0
    for g in improved_middle_graphs(cfg, layers, 2):
        expected += abs(len(g.x) - len(g.y))
    assert expected == 595
    uc = count_unpaired(cfg, SCHEME_IMPROVED)
    assert uc.n == expected
    assert uc.n > count_unpaired(cfg, SCHEME_LAP).n  # the gain is asymptotic


def test_count_unpaired_auto_takes_smaller():
    cfg = build_config(14, 7, 14)
    auto = count_unpaired(cfg, SCHEME_AUTO)
    assert auto.scheme == SCHEME_LAP
    assert auto.n == 245
    cfg62ish = build_config(10, 5, 10)
    assert count_unpaired(cfg62ish, SCHEME_AUTO).n == 0


def test_auto_scheme_equals_matcher_rule():
    # the rule auto_scheme replaces: match both constructions and keep the
    # one leaving fewer sets unpaired, lap on a tie
    for K in range(2, 17, 2):
        for t in range(1, K, 2):
            cfg = build_config(K, t, K)
            lap = count_unpaired(cfg, SCHEME_LAP).n
            improved = count_unpaired(cfg, SCHEME_IMPROVED).n
            assert auto_scheme(K, t) == (SCHEME_IMPROVED if improved < lap else SCHEME_LAP), (K, t)


def test_auto_picks_improved_first_at_k20():
    assert all(auto_scheme(K, t) == SCHEME_LAP for K in range(2, 20, 2) for t in range(1, K, 2))
    uc = count_unpaired(build_config(20, 9, 20), SCHEME_AUTO)
    assert (uc.scheme, uc.n) == (SCHEME_IMPROVED, 17640)
    assert uc.n < lap_unpaired_count(20, 9)


def test_count_unpaired_requires_odd_t():
    cfg = build_config(8, 4, 8)
    with pytest.raises(ValueError, match="^the middle band exists only for odd t$"):
        count_unpaired(cfg, SCHEME_LAP)


@pytest.mark.parametrize("K", range(2, 17, 2))
def test_count_unpaired_equals_the_leftovers(K):
    # the count is the band less two per pair; the leftovers are enumerated
    for t in range(1, K, 2):
        cfg = build_config(K, t, K)
        for scheme in (SCHEME_LAP, SCHEME_IMPROVED, SCHEME_AUTO):
            assert count_unpaired(cfg, scheme).n == len(middle_pairing(cfg, scheme).unmatched), (t, scheme)


@pytest.mark.parametrize("scheme", [SCHEME_LAP, SCHEME_IMPROVED, SCHEME_AUTO])
def test_count_unpaired_builds_the_band_and_never_its_leftovers(monkeypatch, scheme):
    # members are built only for the blocks a graph is built on: under
    # improved those are the class blocks, never the band's layers, and
    # listing the leftovers reads the band's parts, not its members
    built, blocks = [], []

    def recording_build_layers(config):
        built.append(build_layers(config))
        return built[-1]

    def recording_build_pair_graph(config, label, x_blocks, y_blocks):
        blocks.extend([*x_blocks, *y_blocks])
        return build_pair_graph(config, label, x_blocks, y_blocks)

    def no_leftovers(self):
        raise AssertionError("count_unpaired enumerated the leftovers")

    def cached(layers):
        return ["members" in vars(layer) for layer in layers]

    monkeypatch.setattr(pairing, "build_layers", recording_build_layers)
    monkeypatch.setattr(pairing, "build_pair_graph", recording_build_pair_graph)
    with monkeypatch.context() as m:
        m.setattr(pairing.MiddlePairing, "unmatched", property(no_leftovers))
        cfg = build_config(16, 7, 16)
        assert count_unpaired(cfg, scheme).n == (
            lap_unpaired_count(16, 7) if scheme != SCHEME_IMPROVED else improved_unpaired_count(16, 7)[1])
    (layers,) = built
    assert sorted(layers) == list(range(9))
    assert all(cached(blocks))
    assert cached(layers.values()) == [any(layer is b for b in blocks) for layer in layers.values()]
    if scheme == SCHEME_IMPROVED:
        assert cached(layers[w] for w in middle_weights(7)) == [False] * 3
        middle = middle_pairing(cfg, scheme)
        assert len(middle.unmatched) == improved_unpaired_count(16, 7)[1]
        assert cached(middle.band) == [False] * 3


def test_regime_graphs_are_disjoint_inside_the_band():
    # count_unpaired subtracts two per pair over all of a regime's graphs,
    # which holds only when no subset lies in two of them
    for K in range(2, 15, 2):
        for t in range(1, K, 2):
            cfg = build_config(K, t, K)
            layers = build_layers(cfg)
            band = {m for w in middle_weights(t) for m in layers[w].members}
            for regime in (1, 2, 3):
                sides = [side for g in improved_middle_graphs(cfg, layers, regime) for side in (g.x, g.y)]
                vertices = [m for side in sides for m in side]
                assert len(set(vertices)) == len(vertices), (K, t, regime)
                assert band.issuperset(vertices), (K, t, regime)


def test_build_graphs_auto_picks_winner():
    cfg = build_config(14, 7, 14)
    labels = [g.label for g in build_graphs(cfg, SCHEME_AUTO)]
    assert "lap-middle" in labels  # the baseline wins at this size
    assert not any(l.startswith("BG") for l in labels)


def test_graph_orientation():
    cfg = build_config(6, 3, 6)
    layers = build_layers(cfg)
    g1 = list(improved_middle_graphs(cfg, layers, 2))[0]  # x in the middle layer, y below
    assert orientation(g1) == "x"
    assert orientation(lap_middle_graph(cfg, layers)) == "mixed"


def test_middle_pairing_t1():
    # t = 1 keeps layers 0 and 2 inside the pairing; leftovers sit in layer 1
    cfg = build_config(6, 1, 6)
    pairing = middle_pairing(cfg, SCHEME_LAP)
    assert len(pairing.unmatched) == 3
    assert all(layer_weight(m, cfg) == 1 for m in pairing.unmatched)


def test_unpaired_ratio_monotone_at_half():
    ratios = []
    for K in (14, 22, 30):
        t = K // 2
        _, ni = improved_unpaired_count(K, t)
        ratios.append(Fraction(ni, lap_unpaired_count(K, t)))
    assert ratios[0] > ratios[1] > ratios[2]
