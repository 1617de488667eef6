"""Model-level tests: config validation, placement, demands, packet encoding."""

import dataclasses
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from tricache.system import (
    PacketId,
    SystemConfig,
    build_config,
    mask_of,
    packet,
    packet_id,
    random_demand,
    subset_masks,
    users_of,
    worst_demand,
    xor_sum,
)

from conftest import pkt
from paper_formulas import files, place_caches

import random


def test_build_config_basic():
    cfg = build_config(6, 3, 6)
    assert cfg.t == 3
    assert cfg.lam == Fraction(1, 2)
    assert cfg.users_a == (0, 1, 2)
    assert cfg.users_b == (3, 4, 5)


def test_build_config_k8():
    cfg = build_config(8, 4, 8)
    assert cfg.t == 4
    assert cfg.lam == Fraction(1, 2)


def test_config_stores_only_k_m_n():
    # t, lambda and the A/B split follow from (K, M, N), so a config with
    # another K has the t and the sides of that K
    assert [f.name for f in dataclasses.fields(SystemConfig)] == ["K", "M", "N"]
    cfg = dataclasses.replace(build_config(6, 3, 6), K=8)
    assert (cfg.t, cfg.lam) == (4, Fraction(1, 2))
    assert cfg.users_a == (0, 1, 2, 3)
    assert cfg.users_b == (4, 5, 6, 7)
    assert (cfg.mask_a, cfg.mask_b) == (0b00001111, 0b11110000)
    assert cfg == build_config(8, 3, 6)


@pytest.mark.parametrize("make, reason", [
    (lambda: dataclasses.replace(build_config(6, 3, 6), K=7), "user count K=7 must be a positive even integer"),
    (lambda: SystemConfig(4, 6, 4), "t = 6 must lie in [1, 3]"),
    (lambda: SystemConfig(6, 3, 5),
     "t = K*M/N = 18/5 is not an integer; choose K, M, N so the replication parameter is integral"),
], ids=["replace-odd-k", "t-past-k", "t-not-integral"])
def test_config_refuses_an_invalid_system(make, reason):
    # a config made without build_config is checked as build_config checks one
    with pytest.raises(ValueError) as refused:
        make()
    assert str(refused.value) == reason


def test_build_config_rejects_non_integral_t():
    with pytest.raises(ValueError, match="not an integer"):
        build_config(6, 2, 5)


def test_build_config_rejects_odd_k():
    with pytest.raises(ValueError, match="even"):
        build_config(5, 2, 4)


def test_build_config_rejects_odd_n():
    with pytest.raises(ValueError, match="even"):
        build_config(6, 3, 9)


def test_build_config_rejects_out_of_range_t():
    with pytest.raises(ValueError):
        build_config(4, 4, 4)  # t = 4 = K


def test_build_config_refuses_more_subsets_than_sys_maxsize():
    # exact at the edge: C(66, 34) fits, C(68, 35) does not
    for K in range(2, 71, 2):
        for t in range(1, K):
            if comb(K, t + 1) > sys.maxsize:
                with pytest.raises(ValueError, match=rf"^C\({K}, {t + 1}\) index sets exceed"):
                    build_config(K, t, K)
            else:
                assert build_config(K, t, K).t == t
    assert comb(66, 34) <= sys.maxsize < comb(68, 35)


def test_colex_order():
    subs = [users_of(m) for m in subset_masks(range(4), 2)]
    assert subs == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert subs == sorted(subs, key=lambda s: tuple(reversed(s)))


def test_users_of_rejects_negative_masks():
    assert users_of(0b1011) == (0, 1, 3)
    for m in (-1, -6, -(1 << 70)):
        with pytest.raises(ValueError, match="negative mask"):
            users_of(m)


def test_placement_contents_k4():
    # user 0 caches, per file, exactly the t-subsets containing it
    cfg = build_config(4, 2, 4)
    caches = {k: [packet_id(p, cfg.K) for p in c] for k, c in place_caches(cfg).items()}
    subsets_for_0 = {p.subset for p in caches[0] if p.server == "A" and p.file_index == 1}
    assert subsets_for_0 == {(0, 1), (0, 2), (0, 3)}
    for k in cfg.users:
        assert all(k in p.subset for p in caches[k])


def test_placement_sizes_and_fraction():
    cfg = build_config(6, 3, 6)
    caches = place_caches(cfg)
    per_file = comb(cfg.K - 1, cfg.t - 1)
    for k in cfg.users:
        assert len(caches[k]) == cfg.N * per_file
        # cached fraction of each file is exactly t/K = M/N
        for server, idx in files(cfg):
            cached = sum(
                1 for p in caches[k] if packet_id(p, cfg.K)[:2] == (server, idx)
            )
            assert Fraction(cached, cfg.packets_per_file) == Fraction(cfg.t, cfg.K) == cfg.lam


def test_placement_demand_independent_and_universe():
    cfg = build_config(4, 2, 4)
    assert place_caches(cfg) == place_caches(cfg)
    universe = {
        pkt(server, idx, sub, cfg.K)
        for server, idx in files(cfg)
        for sub in combinations(range(cfg.K), cfg.t)
    }
    assert len(universe) == cfg.N * comb(cfg.K, cfg.t)


def test_worst_demand_distinct_and_symmetric():
    cfg = build_config(6, 3, 6)
    d = worst_demand(cfg)
    assert d.is_symmetric(cfg)
    assert len(set(d.requests)) == cfg.K
    small = build_config(8, 3, 6)
    with pytest.raises(ValueError, match="N >= K"):
        worst_demand(small)


def test_random_demand_symmetric_and_seeded():
    cfg = build_config(6, 3, 6)
    d1 = random_demand(cfg, random.Random(7))
    d2 = random_demand(cfg, random.Random(7))
    assert d1 == d2
    assert d1.is_symmetric(cfg)


def test_twin():
    K = 4
    p = packet("A", 2, mask_of((0, 1)), K)
    twin = p ^ 1 << K
    assert twin == packet("B", 2, mask_of((0, 1)), K)
    assert twin ^ 1 << K == p


def test_gf2_combination_from_terms_cancels_duplicates():
    K = 4
    p = packet("A", 1, mask_of((0, 1)), K)
    q = packet("B", 1, mask_of((0, 1)), K)
    assert xor_sum([p, q, p]) == (q,)


@given(st.data())
def test_packet_encoding(data):
    K = data.draw(st.integers(2, 12))
    users = st.sets(st.integers(0, K - 1), min_size=1).map(lambda u: tuple(sorted(u)))
    triples = st.builds(PacketId, st.sampled_from(["A", "B"]), st.integers(1, 6), users)
    text = data.draw(triples)
    p = packet(text.server, text.file_index, mask_of(text.subset), K)
    # encode and decode are inverses
    assert packet_id(p, K) == text
    # the twin flips the server and nothing else
    other = "B" if text.server == "A" else "A"
    assert packet_id(p ^ 1 << K, K) == text._replace(server=other)
    # user u caches the packet iff bit u is set
    assert [p >> u & 1 for u in range(K)] == [u in text.subset for u in range(K)]
    # a term repeated an even number of times cancels from a payload
    terms = [pkt(*t, K) for t in data.draw(st.lists(triples, max_size=6))]
    odd = tuple(sorted({q for q in terms if terms.count(q) % 2}))
    assert xor_sum(terms) == odd
    assert xor_sum(terms + [p, p]) == odd
    assert xor_sum([p] + terms + [p]) == odd


@given(st.lists(st.integers(0, 40), max_size=24))
def test_xor_sum_is_the_sorted_terms_of_odd_multiplicity(terms):
    # a narrow range makes repeats common; a Counter is the oracle
    payload = xor_sum(terms)
    assert type(payload) is tuple
    assert all(a < b for a, b in zip(payload, payload[1:]))
    assert payload == tuple(sorted(p for p, n in Counter(terms).items() if n % 2))
