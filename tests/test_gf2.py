"""Basis correctness against brute-force span enumeration."""

from itertools import combinations

from hypothesis import given, strategies as st

from tricache.gf2 import GF2Basis


def brute_span(rows):
    out = {0}
    for r in range(1, len(rows) + 1):
        for pick in combinations(rows, r):
            acc = 0
            for v in pick:
                acc ^= v
            out.add(acc)
    return out


@given(st.lists(st.integers(0, 255), max_size=6), st.integers(0, 255))
def test_contains_matches_brute_force(rows, vec):
    assert GF2Basis(rows).contains(vec) == (vec in brute_span(rows))


@given(st.lists(st.integers(0, 1023), max_size=8))
def test_rank_matches_span_size(rows):
    basis = GF2Basis(rows)
    assert 2 ** len(basis) == len(brute_span(rows))


def test_add_reports_growth():
    basis = GF2Basis()
    assert basis.add(0b011)
    assert basis.add(0b110)
    assert not basis.add(0b101)  # xor of the first two
    assert basis.contains(0b101)
    assert not basis.contains(0b001)
