"""Closed-form calculators: exact values frozen from the enumeration oracles."""

import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from tricache import analysis
from tricache.analysis import (
    HIGH,
    LOW,
    MID,
    REGIME_GRAPH_SPECS,
    REGIME_STANDALONE,
    SCHEME_AUTO,
    SCHEME_IMPROVED,
    SCHEME_LAP,
    auto_scheme,
    binom,
    ratio_curves,
    improved_unpaired_count,
    lap_unpaired_count,
    middle_weights,
    mn_rate_formula,
    ratio_asymptote,
    rate_theorem,
    regime_of_lambda,
    scheme_delta,
)

from conftest import four_way_class_size
from paper_formulas import (
    AsymmetricRate,
    asymmetric_rate,
    improved_count_simplified,
    multi_server_rate,
    server_load_for_requests,
)


def test_delta_lap_small():
    assert scheme_delta(6, 3, SCHEME_LAP) == Fraction(1, 5)
    assert scheme_delta(14, 7, SCHEME_LAP) == Fraction(245, comb(14, 8)) == Fraction(35, 429)


def test_delta_lap_rejects_even_t():
    with pytest.raises(ValueError):
        lap_unpaired_count(8, 4)


def test_delta_lap_bounded_third_at_half():
    for K in range(6, 63, 8):  # lambda = 1/2 admits odd t when K = 4j + 2
        t = K // 2
        assert t % 2 == 1
        assert scheme_delta(K, t, SCHEME_LAP) <= Fraction(1, 3)


def test_improved_counts_frozen():
    # values frozen from the class-cardinality sums (cross-checked by the matcher
    # in the pairing tests and the acceptance suite)
    assert improved_unpaired_count(14, 7) == (2, 595)
    assert improved_unpaired_count(22, 11) == (2, 74844)
    assert improved_unpaired_count(30, 15) == (2, 11349195)
    assert improved_unpaired_count(22, 7) == (1, 48420)
    assert improved_unpaired_count(30, 9) == (1, 2823821)
    assert improved_unpaired_count(30, 21) == (3, 770133)


def test_simplified_forms_agree_with_class_sums():
    for K, t in ((6, 3), (10, 3), (10, 7), (14, 7), (22, 7), (22, 11), (30, 9), (30, 15), (30, 21), (62, 21), (62, 31), (62, 41)):
        regime, n = improved_unpaired_count(K, t)
        assert improved_count_simplified(K, t, regime) == n


def _class_sum_counts(K, t, regime):
    """Oracle: (baseline, improved) unpaired counts summed from the comb-based
    class cardinalities, as the graphs of each construction pair them."""
    weight_of = dict(zip((LOW, MID, HIGH), middle_weights(t)))

    def size(spec):
        layer, a1, b1 = spec
        return four_way_class_size(K, t, weight_of[layer], a1, b1)

    def layer(name):
        return sum(size((name, a1, b1)) for a1 in (False, True) for b1 in (False, True))

    lap = abs(layer(MID) - layer(LOW) - layer(HIGH))
    improved = sum(
        abs(sum(map(size, x_specs)) - sum(map(size, y_specs)))
        for _, x_specs, y_specs in REGIME_GRAPH_SPECS[regime]
    ) + sum(map(size, REGIME_STANDALONE[regime]))
    return lap, improved


def test_window_ratios_are_exact_ratios_to_the_seed():
    # C(m, j) F = C(m, j0) N[j] at every window index; t = 1 starts the
    # window below 0 and t = K - 1 runs it past m = K/2 - 1
    for K in range(2, 81, 2):
        for t in range(1, K, 2):
            m, j0 = analysis._window_seed(K, t)
            F, N = analysis._window_ratios(K, t)
            lo = (t + 1) // 2 - 2
            assert sorted(N) == list(range(lo, lo + 4)), (K, t)
            for j in N:
                assert comb0(m, j) * F == comb(m, j0) * N[j], (K, t, j)


def test_binomial_window_counts_match_class_sums():
    # t = 1 starts the binomial window below 0; t = K - 1 runs it past K/2 - 1
    for K in range(2, 81, 2):
        for t in range(1, K, 2):
            counts = {regime: _class_sum_counts(K, t, regime) for regime in (1, 2, 3)}
            for regime, (lap, improved) in counts.items():
                assert lap_unpaired_count(K, t) == lap, (K, t)
                assert improved_unpaired_count(K, t, regime) == (regime, improved), (K, t)
            lap, improved = counts[regime_of_lambda(Fraction(t, K))]
            assert auto_scheme(K, t) == (SCHEME_IMPROVED if improved < lap else SCHEME_LAP), (K, t)


@pytest.mark.parametrize("K, t, regime", [(2060, 1029, 2), (4100, 1501, 1), (4100, 2049, 2), (4100, 2701, 3)])
def test_large_counts_match_class_sums(K, t, regime):
    # the window's seed C(K/2 - 1, (t+1)/2 - 2) takes binom's prime-power path
    m, j0 = analysis._window_seed(K, t)
    j = min(j0, m - j0)
    assert j > analysis._COMB_MAX_J and m < analysis._COMB_MIN_RATIO * j
    assert regime_of_lambda(Fraction(t, K)) == regime
    lap, improved = _class_sum_counts(K, t, regime)
    assert lap_unpaired_count(K, t) == lap
    assert improved_unpaired_count(K, t) == (regime, improved)


def test_ratio_at_k30():
    _, ni = improved_unpaired_count(30, 15)
    n = lap_unpaired_count(30, 15)
    assert Fraction(ni, n) == Fraction(11349195, 23005125) == Fraction(37, 75)


def test_asymptotes():
    assert ratio_asymptote(Fraction(1, 2)) == 0
    assert ratio_asymptote(Fraction(1, 3)) == Fraction(1, 9)
    assert ratio_asymptote(Fraction(2, 3)) == Fraction(1, 9)
    assert ratio_asymptote(Fraction(1, 3)) / 3 == Fraction(1, 27)
    assert ratio_asymptote(Fraction(2, 3)) / 3 == Fraction(1, 27)
    assert ratio_asymptote(Fraction(11, 20)) / 3 == Fraction(1, 30)  # regime 2


def test_rate_coefficient_near_one_third():
    # 1/2 + (1/27)/6 equals 41/81 exactly
    assert Fraction(1, 2) + ratio_asymptote(Fraction(1, 3)) / 3 / 6 == Fraction(41, 81)


def test_rate_theorem_even_t():
    assert rate_theorem(8, 4, SCHEME_LAP) == Fraction(2, 5)
    assert rate_theorem(8, 4, SCHEME_IMPROVED) == Fraction(2, 5)
    assert rate_theorem(12, 6, SCHEME_AUTO) == Fraction(3, 7)


def test_rate_theorem_odd_t():
    assert rate_theorem(6, 3, SCHEME_LAP) == (Fraction(1, 2) + Fraction(1, 5) / 6) * Fraction(3, 4)
    assert rate_theorem(6, 3, SCHEME_LAP) == Fraction(2, 5)
    delta_prime = scheme_delta(14, 7, SCHEME_IMPROVED)
    assert rate_theorem(14, 7, SCHEME_IMPROVED) == (Fraction(1, 2) + delta_prime / 6) * Fraction(7, 8)
    # auto never regresses past either scheme
    assert rate_theorem(14, 7, SCHEME_AUTO) == min(
        rate_theorem(14, 7, SCHEME_LAP), rate_theorem(14, 7, SCHEME_IMPROVED)
    )


def test_auto_delta_is_the_smaller_closed_form():
    # the rule auto_scheme replaced in scheme_delta: the smaller of the two
    # closed forms; improved wins somewhere in every regime by K=60
    wins = set()
    for K in range(2, 61, 2):
        for t in range(1, K, 2):
            lap, improved = scheme_delta(K, t, SCHEME_LAP), scheme_delta(K, t, SCHEME_IMPROVED)
            assert scheme_delta(K, t, SCHEME_AUTO) == min(lap, improved), (K, t)
            if improved < lap:
                wins.add(improved_unpaired_count(K, t)[0])
    assert wins == {1, 2, 3}


def test_asymmetric_rate_structure():
    with pytest.raises(ValueError):
        asymmetric_rate(3, 3, 2)
    got = asymmetric_rate(5, 3, 3)
    expected = rate_theorem(6, 3) + 2 * rate_theorem(6, 2) + rate_theorem(6, 1)
    assert got == AsymmetricRate(value=expected, terms_used=3, terms_skipped=0)


def test_asymmetric_rate_skips_invalid_inner_terms():
    got = asymmetric_rate(8, 2, 3)
    # l = 3, 4 give inner t of 0 and -1 with nonzero binomial weights
    assert got.terms_skipped == 2
    assert got.terms_used == 3


def test_multi_server_rates():
    assert multi_server_rate(3, 8, 4) == Fraction(2 * 4, 3 * 5) == Fraction(2, 3) * mn_rate_formula(8, 4)
    assert multi_server_rate(2, 14, 7, with_two_parities=True) == mn_rate_formula(14, 7) / 2
    expected = (Fraction(1, 2) + Fraction(2, 12) * scheme_delta(14, 7, SCHEME_IMPROVED)) * mn_rate_formula(14, 7)
    assert multi_server_rate(4, 14, 7, with_two_parities=True) == expected


def test_server_load_for_requests():
    assert server_load_for_requests(8, 4, 8) == mn_rate_formula(8, 4)
    assert server_load_for_requests(8, 4, 0) == 0
    assert server_load_for_requests(6, 3, 3) == Fraction(comb(6, 4) - comb(3, 4), comb(6, 3))


def test_ratio_curves_admission():
    rows, skipped = ratio_curves([14, 15, 16], [Fraction(1, 2), Fraction(1, 3)])
    admitted = {(r.K, r.lam) for r in rows}
    assert admitted == {(14, Fraction(1, 2))}
    reasons = {(s.K, s.lam): s.reason for s in skipped}
    assert "even" in reasons[(16, Fraction(1, 2))]
    assert "not integral" in reasons[(14, Fraction(1, 3))]
    assert "even" in reasons[(15, Fraction(1, 3))] or "K must be even" in reasons[(15, Fraction(1, 3))]


def test_curve_row_values():
    rows, _ = ratio_curves([30], [Fraction(1, 2)])
    (row,) = rows
    assert row.t == 15
    assert row.regime == 2
    assert row.n == 23005125
    assert row.n_i == 11349195
    total = comb(30, 16)
    assert row.ni_over_n == (37, 75) == Fraction(row.n_i, row.n).as_integer_ratio()
    assert row.delta == Fraction(row.n, total).as_integer_ratio()
    assert row.delta_prime == Fraction(row.n_i, total).as_integer_ratio()
    assert row.asymptote == 0


def test_ratio_curves_zero_baseline():
    # K=10, t=5 pairs perfectly under the baseline; the ratio column is empty
    rows, _ = ratio_curves([10], [Fraction(1, 2)])
    (row,) = rows
    assert row.n == 0
    assert row.ni_over_n is None
    assert row.delta == (0, 1)
    assert row.delta_prime == Fraction(row.n_i, comb(10, 6)).as_integer_ratio()


# One lambda per regime at least: 1/4 and 3/8 in regime 1, 7/16 and 1/2 in 2,
# 5/8 and 3/4 in 3; and four that no K admits.
COLUMN_LAMBDAS = [Fraction(1, 4), Fraction(3, 8), Fraction(7, 16), Fraction(1, 2),
                  Fraction(5, 8), Fraction(3, 4), Fraction(-1, 2), Fraction(3, 2),
                  Fraction(0), Fraction(1)]


def _skip_reason(lam: Fraction, K: int) -> str | None:
    """The reason ratio_curves gives for skipping (lam, K), spelt from
    Fraction arithmetic; None for an admitted point."""
    if K % 2:
        return "K must be even"
    t = lam * K
    if t.denominator != 1:
        return f"t = K*lambda = {t} not integral"
    if not 1 <= t <= K - 1:
        return f"t = {t} outside [1, {K - 1}]"
    return f"t = {t} is even" if t % 2 == 0 else None


def _arranged(K_values: list[int], order: str) -> list[int]:
    if order == "ascending":
        return sorted(K_values)
    if order == "descending":
        return sorted(K_values, reverse=True)
    if order == "repeated":
        return [K for K in sorted(K_values) for _ in range(2)]
    return K_values  # shuffled: in the order drawn


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-2, 1501).map(lambda i: 2 * i) | st.integers(-3, 3003),
                min_size=1, max_size=8),
       st.sampled_from(["shuffled", "ascending", "descending", "repeated"]))
# an ascending column steps every row after its first; a gap of 960 falls back
@example([2004, 2012, 2020, 2028, 2036, 2996], "ascending")
@example([2060, 2180, 2300, 2420, 2540, 3000], "ascending")
@example([2060, 2180, 2300, 2420, 2540], "descending")
@example([2300, 2060, 2540, 2180, 2420], "shuffled")
@example([14, 22, 30, 2996, 2060, 2068], "repeated")
def test_curve_columns_equal_fresh_points(K_values, order):
    # rows stepped along a column equal each point computed on its own, with
    # both binom paths in play (C(K, t+1) takes the prime-power path once
    # min(t+1, K-t-1) > 400), and every skip reason is the one Fraction
    # arithmetic spells
    K_values = _arranged(K_values, order)
    rows, skipped = ratio_curves(K_values, COLUMN_LAMBDAS)
    points = [(lam, K, _skip_reason(lam, K)) for lam in COLUMN_LAMBDAS for K in K_values]
    assert [(s.lam, s.K, s.reason) for s in skipped] == [p for p in points if p[2]]
    admitted = [(lam, K) for lam, K, reason in points if reason is None]
    assert [(r.lam, r.K) for r in rows] == admitted
    for r in rows:
        t = int(r.lam * r.K)
        total = comb(r.K, t + 1)
        assert (r.t, r.regime) == (t, regime_of_lambda(r.lam))
        assert (r.regime, r.n_i) == improved_unpaired_count(r.K, t)
        assert r.n == lap_unpaired_count(r.K, t)
        assert r.ni_over_n == (Fraction(r.n_i, r.n).as_integer_ratio() if r.n else None)
        assert r.delta == Fraction(r.n, total).as_integer_ratio()
        assert r.delta_prime == Fraction(r.n_i, total).as_integer_ratio()


def test_ascending_column_calls_binom_for_its_first_point_only(monkeypatch):
    # lambda 1/4 admits all five K; only the first row's C(K, t+1) and window
    # seed C(K/2 - 1, (t+1)/2 - 2) come from binom, the rest are stepped.  The
    # same column read with K falling computes every row afresh.
    calls = []
    fresh = analysis.binom
    monkeypatch.setattr(analysis, "binom", lambda n, k: calls.append((n, k)) or fresh(n, k))
    column = [2060, 2180, 2300, 2420, 2540]
    rows, _ = ratio_curves(column, [Fraction(1, 4)])
    assert len(rows) == 5
    assert calls == [(2060, 516), (1029, 256)]
    calls.clear()
    assert ratio_curves(column[::-1], [Fraction(1, 4)])[0] == rows[::-1]
    assert calls == [(n, k) for K in column[::-1] for n, k in ((K, K // 4 + 1), (K // 2 - 1, K // 8 - 1))]


def test_four_way_class_size_table():
    # spot checks of the cardinality table at K=14, t=7
    assert four_way_class_size(14, 7, 4, True, True) == comb(6, 3) ** 2 == 400
    assert four_way_class_size(14, 7, 4, False, False) == comb(6, 4) ** 2 == 225
    assert four_way_class_size(14, 7, 3, False, True) == comb(6, 3) * comb(6, 4) == 300
    assert four_way_class_size(14, 7, 5, True, False) == comb(6, 4) * comb(6, 3) == 300


def comb0(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def _prime_side(n: int):
    lo = max(401, n // 16 + 1)
    return st.tuples(st.just(n), st.integers(lo, n - lo))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 20000).flatmap(lambda n: st.tuples(st.just(n), st.integers(-2, n + 2)))
       | st.integers(802, 20000).flatmap(_prime_side))
def test_binom_equals_math_comb(nk):
    # the second strategy draws only 400 < min(k, n-k) and n < 16 min(k, n-k),
    # the prime path; hypothesis keeps the first mostly to small n, math.comb
    n, k = nk
    assert binom(n, k) == comb0(n, k)


def _path_of(sieve, monkeypatch, n, k) -> str:
    used = []
    prime_path = sieve._binom_from_primes
    monkeypatch.setattr(sieve, "_binom_from_primes", lambda n, j: used.append(j) or prime_path(n, j))
    assert binom(n, k) == comb0(n, k), (n, k)
    monkeypatch.setattr(sieve, "_binom_from_primes", prime_path)
    return "primes" if used else "comb"


@pytest.mark.parametrize("n, k, path", [
    (10, -1, "comb"), (8000, -3, "comb"), (10, 11, "comb"), (8000, 8001, "comb"), (-1, 0, "comb"),
    (8000, 0, "comb"), (8000, 1, "comb"), (8000, 7999, "comb"), (8000, 8000, "comb"),
    (0, 0, "comb"), (1, 1, "comb"), (2, 1, "comb"),
    (7919, 3000, "primes"), (7919, 3959, "primes"), (7919, 3960, "primes"),  # n prime
    (7921, 3960, "primes"), (7920, 3960, "primes"), (7921, 2640, "primes"),  # 89^2, 89^2 - 1
    (9409, 4704, "primes"), (9408, 4704, "primes"), (9409, 97, "comb"),  # 97^2, 97^2 - 1
    (800, 400, "comb"), (802, 401, "primes"), (802, 400, "comb"),  # j at the j bound
    (6399, 400, "comb"), (6415, 401, "primes"), (6416, 401, "comb"), (6417, 401, "comb"),
    (6415, 6014, "primes"), (6416, 6015, "comb"),  # n at 16 j, from either side of n/2
])
def test_binom_edges_and_switch(fresh_sieve, monkeypatch, n, k, path):
    assert _path_of(fresh_sieve, monkeypatch, n, k) == path


def test_binom_sieve_follows_n_down_and_up(fresh_sieve):
    for n in (9000, 5000, 1300, 2600, 6000, 12011, 20000, 47):
        for k in (n // 2, n // 3, n // 15 + 1):
            assert binom(n, k) == comb(n, k), (n, k)
    assert fresh_sieve._sieved >= 20000
    assert fresh_sieve._primes[-1] <= fresh_sieve._sieved
    assert len(fresh_sieve._primes) == sum(
        all(p % d for d in range(2, int(p ** 0.5) + 1)) for p in range(2, fresh_sieve._sieved + 1)
    )


def test_binom_far_above_j_sieves_nothing(fresh_sieve):
    assert binom(10**8, 402) == comb(10**8, 402)
    assert binom(10**8, 10**8 - 6000) == comb(10**8, 6000)
    assert len(fresh_sieve._primes) <= 1000


@pytest.mark.parametrize(
    "n", [0, 7, -7, 2**14300, 10**4299, 10**4300 - 1, 10**4300, -10**4300, 10**9000 + 7],
    ids=["0", "7", "-7", "2^14300", "10^4299", "10^4300-1", "10^4300", "-10^4300", "10^9000+7"],
)
def test_reason_numbers_past_the_digit_limit_are_spelled_by_digit_count(n):
    # below the limit a number prints as itself, so reasons that print today
    # stay byte-identical; past it, its exact digit count stands in
    lift = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    lift(0)
    try:
        text, unlimited = str(n), analysis._spelled(n, 0)
    finally:
        lift(old)
    digits = len(text.lstrip("-"))
    assert analysis._spelled(n, 4300) == (text if digits <= 4300 else f"{text[:n < 0]}<{digits} digits>")
    assert unlimited == text


def test_not_integral_reason_past_the_digit_limit():
    # K*lambda = 5 (9e4299 + 1)/2 has 4301 digits in its numerator
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-text digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        _, skipped = ratio_curves([10], [Fraction(9 * 10**4299 + 1, 4)])
    finally:
        sys.set_int_max_str_digits(old)
    assert [s.reason for s in skipped] == ["t = K*lambda = <4301 digits>/2 not integral"]
