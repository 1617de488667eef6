"""Closed-form calculators: unpaired ratios, rate formulas, and curve data.

Everything here is exact big-integer or rational arithmetic; floats appear
only when callers render output.  The improved-scheme unpaired counts are
computed from the per-class cardinalities (products of binomials); the
tests check them against the published single-fraction simplifications.

The schemes' class layout (REGIME_GRAPH_SPECS) and the regime rule live
here, and pairing builds its graphs from them.  The closed forms also make
the one choice 'auto' needs (auto_scheme): pairing matches only the
construction they pick.

Large binomials, such as the C(K, t+1) of every curve row, come from `binom`.
It multiplies the prime powers that divide C(n, k) when min(k, n - k) > 400
and n < 16 min(k, n - k), and calls math.comb otherwise, the side of the
measured crossover on which each is faster.  Along a column of the curves
(one cache fraction, K rising) `_binom_next` steps a row's two big binomials
from the previous row's where that is cheaper still.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt, lgamma, log, perm
from operator import mul

SCHEME_LAP = "lap"
SCHEME_IMPROVED = "improved"
SCHEME_AUTO = "auto"

LOW = "low"
MID = "mid"
HIGH = "high"

# Class-level layout of the improved constructions, one entry per regime.
# Classes are (layer, has_a1, has_b1) with layer one of LOW/MID/HIGH; each
# graph is (label, x classes, y classes); standalone classes join no graph.
REGIME_GRAPH_SPECS: dict[int, tuple[tuple[str, tuple, tuple], ...]] = {
    1: (
        ("BG1-1", ((MID, False, False),), ((LOW, False, True), (HIGH, True, False))),
        ("BG1-2", ((MID, False, True),), ((HIGH, False, True),)),
        ("BG1-3", ((MID, True, False),), ((LOW, True, False),)),
        ("BG1-4", ((LOW, False, False),), ((HIGH, False, False),)),
        ("BG1-5", ((LOW, True, True),), ((HIGH, True, True),)),
    ),
    2: (
        ("BG2-1", ((MID, True, True),), ((LOW, False, True),)),
        ("BG2-2", ((MID, True, False),), ((LOW, True, False),)),
        ("BG2-3", ((MID, False, True),), ((HIGH, False, True),)),
        ("BG2-4", ((MID, False, False),), ((HIGH, True, False),)),
        ("BG2-5", ((LOW, True, True),), ((HIGH, True, True),)),
        ("BG2-6", ((LOW, False, False),), ((HIGH, False, False),)),
    ),
    3: (
        ("BG3-1", ((MID, True, True),), ((LOW, False, True), (HIGH, True, False))),
        ("BG3-2", ((MID, True, False),), ((LOW, True, False),)),
        ("BG3-3", ((MID, False, True),), ((HIGH, False, True),)),
        ("BG3-4", ((LOW, False, False),), ((HIGH, False, False),)),
        ("BG3-5", ((LOW, True, True),), ((HIGH, True, True),)),
    ),
}

REGIME_STANDALONE: dict[int, tuple[tuple[str, bool, bool], ...]] = {
    1: ((MID, True, True),),
    2: (),
    3: ((MID, False, False),),
}


def regime_of_lambda(lam: Fraction) -> int:
    """Regime index for a cache fraction, with exact rational comparisons.

    Boundaries are (3 - sqrt5)/2 and (sqrt5 - 1)/2; each boundary belongs to
    the regime on its left.  For rational lam equality never occurs, but the
    squared comparisons keep the closed-left convention anyway.
    """
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError(f"cache fraction {lam} must lie in (0, 1)")
    if (3 - 2 * lam) ** 2 >= 5:
        return 1
    if (2 * lam + 1) ** 2 <= 5:
        return 2
    return 3


def middle_weights(t: int) -> tuple[int, int, int]:
    if t % 2 == 0:
        raise ValueError("middle layers exist only for odd t")
    return ((t - 1) // 2, (t + 1) // 2, (t + 3) // 2)


# binom's path rule.  The prime-power product overtakes math.comb at
# j = 370, 420, 510, 580, 800 and 1000 for n = 1000, 2000, 4000, 8000, 16000
# and 32000 (CPython 3.11.7, shared 2-vCPU VM), so comb keeps small j, and
# n far above j, where the product's sieve to n would cost the most.
_COMB_MAX_J = 400
_COMB_MIN_RATIO = 16

# Every prime up to _sieved, ascending; grown (at least doubled) on demand.
_primes: list[int] = [2]
_sieved = 2


def _primes_upto(n: int) -> list[int]:
    """The sorted prime table, grown if needed to hold every prime <= n."""
    global _primes, _sieved
    if n > _sieved:
        limit = max(n, 2 * _sieved)
        flags = bytearray([1]) * (limit + 1)
        flags[:2] = b"\0\0"
        for p in range(2, isqrt(limit) + 1):
            if flags[p]:
                flags[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
        _primes = [p for p, is_prime in enumerate(flags) if is_prime]
        _sieved = limit
    return _primes


def _balanced_product(factors: list[int]) -> int:
    # pairwise rounds keep the operands of each big multiplication alike in size
    while len(factors) > 1:
        paired = list(map(mul, factors[::2], factors[1::2]))
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0]


def _binom_from_primes(n: int, j: int) -> int:
    """C(n, j) for 1 <= j <= n/2 as a product of prime powers, no division.

    The exponent of p is Legendre's sum over i of floor(n/p^i) - floor(j/p^i)
    - floor((n-j)/p^i), which by Kummer counts the carries when j and n - j
    are added in base p.  Only primes up to sqrt(n) need the sum.  Above it n
    has two base-p digits, so there is at most one carry, and it happens
    exactly when j mod p > n mod p.  Above n/2 that reads p > n - j.
    """
    primes = _primes_upto(n)
    root = bisect_right(primes, isqrt(n))
    factors = []
    for p in primes[:root]:
        e, q = 0, p
        while q <= n:
            e += n // q - j // q - (n - j) // q
            q *= p
        if e:
            factors.append(p ** e)
    factors += [p for p in primes[root:bisect_right(primes, n // 2)] if j % p > n % p]
    factors += primes[bisect_right(primes, n - j):bisect_right(primes, n)]
    return _balanced_product(factors)


def binom(n: int, k: int) -> int:
    """C(n, k) with the combinatorial convention: 0 outside 0 <= k <= n.

    With j = min(k, n - k), math.comb computes it when j <= 400 or
    n >= 16 j, and a product of prime powers (`_binom_from_primes`) does
    otherwise.  math.comb recurses through exact big-integer divisions,
    whose cost is quadratic in the digits; the product needs none, but
    it sieves the primes up to n.  Best of 7 on CPython 3.11.7, math.comb
    against the product: n = 8000 takes 2.4 ms against 0.23 ms at
    j = 4000, 0.19 ms against 0.11 ms at j = 1000, and 3.5 us against
    71 us at j = 50; C(16002, 8002) takes 8.5 ms against 0.42 ms.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    j = min(k, n - k)
    if j <= _COMB_MAX_J or n >= _COMB_MIN_RATIO * j:
        return comb(n, j)
    return _binom_from_primes(n, j)


# _binom_next's path rule, from timing the step against binom at n = 500..16000,
# k/n = 0.02..0.98 and n' - n = 4..1280 (CPython 3.11.7, shared 2-vCPU VM).
# The step's cost grows with n' - n, the factor count of its multiplier and
# divisor, and barely with the size of C(n, k).  With j = min(k, n - k) below
# about 600 it overtakes binom at n' - n between j/2 and 4j/5; above that
# binom's cost flattens, and the crossing sits near n' - n = 320, 400 and 500
# for n = 2000, 8000 and 16000.  The rule picked the faster path in 681 of the
# 702 cases; the 21 misses cost 111 us together, the worst 38 us against 18.
_STEP_MIN_RATIO = 2
_STEP_MAX_DN = 320


def _binom_next(prev: tuple[int, int, int], n: int, k: int) -> tuple[int, int, int]:
    """(n, k, C(n, k)) from prev = (n0, k0, C(n0, k0)), for a curve column.

    One exact step gives C(n, k) = C(n0, k0) * n!/n0! // (k!/k0! * (n-k)!/(n0-k0)!),
    each ratio of factorials a falling product from math.perm.  It is taken
    when 0 < n - n0 <= 320 and 2 (n - n0) <= min(k0, n0 - k0), where it is
    cheaper than `binom`, which computes every other case; (0, 0, 1) never
    steps.  The step needs k0 <= k and n0 - k0 <= n - k (math.perm refuses a
    negative length otherwise).  Along a column both hold: lambda lies in
    (0, 1), so t and K - t grow with K, and the window seed's index is
    positive whenever the rule lets a step through.
    """
    n0, k0, c = prev
    dn = n - n0
    if 0 < dn <= _STEP_MAX_DN and _STEP_MIN_RATIO * dn <= min(k0, n0 - k0):
        return n, k, c * perm(n, dn) // (perm(k, k - k0) * perm(n - k, n - k - n0 + k0))
    return n, k, binom(n, k)


def mn_rate_formula(K: int, t: int) -> Fraction:
    return Fraction(K - t, t + 1)


def layer_size(K: int, t: int, w: int) -> int:
    return binom(K // 2, w) * binom(K // 2, t + 1 - w)


def _window_seed(K: int, t: int) -> tuple[int, int]:
    """(m, j) of the binomial C(m, j) that seeds `_binomial_window`."""
    return K // 2 - 1, max((t + 1) // 2 - 2, 0)


def _binomial_window(K: int, t: int, seed: int | None = None) -> dict[int, int]:
    """C(m, j) for m = K/2 - 1 and j = s-2 .. s+1, s = (t+1)/2; 0 outside 0 <= j <= m.

    Every middle-band class size is a product of two of these, and Pascal's rule
    gives the C(K/2, j) of the baseline count.  The seed, the binomial that
    `_window_seed` names, comes from the caller (`ratio_curves` steps it along a
    column) or else from `binom`; exact steps C(m, j+1) = C(m, j) (m-j) / (j+1)
    give the rest.
    """
    m, j = _window_seed(K, t)
    lo = (t + 1) // 2 - 2
    window = dict.fromkeys(range(lo, 0), 0)
    window[j] = c = binom(m, j) if seed is None else seed
    for j in range(j, lo + 3):
        window[j + 1] = c = c * (m - j) // (j + 1)
    return window


def _lap_count(window: dict[int, int], t: int) -> int:
    # C(K/2, w) of the three middle weights, by Pascal's rule
    lo, mid, hi = (window[w] + window[w - 1] for w in middle_weights(t))
    return abs(mid * mid - 2 * lo * hi)


def _improved_count(window: dict[int, int], t: int, regime: int) -> int:
    """The improved unpaired count of a regime from the window's class sizes.

    A class size is a product of two window entries.  Class (LOW, a1, b1)
    has the size of (HIGH, b1, a1), and MID's two mixed classes are equal, so
    each distinct product is computed once, keyed by its unordered index
    pair: at most 6 big multiplications for the regime's 12 classes.
    """
    weight_of = dict(zip((LOW, MID, HIGH), middle_weights(t)))
    products: dict[tuple[int, int], int] = {}

    def class_size(spec: tuple[str, bool, bool]) -> int:
        # holding a_1 (b_1) fills one of the layer's A-side (B-side) slots,
        # so the other slots come from the K/2 - 1 other users of that side
        layer_name, a1, b1 = spec
        w = weight_of[layer_name]
        i, j = w - a1, t + 1 - w - b1
        key = (i, j) if i <= j else (j, i)
        if key not in products:
            products[key] = window[i] * window[j]
        return products[key]

    graphs = REGIME_GRAPH_SPECS[regime]
    n = sum(abs(sum(map(class_size, x)) - sum(map(class_size, y))) for _, x, y in graphs)
    return n + sum(map(class_size, REGIME_STANDALONE[regime]))


def lap_unpaired_count(K: int, t: int) -> int:
    """Middle-band subsets the baseline layer pairing leaves unmatched (odd t only)."""
    return _lap_count(_binomial_window(K, t), t)


def auto_scheme(K: int, t: int) -> str:
    """The construction 'auto' stands for at odd t: improved when its closed
    form leaves fewer subsets unpaired than lap's, lap on a tie.  The
    closed forms are what the matchings leave, since every pair graph is
    biregular and its maximum matching saturates the smaller side."""
    window = _binomial_window(K, t)
    improved = _improved_count(window, t, regime_of_lambda(Fraction(t, K)))
    return SCHEME_IMPROVED if improved < _lap_count(window, t) else SCHEME_LAP


def improved_unpaired_count(K: int, t: int, regime: int | None = None) -> tuple[int, int]:
    """(regime, count) for the improved class pairing, from class cardinalities.

    Each graph of the regime contributes the absolute size difference of its
    two sides (the smaller side saturates); classes outside every graph are
    fully unpaired.
    """
    if regime is None:
        regime = regime_of_lambda(Fraction(t, K))
    return regime, _improved_count(_binomial_window(K, t), t, regime)


# ---------------------------------------------------------------------------
# asymptotes (large-K limits at a fixed cache fraction)

_RATIO_BRANCHES = {
    1: lambda lam: abs(1 - 3 * lam) * (1 - lam) + lam * lam,
    2: lambda lam: abs(2 * lam - 1),
    3: lambda lam: (1 - lam) ** 2 + lam * abs(3 * lam - 2),
}


def ratio_asymptote(lam: Fraction) -> Fraction:
    """Limit of n_i / n: the improved-over-baseline unpaired ratio.  A third
    of it is the limit of the improved unpaired fraction delta' itself."""
    lam = Fraction(lam)
    return _RATIO_BRANCHES[regime_of_lambda(lam)](lam)


# ---------------------------------------------------------------------------
# rates

def three_server_rate(K: int, t: int, delta: Fraction) -> Fraction:
    """Peak per-server rate of the three-server system for unpaired fraction
    delta, exact: half the single-server rate, plus delta/6 of it for odd t.
    Each unpaired subset costs a transmission on two of the three servers
    instead of sharing one three-way pair."""
    base = mn_rate_formula(K, t)
    if t % 2 == 0:
        return base / 2
    return (Fraction(1, 2) + delta / 6) * base


def scheme_delta(K: int, t: int, scheme: str) -> Fraction:
    """The unpaired fraction a scheme leaves, exact; at even t it is 0."""
    if t % 2 == 0:
        return Fraction(0)
    if scheme == SCHEME_AUTO:
        scheme = auto_scheme(K, t)
    if scheme == SCHEME_LAP:
        n = lap_unpaired_count(K, t)
    elif scheme == SCHEME_IMPROVED:
        n = improved_unpaired_count(K, t)[1]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return Fraction(n, comb(K, t + 1))


def rate_theorem(K: int, t: int, scheme: str = SCHEME_IMPROVED) -> Fraction:
    """Peak per-server rate of the three-server system under a scheme, exact."""
    return three_server_rate(K, t, scheme_delta(K, t, scheme))


# ---------------------------------------------------------------------------
# curve data (analytic figure reproduction)

@dataclass(frozen=True)
class CurveRow:
    lam: Fraction
    K: int
    t: int
    regime: int
    n: int
    n_i: int
    ni_over_n: Fraction | None
    asymptote: Fraction
    delta: Fraction
    delta_prime: Fraction


@dataclass(frozen=True)
class SkippedPoint:
    lam: Fraction
    K: int
    reason: str


def _spelled(n: int, limit: int) -> str:
    """n in decimal, or as <d digits> when its d digits are past the
    int-to-text limit (0 for none), so that a reason always prints."""
    m = abs(n)
    if not limit or m.bit_length() <= 3 * limit:  # then at most 0.91 limit + 1 digits
        return str(n)
    digits = int(m.bit_length() * 0.30103)
    while 10 ** digits <= m:
        digits += 1
    while 10 ** (digits - 1) > m:
        digits -= 1
    return f"{'-' if n < 0 else ''}<{digits} digits>" if digits > limit else str(n)


def _binomial_digits(n: int, k: int) -> int:
    """Decimal digits of C(n, k) from log-gamma, rounded up near a power of ten."""
    return int((lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)) / log(10) + 1e-9) + 1


def ratio_curves(
    K_values: list[int], lambdas: list[Fraction]
) -> tuple[list[CurveRow], list[SkippedPoint]]:
    """Rows of the ratio curves over a (lambda, K) grid, lambda-major.

    A grid point is admitted when t = K * lambda is an odd integer in
    [1, K-1] and K is even; everything else is skipped with a reason
    (constructions for even t leave nothing unpaired, so the curves are
    defined for odd t only).  Admission reads lambda's numerator p and
    denominator q: t is integral when q divides K, and then t = (K/q) p.
    A point is also skipped when C(K, t+1), the bound on every integer of
    its row, has more decimal digits than the interpreter converts to text
    (`sys.get_int_max_str_digits`, 0 for none); a number in a skip reason
    that has too many digits to print is spelled by its digit count.

    A row's two big binomials, C(K, t+1) and the seed of its binomial
    window, come from `_binom_next`: stepped from the previous admitted row
    of the same lambda where its K is larger and the step is cheaper, and
    from `binom` otherwise (the first K of a lambda, a falling or repeated
    K, a long step).
    """
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    rows: list[CurveRow] = []
    skipped: list[SkippedPoint] = []
    for lam in lambdas:
        lam = Fraction(lam)
        p, q = lam.numerator, lam.denominator
        regime = None  # with the asymptote, set at the first admitted point
        total = seed = (0, 0, 1)  # (n, k, C(n, k)) of the previous admitted row
        for K in K_values:
            if K % 2 != 0:
                skipped.append(SkippedPoint(lam, K, "K must be even"))
                continue
            if K % q:
                g = gcd(K, q)  # K * lambda in lowest terms, as Fraction spells it
                skipped.append(SkippedPoint(lam, K, f"t = K*lambda = {_spelled(K // g * p, digit_limit)}/"
                                            f"{_spelled(q // g, digit_limit)} not integral"))
                continue
            t = K // q * p
            if not 1 <= t <= K - 1:
                skipped.append(SkippedPoint(lam, K, f"t = {_spelled(t, digit_limit)} outside [1, {K - 1}]"))
                continue
            if t % 2 == 0:
                skipped.append(SkippedPoint(lam, K, f"t = {t} is even"))
                continue
            digits = _binomial_digits(K, t + 1)
            if digit_limit and digits > digit_limit:
                skipped.append(SkippedPoint(lam, K, f"C({K}, {t + 1}) has about {digits} digits, "
                                            f"over the int-to-text limit of {digit_limit}"))
                continue
            if regime is None:
                regime, asymptote = regime_of_lambda(lam), ratio_asymptote(lam)
            total = _binom_next(total, K, t + 1)
            seed = _binom_next(seed, *_window_seed(K, t))
            window = _binomial_window(K, t, seed[2])
            n, n_i = _lap_count(window, t), _improved_count(window, t, regime)
            rows.append(
                CurveRow(
                    lam=lam,
                    K=K,
                    t=t,
                    regime=regime,
                    n=n,
                    n_i=n_i,
                    ni_over_n=Fraction(n_i, n) if n else None,
                    asymptote=asymptote,
                    delta=Fraction(n, total[2]),
                    delta_prime=Fraction(n_i, total[2]),
                )
            )
    return rows, skipped
