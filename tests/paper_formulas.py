"""The paper's formulas that no command computes, kept as checked oracles.

The package computes what `simulate`, `verify` and `curves` need.  The
paper states more: single-fraction forms of the improved unpaired counts,
the placement phase, and rates for asymmetric requests and for more than
two data servers.  They live here, where the tests check them against the
package's closed forms and decoders and use them as references.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from tricache.analysis import (
    SCHEME_IMPROVED,
    mn_rate_formula,
    rate_theorem,
    regime_of_lambda,
    scheme_delta,
)
from tricache.system import SERVER_A, SERVER_B, SystemConfig, packet, subset_masks


def improved_count_simplified(K: int, t: int, regime: int | None = None) -> int:
    """The published single-fraction forms of the unpaired counts, used as a
    redundant cross-check of the class-cardinality sums.

    The regime-3 form is evaluated with t+1 (not K) in its middle term; the
    class sums and the step-by-step expansion both fix that coefficient.
    """
    if regime is None:
        regime = regime_of_lambda(Fraction(t, K))
    base = comb(K // 2 - 1, (t + 1) // 2) ** 2
    if regime == 1:
        coeff = Fraction(abs(K - 3 * t - 3), K - t - 1) + Fraction(
            (t + 1) ** 2 * (K - t + 1) * (t + 3) + 8 * K * (t + 1) * (K - t - 1),
            (K - t - 1) ** 2 * (t + 3) * (K - t + 1),
        )
    elif regime == 2:
        coeff = Fraction(K * abs(2 * t + 2 - K), (K - t - 1) ** 2) + Fraction(
            8 * K * (t + 1), (K - t - 1) * (t + 3) * (K - t + 1)
        )
    elif regime == 3:
        coeff = (
            1
            + Fraction((t + 1) * abs(3 * t + 3 - 2 * K), (K - t - 1) ** 2)
            + Fraction(8 * K * (t + 1), (K - t - 1) * (t + 3) * (K - t + 1))
        )
    else:
        raise ValueError(f"unknown regime {regime}")
    value = coeff * base
    if value.denominator != 1:
        raise ArithmeticError(f"simplified count is not integral: {value}")
    return int(value)


# ---------------------------------------------------------------------------
# placement

def files(config: SystemConfig) -> list[tuple[str, int]]:
    """Every file as (server tag, file index): A_1 .. A_{N/2}, then B_1 .. B_{N/2}."""
    half = config.N // 2
    return [(SERVER_A, i) for i in range(1, half + 1)] + [(SERVER_B, i) for i in range(1, half + 1)]


def place_caches(config: SystemConfig) -> dict[int, frozenset[int]]:
    """Cache contents per user: every packet of every file whose subset contains the user.

    Placement is demand independent.  Each cache holds N * C(K-1, t-1)
    packets, i.e. the fraction t/K = M/N of every file.
    """
    tsubs = subset_masks(config.users, config.t)
    every_file = files(config)
    return {
        k: frozenset(
            packet(server, idx, m, config.K) for m in tsubs if m >> k & 1 for server, idx in every_file
        )
        for k in config.users
    }


# ---------------------------------------------------------------------------
# rates beyond the symmetric three-server system

@dataclass(frozen=True)
class AsymmetricRate:
    value: Fraction
    terms_used: int
    terms_skipped: int


def asymmetric_rate(K_A: int, K_B: int, t: int, scheme: str = SCHEME_IMPROVED) -> AsymmetricRate:
    """Peak rate for unequal request counts, evaluated as the printed sum

        sum_{l=0}^{t+1} C(K_A - K_B, l) * R_T(2 K_B, t - l).

    Terms whose inner parameters fall outside the model (t - l not in
    [1, 2 K_B - 1]) are skipped and counted; zero binomials simply vanish.
    """
    if K_A <= K_B:
        raise ValueError("asymmetric rate needs K_A > K_B; use the symmetric path otherwise")
    if K_B < 1:
        raise ValueError("K_B must be at least 1")
    total = Fraction(0)
    used = skipped = 0
    for l in range(t + 2):
        weight = comb(K_A - K_B, l)
        if weight == 0:
            continue
        inner_t = t - l
        if not 1 <= inner_t <= 2 * K_B - 1:
            skipped += 1
            continue
        total += weight * rate_theorem(2 * K_B, inner_t, scheme)
        used += 1
    return AsymmetricRate(value=total, terms_used=used, terms_skipped=skipped)


def multi_server_rate(L: int, K: int, t: int, with_two_parities: bool = False) -> Fraction:
    """Normalized peak rate with L data servers and one parity, or two parities
    over a higher-order field when with_two_parities is set."""
    if L < 2:
        raise ValueError("need at least two data servers")
    if not with_two_parities:
        return Fraction((L - 1) * (K - t), L * (1 + t))
    delta_prime = scheme_delta(K, t, SCHEME_IMPROVED)
    return (Fraction(1, 2) + Fraction(L - 2, 2 * L + 4) * delta_prime) * mn_rate_formula(K, t)


def server_load_for_requests(K: int, t: int, m: int) -> Fraction:
    """Messages a data server transmits when m users request its files, per file."""
    if not 0 <= m <= K:
        raise ValueError("m must lie in [0, K]")
    return Fraction(comb(K, t + 1) - comb(K - m, t + 1), comb(K, t))
