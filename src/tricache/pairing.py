"""Subset layers, effective-pair bipartite graphs, and matchings.

Two (t+1)-subsets form an effective pair when the first one's surplus lies
entirely on the A side and the second one's surplus entirely on the B side:
S1 = Q union Q'_A, S2 = Q union Q'_B with Q shared.  Such a pair lets the
three servers replace two single-server broadcasts with three (one each from
A, B and the parity), so the delivery cost per index set drops from 1 to 1/2
plus a correction for sets no pairing covers.

Layer w collects the (t+1)-subsets with exactly w users on the A side.  For
odd t the three middle layers (t-1)/2, (t+1)/2, (t+3)/2 cannot pair up
perfectly; the baseline construction ("lap") matches the middle layer against
the union of its neighbours, while the improved construction splits each
middle layer into four classes by membership of the first A-user and first
B-user and picks one of three class pairings depending on the cache fraction.

Subsets in this module are int bitmasks (bit u set = user u present); numeric
order on masks of equal size is exactly colexicographic order, which fixes
the deterministic iteration order used everywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb
from typing import Sequence

from .system import SystemConfig, subset_masks

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


# ---------------------------------------------------------------------------
# layers

@dataclass(frozen=True)
class Layer:
    """All (t+1)-subsets with exactly w users on the A side, in colex order."""

    w: int
    members: tuple[int, ...]


def build_layers(config: SystemConfig) -> list[Layer]:
    """Layers 0 .. t+1; requires a symmetric user partition."""
    if not config.is_symmetric:
        raise ValueError("layer construction needs |users_a| == |users_b|")
    t = config.t
    layers = []
    for w in range(t + 2):
        bmasks = subset_masks(config.users_b, t + 1 - w)
        members = [amask | bmask for amask in subset_masks(config.users_a, w) for bmask in bmasks]
        members.sort()
        layers.append(Layer(w=w, members=tuple(members)))
    return layers


def layer_weight(mask: int, config: SystemConfig) -> int:
    return (mask & config.mask_a).bit_count()


# ---------------------------------------------------------------------------
# the pairing predicate

def is_effective_pair(s1: int, s2: int, config: SystemConfig) -> bool:
    """True when s1's surplus is all A-side and s2's surplus all B-side.

    Both masks must have exactly t+1 users; s1 is the A-heavy member.
    """
    size = config.t + 1
    if s1.bit_count() != size or s2.bit_count() != size:
        raise ValueError(f"effective pairs join two subsets of size {size}")
    if s1 == s2:
        return False
    return (s1 & ~s2 & ~config.mask_a) == 0 and (s2 & ~s1 & ~config.mask_b) == 0


def orient_pair(s1: int, s2: int, config: SystemConfig) -> tuple[int, int]:
    """Order a pair so the member with more A-side users comes first."""
    if layer_weight(s1, config) >= layer_weight(s2, config):
        return s1, s2
    return s2, s1


# ---------------------------------------------------------------------------
# graphs

@dataclass(frozen=True, eq=False)
class PairGraph:
    """A bipartite graph whose edges are exactly the effective pairs between
    the two sides.  Both sides are in colex order, and nbrs[i] lists the
    indices into y of x[i]'s neighbours in ascending order, which is colex
    order again.  The A-heavy member of each edge is determined per pair by
    layer weight (a side built from a union of layers can carry both
    directions).  The distinct degrees of each side are recorded while the
    graph is built.
    """

    config: SystemConfig
    label: str
    x: tuple[int, ...]
    y: tuple[int, ...]
    nbrs: list[list[int]]
    x_degrees: frozenset[int]
    y_degrees: frozenset[int]

    def edge_count(self) -> int:
        return sum(map(len, self.nbrs))


def build_pair_graph(
    config: SystemConfig, label: str, x_members: Sequence[int], y_members: Sequence[int]
) -> PairGraph:
    """Materialise adjacency from the product structure of the pairing predicate.

    Members of different A-weight pair exactly when the lighter one's A-part
    lies inside the heavier one's and the heavier one's B-part inside the
    lighter one's, so between two blocks of fixed A-weight the graph is the
    product of an A-part and a B-part containment graph.  Each side is
    split into such blocks.  A y block's product hull lists its A-parts x
    B-parts, B-part major.  Once per y block, every distinct x A-part gets
    the ascending ranks of the y A-parts it relates to, and every x B-part
    the hull segments (one slice per B-part, indexed by A-rank) of the y
    B-parts it relates to; a row is one segment entry per pair of the two.
    When y is one block equal to its hull in colex order, hull positions
    are y-indices and rows come out ascending; otherwise a position list
    maps the hull to y-indices (-1 off y) and each row is filtered and
    sorted.  y degrees come from per-factor counts for every x block that
    is a full product and from its rows for any other.

    The result equals an all-pairs scan with is_effective_pair.
    """
    x = tuple(sorted(x_members))
    y = tuple(sorted(y_members))
    mask_a, mask_b = config.mask_a, config.mask_b
    blocks = _blocks(y, mask_a, mask_b)
    direct = len(blocks) == 1 and blocks[0][3]
    y_blocks = []  # (A-weight, A-parts, B-parts, start in the hull)
    hull = 0
    for w, parts_a, parts_b, _ in blocks:
        y_blocks.append((w, parts_a, parts_b, hull))
        hull += len(parts_a) * len(parts_b)
    # hull position -> y-index, -1 where the hull has no member
    if direct:
        slots = list(range(len(y)))
    else:
        # parts of different blocks differ in size, so one dict per side serves all
        rank_a: dict[int, int] = {}
        rank_b: dict[int, int] = {}
        for _, parts_a, parts_b, start in y_blocks:
            rank_a.update(zip(parts_a, range(len(parts_a))))
            rank_b.update(zip(parts_b, range(start, hull, len(parts_a))))
        where = [rank_b[m & mask_b] + rank_a[m & mask_a] for m in y]
        slots = [-1] * hull
        for j, h in enumerate(where):
            slots[h] = j
    # per y block: x A-part -> related y A-ranks, x B-part -> the hull segments
    # (slot lists indexed by A-rank) of its related y B-parts
    rels: list[tuple[dict, dict]] = [({}, {}) for _ in y_blocks]
    hull_degrees = [0] * hull
    counted = set()  # A-weights of x blocks whose y degrees are counted from rows
    for wx, parts_a, parts_b, full in _blocks(x, mask_a, mask_b):
        if not full:
            counted.add(wx)
        for (wy, y_parts_a, y_parts_b, start), (nbrs_a, nbrs_b) in zip(y_blocks, rels):
            if wy == wx:  # equal A-weights never pair
                nbrs_a.update(dict.fromkeys(parts_a, ()))
                nbrs_b.update(dict.fromkeys(parts_b, ()))
                continue
            n_a = len(y_parts_a)
            segments = [slots[i:i + n_a] for i in range(start, start + n_a * len(y_parts_b), n_a)]
            rel_a = _related(parts_a, y_parts_a, wx < wy)
            rel_b = _related(parts_b, y_parts_b, wx > wy)
            nbrs_a.update(rel_a)
            nbrs_b.update({p: [segments[r] for r in ranks] for p, ranks in rel_b.items()})
            if full:
                count_a = Counter(chain.from_iterable(rel_a.values()))
                for r, n in Counter(chain.from_iterable(rel_b.values())).items():
                    base = start + r * n_a
                    for p, k in count_a.items():
                        hull_degrees[base + p] += n * k
    # Rows reuse the slots' int objects, so edges hold no int of their own.
    if direct:
        (nbrs_a, nbrs_b), = rels
        nbrs = [[seg[p] for seg in nbrs_b[m & mask_b] for p in nbrs_a[m & mask_a]] for m in x]
    else:
        nbrs = [
            sorted([j for nbrs_a, nbrs_b in rels for seg in nbrs_b[m & mask_b]
                    for p in nbrs_a[m & mask_a] if (j := seg[p]) >= 0])
            for m in x
        ]
    y_counts = hull_degrees if direct else [hull_degrees[h] for h in where]
    if counted:
        for m, row in zip(x, nbrs):
            if (m & mask_a).bit_count() in counted:
                for j in row:
                    y_counts[j] += 1
    return PairGraph(
        config=config,
        label=label,
        x=x,
        y=y,
        nbrs=nbrs,
        x_degrees=frozenset(map(len, nbrs)),
        y_degrees=frozenset(y_counts),
    )


def _blocks(side: Sequence[int], mask_a: int, mask_b: int) -> list[tuple[int, list, list, bool]]:
    """A colex-ordered side split by A-weight.  Per block: the weight, the
    distinct A-parts and B-parts in colex order, and whether the block is
    exactly their product in colex order, B-part major."""
    groups: dict[int, list[int]] = {}
    for m in side:
        groups.setdefault((m & mask_a).bit_count(), []).append(m)
    blocks = []
    for w, members in groups.items():
        parts_a = sorted({m & mask_a for m in members})
        parts_b = sorted({m & mask_b for m in members})
        blocks.append((w, parts_a, parts_b, members == [a | b for b in parts_b for a in parts_a]))
    return blocks


def _related(parts: list[int], others: list[int], inside: bool) -> dict[int, list[int]]:
    """For each part, the ascending ranks of the others that it lies inside
    (inside=True) or that lie inside it."""
    if inside:
        return {p: [r for r, q in enumerate(others) if not p & ~q] for p in parts}
    return {p: [r for r, q in enumerate(others) if not q & ~p] for p in parts}


# ---------------------------------------------------------------------------
# graph families per scheme

def outer_graphs(config: SystemConfig, layers: Sequence[Layer]) -> list[PairGraph]:
    """Perfectly pairable layer graphs (V_w, V_{t+1-w}) outside the middle band."""
    t = config.t
    top = (t - 3) // 2 if t % 2 else t // 2
    out = []
    for w in range(1, top + 1):
        out.append(
            build_pair_graph(
                config,
                f"layers-{w}x{t + 1 - w}",
                layers[w].members,
                layers[t + 1 - w].members,
            )
        )
    return out


def lap_middle_graph(config: SystemConfig, layers: Sequence[Layer]) -> PairGraph:
    lo, mid, hi = middle_weights(config.t)
    x = layers[lo].members + layers[hi].members
    return build_pair_graph(config, "lap-middle", x, layers[mid].members)


def improved_middle_graphs(
    config: SystemConfig, layers: Sequence[Layer], regime: int | None = None
) -> list[PairGraph]:
    if regime is None:
        regime = regime_of_lambda(config.lam)
    a1_bit = 1 << config.users_a[0]
    b1_bit = 1 << config.users_b[0]
    # (layer, has a_1, has b_1) -> members in colex order, one pass per layer
    classes: dict[tuple[str, bool, bool], list[int]] = {}
    for name, w in zip((LOW, MID, HIGH), middle_weights(config.t)):
        for m in layers[w].members:
            classes.setdefault((name, m & a1_bit != 0, m & b1_bit != 0), []).append(m)
    graphs = []
    for label, x_specs, y_specs in REGIME_GRAPH_SPECS[regime]:
        x = [m for spec in x_specs for m in classes.get(spec, ())]
        y = [m for spec in y_specs for m in classes.get(spec, ())]
        graphs.append(build_pair_graph(config, label, x, y))
    return graphs


def single_layer_weights(config: SystemConfig) -> tuple[int, ...]:
    """Layers served by one data server alone: 0 and t+1 when not in the middle band."""
    t = config.t
    extremes = (0, t + 1)
    if t % 2 == 0:
        return extremes
    return tuple(w for w in extremes if w not in middle_weights(t))


# ---------------------------------------------------------------------------
# maximum matching

def max_matching(graph: PairGraph) -> list[tuple[int, int]]:
    """Maximum matching via Hopcroft-Karp augmenting phases.

    Returns vertex-disjoint pairs ordered A-heavy first, sorted by the heavy
    member; ties in the search are broken by colex vertex order.
    """
    if not graph.x or not graph.y:
        return []
    match_x, _ = _hopcroft_karp(graph.nbrs, len(graph.y))
    x, y, mask_a = graph.x, graph.y, graph.config.mask_a
    pairs = []
    for s1, yi in zip(x, match_x):
        if yi >= 0:
            s2 = y[yi]
            # orient_pair inline: the member with more A-side users first
            heavy_first = (s1 & mask_a).bit_count() >= (s2 & mask_a).bit_count()
            pairs.append((s1, s2) if heavy_first else (s2, s1))
    pairs.sort()
    return pairs


def _hopcroft_karp(adj: list[list[int]], ny: int) -> tuple[list[int], list[int]]:
    nx = len(adj)
    match_x = [-1] * nx
    match_y = [-1] * ny
    matched = 0
    for x in range(nx):
        for y in adj[x]:
            if match_y[y] == -1:
                match_x[x] = y
                match_y[y] = x
                matched += 1
                break
    infinity = nx + ny + 1
    # Once the smaller side is matched, no phase can find an augmenting path.
    while matched < min(nx, ny):
        # BFS layers from free x-vertices.
        dist = [-1] * nx
        queue = [x for x in range(nx) if match_x[x] == -1]
        for x in queue:
            dist[x] = 0
        found_free_y = False
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for y in adj[x]:
                nxt = match_y[y]
                if nxt == -1:
                    found_free_y = True
                elif dist[nxt] == -1:
                    dist[nxt] = dist[x] + 1
                    queue.append(nxt)
        if not found_free_y:
            break
        # One DFS pass along the layering, iterative with per-vertex arc pointers.
        ptr = [0] * nx
        for x0 in range(nx):
            if match_x[x0] != -1:
                continue
            stack: list[tuple[int, int]] = [(x0, -1)]  # (x, matched edge used to reach it)
            while stack:
                x, _ = stack[-1]
                advanced = False
                while ptr[x] < len(adj[x]):
                    y = adj[x][ptr[x]]
                    ptr[x] += 1
                    nxt = match_y[y]
                    if nxt == -1:
                        cur = y
                        for fx, fy in reversed(stack):
                            match_x[fx] = cur
                            match_y[cur] = fx
                            cur = fy
                        matched += 1
                        stack = []
                        advanced = True
                        break
                    if dist[nxt] == dist[x] + 1:
                        stack.append((nxt, y))
                        advanced = True
                        break
                if not advanced:
                    dist[x] = infinity  # dead end for this phase
                    stack.pop()
    return match_x, match_y


def match_graphs(graphs: Sequence[PairGraph]) -> list[tuple[tuple[int, int], ...]]:
    """A maximum matching of each graph, checked by check_saturation."""
    matchings = []
    for g in graphs:
        m = max_matching(g)
        check_saturation(g, m)
        matchings.append(tuple(m))
    return matchings


def check_saturation(graph: PairGraph, matching: Sequence[tuple[int, int]]) -> None:
    """On biregular graphs a maximum matching must saturate the smaller side
    (Hall's condition holds when every vertex of one side has the same degree);
    raise if the matcher ever violates that."""
    if not graph.x or not graph.y:
        return
    x_deg, y_deg = graph.x_degrees, graph.y_degrees
    if len(x_deg) == 1 and len(y_deg) == 1 and min(x_deg) > 0 and min(y_deg) > 0:
        expected = min(len(graph.x), len(graph.y))
        if len(matching) != expected:
            raise RuntimeError(
                f"graph {graph.label}: biregular sides must saturate the smaller "
                f"side ({expected}), matcher found {len(matching)}"
            )


# ---------------------------------------------------------------------------
# unpaired accounting

@dataclass(frozen=True)
class MiddlePairing:
    """Matchings over the middle band plus the leftovers, for one scheme."""

    scheme: str
    graphs: tuple[PairGraph, ...]
    matchings: tuple[tuple[tuple[int, int], ...], ...]
    unmatched: tuple[int, ...]


def middle_pairing(
    config: SystemConfig, scheme: str, layers: Sequence[Layer] | None = None
) -> MiddlePairing:
    """Match the middle band for a scheme and collect the unmatched subsets."""
    if config.t % 2 == 0:
        raise ValueError("the middle band exists only for odd t")
    if layers is None:
        layers = build_layers(config)
    if scheme == SCHEME_AUTO:
        # The one place that resolves 'auto': the construction leaving fewer
        # subsets unpaired, lap on a tie.
        lap = middle_pairing(config, SCHEME_LAP, layers)
        improved = middle_pairing(config, SCHEME_IMPROVED, layers)
        return improved if len(improved.unmatched) < len(lap.unmatched) else lap
    if scheme == SCHEME_LAP:
        graphs = [lap_middle_graph(config, layers)]
    elif scheme == SCHEME_IMPROVED:
        graphs = improved_middle_graphs(config, layers)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    matchings = match_graphs(graphs)
    matched = {s for m in matchings for pair in m for s in pair}
    middle = (m for w in middle_weights(config.t) for m in layers[w].members)
    unmatched = tuple(sorted(m for m in middle if m not in matched))
    return MiddlePairing(
        scheme=scheme,
        graphs=tuple(graphs),
        matchings=tuple(matchings),
        unmatched=unmatched,
    )


@dataclass(frozen=True)
class UnpairedCount:
    n: int
    delta: Fraction
    scheme: str


def count_unpaired(config: SystemConfig, scheme: str) -> UnpairedCount:
    """Number and ratio of middle-band subsets the scheme's matchings leave
    unpaired.  For 'auto' the cheaper of the two constructions is reported."""
    pairing = middle_pairing(config, scheme)
    n = len(pairing.unmatched)
    return UnpairedCount(
        n=n,
        delta=Fraction(n, comb(config.K, config.t + 1)),
        scheme=pairing.scheme,
    )
