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
The class layout, the regime rule and the choice behind 'auto' come from
analysis; this module builds the graphs, matches each one, and hands back
only its pairs.

Subsets in this module are int bitmasks (bit u set = user u present); numeric
order on masks of equal size is exactly colexicographic order, which fixes
the deterministic iteration order used everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .analysis import (
    HIGH,
    LOW,
    MID,
    REGIME_GRAPH_SPECS,
    SCHEME_AUTO,
    SCHEME_IMPROVED,
    SCHEME_LAP,
    auto_scheme,
    middle_weights,
    regime_of_lambda,
)
from .system import SystemConfig, subset_masks

# ---------------------------------------------------------------------------
# layers

@dataclass(frozen=True)
class Layer:
    """A block of (t+1)-subsets with w users on the A side: every a | b for a
    in parts_a and b in parts_b, both lists in colex order.  A-side users
    hold the low bits, so members, the block in colex order, is B-part
    major: members[j * len(parts_a) + i] == parts_a[i] | parts_b[j].
    build_layers gives whole layers; restrict gives sub-blocks of them.
    """

    w: int
    parts_a: tuple[int, ...]
    parts_b: tuple[int, ...]
    members: tuple[int, ...]

    def restrict(self, keep_a: Callable[[int], bool], keep_b: Callable[[int], bool]) -> Layer:
        """The sub-block of the kept A-parts times the kept B-parts.  Its
        members are this block's int objects, not copies."""
        ranks_a = [i for i, a in enumerate(self.parts_a) if keep_a(a)]
        ranks_b = [j for j, b in enumerate(self.parts_b) if keep_b(b)]
        n, members = len(self.parts_a), self.members
        return Layer(
            w=self.w,
            parts_a=tuple(self.parts_a[i] for i in ranks_a),
            parts_b=tuple(self.parts_b[j] for j in ranks_b),
            members=tuple([members[base + i] for base in [j * n for j in ranks_b] for i in ranks_a]),
        )


def build_layers(config: SystemConfig) -> list[Layer]:
    """Layers 0 .. t+1: layer w is every w-subset of the A-side users times
    every (t+1-w)-subset of the B-side users."""
    t = config.t
    layers = []
    for w in range(t + 2):
        parts_a = tuple(subset_masks(config.users_a, w))
        parts_b = tuple(subset_masks(config.users_b, t + 1 - w))
        members = tuple([a | b for b in parts_b for a in parts_a])
        layers.append(Layer(w=w, parts_a=parts_a, parts_b=parts_b, members=members))
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


# ---------------------------------------------------------------------------
# graphs

@dataclass(frozen=True, eq=False)
class PairGraph:
    """A bipartite graph whose edges are exactly the effective pairs between
    the two sides.  Both sides are in colex order, and nbrs[i] lists the
    indices into y of x[i]'s neighbours in ascending order, which is colex
    order again.  The A-heavy member of each edge is determined per pair by
    layer weight (a side built from a union of layers can carry both
    directions).
    """

    config: SystemConfig
    label: str
    x: tuple[int, ...]
    y: tuple[int, ...]
    nbrs: list[list[int]]

    def edge_count(self) -> int:
        return sum(map(len, self.nbrs))


def build_pair_graph(
    config: SystemConfig, label: str, x_blocks: Sequence[Layer], y_blocks: Sequence[Layer]
) -> PairGraph:
    """Materialise adjacency from the product structure of the pairing predicate.

    Each side is given as disjoint blocks (see Layer).  Members of different
    A-weight pair exactly when the lighter one's A-part lies inside the
    heavier one's and the heavier one's B-part inside the lighter one's, so
    between two blocks the graph is the product of an A-part and a B-part
    containment graph; equal A-weights never pair.  The hull of y is its
    blocks' members one after another.  Per pair of an x and a y block,
    every x A-part gets the ascending ranks of the y A-parts it relates to,
    and every x B-part the hull segments (one slice per y B-part, indexed
    by A-rank) of the y B-parts it relates to; a row is one segment entry
    per pair of the two.  With one y block the hull is y and rows come out
    ascending; with several, a position list maps the hull to y-indices and
    each row is sorted.

    The result equals an all-pairs scan with is_effective_pair.
    """
    x, x_order = _merged(x_blocks)
    y, y_order = _merged(y_blocks)
    # hull position -> y-index
    slots = list(range(len(y)))
    if y_order is not None:
        for j, h in enumerate(y_order):
            slots[h] = j
    rows = []
    for xb in x_blocks:
        rels = []  # per related y block: y A-ranks per x A-part, y segments per x B-part
        start = 0
        for yb in y_blocks:
            n_a = len(yb.parts_a)
            size = n_a * len(yb.parts_b)
            if size and xb.w != yb.w:
                segments = [slots[i:i + n_a] for i in range(start, start + size, n_a)]
                rel_a = _related(xb.parts_a, yb.parts_a, xb.w < yb.w)
                rel_b = _related(xb.parts_b, yb.parts_b, xb.w > yb.w)
                rels.append((rel_a, [[segments[r] for r in ranks] for ranks in rel_b]))
            start += size
        # Rows in member order, B-part major; they reuse the slots' int
        # objects, so edges hold no int of their own.
        if len(y_blocks) == 1 and rels:
            (ranks_a, segs_b), = rels
            rows += [[seg[p] for seg in segs for p in ranks] for segs in segs_b for ranks in ranks_a]
        else:
            rows += [
                sorted([seg[p] for ranks_a, segs_b in rels for seg in segs_b[j] for p in ranks_a[i]])
                for j in range(len(xb.parts_b)) for i in range(len(xb.parts_a))
            ]
    return PairGraph(
        config=config,
        label=label,
        x=x,
        y=y,
        nbrs=rows if x_order is None else [rows[h] for h in x_order],
    )


def _merged(blocks: Sequence[Layer]) -> tuple[tuple[int, ...], list[int] | None]:
    """A side's members in colex order, and the hull positions in that order
    (None when the side is one block, whose members are already in order)."""
    if len(blocks) == 1:
        return blocks[0].members, None
    hull = [m for block in blocks for m in block.members]
    order = sorted(range(len(hull)), key=hull.__getitem__)
    return tuple([hull[h] for h in order]), order


def _related(parts: Sequence[int], others: Sequence[int], inside: bool) -> list[list[int]]:
    """For each part, the ascending ranks of the others that it lies inside
    (inside=True) or that lie inside it."""
    if inside:
        return [[r for r, q in enumerate(others) if not p & ~q] for p in parts]
    return [[r for r, q in enumerate(others) if not q & ~p] for p in parts]


# ---------------------------------------------------------------------------
# graph families per scheme

def outer_graphs(config: SystemConfig, layers: Sequence[Layer]) -> Iterator[PairGraph]:
    """Perfectly pairable layer graphs (V_w, V_{t+1-w}) outside the middle
    band, built one at a time as they are drawn."""
    t = config.t
    top = (t - 3) // 2 if t % 2 else t // 2
    for w in range(1, top + 1):
        yield build_pair_graph(config, f"layers-{w}x{t + 1 - w}", [layers[w]], [layers[t + 1 - w]])


def lap_middle_graph(config: SystemConfig, layers: Sequence[Layer]) -> PairGraph:
    lo, mid, hi = middle_weights(config.t)
    return build_pair_graph(config, "lap-middle", [layers[lo], layers[hi]], [layers[mid]])


def improved_middle_graphs(
    config: SystemConfig, layers: Sequence[Layer], regime: int | None = None
) -> Iterator[PairGraph]:
    """The regime's class graphs (REGIME_GRAPH_SPECS), built one at a time as
    they are drawn."""
    if regime is None:
        regime = regime_of_lambda(config.lam)
    a1_bit = 1 << config.users_a[0]
    b1_bit = 1 << config.users_b[0]
    weights = dict(zip((LOW, MID, HIGH), middle_weights(config.t)))

    def block(name: str, has_a1: bool, has_b1: bool) -> Layer:
        """One a_1/b_1 class: its layer's A-parts and B-parts filtered by a_1 and b_1."""
        return layers[weights[name]].restrict(
            lambda a: (a & a1_bit != 0) == has_a1, lambda b: (b & b1_bit != 0) == has_b1
        )

    for label, x_specs, y_specs in REGIME_GRAPH_SPECS[regime]:
        yield build_pair_graph(config, label, [block(*c) for c in x_specs],
                               [block(*c) for c in y_specs])


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
            # the member with more A-side users first
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


def match_graphs(graphs: Iterable[PairGraph]) -> list[tuple[tuple[int, int], ...]]:
    """A maximum matching of each graph, checked by check_saturation.  Each
    graph is dropped once matched, so drawn from a generator at most one is
    alive at a time."""
    matchings = []
    for g in graphs:
        m = max_matching(g)
        check_saturation(g, m)
        matchings.append(tuple(m))
        del g  # the loop name would keep it alive while the next one is built
    return matchings


def check_saturation(graph: PairGraph, matching: Sequence[tuple[int, int]]) -> None:
    """Raise unless the matching saturates the graph's smaller side.  Every
    graph the schemes build is biregular with no isolated vertex (or has an
    empty side), so a maximum matching does (Hall's condition holds; König
    1916), and the closed forms in analysis count on that."""
    expected = min(len(graph.x), len(graph.y))
    if len(matching) != expected:
        raise RuntimeError(
            f"graph {graph.label}: a maximum matching must saturate the smaller "
            f"side ({expected}), matcher found {len(matching)}"
        )


# ---------------------------------------------------------------------------
# unpaired accounting

@dataclass(frozen=True)
class MiddlePairing:
    """Matchings over the middle band and its leftovers, for one construction (never 'auto')."""

    scheme: str
    matchings: tuple[tuple[tuple[int, int], ...], ...]
    unmatched: tuple[int, ...]


def middle_pairing(
    config: SystemConfig, scheme: str, layers: Sequence[Layer] | None = None
) -> MiddlePairing:
    """Match the middle band for a scheme and collect the unmatched subsets.
    'auto' matches only the construction analysis.auto_scheme picks."""
    if config.t % 2 == 0:
        raise ValueError("the middle band exists only for odd t")
    if layers is None:
        layers = build_layers(config)
    if scheme == SCHEME_AUTO:
        scheme = auto_scheme(config.K, config.t)
    if scheme == SCHEME_LAP:
        matchings = match_graphs([lap_middle_graph(config, layers)])
    elif scheme == SCHEME_IMPROVED:
        matchings = match_graphs(improved_middle_graphs(config, layers))
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    matched = {s for m in matchings for pair in m for s in pair}
    middle = (m for w in middle_weights(config.t) for m in layers[w].members)
    unmatched = tuple(sorted(m for m in middle if m not in matched))
    return MiddlePairing(scheme=scheme, matchings=tuple(matchings), unmatched=unmatched)


@dataclass(frozen=True)
class UnpairedCount:
    n: int
    delta: Fraction
    scheme: str


def count_unpaired(config: SystemConfig, scheme: str) -> UnpairedCount:
    """Number and ratio of middle-band subsets the scheme's matchings leave
    unpaired.  For 'auto' the one construction auto_scheme picks is matched."""
    pairing = middle_pairing(config, scheme)
    n = len(pairing.unmatched)
    return UnpairedCount(
        n=n,
        delta=Fraction(n, comb(config.K, config.t + 1)),
        scheme=pairing.scheme,
    )
