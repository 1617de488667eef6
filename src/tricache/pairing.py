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
each matching as match arrays, whose pairs are spelled only when read.

Subsets in this module are int bitmasks (bit u set = user u present); numeric
order on masks of equal size is exactly colexicographic order, which fixes
the deterministic iteration order used everywhere.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import compress, groupby
from math import comb
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence, Sized

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
    in parts_a and b in parts_b, both lists in colex order.  The block holds
    only its parts; members, built on first read, lists it in colex order,
    which is B-part major since A-side users hold the low bits:
    members[j * len(parts_a) + i] == parts_a[i] | parts_b[j].
    build_layers gives whole layers; restrict gives sub-blocks of them.
    """

    w: int
    parts_a: tuple[int, ...]
    parts_b: tuple[int, ...]

    @cached_property
    def members(self) -> tuple[int, ...]:
        return tuple([a | b for b in self.parts_b for a in self.parts_a])

    def restrict(self, keep_a: Callable[[int], bool], keep_b: Callable[[int], bool]) -> Layer:
        """The sub-block of the kept A-parts times the kept B-parts."""
        return Layer(self.w, tuple(filter(keep_a, self.parts_a)), tuple(filter(keep_b, self.parts_b)))


def build_layers(config: SystemConfig) -> dict[int, Layer]:
    """The layers 0 .. t+1, keyed by weight: layer w is every w-subset of
    the A-side users times every (t+1-w)-subset of the B-side users."""
    t = config.t
    a, b = config.users_a, config.users_b
    return {w: Layer(w, tuple(subset_masks(a, w)), tuple(subset_masks(b, t + 1 - w))) for w in range(t + 2)}


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
    the two sides, kept as the product factors build_pair_graph finds.

    Both sides are in colex order; x_order and y_order give each member's
    position in its side's hull, the blocks' members one after another
    (None when the side is one block).  y_blocks holds each y block's
    (A-part count, B-part count); x_blocks each x block's
    (A-part count, B-part count, links), with one link
    (y block index, rel_a, rel_b) per y block it relates to: rel_a[i] the
    ascending ranks of the y A-parts that x A-part i relates to, rel_b[j]
    those of the y B-parts for x B-part j.  The member (i, j) is joined to
    every y member (p, r) of the block with p in rel_a[i] and r in rel_b[j].
    """

    config: SystemConfig
    label: str
    x: tuple[int, ...]
    y: tuple[int, ...]
    x_order: list[int] | None
    y_order: list[int] | None
    x_blocks: tuple
    y_blocks: tuple

    def edge_count(self) -> int:
        return sum(sum(map(len, rel_a)) * sum(map(len, rel_b))
                   for *_, links in self.x_blocks for _, rel_a, rel_b in links)


def build_pair_graph(
    config: SystemConfig, label: str, x_blocks: Sequence[Layer], y_blocks: Sequence[Layer]
) -> PairGraph:
    """Factor the pairing predicate over the product structure of the blocks.

    Each side is given as disjoint blocks (see Layer).  Members of different
    A-weight pair exactly when the lighter one's A-part lies inside the
    heavier one's and the heavier one's B-part inside the lighter one's, so
    between two blocks the graph is the product of an A-part and a B-part
    containment graph; equal A-weights never pair.  Per pair of an x and a
    y block that relate, the graph keeps one link: per x A-part the
    ascending ranks of the y A-parts it relates to, and per x B-part those
    of the y B-parts (see PairGraph).  The lists come from scans over a few
    hundred parts per block, not from the edges, and no edge is stored:
    rows are built from the links only by the matcher's phases, for the x
    they visit.

    The edges equal an all-pairs scan with is_effective_pair.
    """
    x, x_order = _merged(x_blocks)
    y, y_order = _merged(y_blocks)
    return PairGraph(
        config=config,
        label=label,
        x=x,
        y=y,
        x_order=x_order,
        y_order=y_order,
        x_blocks=tuple(
            (len(xb.parts_a), len(xb.parts_b), tuple(
                (k, _related(xb.parts_a, yb.parts_a, xb.w < yb.w),
                 _related(xb.parts_b, yb.parts_b, xb.w > yb.w))
                for k, yb in enumerate(y_blocks) if yb.members and xb.w != yb.w
            ))
            for xb in x_blocks
        ),
        y_blocks=tuple((len(yb.parts_a), len(yb.parts_b)) for yb in y_blocks),
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


def _row(links: list, a: int) -> list[int]:
    """The adjacency row of the x at A-rank a of a run with these links
    (see _runs): per link, each related segment at each A-rank in
    rel_a[a].  With one link it comes out ascending; with several it is
    sorted."""
    row = [seg[p] for _, rel_a, _, segs in links for seg in segs for p in rel_a[a]]
    return sorted(row) if len(links) > 1 else row


# ---------------------------------------------------------------------------
# graph families per scheme

def outer_graphs(config: SystemConfig, layers: dict) -> Iterator[PairGraph]:
    """Perfectly pairable layer graphs (V_w, V_{t+1-w}) outside the middle
    band, built one at a time as they are drawn."""
    t = config.t
    top = (t - 3) // 2 if t % 2 else t // 2
    for w in range(1, top + 1):
        yield build_pair_graph(config, f"layers-{w}x{t + 1 - w}", [layers[w]], [layers[t + 1 - w]])


def lap_middle_graph(config: SystemConfig, layers: dict) -> PairGraph:
    lo, mid, hi = middle_weights(config.t)
    return build_pair_graph(config, "lap-middle", [layers[lo], layers[hi]], [layers[mid]])


def improved_middle_graphs(
    config: SystemConfig, layers: dict, regime: int | None = None
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
    """Layers served by one data server alone: 0 and t+1, which join the
    middle band only at t = 1."""
    return () if config.t == 1 else (0, config.t + 1)


# ---------------------------------------------------------------------------
# maximum matching

class Matching:
    """A matching held as match arrays: the graph's own sides x and y, not
    copied, and match_x, where match_x[i] is the y-index matched to x[i]
    or -1 (empty when a side is).  len() is the pair count, taken once;
    iterating spells the pairs, built on each read: A-heavy member first,
    sorted by the heavy member.

    The heavy member is the smaller int: its B-part lies strictly inside
    the lighter member's, and B-side users hold the high bits.
    """

    __slots__ = ("x", "y", "match_x", "size")

    def __init__(self, x: Sequence[int], y: Sequence[int], match_x: list[int]):
        self.x, self.y = x, y
        self.size = len(match_x) - match_x.count(-1)
        # An array slot holds the index itself in 4 bytes; a list slot is
        # 8 bytes and points at an int object of its own (32 bytes) for
        # every matched x.
        self.match_x = array("i", match_x)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[tuple[int, int]]:
        y = self.y
        pairs = [(s, t) if s < t else (t, s) for s, j in zip(self.x, self.match_x) if j >= 0 for t in (y[j],)]
        pairs.sort()
        return iter(pairs)


def max_matching(graph: PairGraph) -> Matching:
    """Maximum matching: the greedy start read from the factors, then
    Hopcroft-Karp augmenting phases, unless that start already saturates
    the smaller side (no phase could then find a path).  The phases' BFS
    reads the factors too, and their DFS builds the row of an x the first
    time it visits it, so no row is built for an x it never reaches.

    Returns a Matching: the graph's sides and the final match_x, held as
    match arrays, so that counting its pairs spells none.  Read, its pairs
    come A-heavy member first (the smaller int), sorted by that member;
    ties in the search are broken by colex vertex order.
    """
    x, y = graph.x, graph.y
    if not x or not y:
        return Matching(x, y, [])
    runs = _runs(graph)
    match_x, match_y = _greedy(graph, runs)
    if len(x) - match_x.count(-1) < min(len(x), len(y)):
        _phases(graph, runs, match_x, match_y)
    return Matching(x, y, match_x)


def _greedy(graph: PairGraph, runs: list) -> tuple[list[int], list[int]]:
    """The greedy start: each x, in x order, takes its first free
    neighbour in y order.  runs is _runs(graph).

    One int mask of free A-ranks is kept per y segment (a y block's
    B-part).  Along a run of x that share a B-part, the masks of their
    related segments sit side by side in one window, the p-th at bit
    p << s (2**s is at least every y block's A-part count), and an x's
    want is its A-rank mask repeated at every offset.  The lowest bit of
    `window & want` is then its first free neighbour, since segments and
    A-ranks ascend in y order within a y block.  With several y blocks,
    each block's first hit competes by y-index.
    """
    nx, ny = len(graph.x), len(graph.y)
    match_x, match_y = [-1] * nx, [-1] * ny
    s = max(n_a for n_a, _ in graph.y_blocks).bit_length()
    q, full, bits = (1 << s) - 1, (1 << (1 << s)) - 1, (1).__lshift__
    free = [[(1 << n_a) - 1] * n_b for n_a, n_b in graph.y_blocks]
    wants = [[[sum(map(bits, ranks)) * ones for ranks in rel_a]  # per x block, per link, by A-rank
              for _, rel_a, rel_b in links
              for ones in [sum(map(bits, range(0, max(map(len, rel_b), default=0) << s, 1 << s)))]]
             for *_, links in graph.x_blocks]
    i = 0
    for b, lo, hi, links in runs:
        windows = []  # per link: window, wants, related segments
        for (k, _, qs, segs), link_wants in zip(links, wants[b]):
            window, masks = 0, free[k]
            for p, r in enumerate(qs):
                window |= masks[r] << (p << s)
            windows.append([window, link_wants, segs])
        if len(windows) == 1:
            (window, link_wants, segs), = windows
            for i, want in zip(range(i, i + hi - lo), link_wants[lo:hi]):
                hit = window & want
                if hit:
                    bit = hit & -hit
                    window ^= bit
                    pos = bit.bit_length() - 1
                    match_x[i] = yi = segs[pos >> s][pos & q]
                    match_y[yi] = i
            windows[0][0] = window
        else:
            for i, a in zip(range(i, i + hi - lo), range(lo, hi)):
                hits = []
                for run in windows:
                    hit = run[0] & run[1][a]
                    if hit:
                        bit = hit & -hit
                        pos = bit.bit_length() - 1
                        hits.append((run[2][pos >> s][pos & q], bit, run))
                if hits:
                    yi, bit, run = min(hits)
                    run[0] ^= bit
                    match_x[i] = yi
                    match_y[yi] = i
        i += 1
        for (window, *_), (k, _, qs, _) in zip(windows, links):
            masks = free[k]
            for p, r in enumerate(qs):
                masks[r] = window >> (p << s) & full
    return match_x, match_y


def _runs(graph: PairGraph) -> list[tuple]:
    """x order as runs (x block, first and end A-rank, links) of
    consecutive members of one x block's B-part.  A B-part j has one link
    (y block index, rel_a, rel_b[j], segments of the y B-parts in
    rel_b[j]) per link of its x block (see PairGraph), and its runs share
    the list.  A segment lists the y-indices of a y block's members with
    one B-part by A-rank; rows built from segments share their int
    objects."""
    order, segments, start = graph.y_order, [], 0
    # slots[h] is the y-index of y hull position h: the inverse of y_order
    slots = list(range(len(graph.y))) if order is None else sorted(range(len(order)), key=order.__getitem__)
    for n_a, n_b in graph.y_blocks:
        segments.append([slots[start + r * n_a:start + r * n_a + n_a] for r in range(n_b)])
        start += n_a * n_b
    heads, start = [], 0  # (hull start, x block, links, A-part count) per B-part
    for b, (n_a, n_b, links) in enumerate(graph.x_blocks):
        heads += [(start + j * n_a, b, [(k, rel_a, rel_b[j], list(map(segments[k].__getitem__, rel_b[j])))
                                        for k, rel_a, rel_b in links], n_a) for j in range(n_b) if n_a]
        start += n_a * n_b
    order = graph.x_order
    if order is None:
        return [(b, 0, n_a, links) for _, b, links, n_a in heads]
    runs, k = [], 0
    while k < start:
        h = order[k]
        h0, b, links, n_a = heads[bisect_left(heads, (h + 1,)) - 1]
        # Members of one block keep their relative order, so the rest of
        # the B-part is one run exactly when its last member sits n - 1
        # places on; otherwise a member of another block comes between.
        n = h0 + n_a - h
        if order[k + n - 1] != h + n - 1:
            n = next(m for m in range(1, n) if order[k + m] != h + m)
        runs.append((b, h - h0, h - h0 + n, links))
        k += n
    return runs


def _phases(graph: PairGraph, runs: list, match_x: list[int], match_y: list[int]):
    """Hopcroft-Karp augmenting phases from a given partial matching, which
    they grow in place to a maximum one; runs is _runs(graph).

    The BFS reads the factors.  It groups a layer's x by run (see _runs);
    per link of the run's x block, the OR of their A-rank masks meets one
    int of not yet reached A-ranks per related y segment, and the bits
    that are new there are the y the layer reaches first.  So every y is
    taken once per phase and dist is the shortest-distance labelling of
    the x, as a vertex queue over the rows would give it.  The DFS reads
    rows; _row builds one the first time the DFS visits its x.
    """
    nx, ny = len(match_x), len(match_y)
    matched = nx - match_x.count(-1)
    infinity = nx + ny + 1
    bits = (1).__lshift__
    # per x block, per link, by A-rank: the ranks of the related y A-parts as a mask
    masks = [[[sum(map(bits, ranks)) for ranks in rel_a] for _, rel_a, _ in links] for *_, links in graph.x_blocks]
    spans = []  # per x, one tuple per run: its x block, its links, its first x minus lo
    for b, lo, hi, links in runs:
        spans += [(b, links, len(spans) - lo)] * (hi - lo)
    adj = [None] * nx
    # Once the smaller side is matched, no phase can find an augmenting path.
    while matched < min(nx, ny):
        # BFS layers from the free x, a layer at a time.  A y reached for
        # the first time leads on to its partner, which no earlier layer
        # can hold: a matched x is reached only through its own y.
        dist = [-1] * nx
        unseen = [[(1 << n_a) - 1] * n_b for n_a, n_b in graph.y_blocks]
        layer = [x for x in range(nx) if match_x[x] == -1]
        found_free_y = False
        d = 0
        while layer:
            for x in layer:
                dist[x] = d
            layer.sort()  # a run is a range of consecutive x
            reached = []
            for (b, links, base), xs in groupby(layer, spans.__getitem__):
                ranks = list(map(base.__rsub__, xs))  # x - base: A-ranks
                for (k, _, qs, segs), link_masks in zip(links, masks[b]):
                    mask = reduce(or_, map(link_masks.__getitem__, ranks))
                    unseen_k = unseen[k]
                    for q, seg in zip(qs, segs):
                        new = mask & unseen_k[q]
                        if new:
                            unseen_k[q] ^= new
                            # a byte per bit of new, lowest first, zero where it is clear
                            flags = bin(new)[:1:-1].encode().replace(b"0", b"\0")
                            reached += map(match_y.__getitem__, compress(seg, flags))
            found_free_y |= -1 in reached
            layer = [x for x in reached if x != -1]
            d += 1
        if not found_free_y:
            break
        # One DFS pass along the layering, iterative with per-vertex arc pointers.
        ptr = [0] * nx
        for x0 in range(nx):
            if match_x[x0] != -1:
                continue
            stack = [(x0, -1)]  # (x, matched edge used to reach it)
            while stack:
                x = stack[-1][0]
                row, p, d = adj[x], ptr[x], dist[x] + 1
                if row is None:
                    _, links, base = spans[x]
                    row = adj[x] = _row(links, x - base)
                while p < len(row):
                    y = row[p]
                    p += 1
                    nxt = match_y[y]
                    if nxt == -1:
                        cur = y
                        for fx, fy in reversed(stack):
                            match_x[fx] = cur
                            match_y[cur] = fx
                            cur = fy
                        matched += 1
                        stack = []
                        break
                    if dist[nxt] == d:
                        stack.append((nxt, y))
                        break
                else:
                    dist[x] = infinity  # dead end for this phase
                    stack.pop()
                ptr[x] = p


def match_graphs(graphs: Iterable[PairGraph]) -> list[Matching]:
    """A maximum matching of each graph, checked by check_saturation.  Each
    graph is dropped once matched, so drawn from a generator at most one is
    alive at a time; its Matching keeps only the sides and match_x."""
    matchings = []
    for g in graphs:
        m = max_matching(g)
        check_saturation(g, m)
        matchings.append(m)
        del g  # the loop name would keep it alive while the next one is built
    return matchings


def check_saturation(graph: PairGraph, matching: Sized) -> None:
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
    """Matchings over the middle band for one construction (never 'auto'),
    each held as match arrays (see Matching), and the band: its three
    layers.  The leftovers are computed when read, from the matchings'
    sides and the band's parts, so no pair is spelled and no band layer
    caches its members for them."""

    scheme: str
    matchings: tuple[Matching, ...]
    band: tuple[Layer, ...]

    @cached_property
    def unmatched(self) -> tuple[int, ...]:
        """The band's subsets that no pair covers, in colex order."""
        matched = {v for m in self.matchings for s, j in zip(m.x, m.match_x) if j >= 0 for v in (s, m.y[j])}
        return tuple(sorted(m for layer in self.band for b in layer.parts_b
                            for m in map(b.__or__, layer.parts_a) if m not in matched))


def middle_pairing(config: SystemConfig, scheme: str) -> MiddlePairing:
    """Match the middle band for a scheme.  'auto' matches only the
    construction analysis.auto_scheme picks."""
    if config.t % 2 == 0:
        raise ValueError("the middle band exists only for odd t")
    layers = build_layers(config)
    if scheme == SCHEME_AUTO:
        scheme = auto_scheme(config.K, config.t)
    if scheme == SCHEME_LAP:
        matchings = match_graphs([lap_middle_graph(config, layers)])
    elif scheme == SCHEME_IMPROVED:
        matchings = match_graphs(improved_middle_graphs(config, layers))
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return MiddlePairing(scheme, tuple(matchings), tuple(map(layers.__getitem__, middle_weights(config.t))))


@dataclass(frozen=True)
class UnpairedCount:
    n: int
    delta: Fraction
    scheme: str


def count_unpaired(config: SystemConfig, scheme: str) -> UnpairedCount:
    """Number and ratio of middle-band subsets the scheme's matchings leave
    unpaired.  For 'auto' the one construction auto_scheme picks is matched.

    Each pair covers two subsets and none is covered twice: a matching is
    vertex-disjoint, and so are a regime's graphs, since a class joins at
    most one of them.  So the count is the band's size less twice the pairs.
    """
    pairing = middle_pairing(config, scheme)
    band = sum(len(layer.parts_a) * len(layer.parts_b) for layer in pairing.band)
    n = band - 2 * sum(map(len, pairing.matchings))
    return UnpairedCount(n, Fraction(n, comb(config.K, config.t + 1)), pairing.scheme)
