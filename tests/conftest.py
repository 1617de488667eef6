import enum
import json
from math import comb
from typing import Collection, Iterable, NamedTuple, Sequence

import pytest

from tricache import analysis, delivery, mn, pairing
from tricache.analysis import SCHEME_AUTO, SCHEME_LAP, auto_scheme
from tricache.pairing import (
    PairGraph,
    build_layers,
    improved_middle_graphs,
    is_effective_pair,
    lap_middle_graph,
    layer_weight,
    outer_graphs,
)
from tricache.system import SERVER_A, SERVER_B, SystemConfig, mask_of, packet, users_of


def mask(*users: int) -> int:
    return mask_of(users)


def pkt(server, file_index, users, K) -> int:
    """The packet int of a segment given as server, file index and user ids."""
    return packet(server, file_index, mask_of(users), K)


def build_graphs(config: SystemConfig, scheme: str) -> list[PairGraph]:
    """Every pairing graph the scheme uses: outer layer pairs, plus for odd t
    the middle construction, with 'auto' resolved by auto_scheme."""
    layers = build_layers(config)
    graphs = list(outer_graphs(config, layers))
    if config.t % 2 == 1:
        if scheme == SCHEME_AUTO:
            scheme = auto_scheme(config.K, config.t)
        if scheme == SCHEME_LAP:
            graphs.append(lap_middle_graph(config, layers))
        else:
            graphs += improved_middle_graphs(config, layers)
    return graphs


def rows(graph: PairGraph) -> list[list[int]]:
    """Every adjacency row of a graph, each built as the matcher's phases
    build one: rows(graph)[i] lists the indices into y of x[i]'s
    neighbours in ascending order."""
    return [pairing._row(links, a) for _, lo, hi, links in pairing._runs(graph) for a in range(lo, hi)]


def orient_pair(s1: int, s2: int, config: SystemConfig) -> tuple[int, int]:
    """Order a pair so the member with more A-side users comes first."""
    if layer_weight(s1, config) >= layer_weight(s2, config):
        return s1, s2
    return s2, s1


def user_can_decode(cache: Collection[int], broadcasts: Iterable[mn.Broadcast], target: int) -> bool:
    """Exact decodability for one cache: is the target's unit vector in the
    GF(2) span of the cached unit vectors plus the received payload vectors?
    It runs the decoder's sweep, with one user, bit 0 of `known`, until it
    reports no change, then the decoder's elimination."""
    if target in cache:
        return True
    rows = list(broadcasts)
    known = {p: int(p in cache) for bc in rows for p in bc.payload}
    while mn._sweep(rows, 1, known):
        pass
    return mn._eliminate(rows, known, 0, [target])[0]


def reference_plan_lines(plan) -> list[str]:
    """Oracle: the plan file as json.dumps spells each record, with payload
    terms sorted as [server, file, users] lists."""
    config = plan.config
    meta = {
        "kind": "meta",
        "K": config.K,
        "M": f"{config.M.numerator}/{config.M.denominator}",
        "N": config.N,
        "t": config.t,
        "scheme": plan.scheme,
        "demand": {str(u): list(plan.demand.of(u)) for u in config.users},
    }
    lines = [json.dumps(meta, sort_keys=True) + "\n"]
    K, low = config.K, (1 << config.K) - 1
    for g in plan.groups:
        for bc in g.broadcasts:
            payload = sorted(
                [SERVER_B if p >> K & 1 else SERVER_A, p >> (K + 1), list(users_of(p & low))]
                for p in bc.payload
            )
            record = {"kind": g.kind, "origin": bc.origin, "payload": payload}
            fields = delivery.GROUPS[g.kind][0]
            record.update((f, list(users_of(m))) for f, m in zip(fields, g.index_sets))
            lines.append(json.dumps(record, sort_keys=True) + "\n")
    return lines


def class_members(config, layers, w, has_a1, has_b1):
    """Oracle: the members of one a_1/b_1 class of layer w, by a full scan of
    the layer, in colex order."""
    a1_bit = 1 << config.users_a[0]
    b1_bit = 1 << config.users_b[0]
    return tuple(
        m
        for m in layers[w].members
        if bool(m & a1_bit) == has_a1 and bool(m & b1_bit) == has_b1
    )


def binom(n: int, k: int) -> int:
    """math.comb with 0 outside 0 <= k <= n: the oracles' own binomial, kept
    apart from the analysis.binom they check."""
    return comb(n, k) if 0 <= k <= n else 0


@pytest.fixture
def fresh_sieve(monkeypatch):
    """analysis's prime table cut back to the prime 2, restored afterwards."""
    monkeypatch.setattr(analysis, "_primes", [2])
    monkeypatch.setattr(analysis, "_sieved", 2)
    return analysis


def four_way_class_size(K: int, t: int, w: int, has_a1: bool, has_b1: bool) -> int:
    """Size of the a_1/b_1 class of layer w in a symmetric system.

    Containing a_1 fixes one of the w A-side slots; the remaining choices on
    each side come from the K/2 - 1 other users.
    """
    m = K // 2 - 1
    a_choices = binom(m, w - 1) if has_a1 else binom(m, w)
    b_choices = binom(m, t - w) if has_b1 else binom(m, t + 1 - w)
    return a_choices * b_choices


def general_class_size(K: int, t: int, w: int, h1: int | None, h2: int | None) -> int:
    """Size of the class whose least A-user has rank h1 and least B-user rank h2.

    A rank of None means the subset has no user on that side, which forces
    w = 0 (A side) or w = t+1 (B side).
    """
    half = K // 2
    if h1 is None:
        a_choices = 1 if w == 0 else 0
    else:
        a_choices = binom(half - h1, w - 1)
    if h2 is None:
        b_choices = 1 if w == t + 1 else 0
    else:
        b_choices = binom(half - h2, t - w)
    return a_choices * b_choices


class Depth(enum.Enum):
    """How finely to split a layer: by membership of a_1/b_1, or by the exact
    least-index A- and B-user."""

    FOUR = "four"
    FULL = "full"


class ClassKey(NamedTuple):
    """h1/h2 are the 1-based ranks of the least A- and B-user in the subset.

    None means the subset has no user on that side.  At Depth.FOUR the value
    2 stands for "rank greater than one", so keys range over {1, 2, None}.
    """

    w: int
    h1: int | None
    h2: int | None


def partition_classes(layer, config, depth: Depth = Depth.FOUR) -> dict[ClassKey, tuple[int, ...]]:
    """Oracle: split a layer into disjoint classes covering it exactly."""
    buckets: dict[ClassKey, list[int]] = {}
    a1_bit = 1 << config.users_a[0]
    for m in layer.members:
        if depth is Depth.FOUR:
            h1 = _four_rank(m, a1_bit, config.mask_a)
            h2 = _four_rank(m, 1 << config.users_b[0], config.mask_b)
        else:
            h1 = _least_rank(m, config.users_a)
            h2 = _least_rank(m, config.users_b)
        buckets.setdefault(ClassKey(layer.w, h1, h2), []).append(m)
    ordered = sorted(buckets, key=lambda key: (key.h1 or 0, key.h2 or 0))
    return {key: tuple(buckets[key]) for key in ordered}


def _four_rank(m: int, first_bit: int, side_mask: int) -> int | None:
    if m & first_bit:
        return 1
    if m & side_mask:
        return 2
    return None


def _least_rank(m: int, side_users: Sequence[int]) -> int | None:
    for rank, u in enumerate(side_users, 1):
        if m >> u & 1:
            return rank
    return None


def vertex_degree(m: int, opposing: Iterable[int], config) -> int:
    """Oracle: brute-force count of effective-pair neighbours inside an
    opposing class."""
    degree = 0
    for other in opposing:
        hi, lo = orient_pair(m, other, config)
        if hi != lo and is_effective_pair(hi, lo, config):
            degree += 1
    return degree


def orientation(graph) -> str:
    """Which side of a pair graph carries the extra A-users: 'x', 'y', or 'mixed'."""
    wx = {layer_weight(m, graph.config) for m in graph.x}
    wy = {layer_weight(m, graph.config) for m in graph.y}
    if not wx or not wy:
        return "mixed"
    if min(wx) > max(wy):
        return "x"
    if max(wx) < min(wy):
        return "y"
    return "mixed"


def list_scan_greedy(adj: Sequence[Sequence[int]], ny: int) -> tuple[list[int], list[int]]:
    """Oracle of the block greedy start: each x in order takes the first
    neighbour in its row that is still free."""
    match_x = [-1] * len(adj)
    match_y = [-1] * ny
    for x, row in enumerate(adj):
        for y in row:
            if match_y[y] == -1:
                match_x[x] = y
                match_y[y] = x
                break
    return match_x, match_y


def list_hopcroft_karp(adj: Sequence[Sequence[int]], match_x: list[int], match_y: list[int]) -> tuple[list[int], list[int]]:
    """Oracle of the matcher's phases: Hopcroft-Karp augmenting phases over
    stored rows from a given partial matching, which they grow in place to
    a maximum one.  The BFS takes the union of a whole layer's rows at a
    time, which gives the same shortest-distance labels as a vertex queue;
    the DFS is the matcher's."""
    nx, ny = len(adj), len(match_y)
    matched = nx - match_x.count(-1)
    infinity = nx + ny + 1
    # Once the smaller side is matched, no phase can find an augmenting path.
    while matched < min(nx, ny):
        dist = [-1] * nx
        layer = [x for x in range(nx) if match_x[x] == -1]
        found_free_y = False
        d = 0
        while layer:
            for x in layer:
                dist[x] = d
            reached = set(map(match_y.__getitem__, set().union(*map(adj.__getitem__, layer))))
            found_free_y |= -1 in reached
            layer = [x for x in reached if x != -1 and dist[x] == -1]
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
    return match_x, match_y


def exhaustive_max_matching_size(graph, *, max_vertices: int = 20, max_edges: int = 60) -> int:
    """Oracle: exact maximum matching size by exhaustive branch-and-bound.

    Guarded to toy sizes; use max_matching beyond them.
    """
    n_vertices = len(graph.x) + len(graph.y)
    n_edges = graph.edge_count()
    if n_vertices > max_vertices or n_edges > max_edges:
        raise ValueError(
            f"exhaustive oracle capped at {max_vertices} vertices / {max_edges} edges, "
            f"got {n_vertices} / {n_edges}"
        )
    adj = rows(graph)

    def best(i: int, used: int) -> int:
        if i == len(adj):
            return 0
        score = best(i + 1, used)  # leave x_i unmatched
        for y in adj[i]:
            if not used >> y & 1:
                score = max(score, 1 + best(i + 1, used | 1 << y))
        return score

    return best(0, 0)
