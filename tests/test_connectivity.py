"""Flow-based connectivity against brute-force routes.

Two independent test-side oracles: minimum edge-deletion search (remove
subsets of edges until s and t separate) and direct side enumeration.
The library's own enumeration oracle is additionally cross-checked
against the flow route, which shares no code with it.
"""

import copy
import time
import tracemalloc
from itertools import combinations

import pytest

from hyperconn import (
    CutResult,
    GuardError,
    Hypergraph,
    HypergraphError,
    SplitMix64,
    affine_hypergraph,
    boundary,
    builtin_corpus,
    degree,
    circulant_graph,
    complete_uniform,
    components,
    cyclic_difference_hypergraph,
    degree_extremes,
    edge_atom,
    edge_connectivity,
    edge_connectivity_oracle,
    glued_complete_family,
    is_connected,
    random_uniform_hypergraph,
    st_edge_connectivity,
    transitivity_generators,
)
from hyperconn import connectivity
from hyperconn.connectivity import _carry_save, _Dinic, _residual_side, _settle, _side_blocks
from hyperconn.constructions import affine_doubled_family
from hyperconn.report import analyze

from helpers import CENSUS, all_min_atom_sides, orbit_union, relabelled, rotates, shift_families


def connects(edges, n, s, t):
    reach = {s}
    frontier = [s]
    while frontier:
        nxt = []
        for e in edges:
            picked = [v for v in e if v in reach]
            if picked:
                for v in e:
                    if v not in reach:
                        reach.add(v)
                        nxt.append(v)
        frontier = nxt
    return t in reach


def removal_st_kappa(H, s, t):
    """Smallest number of edges whose deletion separates s from t."""
    for size in range(H.m + 1):
        for drop in combinations(range(H.m), size):
            kept = [e for i, e in enumerate(H.edges) if i not in drop]
            if not connects(kept, H.n, s, t):
                return size
    raise AssertionError("separation always possible by removing all edges")


def removal_global_kappa(H):
    """Smallest number of edges whose deletion disconnects H."""
    for size in range(H.m + 1):
        for drop in combinations(range(H.m), size):
            kept = tuple(e for i, e in enumerate(H.edges) if i not in drop)
            if len(components(Hypergraph(H.n, kept))) > 1:
                return size
    raise AssertionError("hypergraph cannot be disconnected")


def first_minimum_side(H):
    """(value, side) of the first least boundary over the sides containing
    vertex 0, in increasing mask order, each recounted with ``boundary``."""
    best = None
    for mask in range(1, (1 << H.n) - 1, 2):
        X = tuple(v for v in range(H.n) if mask >> v & 1)
        value = len(boundary(H, set(X)))
        if best is None or value < best[0]:
            best = (value, X)
    return best


def mixed_hypergraph(rng, n, m, pool=None):
    """n vertices, m random edges of 2 to 5 vertices drawn from the first
    ``pool`` vertices (all by default; any others are isolated), and one
    more random 2-edge, repeated."""
    pool = n if pool is None else pool
    edges = [rng.subset(pool, 2 + rng.below(min(pool, 5) - 1)) for _ in range(m)]
    pair = rng.subset(pool, 2)
    return Hypergraph(n, tuple(edges) + (pair, pair))


def path_graph(n):
    return Hypergraph(n, tuple((v, v + 1) for v in range(n - 1)))


def first_strict_minimum(H):
    """Uncapped reference for edge_connectivity: one full st flow per target
    from the lowest-indexed minimum-degree source, keeping the first cut
    that is strictly below every earlier one."""
    degs = [degree(H, v) for v in range(H.n)]
    s = degs.index(min(degs))
    best = None
    for t in range(H.n):
        if t != s:
            cut = st_edge_connectivity(H, s, t)
            if best is None or cut.value < best.value:
                best = cut
    return best


def assert_valid_cut(H, cut):
    side = set(cut.side)
    assert 0 < len(side) < H.n
    assert cut.side == tuple(sorted(side))
    assert frozenset(cut.cut_edges) == boundary(H, side)
    assert cut.value == len(cut.cut_edges)


def test_st_single_edge():
    H = Hypergraph(3, ((0, 1, 2),))
    cut = st_edge_connectivity(H, 0, 1)
    assert cut.value == 1
    assert cut.cut_edges == (0,)
    assert_valid_cut(H, cut)


def test_st_cycle():
    H = circulant_graph(6, (1,))
    cut = st_edge_connectivity(H, 0, 3)
    assert cut.value == 2
    assert cut.value == removal_st_kappa(H, 0, 3)
    assert_valid_cut(H, cut)
    assert 0 in cut.side and 3 not in cut.side


def test_st_affine():
    H = affine_hypergraph(3)
    cut = st_edge_connectivity(H, 0, 1)
    assert cut.value == 3
    assert_valid_cut(H, cut)


def test_st_disconnected_pair():
    H = Hypergraph(4, ((0, 1), (2, 3)))
    cut = st_edge_connectivity(H, 0, 2)
    assert cut.value == 0
    assert cut.cut_edges == ()
    assert 0 in cut.side and 2 not in cut.side


def test_st_validation():
    H = Hypergraph(3, ((0, 1, 2),))
    with pytest.raises(HypergraphError):
        st_edge_connectivity(H, 1, 1)
    with pytest.raises(HypergraphError):
        st_edge_connectivity(H, 0, 7)


def test_st_matches_removal_oracle_random():
    rng = SplitMix64(3)
    for i in range(12):
        n = 3 + rng.below(3)
        k = 2 + rng.below(min(n, 3) - 1)
        H = random_uniform_hypergraph(n, k, 1 + rng.below(7), seed=200 + i)
        for s in range(H.n):
            for t in range(s + 1, H.n):
                cut = st_edge_connectivity(H, s, t)
                assert cut.value == removal_st_kappa(H, s, t), (i, s, t)
                assert s in cut.side and t not in cut.side
                assert_valid_cut(H, cut)


def test_st_deep_path():
    # the augmenting path runs through all 5000 network nodes
    cut = st_edge_connectivity(path_graph(5000), 0, 4999)
    assert cut.value == 1
    assert cut.side == (0,)
    assert cut.cut_edges == (0,)


def test_edge_connectivity_deep_inputs():
    """Long paths, and long sparse cycles whose targets are cheap only
    because each finished target joins the source set and the next flow
    starts from the flow already found."""
    assert edge_connectivity(path_graph(10000)).value == 1
    cycle = edge_connectivity(circulant_graph(10000, (1,)))
    assert (cycle.value, cycle.side) == (2, (0,))
    circulant = edge_connectivity(circulant_graph(2000, (1, 2)))
    assert (circulant.value, circulant.side) == (4, (0,))


def test_edge_connectivity_long_cycle_is_near_linear():
    """A BFS phase resets only the nodes it labelled, so a target on a long
    cycle costs a handful of nodes' work, not the size of the network."""
    start = time.perf_counter()
    cycle = edge_connectivity(circulant_graph(40000, (1,)))
    elapsed = time.perf_counter() - start
    assert (cycle.value, cycle.side) == (2, (0,))
    assert elapsed < 5.0, elapsed


def test_edge_connectivity_matches_uncapped_reference():
    rng = SplitMix64(17)
    checked = with_kappa_one = 0
    seed = 700
    while checked < 50:
        seed += 1
        n = 3 + rng.below(12) if checked < 40 else 21 + rng.below(10)
        k = 2 + rng.below(min(n, 4) - 1)
        H = random_uniform_hypergraph(n, k, n // (k - 1) + rng.below(2 * n), seed=seed)
        if not is_connected(H):
            continue
        cut = edge_connectivity(H)
        assert cut == first_strict_minimum(H), seed
        if n <= 20:
            assert cut.value == edge_connectivity_oracle(H).value, seed
        checked += 1
        with_kappa_one += cut.value == 1
    assert with_kappa_one >= 5
    # mixed edge sizes with a repeated 2-edge: arc pairs and node pairs in one network
    mixed_rng = SplitMix64(29)
    mixed = 0
    while mixed < 30:
        n = 3 + mixed_rng.below(12) if mixed < 25 else 21 + mixed_rng.below(10)
        H = mixed_hypergraph(mixed_rng, n, n // 2 + mixed_rng.below(n))
        if not is_connected(H):
            continue
        cut = edge_connectivity(H)
        assert cut == first_strict_minimum(H), H
        if n <= 20:
            assert cut.value == edge_connectivity_oracle(H).value, H
        mixed += 1
    for name, H in builtin_corpus():
        if not is_connected(H):
            continue
        cut = edge_connectivity(H)
        assert cut == first_strict_minimum(H), name
        if H.n <= 20:
            assert cut.value == edge_connectivity_oracle(H).value, name
    # high kappa: many phases per flow and many paths per phase
    for H, kappa in (
        (complete_uniform(30, 2), 29),
        (glued_complete_family(7, 4), 7),
        (affine_doubled_family(5), 5),
    ):
        cut = edge_connectivity(H)
        assert cut == first_strict_minimum(H), H.n
        assert cut.value == kappa, H.n


def minimal_minimum_sides_by_masks(H):
    """For each target t in index order, skipping the lowest-indexed
    minimum-degree vertex s: lambda(s, t) and the minimal minimum side, the
    intersection of every least-boundary side holding s and not t.  Side
    masks only, no flow."""
    n = H.n
    emasks = [sum(1 << v for v in e) for e in H.edges]
    sizes = [sum(0 < mask & em != em for em in emasks) for mask in range(1 << n)]
    degs = [sum(em >> v & 1 for em in emasks) for v in range(n)]
    s = degs.index(min(degs))
    targets = []
    for t in range(n):
        if t == s:
            continue
        best, meet = H.m + 1, 0
        for mask in range(1 << n):
            if mask >> s & 1 and not mask >> t & 1:
                if sizes[mask] < best:
                    best, meet = sizes[mask], mask
                elif sizes[mask] == best:
                    meet &= mask
        targets.append((best, tuple(v for v in range(n) if meet >> v & 1)))
    return targets


def cluster_tree(rng, n):
    """Vertices 0..n-1 in clusters of 3 or 4 (the first of 3, the last
    maybe smaller), each a clique with one more edge of 3 vertices when it
    has 4; each cluster after the first joins a random earlier one by one
    2- or 3-edge.  When two join the first, which holds the source,
    minimizing targets in different branches have different minimal
    sides."""
    clusters, v = [], 0
    while v < n:
        size = 3 + rng.below(2) if clusters else 3
        clusters.append(list(range(v, min(v + size, n))))
        v += size
    edges = []
    for i, c in enumerate(clusters):
        edges += [(u, w) for k, u in enumerate(c) for w in c[k + 1 :]]
        if len(c) == 4:
            edges.append(tuple(c[:3]))
        if i:
            other = clusters[rng.below(i)]
            joint = (other[rng.below(len(other))], c[rng.below(len(c))])
            edges.append(joint + (c[-1],) if rng.below(2) and c[-1] != joint[1] else joint)
    return Hypergraph(n, tuple(edges))


def test_edge_connectivity_witness_by_side_masks():
    """The witness is the minimal minimum side of the first target reaching
    kappa', found by enumerating side masks.  On the chain of three K4s
    (middle block first), kappa' = 1 < delta = 3 and the two minimizing
    blocks cut off different sides, so the first one is pinned."""
    k4 = lambda b: [(b + i, b + j) for i in range(4) for j in range(i + 1, 4)]
    chain = Hypergraph(12, tuple(k4(0) + k4(4) + k4(8) + [(2, 4), (3, 8)]))
    rng = SplitMix64(41)
    instances = [chain]
    while len(instances) < 60:
        if len(instances) % 3 == 1:
            n = 3 + rng.below(10)
            H = mixed_hypergraph(rng, n, n // 2 + rng.below(n))
        else:
            H = cluster_tree(rng, 9 + rng.below(4))
        if is_connected(H):
            instances.append(H)
    split = 0
    for H in instances:
        targets = minimal_minimum_sides_by_masks(H)
        kappa = min(value for value, _ in targets)
        expected = next(pair for pair in targets if pair[0] == kappa)
        cut = edge_connectivity(H)
        assert (cut.value, cut.side) == expected, H
        split += len({side for value, side in targets if value == kappa}) > 1
    targets = minimal_minimum_sides_by_masks(chain)
    assert targets[3] == (1, (0, 1, 2, 3, 8, 9, 10, 11))  # t = 4
    assert targets[7] == (1, (0, 1, 2, 3, 4, 5, 6, 7))  # t = 8
    assert edge_connectivity(chain).side == targets[3][1]
    assert degree_extremes(chain)[0] == 3
    assert split >= 10, split


def test_st_witness_is_the_minimal_minimum_side():
    """The witness is the intersection of all minimum sides holding s and
    not t (Picard & Queyranne 1980), found here by enumerating the sides."""
    rng = SplitMix64(23)
    instances = []
    for i in range(30):
        n = 2 + rng.below(9)
        k = 2 + rng.below(min(n, 4) - 1)
        instances.append(random_uniform_hypergraph(n, k, 1 + rng.below(2 * n), seed=900 + i))
    for _ in range(15):
        n = 2 + rng.below(9)
        pool = n - rng.below(2) if n > 2 else n
        instances.append(mixed_hypergraph(rng, n, rng.below(2 * n), pool))
    pairs = wider = 0
    for i, H in enumerate(instances):
        n = H.n
        emasks = [sum(1 << v for v in e) for e in H.edges]
        for s in range(n):
            for t in range(n):
                if s == t:
                    continue
                best = None
                meet = join = 0
                for mask in range(1 << n):
                    if not mask >> s & 1 or mask >> t & 1:
                        continue
                    value = sum(1 for em in emasks if em & mask and em & ~mask)
                    if best is None or value < best:
                        best, meet, join = value, mask, mask
                    elif value == best:
                        meet &= mask
                        join |= mask
                cut = st_edge_connectivity(H, s, t)
                assert cut.value == best, (i, s, t)
                assert cut.side == tuple(v for v in range(n) if meet >> v & 1), (i, s, t)
                pairs += 1
                wider += join != meet
    # on many pairs the minimum sides differ, so the choice is pinned
    assert pairs >= 1000 and wider >= 500, (pairs, wider)


def test_edge_connectivity_matches_networkx_on_graphs():
    nx = pytest.importorskip("networkx")
    rng = SplitMix64(19)
    graphs = [circulant_graph(n, (1, 2)) for n in (5, 12, 30)] + [path_graph(9)]
    for i in range(30):
        n = 2 + rng.below(25)
        graphs.append(random_uniform_hypergraph(n, 2, 1 + rng.below(3 * n), seed=800 + i))
    for H in graphs:
        G = nx.Graph()
        G.add_nodes_from(range(H.n))
        G.add_edges_from(H.edges)
        assert G.number_of_edges() == H.m  # no multi-edges collapsed
        assert edge_connectivity(H).value == nx.edge_connectivity(G), H


def gadget_network(H, nx):
    """The classic edge-node network, built in networkx: every edge, a 2-edge
    too, is a node pair joined by a capacity-1 arc, entered from each of its
    vertices and left to each of them by arcs with no capacity bound."""
    G = nx.DiGraph()
    G.add_nodes_from(range(H.n))
    for i, e in enumerate(H.edges):
        G.add_edge(("in", i), ("out", i), capacity=1)
        for v in e:
            G.add_edge(v, ("in", i))
            G.add_edge(("out", i), v)
    return G


def test_st_matches_networkx_on_the_gadget_network():
    """Value and witness of every st flow against networkx on the classic
    network; the witness is the vertices of s's residual reach there."""
    nx = pytest.importorskip("networkx")
    rng = SplitMix64(31)
    instances = [Hypergraph(2, ()), Hypergraph(3, ((0, 1), (0, 1), (0, 1, 2)))]
    for _ in range(40):
        n = 2 + rng.below(11)
        pool = n - rng.below(2) if n > 2 else n
        instances.append(mixed_hypergraph(rng, n, rng.below(2 * n), pool))
    assert sum(not is_connected(H) for H in instances) >= 10
    assert sum(len({v for e in H.edges for v in e}) < H.n for H in instances) >= 10
    assert sum(any(len(e) > 2 for e in H.edges) for H in instances) >= 30
    for H in instances:
        G = gadget_network(H, nx)
        for s in range(H.n):
            for t in range(s + 1, H.n):
                value, flow = nx.maximum_flow(G, s, t)
                reach, stack = {s}, [s]
                while stack:
                    x = stack.pop()
                    arcs = G[x]
                    ahead = [y for y in arcs if flow[x][y] < arcs[y].get("capacity", float("inf"))]
                    back = [y for y in G.predecessors(x) if flow[y][x] > 0]
                    for y in ahead + back:
                        if y not in reach:
                            reach.add(y)
                            stack.append(y)
                cut = st_edge_connectivity(H, s, t)
                assert cut.value == value, (H, s, t)
                assert cut.side == tuple(sorted(v for v in reach if isinstance(v, int))), (H, s, t)


def source_nodes(H, joined):
    """The network nodes of the source set once the vertices in ``joined``
    have joined it: those vertices, and the node pair of every edge of 3 or
    more vertices that all have."""
    nodes = set(joined)
    e_in = H.n
    for e in H.edges:
        if len(e) > 2:
            if joined.issuperset(e):
                nodes |= {e_in, e_in + 1}
            e_in += 2
    return nodes


def assert_consistent_flow(net, base, inside, t, value):
    """Each arc pair keeps its total capacity and none goes negative, flow
    is conserved at every node outside S and t, S sends out the value and
    t takes it in.  Between flows the level list is 0 exactly on S and -1
    elsewhere, and every cursor is 0."""
    size = len(net.adj)
    for a in range(0, len(base), 2):
        assert net.cap[a] + net.cap[a + 1] == base[a] + base[a + 1], a
        assert net.cap[a] >= 0 and net.cap[a + 1] >= 0, a
    out = [sum(base[a] - net.cap[a] for a in net.adj[x]) for x in range(size)]
    assert sum(out[x] for x in inside) == value
    assert out[t] == -value
    assert not any(out[x] for x in range(size) if x != t and x not in inside)
    assert net.level == [0 if x in inside else -1 for x in range(size)]
    assert not any(net.cursor)


def test_max_flow_leaves_a_consistent_residual_network():
    """After a flow, capped or not, from a single source on a new network
    and along a whole warm-started target sequence, where each finished
    target joins the source set and the next flow starts from the flow
    already there."""
    rng = SplitMix64(37)
    multi_unit = warm = closed_pairs = 0
    for _ in range(40):
        n = 2 + rng.below(14)
        H = mixed_hypergraph(rng, n, rng.below(3 * n))
        base = _Dinic(H, 0).cap
        for s in range(n):
            t = rng.below(n - 1)
            t += t >= s
            for limit in (H.m + 1, 1 + rng.below(3)):
                net = _Dinic(H, s)
                value, _ = net.max_flow(t, limit)
                assert_consistent_flow(net, base, {s}, t, value)
                multi_unit += value > 1
        s = rng.below(n)
        net = _Dinic(H, s)
        joined = {s}
        for t in range(n):
            if t == s:
                continue
            inside = source_nodes(H, joined)
            limit = H.m + 1 if rng.below(2) else 1 + rng.below(3)
            value, side = net.max_flow(t, limit)
            assert_consistent_flow(net, base, inside, t, value)
            if side is not None:
                # a side holding S and not t whose boundary is the flow's
                # value: both are optimal
                side = set(_residual_side(H, value, side).side)
                assert joined <= side
                assert t not in side
            warm += value > 1
            net.join(t)
            joined.add(t)
            inside = source_nodes(H, joined)
            assert net.level == [0 if x in inside else -1 for x in range(len(net.adj))]
            assert set(net.frontier) == {
                x for x in inside if any(net.to[a] not in inside for a in net.adj[x])
            }
        closed_pairs += sum(not level for level in net.level[n:])
    assert multi_unit >= 100 and warm >= 100 and closed_pairs >= 300, (multi_unit, warm, closed_pairs)


def test_network_has_a_node_pair_only_for_wide_edges():
    H = Hypergraph(6, ((0, 1), (0, 1), (1, 2, 3), (3, 4), (2, 3, 4, 5)))
    for G in (H, circulant_graph(12, (1, 2))):
        wide = [e for e in G.edges if len(e) > 2]
        net = _Dinic(G, 0)
        assert len(net.adj) == G.n + 2 * len(wide)
        assert len(net.to) == 2 * (G.m - len(wide)) + 2 * sum(1 + 2 * len(e) for e in wide)


def test_lower_bound_never_exceeds_the_max_flow():
    """Along warm target sequences on inputs with repeated 2-edges, where a
    target either joins S with no flow, as a skipped target does, or after a
    capped flow, t's bound is at most the flow a copy of the network finds.
    The flows after skips still leave a consistent residual network."""
    # four 2-edges from t = 0 to its outside neighbour 1, which only two
    # arcs reach from S = {2}: taken per arc, the paths through 1 would
    # count 4, not 2, and the bound would be 6
    H = Hypergraph(3, ((0, 1), (1, 2), (0, 1), (1, 2), (0, 1, 2), (0, 2), (0, 1), (0, 1), (0, 1)))
    net = _Dinic(H, 2)
    assert net.lower_bound(0) == 4
    assert net.max_flow(0, H.m + 1)[0] == 4
    rng = SplitMix64(53)
    targets = tight = skipped = 0
    for _ in range(150):
        n = 2 + rng.below(14)
        H = mixed_hypergraph(rng, n, rng.below(3 * n), pool=max(2, n - rng.below(3)))
        base = _Dinic(H, 0).cap
        s = rng.below(n)
        net = _Dinic(H, s)
        joined = {s}
        for t in range(n):
            if t == s:
                continue
            bound = net.lower_bound(t)
            value, _ = copy.deepcopy(net).max_flow(t, H.m + 1)
            assert bound <= value, (H, s, t, joined)
            targets += 1
            tight += 0 < bound == value
            if rng.below(2):
                skipped += 1
            else:
                limit = 1 + rng.below(value + 1)
                assert_consistent_flow(net, base, source_nodes(H, joined), t, net.max_flow(t, limit)[0])
            net.join(t)
            joined.add(t)
    assert targets >= 1000 and tight >= 400 and skipped >= 400, (targets, tight, skipped)


def test_edge_connectivity_skips_flows_the_bound_certifies(monkeypatch):
    """A target whose bound reaches the best value so far joins the source
    set with no flow, and the witness is still the one separate s-t flows
    give.  The flow counts are ceilings: the planes and the doubled family
    run at most two fifths of their n - 1 flows and the cycle one.  The
    rotation v -> v + 1 is an automorphism of the circulant and of PG(2,5),
    so target 1's flow decides them, also when the caller hands over the
    rotation and its square.  The best value starts at the source's degree,
    so K_30, whose every bound reaches it, and the path, whose source has
    degree 1, run none."""
    cases = (
        (affine_hypergraph(7), 6),
        (affine_hypergraph(11), 10),
        (cyclic_difference_hypergraph(31, (0, 1, 3, 8, 12, 18)), 1),  # PG(2,5)
        (affine_doubled_family(7), 15),
        (circulant_graph(400, (1, 2)), 1),
        (circulant_graph(300, (1,)), 1),
        (complete_uniform(30, 2), 0),
        (path_graph(700), 0),
    )
    flows = []
    run = _Dinic.max_flow
    monkeypatch.setattr(_Dinic, "max_flow", lambda net, t, limit: flows.append(t) or run(net, t, limit))
    for H, ceiling in cases:
        flows.clear()
        cut = edge_connectivity(H)
        assert len(flows) <= ceiling, (H.n, len(flows))
        assert cut == first_strict_minimum(H), H.n
    H = circulant_graph(400, (1, 2))
    rotation = (*range(1, 400), 0)
    square = tuple(rotation[v] for v in rotation)
    plain = edge_connectivity(H)
    flows.clear()
    assert edge_connectivity(H, automorphisms=(rotation, square)) == plain
    assert flows == [1]


def test_edge_connectivity_on_census_counterexamples(monkeypatch):
    """On each census instance the rotation ends the loop after target 1,
    with the cut separate s-t flows give and the oracle's value, whether or
    not its generators are handed over as well.  Relabelled
    copies are not rotation-invariant: they run the plain loop, and with
    their generators the flows of their own, with the same cut."""
    flows = []
    run = _Dinic.max_flow
    monkeypatch.setattr(_Dinic, "max_flow", lambda net, t, limit: flows.append(t) or run(net, t, limit))
    for n, bases, delta, kappa in CENSUS:
        H = orbit_union(n, bases)
        assert degree_extremes(H) == (delta, delta), bases
        flows.clear()
        cut = edge_connectivity(H)
        assert flows == [1], bases
        assert cut.value == kappa, bases
        assert cut == first_strict_minimum(H), bases
        assert cut.value == edge_connectivity_oracle(H).value, bases
        flows.clear()
        assert edge_connectivity(H, automorphisms=transitivity_generators(H)) == cut
        assert flows == [1], bases
        for seed in (1, 2):
            G = relabelled(H, seed)
            assert not rotates(G), (bases, seed)
            cut = edge_connectivity(G)
            assert cut == first_strict_minimum(G), (bases, seed)
            assert cut.value == kappa, (bases, seed)
            assert edge_connectivity(G, automorphisms=transitivity_generators(G)) == cut


def test_automorphisms_give_the_same_cut():
    """Generators from ``transitivity_generators`` change no answer: on every
    transitive corpus, bench and census instance, and on relabelled copies,
    which the rotation does not decide."""
    pg25 = cyclic_difference_hypergraph(31, (0, 1, 3, 8, 12, 18))
    instances = [H for _, H in builtin_corpus() if is_connected(H) and H.n <= 30]
    instances = [H for H in instances if transitivity_generators(H) is not None]
    instances += [
        circulant_graph(100, (1, 2)),
        circulant_graph(400, (1, 2)),
        circulant_graph(300, (1,)),
        circulant_graph(1200, (1,)),
        circulant_graph(60, (1, 2, 5)),
        circulant_graph(100, (1, 3)),
        affine_hypergraph(7),
        affine_hypergraph(11),
        affine_doubled_family(5),
        affine_doubled_family(7),
        glued_complete_family(6, 3),
        glued_complete_family(7, 4),
        complete_uniform(30, 2),
        pg25,
        *(orbit_union(n, bases) for n, bases, _, _ in CENSUS),
    ]
    instances += [relabelled(H, 3) for H in instances if H.n <= 100]
    assert sum(not rotates(H) for H in instances) >= 30
    for H in instances:
        gens = transitivity_generators(H)
        assert gens is not None, H.n
        assert edge_connectivity(H, automorphisms=gens) == edge_connectivity(H), H.n


def test_automorphisms_where_one_generator_reaches_the_minimum(monkeypatch):
    """On the doubled affine family, translations within the grid keep each
    copy (lambda(0, g(0)) = delta) and only the copy swap reaches kappa' =
    k = delta - 1.  The floor is the swap's value, found with or without a
    generator that sends 0 to 1, and the loop still ends on the cut that
    separate s-t flows give."""
    for k in (3, 5, 7):
        H = affine_doubled_family(k)
        q = k * k
        col = tuple(v - v % k + (v + 1) % k for v in range(2 * q))
        row = tuple(v - v % q + (v % q + k) % q for v in range(2 * q))
        swap = tuple((v + q) % (2 * q) for v in range(2 * q))
        assert [st_edge_connectivity(H, 0, p[0]).value for p in (col, row, swap)] == [k + 1, k + 1, k]
        expected = first_strict_minimum(H) if k == 3 else edge_connectivity(H)
        assert expected.value == k
        for autos in ((col, row, swap), (row, swap), (swap, col, row)):
            assert edge_connectivity(H, automorphisms=autos) == expected, (k, autos[0][:3])
        # the translations are two of the input's digit shifts, which join
        # the generators anyway, so handing them over adds no flow
        flows = []
        run = _Dinic.max_flow
        monkeypatch.setattr(_Dinic, "max_flow", lambda net, t, limit: flows.append(t) or run(net, t, limit))
        assert edge_connectivity(H, automorphisms=(col, row)) == expected
        plain = flows[:]
        flows.clear()
        edge_connectivity(H)
        monkeypatch.undo()
        assert plain == flows


def test_certified_floor_caps_the_merged_flows(monkeypatch):
    """Once the digit shifts of glued_complete(7, 4) certify kappa' = 7
    (block translation) below delta = 21, each merged flow is capped at
    kappa' + 1, not at the best value so far: targets 1..6 join with no
    flow, as their bound reaches 8, and target 7 finds the block as its
    side.  Without the cap, every target of the first block ran a flow to
    21.  Target 1, the image of the shift within a block, gets no flow of
    its own: the merged loop's first target is the same flow from {0}, so
    no flow runs twice, on the doubled grid either."""
    limits = []
    run = _Dinic.max_flow
    monkeypatch.setattr(_Dinic, "max_flow", lambda net, t, limit: limits.append((t, limit)) or run(net, t, limit))
    H = glued_complete_family(7, 4)
    cut = edge_connectivity(H)
    assert limits == [(7, 21), (7, 8)]
    assert cut == first_strict_minimum(H) and cut.side == tuple(range(7))
    limits.clear()
    assert edge_connectivity(glued_complete_family(12, 4)).value == 12
    assert limits == [(12, 166), (12, 13)]
    H = affine_doubled_family(5)
    expected = first_strict_minimum(H)
    limits.clear()
    assert edge_connectivity(H) == expected
    # the row shift's and the copy swap's flows, then the merged loop, each
    # capped at delta = 6, which is kappa' + 1 too
    assert limits == [(t, 6) for t in (5, 25, 1, 2, 3, 4, 5, 10, 15, 20, 25)]


@pytest.mark.parametrize(
    "H,kappa,work",
    [
        (affine_doubled_family(5), 5, (11, 24, 1704, 64)),
        (glued_complete_family(7, 4), 7, (2, 6, 714, 14)),
        (circulant_graph(400, (1, 2)), 4, (1, 3, 404, 4)),
        (random_uniform_hypergraph(30, 3, 60, 5), 2, (6, 10, 1080, 12)),
    ],
    ids=["affine_doubled_5", "glued_complete_7_4", "circulant_400_12", "random_30_3_60"],
)
def test_flow_work_is_pinned(monkeypatch, H, kappa, work):
    """The flow engine's work on four instances, as (flows, BFS phases,
    nodes labelled, units pushed): a flow that overruns its cap, a blocking
    flow that does not stop at it, or an edge node that closes late changes
    a count but no answer."""
    counts = [0, 0, 0, 0]
    max_flow, levels, blocking_flow = _Dinic.max_flow, _Dinic._levels, _Dinic._blocking_flow

    def count_flow(net, t, limit):
        counts[0] += 1
        return max_flow(net, t, limit)

    def count_levels(net, t):
        labelled = levels(net, t)
        counts[1] += 1
        counts[2] += len(labelled)
        return labelled

    def count_pushed(net, t, limit):
        pushed = blocking_flow(net, t, limit)
        counts[3] += pushed
        return pushed

    monkeypatch.setattr(_Dinic, "max_flow", count_flow)
    monkeypatch.setattr(_Dinic, "_levels", count_levels)
    monkeypatch.setattr(_Dinic, "_blocking_flow", count_pushed)
    assert edge_connectivity(H).value == kappa
    assert tuple(counts) == work


def test_shift_families_match_the_oracle():
    """On every shift-certified family with n <= 100, and on a relabelled
    copy that the search decides, the flow route with and without
    generators gives the cut that separate s-t flows give, and up to the
    oracle's guard the oracle's value."""
    checked = oracle = 0
    for name, H, shifts in shift_families():
        if H.n > 100:
            continue
        for G in (H, relabelled(H, 5)):
            expected = first_strict_minimum(G)
            if G.n <= 26:
                assert expected.value == edge_connectivity_oracle(G).value, name
                oracle += 1
            for autos in ((), transitivity_generators(G)):
                assert edge_connectivity(G, automorphisms=autos) == expected, name
        assert transitivity_generators(H) == list(shifts), name
        checked += 1
    assert (checked, oracle) == (9, 10)


def test_automorphisms_are_checked():
    H = circulant_graph(8, (1, 2))
    rotation = (*range(1, 8), 0)
    swap = (1, 0, *range(2, 8))
    for autos in ((swap,), (rotation, swap), ((0, 1, 2),), ((0,) * 8,)):
        with pytest.raises(HypergraphError):
            edge_connectivity(H, automorphisms=autos)
    with pytest.raises(HypergraphError):
        edge_connectivity(Hypergraph(4, ((0, 1), (2, 3))), automorphisms=[(1, 2, 0, 3)])
    # automorphisms that fix 0 give no floor and change nothing
    reflection = tuple(-v % 8 for v in range(8))
    assert edge_connectivity(H, automorphisms=[reflection]) == edge_connectivity(H)


def test_edge_connectivity_builds_only_the_networks_it_uses(monkeypatch):
    """No network when the source has degree 1; with generators whose flows
    all reach delta, one network, on which each generator's image of 0 gets
    a flow from no flow, and no merged one; where the generators certify a
    floor below delta, the merged loop runs on that same network.  The
    start cut {s} lists every copy of a multi-edge through s."""
    built = []
    flows = []
    init = _Dinic.__init__
    run = _Dinic.max_flow
    monkeypatch.setattr(_Dinic, "__init__", lambda net, H, s: built.append(s) or init(net, H, s))
    monkeypatch.setattr(_Dinic, "max_flow", lambda net, t, limit: flows.append(t) or run(net, t, limit))
    assert edge_connectivity(path_graph(700)).value == 1
    assert built == []
    H = relabelled(circulant_graph(400, (1, 2)), 5)
    gens = transitivity_generators(H)
    heads = {p[0] for p in gens} - {0}
    built.clear()
    flows.clear()
    assert edge_connectivity(H, automorphisms=gens) == CutResult.from_side(H, (0,))
    assert built == [0] and sorted(flows) == sorted(heads)
    built.clear()
    assert edge_connectivity(glued_complete_family(7, 4)).value == 7
    assert built == [0]
    doubled = Hypergraph(3, ((0, 1), (0, 1), (0, 2), (1, 2), (1, 2)))
    assert edge_connectivity(doubled) == CutResult((0,), (0, 1, 2), 3)
    assert edge_connectivity(doubled) == first_strict_minimum(doubled)


def test_edge_connectivity_examples():
    assert edge_connectivity(Hypergraph(3, ((0, 1, 2),))).value == 1
    assert edge_connectivity(Hypergraph(3, ((0, 1), (1, 2)))).value == 1
    assert edge_connectivity(affine_hypergraph(3)).value == 3
    assert edge_connectivity(complete_uniform(5, 3)).value == 6
    assert edge_connectivity(affine_doubled_family(3)).value == 3


def test_edge_connectivity_matches_removal():
    for H in (complete_uniform(5, 3), circulant_graph(6, (1,)), affine_hypergraph(3)):
        assert edge_connectivity(H).value == removal_global_kappa(H)


def test_edge_connectivity_disconnected():
    H = Hypergraph(4, ((0, 1), (2, 3)))
    cut = edge_connectivity(H)
    assert cut.value == 0
    assert cut.side == (0, 1)
    assert cut.cut_edges == ()
    empty = edge_connectivity(Hypergraph(2, ()))
    assert empty.value == 0
    assert empty.side == (0,)


def test_edge_connectivity_needs_two_vertices():
    with pytest.raises(HypergraphError):
        edge_connectivity(Hypergraph(1, ()))


def test_edge_connectivity_witness_disconnects():
    for name, H in builtin_corpus():
        if not is_connected(H):
            continue
        cut = edge_connectivity(H)
        assert_valid_cut(H, cut)
        kept = tuple(e for i, e in enumerate(H.edges) if i not in set(cut.cut_edges))
        assert len(components(Hypergraph(H.n, kept))) > 1, name


def test_whitney_bound_on_corpus():
    for name, H in builtin_corpus():
        if H.n < 2:
            continue
        delta = degree_extremes(H)[0]
        assert edge_connectivity(H).value <= delta, name


def side_values(H):
    """The kernel's blocks expanded into ``(mask, |boundary|)`` pairs."""
    pairs = []
    for base, sides, counter in _side_blocks(H):
        for p in range(sides.bit_length()):
            if sides >> p & 1:
                value = sum((c >> p & 1) << b for b, c in enumerate(counter))
                pairs.append((base | p << 1 | 1, value))
    return pairs


def test_side_blocks_cover_every_side_once(monkeypatch):
    """Every nonempty proper side containing vertex 0, exactly once, each
    with its boundary size; on the corpus and on random instances with
    multi-edges and isolated vertices.  The kernel promises no order.

    Blocks 1 and 2 vertices wide make the small instances span many blocks;
    one 15-vertex instance spans two blocks at the real width."""
    instances = [H for _, H in builtin_corpus() if H.n <= 12]
    rng = SplitMix64(61)
    for _ in range(60):
        n = 1 + rng.below(10)
        pool = n - rng.below(2) if n > 2 else n  # vertex n - 1 may be isolated
        edges = []
        if pool >= 2:
            for _ in range(rng.below(2 * n)):
                edges.append(rng.subset(pool, 2 + rng.below(min(pool, 4) - 1)))
            if edges:
                edges.append(edges[rng.below(len(edges))])
        instances.append(Hypergraph(n, tuple(edges)))
    assert any(H.n == 1 for H in instances)
    assert any(len(set(H.edges)) < H.m for H in instances)
    assert any(len({v for e in H.edges for v in e}) < H.n for H in instances)
    wide = random_uniform_hypergraph(17, 3, 34, seed=61)
    wide = Hypergraph(17, wide.edges + (wide.edges[0], (3, 16)))

    def check(H):
        pairs = side_values(H)
        masks = {mask for mask, _ in pairs}
        assert len(pairs) == len(masks) == 2 ** (H.n - 1) - 1
        for mask, value in pairs:
            assert mask & 1 and mask != (1 << H.n) - 1
            assert value == len(boundary(H, {v for v in range(H.n) if mask >> v & 1}))

    for width in (1, 2):
        monkeypatch.setattr(connectivity, "_BLOCK_BITS", width)
        assert side_values(Hypergraph(1, ())) == []
        assert side_values(Hypergraph(2, ())) == [(1, 0)]
        assert side_values(Hypergraph(2, ((0, 1), (0, 1)))) == [(1, 2)]
        # the patch reaches the kernel: 2**(n - 1 - width) blocks, not one
        assert sum(1 for _ in _side_blocks(Hypergraph(6, ()))) == 2 ** (5 - width)
        for H in instances:
            check(H)
    monkeypatch.undo()
    assert connectivity._block_width(wide.n) < wide.n - 1  # so it spans several blocks
    check(wide)


def position_counts(counter, width):
    """Each position's count, read from a bit-sliced counter."""
    return [sum((c >> p & 1) << b for b, c in enumerate(counter)) for p in range(width)]


def plane_sums(planes, width):
    """Each position's number of planes holding it, bit by bit."""
    return [sum(x >> p & 1 for x in planes) for p in range(width)]


def test_carry_save_counter_sums_each_position():
    """The carry-save adder and its final ripple give each position the
    number of added planes that hold it: for 0, 1, 2, 3 and 200 planes,
    some empty or full, and from one counter that several blocks copy and
    add to, as the side kernel's fixed edges are.  The counter keeps one
    weight per bit of the largest count."""
    rng = SplitMix64(43)
    width = 64
    full = (1 << width) - 1

    def draw(count):
        return [(0, full, rng.below(1 << width))[min(rng.below(8), 2)] for _ in range(count)]

    for count in (0, 1, 2, 3, 200):
        planes = draw(count)
        pending = _carry_save([], iter(planes))
        assert position_counts(_settle(pending), width) == plane_sums(planes, width), count
        assert len(pending) <= count.bit_length()
    assert position_counts(_settle(_carry_save([], [full] * 200)), width) == [200] * width
    shared = draw(37)
    fixed = _carry_save([], shared)
    kept = fixed[:]
    for _ in range(6):
        more = draw(rng.below(40))
        got = _settle(_carry_save(fixed[:], more))
        assert position_counts(got, width) == plane_sums(shared + more, width)
    assert fixed == kept  # a block adds to its copy only


def test_oracle_memory_stays_flat_in_repeated_edges():
    """The side kernel's counters keep two planes per bit of the largest
    count, not one per edge.  On 17 vertices, two blocks of 2**15 sides and
    4 KB planes, with 4096 repeated edges, half inside vertices 0..15 and
    half reaching vertex 16, the oracle's traced peak stays under 1 MB; a
    list of all crossing planes would hold 16 MB."""
    H = Hypergraph(17, ((0, 5), (3, 16)) * 2048)
    assert connectivity._block_width(H.n) == 15
    tracemalloc.start()
    try:
        result = edge_connectivity_oracle(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.side, result.value) == ((0, 5), 0)
    assert peak < 1 << 20, peak


def test_atom_builds_its_width_tables_once(monkeypatch):
    """The position planes and the held-vertex counter depend only on the
    block width, so twenty atoms at n = 16 build each once: one carry-save
    run for the counter and two per atom in ``_side_blocks`` (the fixed
    edges, then the one block), against 40 plane builds and 80 runs when
    every atom built its own."""
    runs = []

    def counted(pending, planes):
        runs.append(pending)
        return _carry_save(pending, planes)

    monkeypatch.setattr(connectivity, "_carry_save", counted)
    connectivity._position_bits.cache_clear()
    H = circulant_graph(16, (1, 3))
    atoms = {edge_atom(H) for _ in range(20)}
    assert len(atoms) == 1
    assert connectivity._position_bits.cache_info().misses == 1
    assert len(runs) == 41
    # shared across calls, so nothing a caller holds can change them
    assert all(type(t) is tuple for t in connectivity._position_bits(15))


def test_oracle_agreement_on_corpus():
    for name, H in builtin_corpus():
        if H.n > 12:
            continue
        flow = edge_connectivity(H)
        brute = edge_connectivity_oracle(H)
        assert flow.value == brute.value, name
        if brute.value:
            assert_valid_cut(H, brute)


def test_oracle_agreement_random():
    rng = SplitMix64(5)
    for i in range(60):
        n = 2 + rng.below(9)
        k = 2 + rng.below(min(n, 4) - 1)
        H = random_uniform_hypergraph(n, k, 1 + rng.below(2 * n), seed=300 + i)
        flow = edge_connectivity(H)
        brute = edge_connectivity_oracle(H)
        assert flow.value == brute.value, i
        assert flow.value == first_minimum_side(H)[0], i


def test_oracle_witness_is_first_improvement():
    assert edge_connectivity_oracle(circulant_graph(6, (1,))).side == (0,)
    assert edge_connectivity_oracle(complete_uniform(4, 2)).side == (0,)


def test_oracle_witness_is_first_minimum_in_mask_order(monkeypatch):
    """Differential check of the oracle's witness on seeded instances with
    n <= 10, among them disconnected ones with several zero sides,
    multi-edges, isolated vertices and n = 2; at the real block width and
    with blocks 2 vertices wide, so that the witness is chosen across many
    blocks."""
    rng = SplitMix64(73)
    instances = [
        Hypergraph(2, ()),
        Hypergraph(2, ((0, 1),)),
        Hypergraph(2, ((0, 1), (0, 1))),
        Hypergraph(4, ((0, 2),)),
    ]
    for _ in range(80):
        n = 2 + rng.below(9)
        pool = n - rng.below(2) if n > 2 else n  # vertex n - 1 may be isolated
        edges = [rng.subset(pool, 2 + rng.below(min(pool, 4) - 1)) for _ in range(rng.below(2 * n))]
        if edges and rng.below(2):
            edges.append(edges[rng.below(len(edges))])
        instances.append(Hypergraph(n, tuple(edges)))
    assert sum(H.n == 2 for H in instances) >= 5
    assert sum(len(set(H.edges)) < H.m for H in instances) >= 20
    assert sum(len({v for e in H.edges for v in e}) < H.n for H in instances) >= 20
    expected = [first_minimum_side(H) for H in instances]
    several_zeros = sum(
        value == 0 and len(components(H)) > 2 for H, (value, _) in zip(instances, expected)
    )
    assert several_zeros >= 10
    for width in (connectivity._BLOCK_BITS, 2):
        monkeypatch.setattr(connectivity, "_BLOCK_BITS", width)
        for H, (value, side) in zip(instances, expected):
            oracle = edge_connectivity_oracle(H)
            assert (oracle.value, oracle.side) == (value, side), (width, H)


def test_oracle_disconnected_witness():
    H = Hypergraph(4, ((0, 1), (2, 3)))
    res = edge_connectivity_oracle(H)
    assert res.value == 0
    assert res.side == (0, 1)


def test_oracle_guard():
    with pytest.raises(GuardError) as err:
        edge_connectivity_oracle(Hypergraph(27, ()))
    assert "2 <= n <= 26" in str(err.value)
    with pytest.raises(GuardError):
        edge_connectivity_oracle(Hypergraph(1, ()))


def test_edge_atom_examples():
    assert edge_atom(circulant_graph(6, (1,))).side == (0,)
    assert edge_atom(circulant_graph(6, (1,))).value == 2
    assert edge_atom(Hypergraph(3, ((0, 1, 2),))).side == (0,)
    assert edge_atom(affine_hypergraph(3)).side == (0,)
    glued = edge_atom(glued_complete_family(5, 3))
    assert glued.side == (0, 1, 2, 3, 4)
    assert glued.value == 5


def test_edge_atom_canonical_choice(monkeypatch):
    """The atom against brute force, at the real block width and with
    blocks 2 vertices wide, so that it is chosen across many blocks."""
    rng = SplitMix64(9)
    cases = []
    for name, H in builtin_corpus():
        if H.n > 10 or not is_connected(H):
            continue
        cases.append((name, H))
    for i in range(15):
        n = 3 + rng.below(6)
        H = random_uniform_hypergraph(n, 2, n + rng.below(n), seed=400 + i)
        if not is_connected(H):
            continue
        cases.append((i, H))
    checked = 0
    for i in range(40):
        n = 4 + rng.below(7)
        H = random_uniform_hypergraph(n, 3, n + rng.below(n), seed=700 + i)
        if i % 2:  # repeat some edges, so the instance has multi-edges
            extra = tuple(H.edges[rng.below(H.m)] for _ in range(1 + rng.below(3)))
            H = Hypergraph(H.n, H.edges + extra)
        if not is_connected(H):
            continue
        checked += 1
        cases.append((i, H))
    assert checked >= 25
    expected = [all_min_atom_sides(H) for _, H in cases]
    for width in (connectivity._BLOCK_BITS, 2):
        monkeypatch.setattr(connectivity, "_BLOCK_BITS", width)
        for (name, H), (best_value, sides) in zip(cases, expected):
            atom = edge_atom(H)
            assert (atom.value, atom.side) == (best_value, sides[0]), (width, name)
            assert len(atom.side) <= H.n / 2, (width, name)


def test_edge_atom_errors():
    with pytest.raises(HypergraphError) as err:
        edge_atom(Hypergraph(4, ((0, 1), (2, 3))))
    assert "disconnected" in str(err.value)
    big = circulant_graph(27, (1,))
    with pytest.raises(GuardError):
        edge_atom(big)
    # a disconnected input beyond the guard gets the guard's message
    with pytest.raises(GuardError):
        edge_atom(Hypergraph(27, ((0, 1),)))


def test_edge_atom_guard_comes_before_any_walk(monkeypatch):
    """The largest header the parser accepts is refused by the n <= 26 guard
    before is_connected walks its million vertices."""
    walks = []
    monkeypatch.setattr(connectivity, "is_connected", lambda H: walks.append(H.n) or True)
    with pytest.raises(GuardError) as err:
        edge_atom(Hypergraph(1 << 20, ()))
    assert str(err.value) == "atom enumeration requires 2 <= n <= 26, got n=1048576"
    assert walks == []
    # the spy does see the walk of an instance within the guard
    assert edge_atom(Hypergraph(3, ((0, 1), (1, 2)))).value == 1
    assert walks == [3]


def test_maximality():
    """kappa' = delta as `analyze --connectivity` reports it, the value
    `--machine` prints as ``maximal``."""
    for H, maximal in (
        (affine_hypergraph(5), True),
        (complete_uniform(4, 2), True),
        (affine_doubled_family(3), False),
        (glued_complete_family(5, 3), False),
        (Hypergraph(4, ((0, 1), (2, 3))), False),
    ):
        assert analyze(H, connectivity=True).maximal is maximal


def test_connectivity_monotone_under_edge_addition():
    rng = SplitMix64(13)
    grown = 0
    for i in range(25):
        n = 3 + rng.below(6)
        k = 2 + rng.below(min(n, 3) - 1)
        H = random_uniform_hypergraph(n, k, 1 + rng.below(2 * n), seed=600 + i)
        extra = tuple(sorted(rng.subset(n, k)))
        if extra in H.edges:
            continue
        G = Hypergraph(n, H.edges + (extra,))
        assert edge_connectivity(G).value >= edge_connectivity(H).value
        grown += 1
    assert grown >= 10


def test_cut_result_from_side():
    H = circulant_graph(6, (1,))
    cut = CutResult.from_side(H, {5, 0, 1})
    assert cut.side == (0, 1, 5)
    assert cut.value == 2
    with pytest.raises(HypergraphError):
        CutResult.from_side(H, set())
    with pytest.raises(HypergraphError):
        CutResult.from_side(H, set(range(6)))
    # a repeated vertex counts once
    path = Hypergraph(3, ((0, 1), (1, 2)))
    assert CutResult.from_side(path, [0, 0]) == CutResult((0,), (0,), 1)
    assert CutResult.from_side(path, [0, 0, 1]) == CutResult((0, 1), (1,), 1)
