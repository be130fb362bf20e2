"""Automorphism search against exhaustive permutation enumeration.

The brute oracle tries all n! permutations for n <= 8, so every engine
result on small instances is checked against ground truth.
"""

import gc
import inspect
import sys
import time
import weakref
from collections import Counter
from itertools import combinations, permutations

import pytest

from hyperconn import (
    CapExceededError,
    Hypergraph,
    HypergraphError,
    SplitMix64,
    affine_hypergraph,
    builtin_corpus,
    circulant_graph,
    complete_uniform,
    cyclic_difference_hypergraph,
    degree,
    edge_atom,
    edge_connectivity,
    enumerate_automorphisms,
    find_automorphism_mapping,
    glued_complete_family,
    is_automorphism,
    is_block_of_imprimitivity,
    is_vertex_transitive,
    random_uniform_hypergraph,
    serialize_hypergraph,
    transitivity_generators,
)
from hyperconn import connectivity, symmetry
from hyperconn.cli import main
from hyperconn.constructions import affine_doubled_family
from hyperconn.report import analyze
from hyperconn.symmetry import _tables

from helpers import CENSUS, orbit_union, relabelled, rotates, run_cli, shift_families

PATH_3 = Hypergraph(3, ((0, 1), (1, 2)))
MATCHING_4 = Hypergraph(4, ((0, 1), (2, 3)))


def brute_automorphisms(H):
    assert H.n <= 8
    target = Counter(H.edges)
    found = []
    for p in permutations(range(H.n)):
        mapped = Counter(tuple(sorted(p[v] for v in e)) for e in H.edges)
        if mapped == target:
            found.append(p)
    return sorted(found)


def orbit_partition(n, perms):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in perms:
        for v in range(n):
            ra, rb = find(v), find(p[v])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def test_is_automorphism_examples():
    assert is_automorphism(PATH_3, (2, 1, 0))
    assert is_automorphism(PATH_3, (0, 1, 2))
    assert not is_automorphism(PATH_3, (1, 0, 2))
    with pytest.raises(HypergraphError):
        is_automorphism(PATH_3, (0, 1))
    with pytest.raises(HypergraphError):
        is_automorphism(PATH_3, (0, 0, 1))


def test_find_automorphism_mapping():
    p = find_automorphism_mapping(PATH_3, 0, 2)
    assert p == (2, 1, 0)
    assert find_automorphism_mapping(PATH_3, 0, 1) is None
    q = find_automorphism_mapping(PATH_3, 1, 1)
    assert q is not None and q[1] == 1
    with pytest.raises(HypergraphError):
        find_automorphism_mapping(PATH_3, 0, 5)


def test_search_deep_inputs(tmp_path, capsys, monkeypatch):
    """One search level per vertex, so a recursive search would overflow.
    The rotation decides the plain 5000-vertex cycle with no search, so a
    copy under a random relabelling, which the rotation does not fix,
    carries the search through every level."""
    limit = sys.getrecursionlimit()
    searches = []
    run = symmetry._search
    monkeypatch.setattr(symmetry, "_search", lambda H, fix: searches.append(fix) or run(H, fix))
    C = circulant_graph(5000, (1,))
    G = relabelled(C, 11)
    assert not rotates(G)
    for H, searched in ((C, False), (G, True)):
        searches.clear()
        path = tmp_path / "cycle_5000.hg"
        path.write_text(serialize_hypergraph(H))
        assert main(["analyze", str(path), "--transitivity", "--machine"]) == 0
        got = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert got["transitive"] == "true"
        assert bool(searches) == searched
    P = Hypergraph(5000, tuple((v, v + 1) for v in range(4999)))
    assert find_automorphism_mapping(P, 0, 4999) == tuple(range(4999, -1, -1))
    assert find_automorphism_mapping(P, 1, 2) is None
    assert sys.getrecursionlimit() == limit


def test_search_deep_affine_planes():
    """A wrong early image on affine_11 and affine_13 is refuted within a few
    forced levels, so both finish well inside tier-1's time."""
    assert is_vertex_transitive(affine_hypergraph(13))
    H = affine_hypergraph(11)
    p = find_automorphism_mapping(H, 0, 11)
    assert p is not None and p[0] == 11 and is_automorphism(H, p)


def test_find_mapping_matches_networkx_isomorphism():
    """A mapping u -> v exists exactly when the vertex-edge incidence graph
    with u marked is isomorphic to the one with v marked."""
    nx = pytest.importorskip("networkx")
    rng = SplitMix64(31)
    found = refuted = with_multi = with_isolated = 0
    for _ in range(40):
        n = 1 + rng.below(12)
        edges = []
        if n >= 2:
            for _ in range(rng.below(2 * n + 1)):
                edges.append(rng.subset(n, 2 + rng.below(min(n, 4) - 1)))
            if edges and rng.below(3) == 0:
                edges.append(edges[rng.below(len(edges))])
        H = Hypergraph(n, tuple(edges))
        with_multi += len(set(H.edges)) < H.m
        with_isolated += any(degree(H, x) == 0 for x in range(n))

        def incidence(marked):
            G = nx.Graph()
            G.add_nodes_from((("v", x), {"colour": "u" if x == marked else "v"}) for x in range(n))
            G.add_nodes_from((("e", i), {"colour": "e"}) for i in range(H.m))
            G.add_edges_from((("v", x), ("e", i)) for i, e in enumerate(H.edges) for x in e)
            return G

        u = rng.below(n)
        G_u = incidence(u)
        for v in range(n):
            matcher = nx.algorithms.isomorphism.GraphMatcher(
                G_u, incidence(v), node_match=lambda a, b: a["colour"] == b["colour"]
            )
            p = find_automorphism_mapping(H, u, v)
            assert (p is not None) == matcher.is_isomorphic(), (H, u, v)
            if p is not None:
                assert is_automorphism(H, p) and p[u] == v
            found += p is not None
            refuted += p is None
    assert with_multi >= 5 and with_isolated >= 5
    assert found >= 50 and refuted >= 50


def test_enumerate_matches_brute_force():
    cases = [
        PATH_3,
        MATCHING_4,
        Hypergraph(3, ((0, 1, 2),)),
        Hypergraph(6, ((0, 1, 2), (3, 4, 5))),
        circulant_graph(5, (1,)),
        circulant_graph(6, (1,)),
        complete_uniform(4, 2),
        complete_uniform(4, 3),
        # the one edge of size 4 starts with itself as its only candidate
        Hypergraph(6, ((0, 1), (0, 1, 2, 3), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))),
        # a doubled edge is the only edge of size 3: two candidates, both copies
        Hypergraph(5, ((0, 1), (0, 2, 4), (1, 2), (0, 2, 4), (2, 3), (0, 3))),
    ]
    expected_sizes = [2, 8, 6, 72, 10, 12, 24, 24, 12, 4]
    for H, size in zip(cases, expected_sizes):
        brute = brute_automorphisms(H)
        got = enumerate_automorphisms(H, cap=10000)
        assert len(brute) == size
        assert got == brute
        assert got == sorted(got)


def test_search_keeps_edge_multiplicities():
    # A 4-cycle with two opposite edges doubled: every vertex looks alike,
    # and the rotation passes each edge-by-edge test but moves a doubled
    # edge onto a single one, so only the multiset check rejects it.
    H = Hypergraph(4, ((0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3)))
    assert not is_automorphism(H, (1, 2, 3, 0))
    assert enumerate_automorphisms(H) == brute_automorphisms(H)
    for v in range(4):
        p = find_automorphism_mapping(H, 0, v)
        assert p is not None and p[0] == v and is_automorphism(H, p)


def test_enumerated_group_is_closed():
    for H in (PATH_3, circulant_graph(6, (1,)), complete_uniform(4, 3)):
        group = set(enumerate_automorphisms(H, cap=10000))
        assert tuple(range(H.n)) in group
        for p in group:
            assert tuple(p.index(v) for v in range(H.n)) in group
            for q in group:
                assert tuple(p[q[i]] for i in range(H.n)) in group


def test_enumerated_group_orders():
    """Orders too large for the brute oracle.  A pruning rule that cuts a
    branch holding an automorphism shows up here as a smaller group."""
    cases = [
        (affine_hypergraph(3), 108),
        (affine_hypergraph(5), 2000),
        (glued_complete_family(5, 3), 720),
        # PG(2, 2), the Fano plane: its group is PGL(3, 2) of order 168
        (cyclic_difference_hypergraph(7, (0, 1, 3)), 168),
    ]
    for H, order in cases:
        autos = enumerate_automorphisms(H, cap=10000)
        assert len(autos) == len(set(autos)) == order
        assert all(is_automorphism(H, p) for p in autos)


def test_enumerate_cap_behavior():
    assert len(enumerate_automorphisms(PATH_3, cap=2)) == 2
    with pytest.raises(CapExceededError):
        enumerate_automorphisms(PATH_3, cap=1)
    with pytest.raises(CapExceededError):
        enumerate_automorphisms(Hypergraph(8, ()), cap=100)
    with pytest.raises(HypergraphError):
        enumerate_automorphisms(PATH_3, cap=0)


def check_mappings(H, orbits):
    """On every ordered pair (u, v), find_automorphism_mapping returns a map
    exactly when one of ``orbits`` holds both, and then an automorphism
    sending u to v."""
    orbit_index = {v: i for i, orbit in enumerate(orbits) for v in orbit}
    assert sorted(orbit_index) == list(range(H.n))
    for u in range(H.n):
        for v in range(H.n):
            p = find_automorphism_mapping(H, u, v)
            assert (p is not None) == (orbit_index[u] == orbit_index[v]), (u, v)
            assert p is None or (p[u] == v and is_automorphism(H, p)), (u, v)


def test_orbit_examples():
    asym = Hypergraph(4, ((0, 1), (1, 2), (2, 3), (1, 3)))
    assert orbit_partition(4, brute_automorphisms(asym)) == [[0], [1], [2, 3]]
    for H, orbits in ((PATH_3, [[0, 2], [1]]), (asym, [[0], [1], [2, 3]])):
        assert not is_vertex_transitive(H)
        check_mappings(H, orbits)
    for H in (MATCHING_4, Hypergraph(3, ()), affine_hypergraph(3)):
        assert orbit_of_zero(H, transitivity_generators(H)) == set(range(H.n))


def test_mappings_match_brute_force():
    cases = [PATH_3, MATCHING_4, Hypergraph(6, ((0, 1, 2), (3, 4, 5))),
             circulant_graph(6, (1,)), complete_uniform(4, 3), Hypergraph(7, ())]
    rng = SplitMix64(23)
    for _ in range(40):
        # small random edge sets: often disconnected, sometimes with a
        # repeated edge or an edgeless vertex, so orbits of several sizes
        n = 2 + rng.below(6)
        edges = []
        for _ in range(rng.below(n + 1)):
            k = 2 + rng.below(min(n, 3) - 1)
            edges.append(rng.subset(n, k))
        if edges and rng.below(3) == 0:
            edges.append(edges[0])
        cases.append(Hypergraph(n, tuple(edges)))
    multi_vertex = 0
    for H in cases:
        expected = orbit_partition(H.n, brute_automorphisms(H))
        assert is_vertex_transitive(H) == (len(expected) == 1)
        check_mappings(H, expected)
        multi_vertex += sum(1 for orbit in expected if len(orbit) > 1) > 1
    assert multi_vertex >= 10


def test_transitivity_examples():
    assert is_vertex_transitive(affine_hypergraph(3))
    assert is_vertex_transitive(MATCHING_4)
    assert is_vertex_transitive(circulant_graph(9, (1, 3)))
    assert not is_vertex_transitive(PATH_3)
    assert not is_vertex_transitive(Hypergraph(4, ((0, 1), (1, 2), (2, 3))))
    assert is_vertex_transitive(Hypergraph(1, ()))


def orbit_of_zero(H, gens):
    """The orbit of vertex 0 under gens, each checked as an automorphism."""
    assert all(is_automorphism(H, p) for p in gens)
    reached = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for p in gens:
            if p[v] not in reached:
                reached.add(p[v])
                frontier.append(p[v])
    return reached


def test_transitivity_generators_stop_at_a_failed_search(monkeypatch):
    """A triangle beside a 5-cycle is 2-regular, so no degree test refuses
    it, and no digit shift passes, so the search runs: 0 -> 7 fails and the
    verdict is None at once."""
    H = Hypergraph(8, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 7), (4, 5), (5, 6), (6, 7)))
    assert symmetry._shifts(H) is None
    searched = []

    def recorded(H, u, v):
        searched.append((u, v))
        return find_automorphism_mapping(H, u, v)

    monkeypatch.setattr(symmetry, "find_automorphism_mapping", recorded)
    assert transitivity_generators(H) is None
    assert searched == [(0, 7)]
    orbits = orbit_partition(H.n, brute_automorphisms(H))
    assert orbits == [[0, 1, 2], [3, 4, 5, 6, 7]]
    check_mappings(H, orbits)


def test_transitivity_generators_cover_orbit():
    gens = transitivity_generators(affine_hypergraph(3))
    assert gens is not None
    assert orbit_of_zero(affine_hypergraph(3), gens) == set(range(9))
    assert transitivity_generators(PATH_3) is None
    assert transitivity_generators(Hypergraph(1, ())) == []


def test_transitivity_generators_are_few_on_symmetric_inputs():
    """Targets are searched from n - 1 down, so the one automorphism found
    for 0 -> n - 1 carries 0 everywhere on K_30 and on one 500-vertex edge.
    Searched from 1 up, K_30 took 29 generators and the edge 499, in about
    a minute."""
    assert len(transitivity_generators(complete_uniform(30, 2))) == 1
    H = Hypergraph(500, (tuple(range(500)),))
    start = time.perf_counter()
    gens = transitivity_generators(H)
    assert time.perf_counter() - start < 5.0
    assert gens is not None and orbit_of_zero(H, gens) == set(range(500))


def search_work(call):
    """Run ``call`` and count the executed lines of ``symmetry._search``
    that push a frame and that assign an image: (frames, assignments)."""
    code = symmetry._search.__code__
    lines, first = inspect.getsourcelines(symmetry._search)
    push = first + next(i for i, line in enumerate(lines) if "frames.append(" in line)
    assign = first + next(i for i, line in enumerate(lines) if line.strip() == "image[w] = z")
    counts = Counter()

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in (push, assign):
            counts[frame.f_lineno] += 1
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        call()
    finally:
        sys.settrace(None)
    return counts[push], counts[assign]


def test_search_work_is_pinned():
    """The search's frames and assignments on three inputs.  Each narrowed
    vertex left with taken images only refutes its assignment at once;
    without that in the adjacency loop, the random instance takes 261
    frames, and its answers stay the same.  The random instance is rigid,
    so each of its 780 pairs u < v is one failing search."""
    assert search_work(lambda: find_automorphism_mapping(affine_hypergraph(11), 0, 11)) == (451, 531)
    H = relabelled(affine_hypergraph(7), 5)
    assert search_work(lambda: transitivity_generators(H)) == (132, 143)
    H = random_uniform_hypergraph(40, 3, 60, 0)
    found = []
    pairs = [(u, v) for u in range(40) for v in range(u + 1, 40)]
    assert search_work(lambda: found.extend(find_automorphism_mapping(H, u, v) for u, v in pairs)) == (124, 124)
    assert found == [None] * 780


def test_transitivity_agrees_with_orbit_count():
    for name, H in builtin_corpus():
        if H.n > 12:
            continue
        orbits = orbit_partition(H.n, enumerate_automorphisms(H))
        assert is_vertex_transitive(H) == (len(orbits) == 1), name
        if len(orbits) > 1:
            check_mappings(H, orbits)


def rotation_invariant_instances():
    """Every rotation-invariant instance of the builtin corpus, the
    benchmark's families and the census counterexamples, by name."""
    out = [(name, H) for name, H in builtin_corpus() if rotates(H)]
    out += [(f"circulant_{n}_12", circulant_graph(n, (1, 2))) for n in (100, 200, 400)]
    out += [("circulant_60_125", circulant_graph(60, (1, 2, 5)))]
    out += [("circulant_100_13", circulant_graph(100, (1, 3)))]
    out += [(f"cycle_{n}", circulant_graph(n, (1,))) for n in (300, 1200)]
    out += [("pg_2_5", cyclic_difference_hypergraph(31, (0, 1, 3, 8, 12, 18)))]
    out += [("complete_30_2", complete_uniform(30, 2))]
    out += [(f"census_{n}_{i}", orbit_union(n, bases)) for i, (n, bases, _, _) in enumerate(CENSUS)]
    return out


def certified_instances():
    """(name, instance, digit shifts) for every rotation-invariant instance,
    whose one shift is the rotation, and every shift-certified family."""
    out = [(name, H, ((*range(1, H.n), 0),)) for name, H in rotation_invariant_instances()]
    return out + shift_families()


def test_rotation_decides_transitivity_with_no_search(monkeypatch):
    """On a rotation-invariant input the rotation is the one generator and
    closes one orbit: no search runs and no search tables are built.  The
    affine, doubled affine and glued families are not rotation-invariant
    but are fixed by the digit shifts of their own mixed-radix labelling,
    which they get the same way.  Only the shifts kept reach the full
    automorphism test."""
    instances = certified_instances()
    assert len(instances) == 28 + 11
    assert sum(rotates(H) for _, H, _ in instances) == 28

    def refuse(H, fix):
        raise AssertionError("searched")

    tested = []
    run = symmetry.is_automorphism
    monkeypatch.setattr(symmetry, "_search", refuse)
    monkeypatch.setattr(symmetry, "is_automorphism", lambda H, p: tested.append(p) or run(H, p))
    for name, H, shifts in instances:
        tested.clear()
        assert transitivity_generators(H) == list(shifts), name
        # the edges through 0 refuse every other shift tried on the way
        assert tested == list(shifts), name
        assert orbit_of_zero(H, shifts) == set(range(H.n)), name
        assert is_vertex_transitive(H), name
        assert "_tables" not in vars(H), name
    # the search takes about 0.9 s and +350 MB of peak RSS on this input, the
    # probe about 0.04 s (2-core x86-64, CPython 3.11)
    start = time.perf_counter()
    assert transitivity_generators(circulant_graph(20000, (1,))) == [(*range(1, 20000), 0)]
    assert time.perf_counter() - start < 1.0


def test_rotation_route_matches_the_search(tmp_path, capsys):
    """A relabelled copy of each rotation-invariant or shift-certified
    input is fixed by no chain of digit shifts, so the search decides it,
    and it still finds the input transitive with one orbit; the `--machine`
    view of `analyze --connectivity --transitivity` is the same for both.
    A complete input is every relabelling of itself, so its copy is the
    input."""
    unmoved = []
    for name, H, _ in certified_instances():
        G = relabelled(H, 5)
        if Counter(G.edges) == Counter(H.edges):
            unmoved.append(name)
            continue
        assert symmetry._shifts(G) is None, name
        gens = transitivity_generators(G)
        assert gens is not None and orbit_of_zero(G, gens) == set(range(G.n)), name
        views = []
        for X in (H, G):
            path = tmp_path / f"{name}.hg"
            path.write_text(serialize_hypergraph(X))
            views.append(run_cli(capsys, "analyze", str(path), "--connectivity", "--transitivity", "--machine"))
        assert views[0] == views[1] and views[0][0] == 0, name
        assert "transitive=true\n" in views[0][1], name
    assert unmoved == [
        "circulant_7_123", "complete_4_2", "complete_4_3", "complete_5_3", "single_edge_3", "complete_30_2"
    ]


def brute_orbits(H):
    """Vertex orbits from permutations tried one at a time: u and v share an
    orbit when some permutation sending u to v keeps the edge multiset."""
    target = Counter(H.edges)
    least = list(range(H.n))  # the least vertex known to share v's orbit
    for u in range(H.n):
        if least[u] != u:
            continue
        for v in range(u + 1, H.n):
            if least[v] != v:
                continue
            for rest in permutations([x for x in range(H.n) if x != v]):
                p = (*rest[:u], v, *rest[u:])
                # most permutations already lose the first edges they map
                if all(tuple(sorted([p[x] for x in e])) in target for e in H.edges) and Counter(
                    [tuple(sorted([p[x] for x in e])) for e in H.edges]
                ) == target:
                    least[v] = u
                    break
    orbits = {}
    for v in range(H.n):
        orbits.setdefault(least[v], []).append(v)
    return list(orbits.values())


def grid_translate(a, b, e, x, y):
    """Edge e of Z_a x Z_b, vertex v being (v // b, v % b), moved by (x, y)."""
    return tuple(sorted(((v // b + x) % a) * b + (v % b + y) % b for v in e))


def grid_orbit_bases(a, b, sizes):
    """One base block per Z_a x Z_b orbit of the subsets of the given sizes."""
    seen = set()
    bases = []
    for k in sizes:
        for e in combinations(range(a * b), k):
            if e not in seen:
                seen.update(grid_translate(a, b, e, x, y) for x in range(a) for y in range(b))
                bases.append(e)
    return bases


def test_transitivity_on_small_orbit_unions():
    """transitivity_generators against brute-force permutations on every
    union of Z_n orbits (Z_1 x Z_n) with n <= 5, every circulant graph (a
    union of orbits of 2-subsets, the edgeless one included) with n <= 8,
    and every union of Z_a x Z_b orbits of 2- and 3-subsets with a * b <= 6
    and of 2-subsets with a * b = 8.  Most of the last are fixed by two
    digit shifts and not by the rotation."""
    groups = [(1, n, range(2, n + 1) if n <= 5 else (2,)) for n in range(2, 9)]
    groups += [(2, 2, (2, 3)), (2, 3, (2, 3)), (3, 2, (2, 3)), (2, 4, (2,)), (4, 2, (2,))]
    count = shifted = 0
    for a, b, sizes in groups:
        bases = grid_orbit_bases(a, b, sizes)
        for r in range(len(bases) + 1):
            for chosen in combinations(bases, r):
                edges = {grid_translate(a, b, e, x, y) for e in chosen for x in range(a) for y in range(b)}
                H = Hypergraph(a * b, tuple(sorted(edges)))
                assert brute_orbits(H) == [list(range(a * b))], (a, b, chosen)
                assert orbit_of_zero(H, transitivity_generators(H)) == set(range(a * b)), (a, b, chosen)
                count += 1
                shifted += len(symmetry._shifts(H)) > 1
    assert count == 118 + 336 and shifted == 264


def test_rotation_edge_cases(monkeypatch):
    """One vertex has nothing to move and two edgeless vertices the swap.
    On a regular multigraph whose rotation moves a doubled edge onto a
    single one the rotation is refused, and the shifts of the low and the
    high binary digit, both automorphisms, are kept.  A 6-cycle whose edges
    are doubled and single in turn is transitive, but no digit shift fixes
    it, so the search decides it.  On two 4-cycles, 7 0 1 2 and 3 4 5 6,
    the rotation maps the edges through 0 onto those through 1, so only
    the full test refuses it.  A non-regular input never tests a shift,
    even one whose image of vertex 0's edges passes (the 5-cycle with a
    chord)."""
    assert transitivity_generators(Hypergraph(1, ())) == []
    assert orbit_of_zero(Hypergraph(1, ()), []) == {0}
    assert transitivity_generators(Hypergraph(2, ())) == [(1, 0)]
    assert orbit_of_zero(Hypergraph(2, ()), [(1, 0)]) == {0, 1}
    H = Hypergraph(4, ((0, 1), (0, 1), (2, 3), (2, 3), (1, 2), (0, 3)))
    assert {degree(H, v) for v in range(4)} == {3}
    assert not rotates(H)
    tested = []
    run = symmetry.is_automorphism
    monkeypatch.setattr(symmetry, "is_automorphism", lambda H, p: tested.append(p) or run(H, p))
    assert transitivity_generators(H) == [(1, 0, 3, 2), (2, 3, 0, 1)]
    # the doubled edge through 0 refuses the rotation before the full test
    assert tested == [(1, 0, 3, 2), (2, 3, 0, 1)]
    assert orbit_of_zero(H, transitivity_generators(H)) == {0, 1, 2, 3}
    C = Hypergraph(6, ((0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 4), (4, 5), (4, 5), (0, 5)))
    assert {degree(C, v) for v in range(6)} == {3}
    assert symmetry._shifts(C) is None
    gens = transitivity_generators(C)
    assert gens is not None and orbit_of_zero(C, gens) == set(range(6))
    squares = Hypergraph(8, ((0, 7), (0, 1), (1, 2), (2, 7), (3, 4), (4, 5), (5, 6), (3, 6)))
    assert symmetry._shifts(squares) is None
    gens = transitivity_generators(squares)
    assert gens is not None and orbit_of_zero(squares, gens) == set(range(8))

    def refuse(H, p):
        raise AssertionError("shift tested")

    monkeypatch.setattr(symmetry, "is_automorphism", refuse)
    chord = Hypergraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 4)))
    non_regular = (PATH_3, Hypergraph(5, ((0, 1, 2), (2, 3), (3, 4), (0, 4))), chord, random_uniform_hypergraph(8, 3, 10, 42))
    for H in non_regular:
        assert symmetry._shifts(H) is None
        edge_connectivity(H)
    # the searches below test their leaves; each verdict above is kept, so
    # they probe no shift
    monkeypatch.undo()
    for H in non_regular:
        orbits = orbit_partition(H.n, enumerate_automorphisms(H))
        assert len(orbits) > 1 and not is_vertex_transitive(H)
        check_mappings(H, orbits)


def test_rotation_is_tested_once_per_instance(monkeypatch):
    """`analyze --transitivity --connectivity` runs the chain of digit
    shifts once per instance: the transitivity phase runs it, and the flow
    route reads the verdict and takes the shifts it was handed as checked.
    Generators the search found are tested at its leaves and once more by
    the flow route."""
    calls = []
    run = symmetry.is_automorphism
    check = lambda H, p: calls.append(p) or run(H, p)  # noqa: E731
    monkeypatch.setattr(symmetry, "is_automorphism", check)
    monkeypatch.setattr(connectivity, "is_automorphism", check)

    def chain(H):
        """The automorphism tests of one run of the chain, on a copy of H."""
        symmetry._shifts(Hypergraph(H.n, H.edges))
        tests = calls[:]
        calls.clear()
        return tests

    cases = (
        (circulant_graph(400, (1, 2)), 4),
        (affine_doubled_family(5), 5),
        (glued_complete_family(7, 4), 7),
    )
    for H, kappa in cases:
        tests = chain(H)
        report = analyze(H, connectivity=True, transitivity=True)
        assert report.generators == symmetry._shifts(H) and report.kappa == kappa
        assert calls == tests and tests
        calls.clear()
    G = relabelled(cases[0][0], 5)
    tests = chain(G)
    gens = transitivity_generators(G)
    # each search's one leaf is its generator, checked there
    assert calls == tests + gens
    assert edge_connectivity(G, automorphisms=gens).value == 4
    assert calls == tests + gens + gens


def test_transitive_instances_are_regular():
    for name, H in builtin_corpus():
        if is_vertex_transitive(H):
            degs = {degree(H, v) for v in range(H.n)}
            assert len(degs) == 1, name


def test_block_examples():
    H = circulant_graph(6, (1,))
    autos = enumerate_automorphisms(H, cap=10000)
    full = is_block_of_imprimitivity(H, set(range(6)), autos)
    assert full.is_block and full.violator is None
    single = is_block_of_imprimitivity(H, {2}, autos)
    assert single.is_block
    antipodal = is_block_of_imprimitivity(H, {0, 3}, autos)
    assert bool(antipodal)
    verdict = is_block_of_imprimitivity(H, {0, 1}, autos)
    assert not verdict.is_block
    phi = verdict.violator
    assert is_automorphism(H, phi)
    image = {phi[0], phi[1]}
    overlap = image & {0, 1}
    assert overlap and image != {0, 1}


def test_block_validates_permutations():
    H = circulant_graph(6, (1,))
    with pytest.raises(HypergraphError):
        is_block_of_imprimitivity(H, {0}, [(1, 0, 2, 3, 4, 5)])


def test_doubled_copy_is_atom_and_block():
    """One affine copy of the doubled family is its edge atom and a block."""
    H = affine_doubled_family(3)
    atom = edge_atom(H)
    assert atom.side == tuple(range(9))
    assert atom.value == 3
    autos = enumerate_automorphisms(H, cap=10000)
    assert len(autos) == 3888
    assert is_block_of_imprimitivity(H, set(atom.side), autos).is_block
    rng = SplitMix64(19)
    for _ in range(50):
        p = autos[rng.below(len(autos))]
        q = autos[rng.below(len(autos))]
        assert tuple(p[q[i]] for i in range(H.n)) in set(autos)


def slow_tables(H):
    """The search tables built the slow way, as a reference for
    ``symmetry._tables``: ``near`` by OR-ing ``adj`` over every neighbour
    of every vertex, ``alike`` by comparing the sizes of every pair of
    edges, bitmasks summed from generators and signatures sorted from
    generators."""
    n = H.n
    incident = [[] for _ in range(n)]
    for i, e in enumerate(H.edges):
        for v in e:
            incident[v].append(i)
    size = [len(e) for e in H.edges]
    alike = [sum(1 << j for j in range(H.m) if size[j] == size[i]) for i in range(H.m)]
    emask = [sum(1 << v for v in e) for e in H.edges]
    incmask = [sum(1 << i for i in incident[v]) for v in range(n)]
    adj = []
    for v in range(n):
        around = 0
        for i in incident[v]:
            around |= emask[i]
        adj.append(around & ~(1 << v))
    near = []
    for v in range(n):
        around = adj[v]
        rest = around
        while rest:
            low = rest & -rest
            rest ^= low
            around |= adj[low.bit_length() - 1]
        near.append(around & ~(1 << v))
    signature = [tuple(sorted(size[i] for i in incident[v])) for v in range(n)]
    pools = {}
    for v in range(n):
        pools[signature[v]] = pools.get(signature[v], 0) | 1 << v
    return {
        "pool": [pools[sig] for sig in signature],
        "alike": alike,
        "emask": emask,
        "incmask": incmask,
        "adj": adj,
        "near": near,
    }


def random_search_instance(rng):
    """Up to 24 vertices, up to two of them isolated, edges of 2 to 6
    vertices, and usually a repeated edge."""
    n = 1 + rng.below(24)
    pool = n - rng.below(min(n, 3))
    edges = []
    if pool >= 2:
        sizes = [2 + rng.below(min(pool, 6) - 1) for _ in range(rng.below(2 * n + 1))]
        edges = [rng.subset(pool, k) for k in sizes]
        if edges and rng.below(4):
            edges.append(edges[rng.below(len(edges))])
    return Hypergraph(n, tuple(edges))


def test_search_tables_match_the_slow_construction():
    """Every field of ``_tables`` equals the slow reference on the corpus,
    the benchmark's search and flow families and 300 random instances.
    The random instances (seeded, so their counts are fixed) hold
    multi-edges, isolated vertices and mixed edge sizes."""
    instances = [H for _, H in builtin_corpus()]
    instances += [affine_hypergraph(k) for k in (5, 7, 11)]
    instances += [affine_doubled_family(k) for k in (3, 5, 7)]
    instances += [glued_complete_family(6, 3), glued_complete_family(7, 4)]
    instances.append(cyclic_difference_hypergraph(31, (0, 1, 3, 8, 12, 18)))  # PG(2,5)
    instances += [circulant_graph(n, (1,)) for n in (300, 1200)]
    instances += [circulant_graph(n, (1, 2)) for n in (100, 200, 400)]
    instances += [circulant_graph(60, (1, 2, 5)), circulant_graph(100, (1, 3))]
    instances.append(Hypergraph(700, tuple((v, v + 1) for v in range(699))))
    instances += [random_uniform_hypergraph(30, 3, 90, 5), random_uniform_hypergraph(200, 3, 400, 5)]
    rng = SplitMix64(2207)
    randoms = [random_search_instance(rng) for _ in range(300)]
    assert sum(H.m > len(set(H.edges)) for H in randoms) >= 100  # multi-edges
    assert sum(min(degree(H, v) for v in range(H.n)) == 0 < H.m for H in randoms) >= 50  # isolated
    assert sum(len({len(e) for e in H.edges}) > 1 for H in randoms) >= 100  # mixed sizes
    for H in instances + randoms:
        got, want = vars(_tables(H)), slow_tables(H)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == want[key], (key, H.n, H.m)


def test_search_reads_each_edge_candidates_from_the_tables():
    """The search narrows each edge's candidates from ``alike``, kept on
    the instance.  C_5 has 10 automorphisms; with every edge's candidates
    restricted to the edge itself only the identity is left, since every
    other automorphism moves some edge.  A search that ignored ``alike``
    would still find all 10."""
    assert len(enumerate_automorphisms(circulant_graph(5, (1,)))) == 10
    H = circulant_graph(5, (1,))
    _tables(H).alike = [1 << i for i in range(H.m)]
    assert enumerate_automorphisms(H) == [tuple(range(5))]


def test_searched_instance_is_freed_with_its_tables():
    """The search tables are kept on the instance they describe, so
    dropping a searched instance frees it and its tables; no cache holds
    the last one searched."""
    H = relabelled(circulant_graph(300, (1,)), 13)
    assert symmetry._shifts(H) is None  # so the search runs
    assert transitivity_generators(H) is not None
    ref = weakref.ref(H)
    del H
    gc.collect()
    assert ref() is None
