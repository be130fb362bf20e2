"""Automorphism search against exhaustive permutation enumeration.

The brute oracle tries all n! permutations for n <= 7, so every engine
result on small instances is checked against ground truth.
"""

import sys
from collections import Counter
from itertools import permutations

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
    degree,
    edge_atom,
    enumerate_automorphisms,
    find_automorphism_mapping,
    is_automorphism,
    is_block_of_imprimitivity,
    is_vertex_transitive,
    serialize_hypergraph,
    transitivity_generators,
    vertex_orbits,
)
from hyperconn.cli import main
from hyperconn.constructions import affine_doubled_family

PATH_3 = Hypergraph(3, ((0, 1), (1, 2)))
MATCHING_4 = Hypergraph(4, ((0, 1), (2, 3)))


def brute_automorphisms(H):
    assert H.n <= 7
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


def test_search_deep_inputs(tmp_path, capsys):
    # one search level per vertex, so a recursive search would overflow
    limit = sys.getrecursionlimit()
    path = tmp_path / "cycle_5000.hg"
    path.write_text(serialize_hypergraph(circulant_graph(5000, (1,))))
    assert main(["analyze", str(path), "--transitivity", "--machine"]) == 0
    got = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert got["transitive"] == "true"
    P = Hypergraph(5000, tuple((v, v + 1) for v in range(4999)))
    assert find_automorphism_mapping(P, 0, 4999) == tuple(range(4999, -1, -1))
    assert find_automorphism_mapping(P, 1, 2) is None
    assert sys.getrecursionlimit() == limit


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
    ]
    expected_sizes = [2, 8, 6, 72, 10, 12, 24, 24]
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


def test_enumerate_cap_behavior():
    assert len(enumerate_automorphisms(PATH_3, cap=2)) == 2
    with pytest.raises(CapExceededError):
        enumerate_automorphisms(PATH_3, cap=1)
    with pytest.raises(CapExceededError):
        enumerate_automorphisms(Hypergraph(8, ()), cap=100)
    with pytest.raises(HypergraphError):
        enumerate_automorphisms(PATH_3, cap=0)


def test_vertex_orbits_examples():
    assert vertex_orbits(PATH_3) == [[0, 2], [1]]
    assert vertex_orbits(MATCHING_4) == [[0, 1, 2, 3]]
    assert vertex_orbits(Hypergraph(3, ())) == [[0, 1, 2]]
    assert vertex_orbits(affine_hypergraph(3)) == [list(range(9))]
    asym = Hypergraph(4, ((0, 1), (1, 2), (2, 3), (1, 3)))
    assert vertex_orbits(asym) == orbit_partition(4, brute_automorphisms(asym))
    assert vertex_orbits(asym) == [[0], [1], [2, 3]]


def test_vertex_orbits_match_brute_force():
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
        assert vertex_orbits(H) == expected
        multi_vertex += sum(1 for orbit in expected if len(orbit) > 1) > 1
    assert multi_vertex >= 10


def test_transitivity_examples():
    assert is_vertex_transitive(affine_hypergraph(3))
    assert is_vertex_transitive(MATCHING_4)
    assert is_vertex_transitive(circulant_graph(9, (1, 3)))
    assert not is_vertex_transitive(PATH_3)
    assert not is_vertex_transitive(Hypergraph(4, ((0, 1), (1, 2), (2, 3))))
    assert is_vertex_transitive(Hypergraph(1, ()))


def test_transitivity_generators_cover_orbit():
    gens = transitivity_generators(affine_hypergraph(3))
    assert gens is not None
    reached = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for p in gens:
            assert is_automorphism(affine_hypergraph(3), p)
            if p[v] not in reached:
                reached.add(p[v])
                frontier.append(p[v])
    assert reached == set(range(9))
    assert transitivity_generators(PATH_3) is None
    assert transitivity_generators(Hypergraph(1, ())) == []


def test_transitivity_agrees_with_orbit_count():
    for name, H in builtin_corpus():
        if H.n > 12:
            continue
        assert is_vertex_transitive(H) == (len(vertex_orbits(H)) == 1), name


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
