"""Automorphism search against exhaustive permutation enumeration.

The brute oracle tries all n! permutations for n <= 7, so every engine
result on small instances is checked against ground truth.
"""

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
    transitivity_generators,
    vertex_orbits,
)
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
