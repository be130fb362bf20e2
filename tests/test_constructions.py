"""Generators: counts, regularity, design properties, determinism."""

import hashlib
import time
from collections import Counter
from itertools import combinations, islice

import pytest

from hyperconn import (
    Hypergraph,
    HypergraphError,
    SplitMix64,
    affine_doubled_family,
    affine_hypergraph,
    base_differences_distinct,
    builtin_corpus,
    circulant_graph,
    complete_uniform,
    cyclic_difference_hypergraph,
    degree,
    glued_complete_family,
    is_automorphism,
    is_connected,
    is_linear,
    is_uniform,
    linear_uniform_corpus,
    orbit_hypergraph,
    random_uniform_hypergraph,
    serialize_hypergraph,
    transitive_graph_corpus,
)
from hyperconn.constructions import _LANES, _draw_subsets

from helpers import digit_shift, shift_families


def test_splitmix64_reference_sequence():
    """First outputs for seed 0 from the published reference implementation."""
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_below_and_subset():
    rng = SplitMix64(1234567)
    for bound in (1, 2, 7, 100, 10**9):
        for _ in range(50):
            assert 0 <= rng.below(bound) < bound
    assert 0 <= rng.below(1 << 64) < 1 << 64
    with pytest.raises(ValueError):
        rng.below(0)
    with pytest.raises(ValueError):
        rng.below((1 << 64) + 1)
    sub = SplitMix64(7).subset(10, 4)
    assert sub == SplitMix64(7).subset(10, 4)
    assert len(set(sub)) == 4
    assert sub == tuple(sorted(sub))
    assert all(0 <= v < 10 for v in sub)
    assert SplitMix64(3).subset(5, 5) == (0, 1, 2, 3, 4)
    assert SplitMix64(3).subset(5, 0) == ()
    # the draw keeps only swapped positions, so n far beyond memory is fine
    huge = SplitMix64(3).subset(10**15, 3)
    assert len(set(huge)) == 3 and all(0 <= v < 10**15 for v in huge)
    # n stops at 2**64, as below's bound does: past it every output is rejected
    assert len(SplitMix64(3).subset(1 << 64, 2)) == 2
    with pytest.raises(ValueError, match="n <= 2\\*\\*64"):
        SplitMix64(3).subset((1 << 64) + 1, 1)


def test_splitmix64_subset_rejects_k_outside_0_to_n():
    for k in (-1, 6):
        with pytest.raises(ValueError, match=f"n=5, k={k}"):
            SplitMix64(1).subset(5, k)


def test_random_draws_match_pinned_values():
    """Known answers of the subset stream; any change to the draw fails here."""
    assert SplitMix64(7).subset(10, 4) == (0, 4, 6, 7)
    assert random_uniform_hypergraph(8, 3, 10, seed=42).edges == (
        (0, 1, 6), (0, 2, 7), (0, 3, 6), (1, 3, 6), (2, 4, 5),
        (2, 4, 7), (2, 5, 6), (2, 5, 7), (3, 5, 7), (4, 5, 6),
    )
    # n = 200, k = n, and draws of several blocks (m * k > _LANES)
    grid = [(8, 3, 10, 42), (200, 3, 400, 1), (6, 6, 4, 5), (12, 2, 300, 7),
            (30, 4, 700, 11), (2, 2, 3, 0), (9, 5, 0, 3)]
    assert max(m for _, _, m, _ in grid) > _LANES
    digest = hashlib.sha256()
    for n, k, m, seed in grid:
        digest.update(serialize_hypergraph(random_uniform_hypergraph(n, k, m, seed)).encode())
    assert digest.hexdigest() == "fe3621ec383e5544b1343573662d7f91616e388e7d0158b64841c80c4dc634a6"


def reference_outputs(seed):
    """SplitMix64 one scalar step at a time, written out independently."""
    state = seed % 2**64
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        yield z ^ (z >> 31)


def reference_subsets(outputs, n, k, m):
    """m partial Fisher-Yates shuffles of a full list(range(n)), members in
    draw order; an output at or past the last whole multiple of the bound
    below 2**64 is skipped."""
    drawn = []
    for _ in range(m):
        pool = list(range(n))
        for i in range(k):
            bound = n - i
            u = next(outputs)
            while u >= 2**64 - 2**64 % bound:
                u = next(outputs)
            j = i + u % bound
            pool[i], pool[j] = pool[j], pool[i]
        drawn.append(pool[:k])
    return drawn


def test_block_and_drawer_match_scalar_reference():
    for seed in (0, 7, 2**64 - 1):
        rng, ref = SplitMix64(seed), reference_outputs(seed)
        for _ in range(2):
            assert rng._block() == tuple(islice(ref, _LANES)), seed
        assert rng.next_u64() == next(ref), seed
    cases = [(10, 4, 1), (7, 7, 3), (5, 5, 200), (40, 3, _LANES), (300, 300, 2), (9, 0, 4)]
    rng = SplitMix64(99)
    for _ in range(40):
        n = 1 + rng.below(30)
        cases.append((n, rng.below(n + 1), rng.below(2 * _LANES)))
    for n, k, m in cases:
        seed = 1000 * n + 10 * k + m
        outputs, ref = SplitMix64(seed)._stream(), reference_outputs(seed)
        assert list(_draw_subsets(outputs, n, k, m)) == reference_subsets(ref, n, k, m), (n, k, m)
        # the drawer took no output beyond the ones it used
        assert next(outputs) == next(ref), (n, k, m)
    # an empty subset takes no output
    assert list(_draw_subsets(iter(()), 5, 0, 3)) == [[], [], []]


def test_subset_leaves_the_scalar_state():
    """``subset`` takes the outputs next_u64 would give, one step at a time,
    so the generator ends in the state the scalar draws leave."""
    for n, k in ((10, 4), (7, 7), (3, 1), (9, 0), (300, 300), (1000, 3)):
        rng, ref = SplitMix64(n + k), reference_outputs(n + k)
        picked = [rng.subset(n, k) for _ in range(5)]
        assert picked == [tuple(sorted(c)) for c in reference_subsets(ref, n, k, 5)], (n, k)
        assert rng.next_u64() == next(ref), (n, k)


def test_stream_is_the_scalar_stream():
    """``_stream`` hands out next_u64's outputs in order across its blocks."""
    for seed in (0, 7, 2**64 - 1):
        count = 2 * _LANES + 3
        assert list(islice(SplitMix64(seed)._stream(), count)) == list(
            islice(reference_outputs(seed), count)
        ), seed


def test_every_draw_continues_one_sequence():
    """After ``_stream`` hands out k outputs, ``next_u64``, ``below`` and
    ``subset`` take outputs k + 1 on, and the stream goes on after them."""
    for k in (0, 3, _LANES - 1, _LANES, _LANES + 5):
        rng, ref = SplitMix64(3), reference_outputs(3)
        assert list(islice(rng._stream(), k)) == list(islice(ref, k)), k
        assert rng.next_u64() == next(ref), k
        # below a power of two rejects nothing: the output's low bits
        assert rng.below(2**64) == next(ref), k
        assert rng.below(1 << 10) == next(ref) % (1 << 10), k
        assert rng.subset(300, 5) == tuple(sorted(reference_subsets(ref, 300, 5, 1)[0])), k
        assert next(rng._stream()) == next(ref), k


def test_drawer_takes_the_next_output_after_a_rejection():
    """2**64 - 1 is rejected for every bound that is not a power of two, so
    a stream with it spliced in forces a rejection at a small bound.  For
    bound 3 it is the smallest rejected output, the edge of the rule."""
    rejected = 2**64 - 1
    # bounds 7, 6 and 5, then bound 3 alone
    for n, k, m in ((7, 3, _LANES // 2), (3, 1, _LANES + 10)):
        # the last splice puts both copies at the last step, replaced in turn
        for spliced_at in (0, 1, 5, _LANES - 1, _LANES, _LANES + 2, m * k - 1):
            scripted = list(islice(reference_outputs(5), m * k))
            scripted[spliced_at:spliced_at] = [rejected, rejected]
            outputs = iter(scripted + ["past the last output"])
            drawn = list(_draw_subsets(outputs, n, k, m))
            assert drawn == reference_subsets(iter(scripted), n, k, m), (n, spliced_at)
            # every output taken was used: m * k accepted plus two rejected
            assert next(outputs) == "past the last output", (n, spliced_at)


def test_complete_uniform():
    H = complete_uniform(5, 3)
    assert H.n == 5
    assert H.m == 10
    assert H.edges == tuple(combinations(range(5), 3))
    assert is_uniform(H) == 3
    assert complete_uniform(4, 2).m == 6
    with pytest.raises(HypergraphError):
        complete_uniform(3, 1)
    with pytest.raises(HypergraphError):
        complete_uniform(3, 4)


def test_glued_complete_family():
    H = glued_complete_family(5, 3)
    assert (H.n, H.m) == (15, 35)
    assert all(degree(H, v) == 7 for v in range(15))
    assert is_uniform(H) == 3
    assert not is_linear(H)
    assert is_connected(H)
    joining = [e for e in H.edges if {v // 5 for v in e} == {0, 1, 2}]
    assert len(joining) == 5
    for v in range(5):
        assert (v, 5 + v, 10 + v) in joining


def test_glued_complete_parameter_guard():
    with pytest.raises(HypergraphError) as err:
        glued_complete_family(4, 3)
    assert "n >= 5" in str(err.value)
    with pytest.raises(HypergraphError):
        glued_complete_family(10, 2)
    with pytest.raises(HypergraphError):
        glued_complete_family(3, 3)


def slope_classes(k, H):
    """The lines of ``H``, a set of lines on the k x k grid with one point
    per row, grouped by slope: the column step from row 0 to row 1."""
    classes = {}
    for line in H.edges:
        classes.setdefault((line[1] - line[0]) % k, []).append(line)
    return classes


@pytest.mark.parametrize("k", [3, 5, 7])
def test_affine_plane_classes_invariants(k):
    """The k sloped classes of AG(2, k) that ``affine_hypergraph`` keeps:
    each partitions the points, two points in different rows share exactly
    one line, and two in the same row share none, so no row is an edge."""
    H = affine_hypergraph(k)
    classes = slope_classes(k, H)
    assert sorted(classes) == list(range(k))
    for group in classes.values():
        assert len(group) == k
        assert sorted(v for line in group for v in line) == list(range(k * k))
        assert all(len(line) == k for line in group)
    pair_seen = Counter(pair for line in H.edges for pair in combinations(line, 2))
    assert set(pair_seen.values()) == {1}
    assert set(pair_seen) == {(a, b) for a, b in combinations(range(k * k), 2) if a // k != b // k}


def test_affine_plane_classes_frozen_lines():
    H = affine_hypergraph(3)
    assert [line for line in H.edges if 0 in line] == [(0, 3, 6), (0, 4, 8), (0, 5, 7)]
    assert slope_classes(3, H)[1] == [(0, 4, 8), (1, 5, 6), (2, 3, 7)]


def test_affine_plane_rejects_non_primes():
    for family in (affine_hypergraph, affine_doubled_family):
        for bad in (2, 4, 6, 9, 15, 1, 0):
            with pytest.raises(HypergraphError) as err:
                family(bad)
            assert "odd prime" in str(err.value)


def test_affine_hypergraph():
    H = affine_hypergraph(3)
    assert (H.n, H.m) == (9, 9)
    assert is_uniform(H) == 3
    assert bool(is_linear(H))
    assert all(degree(H, v) == 3 for v in range(9))
    rows = {(0, 1, 2), (3, 4, 5), (6, 7, 8)}
    assert rows.isdisjoint(set(H.edges))
    big = affine_hypergraph(5)
    assert (big.n, big.m) == (25, 25)
    assert all(degree(big, v) == 5 for v in range(25))


def test_affine_doubled_family():
    H = affine_doubled_family(3)
    assert (H.n, H.m) == (18, 21)
    assert sorted(set(len(e) for e in H.edges)) == [3, 6]
    assert all(degree(H, v) == 4 for v in range(18))
    assert is_uniform(H) is None
    assert bool(is_linear(H))
    assert is_connected(H)
    assert (0, 1, 2, 9, 10, 11) in H.edges
    big = affine_doubled_family(5)
    assert (big.n, big.m) == (50, 55)
    assert all(degree(big, v) == 6 for v in range(50))


def test_cyclic_difference_examples():
    H = cyclic_difference_hypergraph(13, (0, 1, 4))
    assert (H.n, H.m) == (13, 13)
    assert is_uniform(H) == 3
    assert bool(is_linear(H))
    assert is_connected(H)
    nonlinear = cyclic_difference_hypergraph(6, (0, 1, 2))
    assert not is_linear(nonlinear)
    cycle = cyclic_difference_hypergraph(5, (0, 1))
    assert cycle == circulant_graph(5, (1,))


def test_cyclic_difference_periodic_base_dedups():
    H = cyclic_difference_hypergraph(4, (0, 2))
    assert H.m == 2
    assert H.edges == ((0, 2), (1, 3))
    assert not is_connected(H)


def test_cyclic_difference_validation():
    with pytest.raises(HypergraphError):
        cyclic_difference_hypergraph(7, (2,))
    with pytest.raises(HypergraphError):
        cyclic_difference_hypergraph(7, (0, 9))


def test_base_differences_distinct():
    assert base_differences_distinct(13, (0, 1, 4))
    assert base_differences_distinct(7, (0, 1, 3))
    assert not base_differences_distinct(6, (0, 1, 2))
    assert not base_differences_distinct(7, (0, 1, 2))


def test_distinct_differences_imply_linear():
    rng = SplitMix64(29)
    checked = 0
    for _ in range(200):
        n = 5 + rng.below(16)
        size = 2 + rng.below(3)
        base = SplitMix64(rng.next_u64()).subset(n, size)
        H = cyclic_difference_hypergraph(n, base)
        if H.m < n:
            continue
        assert base_differences_distinct(n, base) == bool(is_linear(H)), (n, base)
        checked += 1
    assert checked > 50


def test_circulant_graph():
    six = circulant_graph(6, (1,))
    assert six.m == 6
    assert is_uniform(six) == 2
    matching = circulant_graph(6, (3,))
    assert matching.m == 3
    assert not is_connected(matching)
    k6 = circulant_graph(6, (1, 2, 3))
    assert k6 == complete_uniform(6, 2)
    with pytest.raises(HypergraphError):
        circulant_graph(1, ())
    with pytest.raises(HypergraphError):
        circulant_graph(6, (0,))
    with pytest.raises(HypergraphError):
        circulant_graph(6, (4,))


def group_orbits(n, gens, bases):
    """Sorted distinct images of the bases under every element of the group
    the generators make, the group closed by composition from the identity."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple(g[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                todo.append(q)
    return tuple(sorted({tuple(sorted(p[v] for v in b)) for p in group for b in bases}))


def rotation(n):
    return (*range(1, n), 0)


def reflection(n):
    return tuple(-v % n for v in range(n))


def test_orbit_hypergraph_matches_the_group_closure():
    cases = [
        # a short orbit: {0, 2, 4} is a coset of 2Z_6, fixed by the square of the rotation
        (6, [rotation(6)], [(0, 2, 4)]),
        (6, [rotation(6)], [(0, 2, 4), (0, 1)]),
        # a base given twice, and one met in another's orbit
        (7, [rotation(7)], [(0, 1, 3), (0, 1, 3)]),
        (7, [rotation(7)], [(0, 1, 3), (2, 3, 5)]),
        # more than one generator: the digit shifts of Z_3 x Z_4, the
        # dihedral group D_12, and the grid shifts of AG(2, 3)
        (12, [digit_shift(12, 1, 3), digit_shift(12, 3, 4)], [(0, 1), (0, 4, 5)]),
        (12, [rotation(12), reflection(12)], [(0, 1, 5), (0, 2, 3, 7)]),
        (12, [rotation(12), reflection(12)], [(0, 6)]),
        (9, [digit_shift(9, 1, 3), digit_shift(9, 3, 3)], [(0, 4, 8), (0, 1)]),
        # no generator: the bases alone
        (5, [], [(3, 1), (0, 4, 2)]),
    ]
    rng = SplitMix64(5)
    for _ in range(30):
        n = 2 + rng.below(6)
        gens = []
        for _ in range(1 + rng.below(2)):
            perm = list(range(n))
            for i in range(n - 1, 0, -1):
                j = rng.below(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            gens.append(tuple(perm))
        bases = [rng.subset(n, 2 + rng.below(n - 1)) for _ in range(1 + rng.below(3))]
        cases.append((n, gens, bases))
    for n, gens, bases in cases:
        H = orbit_hypergraph(n, gens, bases)
        assert H.edges == group_orbits(n, gens, bases), (n, gens, bases)
        assert all(is_automorphism(H, g) for g in gens), (n, gens, bases)
    assert orbit_hypergraph(6, [rotation(6)], [(4, 2, 0)]).edges == ((0, 2, 4), (1, 3, 5))


def test_orbit_hypergraph_rejects_non_permutations_and_bad_bases():
    for bad in ((1, 2, 3, 0), (1, 2, 0, 3, 4, 5), (0, 1, 1, 2, 3), (1, 2, 3, 4, 5)):
        with pytest.raises(HypergraphError, match="permutation"):
            orbit_hypergraph(5, [rotation(5), bad], [(0, 1)])
    for base, message in (((0,), "edge of size 1"), ((0, 0), "repeated vertex 0"), ((0, 5), "vertex index 5")):
        with pytest.raises(HypergraphError, match=message):
            orbit_hypergraph(5, [rotation(5)], [base])


def test_family_generators_are_automorphisms():
    """The rotation builds the circulant and cyclic-difference families and
    the digit shifts the grid, doubled grid and glued families, so each of
    them is an automorphism of what it built."""
    families = [circulant_graph(n, offs) for n, offs in ((2, (1,)), (8, (1, 2)), (10, (1, 2, 5)), (400, (1, 2)))]
    families += [cyclic_difference_hypergraph(n, b) for n, b in ((6, (0, 2, 4)), (13, (0, 1, 4)), (31, (0, 1, 3, 8, 12, 18)))]
    for H in families:
        assert is_automorphism(H, rotation(H.n)), H
    for name, H, shifts in shift_families():
        assert all(is_automorphism(H, g) for g in shifts), name


def test_random_uniform_hypergraph():
    H = random_uniform_hypergraph(8, 3, 10, seed=42)
    assert H == random_uniform_hypergraph(8, 3, 10, seed=42)
    assert H != random_uniform_hypergraph(8, 3, 10, seed=43)
    assert H.n == 8
    assert 0 < H.m <= 10
    assert is_uniform(H) == 3
    assert random_uniform_hypergraph(4, 2, 0, seed=1).m == 0
    saturated = random_uniform_hypergraph(4, 2, 500, seed=9)
    assert saturated.m <= 6
    assert random_uniform_hypergraph(3, 3, 5, seed=2).edges == ((0, 1, 2),)
    with pytest.raises(HypergraphError):
        random_uniform_hypergraph(3, 4, 1, seed=0)
    with pytest.raises(HypergraphError):
        random_uniform_hypergraph(3, 2, -1, seed=0)


def test_generators_emit_canonical_edge_lists():
    """The generators hand their edges over unchecked, so each must emit
    what the checking constructor makes of them, in the same order, sorted
    and without repeats: the built-in corpus and the families CI generates."""
    families = builtin_corpus() + [
        ("complete_5_3", complete_uniform(5, 3)),
        ("glued_complete_5_3", glued_complete_family(5, 3)),
        ("glued_complete_6_3", glued_complete_family(6, 3)),
        ("glued_complete_7_4", glued_complete_family(7, 4)),
        ("glued_complete_12_4", glued_complete_family(12, 4)),
        ("affine_3", affine_hypergraph(3)),
        ("affine_5", affine_hypergraph(5)),
        ("affine_31", affine_hypergraph(31)),
        ("affine_doubled_3", affine_doubled_family(3)),
        ("affine_doubled_5", affine_doubled_family(5)),
        ("affine_doubled_13", affine_doubled_family(13)),
        ("cyclic_difference_13_014", cyclic_difference_hypergraph(13, (0, 1, 4))),
        ("pg_2_5", cyclic_difference_hypergraph(31, (0, 1, 3, 8, 12, 18))),
        ("circulant_8_12", circulant_graph(8, (1, 2))),
        ("circulant_20000_12", circulant_graph(20000, (1, 2))),
        ("random_8_3_10_s42", random_uniform_hypergraph(8, 3, 10, 42)),
        ("random_200_3_400_s1", random_uniform_hypergraph(200, 3, 400, 1)),
    ]
    for name, H in families:
        assert Hypergraph(H.n, H.edges).edges == H.edges, name
        assert H.edges == tuple(sorted(set(H.edges))), name
        for e in H.edges:
            assert e == tuple(sorted(e)), name


def test_generators_refuse_too_many_vertices_before_building():
    """A vertex count past the limit is refused before any edge is built:
    C(2**20 + 1, 2) pairs would exhaust memory, and the rotation's orbit of
    (0, 1) takes seconds, a million random draws take seconds and past
    2**64 vertices never end."""
    big = 2**20 + 1
    turn = rotation(big)
    calls = [
        lambda: complete_uniform(big, 2),
        lambda: orbit_hypergraph(big, [turn], [(0, 1)]),
        lambda: random_uniform_hypergraph(big, 2, 1, 0),
        lambda: random_uniform_hypergraph(big, 2, 10**6, 0),
        lambda: random_uniform_hypergraph(2**65, 2, 1, 0),
    ]
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(HypergraphError, match="too many vertices"):
            call()
        assert time.perf_counter() - start < 1.0


def test_builtin_corpus_shape():
    entries = builtin_corpus()
    names = [name for name, _ in entries]
    assert len(names) == len(set(names)) == 21
    assert names == sorted(names)
    assert all(isinstance(H, Hypergraph) for _, H in entries)


def test_transitive_graph_corpus():
    entries = transitive_graph_corpus()
    assert [name for name, _ in entries] == [
        "circulant_6_1",
        "circulant_7_12",
        "circulant_8_12",
        "circulant_9_13",
        "circulant_10_125",
    ]
    for name, H in entries:
        assert is_uniform(H) == 2, name
        assert is_connected(H), name


def test_linear_uniform_corpus():
    entries = linear_uniform_corpus()
    assert [name for name, _ in entries] == [
        "affine_3",
        "affine_5",
        "cyclic_difference_13_014",
        "cyclic_difference_21_037",
    ]
    for name, H in entries:
        k = is_uniform(H)
        assert k is not None and k >= 3, name
        assert bool(is_linear(H)), name
        assert is_connected(H), name
