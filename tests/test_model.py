"""Core model: parsing, serialization, predicates, boundary operators.

Expected values come from independent brute-force helpers defined here,
or are small enough to check by hand.
"""

import time
from collections import Counter
from dataclasses import replace

import pytest

from hyperconn import (
    Hypergraph,
    HypergraphError,
    ParseError,
    SplitMix64,
    boundary,
    boundary_profile,
    builtin_corpus,
    complete_uniform,
    components,
    degree,
    degree_extremes,
    edge_connectivity,
    glued_complete_family,
    is_connected,
    is_linear,
    is_uniform,
    parse_hypergraph,
    random_uniform_hypergraph,
    serialize_hypergraph,
    transitivity_generators,
    vertex_profile,
)
from hyperconn import model
from hyperconn.report import analyze

from helpers import mask_set


def brute_degree(H, v):
    return sum(1 for e in H.edges if v in e)


def brute_boundary(H, X):
    xs = set(X)
    return {
        i
        for i, e in enumerate(H.edges)
        if any(v in xs for v in e) and any(v not in xs for v in e)
    }


def brute_components(H):
    unseen = set(range(H.n))
    comps = []
    while unseen:
        comp = {min(unseen)}
        while True:
            grown = set(comp)
            for e in H.edges:
                if any(v in comp for v in e):
                    grown.update(e)
            if grown == comp:
                break
            comp = grown
        comps.append(sorted(comp))
        unseen -= comp
    return sorted(comps)


def pair_counts(H):
    pairs = Counter()
    for e in H.edges:
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                pairs[(e[i], e[j])] += 1
    return pairs


def test_hypergraph_normalizes_and_validates():
    H = Hypergraph(4, ((2, 0), (3, 1, 2)))
    assert H.edges == ((0, 2), (1, 2, 3))
    assert H.m == 2
    with pytest.raises(HypergraphError):
        Hypergraph(0, ())
    with pytest.raises(HypergraphError):
        Hypergraph(3, ((1,),))
    with pytest.raises(HypergraphError):
        Hypergraph(3, ((1, 1),))
    with pytest.raises(HypergraphError):
        Hypergraph(3, ((0, 3),))


def test_parse_round_trip_with_comments():
    text = "# a comment\n\nh 4 2\ne 2 0\n# mid comment\n\ne 1 2 3\n"
    H = parse_hypergraph(text)
    assert H.n == 4
    assert H.edges == ((0, 2), (1, 2, 3))
    out = serialize_hypergraph(H)
    assert out == "h 4 2\ne 0 2\ne 1 2 3\n"
    assert parse_hypergraph(out) == H


def test_serialize_sorts_edges():
    H = Hypergraph(5, ((3, 4), (0, 1), (0, 1, 2)))
    assert serialize_hypergraph(H) == "h 5 3\ne 0 1\ne 0 1 2\ne 3 4\n"


def test_round_trip_on_corpus():
    for name, H in builtin_corpus():
        assert parse_hypergraph(serialize_hypergraph(H)) == H, name


@pytest.mark.parametrize(
    "text,line_no,fragment",
    [
        ("x 3 1\ne 0 1\n", 1, "malformed header"),
        ("h three 1\ne 0 1\n", 1, "counts must be integers"),
        ("h 0 0\n", 1, "need n >= 1"),
        ("h 1048577 0\n", 1, "too many vertices, header declares 1048577, limit 1048576"),
        ("h 3 1\nq 0 1\n", 2, "malformed edge line"),
        ("h 3 1\ne 0 1\ne 1 2\n", 3, "edge count mismatch"),
        ("h 3 1\ne 0 one\n", 2, "vertices must be integers"),
        ("h 3 1\ne 0\n", 2, "edge of size 1, minimum is 2"),
        ("h 3 1\ne 0 1 0\n", 2, "repeated vertex 0 within edge"),
        ("h 3 1\ne 0 5\n", 2, "vertex index 5 out of range [0, 2]"),
        ("# only a comment\n", 2, "missing 'h <n> <m>'"),
        ("h 3 2\ne 0 1\n", 2, "edge count mismatch, header declares 2 edges, found 1"),
        # at the end of the text: the line after the last for a missing
        # header, the last line, comments and blanks included, for a short count
        pytest.param("", 1, "missing 'h <n> <m>'", id="empty-missing-header"),
        pytest.param("h 3 2\ne 0 1\n# c\n\n", 4, "edge count mismatch, header declares 2 edges, found 1", id="short-count-at-last-line"),
        # the first error is reported: a bad edge before a later line that
        # overflows the count, and an overflowing line is not read further
        pytest.param("h 3 1\ne 0 5\ne 0 1\n", 2, "vertex index 5 out of range [0, 2]", id="range-before-overflow"),
        pytest.param("h 3 1\ne 0 0\ne 0 1\ne 1 2\n", 2, "repeated vertex 0 within edge", id="repeat-before-overflow"),
        pytest.param("h 3 3\ne 0 5\n", 2, "vertex index 5 out of range [0, 2]", id="range-before-short-count"),
        pytest.param("h 3 1\ne 0 1\ne 0 5\n", 3, "edge count mismatch, header declares 1 edges", id="overflow-before-range"),
        pytest.param("h 3 1\ne 0 1\ne 0 x\n", 3, "edge count mismatch, header declares 1 edges", id="overflow-before-integers"),
        pytest.param("h 3 1\ne 0 1\nq 0 1\n", 3, "malformed edge line, expected 'e v1 v2 ...' got 'q'", id="malformed-after-full-count"),
        # within one edge: size, then repeats, then range
        pytest.param("h 3 1\ne 7\n", 2, "edge of size 1, minimum is 2", id="size-before-range"),
        pytest.param("h 3 1\ne 7 7\n", 2, "repeated vertex 7 within edge", id="repeat-before-range"),
        pytest.param("h 9 1\ne 5 3 5 3 1\n", 2, "repeated vertex 3 within edge", id="least-repeat"),
        pytest.param("h 3 1\ne 2 -1 9\n", 2, "vertex index -1 out of range [0, 2]", id="least-vertex-out-of-range"),
    ],
)
def test_parse_errors(text, line_no, fragment):
    with pytest.raises(ParseError) as err:
        parse_hypergraph(text)
    assert err.value.line_no == line_no
    assert fragment in str(err.value)
    assert str(err.value).startswith(f"line {line_no}:")


def test_parse_accepts_the_vertex_cap():
    assert model._MAX_VERTICES == 1 << 20
    H = parse_hypergraph("h 1048576 0\n")
    assert (H.n, H.m) == (1 << 20, 0)


def test_built_instances_keep_the_vertex_cap():
    """The cap a file header obeys holds for a built instance too, with the
    parser's message."""
    H = Hypergraph(1 << 20, ())
    assert (H.n, H.m) == (1 << 20, 0)
    with pytest.raises(HypergraphError) as err:
        Hypergraph((1 << 20) + 1, ())
    assert str(err.value) == "too many vertices, header declares 1048577, limit 1048576"


def test_parse_normalizes_each_edge_once(monkeypatch):
    calls = []
    normalize = model._normalize_edge

    def counted(e, n):
        calls.append(n)
        return normalize(e, n)

    monkeypatch.setattr(model, "_normalize_edge", counted)
    H = parse_hypergraph("h 5 3\ne 4 3\ne 0 1\ne 2 1 0\n")
    assert len(calls) == 3
    assert H == Hypergraph(5, ((3, 4), (0, 1), (0, 1, 2)))
    assert H.edges == ((3, 4), (0, 1), (0, 1, 2)) and H.m == 3


def test_degree_against_brute_force():
    rng = SplitMix64(11)
    instances = [H for _, H in builtin_corpus()]
    for i in range(20):
        n = 2 + rng.below(9)
        k = 2 + rng.below(min(n, 4) - 1)
        instances.append(random_uniform_hypergraph(n, k, 1 + rng.below(2 * n), seed=i))
    instances.append(Hypergraph(4, ((0, 1), (1, 2, 3), (0, 1))))
    for H in instances:
        incident = H._incidence
        for v in range(H.n):
            assert degree(H, v) == brute_degree(H, v)
            assert incident[v] == tuple(i for i, e in enumerate(H.edges) if v in e)
        degs = [brute_degree(H, v) for v in range(H.n)]
        assert degree_extremes(H) == (min(degs), max(degs))


def test_degree_out_of_range():
    H = Hypergraph(3, ((0, 1),))
    with pytest.raises(HypergraphError):
        degree(H, 3)
    with pytest.raises(HypergraphError):
        degree(H, -1)


def test_handshake_identity():
    for name, H in builtin_corpus():
        total = sum(degree(H, v) for v in range(H.n))
        assert total == sum(len(e) for e in H.edges), name


def test_is_uniform():
    assert is_uniform(complete_uniform(4, 2)) == 2
    assert is_uniform(complete_uniform(5, 3)) == 3
    assert is_uniform(Hypergraph(4, ((0, 1), (1, 2, 3)))) is None
    with pytest.raises(HypergraphError):
        is_uniform(Hypergraph(3, ()))


def test_is_linear_against_pair_counts():
    for name, H in builtin_corpus():
        verdict = is_linear(H)
        expected = all(c <= 1 for c in pair_counts(H).values())
        assert verdict.linear == expected, name
        assert bool(verdict) == expected, name
        if not expected:
            (u, v), i, j = verdict.witness
            assert i < j
            assert u in H.edges[i] and v in H.edges[i]
            assert u in H.edges[j] and v in H.edges[j]
        else:
            assert verdict.witness is None


def test_linear_witness_is_first_in_scan_order():
    H = complete_uniform(5, 3)
    verdict = is_linear(H)
    assert not verdict
    assert verdict.witness == ((0, 1), 0, 1)


def first_repeated_pair(H):
    """The first pair, in scan order, that lies in an earlier edge too,
    over every pair of every edge, degree-1 vertices included."""
    seen = {}
    for j, e in enumerate(H.edges):
        for x in range(len(e)):
            for y in range(x + 1, len(e)):
                if (e[x], e[y]) in seen:
                    return (e[x], e[y]), seen[(e[x], e[y])], j
                seen[(e[x], e[y])] = j
    return None


def test_linear_witness_matches_a_pair_dict_reference():
    """Checking each edge against the earlier edges in its members'
    incidence lists, degree-1 members included, gives the pair dict's
    verdict and witness on inputs with many degree-1 vertices: mixed edge
    sizes, wide edges, repeated edges and isolated vertices."""
    rng = SplitMix64(41)
    instances = [H for _, H in builtin_corpus()]
    for _ in range(400):
        n = 2 + rng.below(30)
        pool = n - rng.below(3) if n > 4 else n
        edges = [rng.subset(pool, 2 + rng.below(min(pool, 6) - 1)) for _ in range(rng.below(n))]
        if rng.below(4) == 0:
            edges.append(rng.subset(pool, pool))  # one edge through every vertex
        if edges and rng.below(3) == 0:
            edges.append(edges[rng.below(len(edges))])
        instances.append(Hypergraph(n, tuple(edges)))
    # a comb of 70 teeth, and a second wide edge meeting the comb's back and
    # each tooth in one vertex: linear until an edge repeats
    w = 70
    comb, other = tuple(range(w)), tuple(range(w - 1, 2 * w - 1))
    teeth = [(v, w + v) for v in range(w)]
    for edges in (
        [comb, *teeth],
        [*teeth[:9], other, *teeth[9:], comb],
        [comb, other, *teeth, teeth[40]],
        [comb, other, *teeth, (5, 75, 80)],  # a tooth's pair below the pair it shares with other
        [comb, other, *teeth, other],
    ):
        instances.append(Hypergraph(2 * w, tuple(edges)))
    for _ in range(300):
        n = 2 + rng.below(160)
        edges = [rng.subset(n, 2 + rng.below(min(n, 5) - 1)) for _ in range(rng.below(n))]
        for _ in range(rng.below(3)):  # edges through more than half the vertices
            edges.insert(rng.below(len(edges) + 1), rng.subset(n, n - rng.below(n // 2)))
        for _ in range(rng.below(3) if edges else 0):
            edges.insert(rng.below(len(edges) + 1), edges[rng.below(len(edges))])
        instances.append(Hypergraph(n, tuple(edges)))
    verdicts = Counter()
    for H in instances:
        verdict = is_linear(H)
        assert verdict.witness == first_repeated_pair(H), H
        assert verdict.linear == (verdict.witness is None)
        verdicts[verdict.linear] += 1
    assert verdicts[True] >= 80 and verdicts[False] >= 400


def test_is_linear_on_two_copies_of_a_wide_edge_is_fast():
    """Two copies of one wide edge give every vertex degree 2; a pair scan
    stores all their pairs before one repeats (0.73 s at 2000 vertices),
    and the incidence lists take time linear in the edge.  One 20 000-vertex
    edge stays fast alone, before a matching that joins each of its vertices
    to a new one, and after that matching, where it meets 19 999 earlier
    edges.  Stars of 2-edges and 3-edges stay fast too, and so does a
    pencil: 4000 rows of a grid, each with one hub added, after the grid's
    columns.  A row walks its other members' lists and tests the hub by
    bisection; walking the hub's list instead took 1.1 s (2-core x86-64)."""

    def fastest(n, edges):
        times = []
        for _ in range(3):
            H = Hypergraph(n, edges)
            start = time.perf_counter()
            verdict = is_linear(H)
            times.append(time.perf_counter() - start)
        return min(times), verdict

    for n, limit in ((2000, 0.05), (20_000, 1.0)):
        seconds, verdict = fastest(n, (tuple(range(n)),) * 2)
        assert verdict.witness == ((0, 1), 0, 1)
        assert seconds < limit, (n, seconds)
    n = 20_000
    wide, matching = tuple(range(n)), tuple((v, n + v) for v in range(n))
    for edges in ((wide,), (wide, *matching), (*matching, wide)):
        seconds, verdict = fastest(2 * n, edges)
        assert verdict.linear
        assert seconds < 1.0, (len(edges), edges[0] == wide, seconds)
    for k in (2, 3):
        edges = tuple((0, *range(1 + (k - 1) * i, 1 + (k - 1) * (i + 1))) for i in range(20_000))
        seconds, verdict = fastest(1 + 20_000 * (k - 1), edges)
        assert verdict.linear
        assert seconds < 1.0, (k, seconds)
    rows, width = 4000, 10
    grid = [[1 + r * width + c for c in range(width)] for r in range(rows)]
    columns = [tuple(grid[r][c] for r in range(rows)) for c in range(width)]
    seconds, verdict = fastest(1 + rows * width, (*columns, *((0, *row) for row in grid)))
    assert verdict.linear
    assert seconds < 0.5, seconds


def test_components_examples():
    assert components(Hypergraph(4, ((0, 1), (2, 3)))) == [[0, 1], [2, 3]]
    assert components(Hypergraph(3, ())) == [[0], [1], [2]]
    H = glued_complete_family(5, 3)
    joining = tuple(e for e in H.edges if len(e) == 3 and max(e) - min(e) >= 5)
    core = tuple(e for e in H.edges if e not in joining)
    assert len(joining) == 5
    split = Hypergraph(H.n, core)
    assert len(components(split)) == 3
    assert not is_connected(split)
    assert is_connected(H)


def test_components_against_brute_force():
    rng = SplitMix64(23)
    for i in range(30):
        n = 2 + rng.below(9)
        k = 2 + rng.below(min(n, 4) - 1)
        H = random_uniform_hypergraph(n, k, rng.below(n + 1), seed=100 + i)
        assert components(H) == brute_components(H)
        assert is_connected(H) == (len(brute_components(H)) == 1)


def test_cached_tables_are_not_shared_mutable_state():
    """An instance keeps its degrees, incidence lists and components as
    tuples.  Mutating what public functions return leaves later answers
    unchanged, and filled tables change no instance's equality, hash or
    ``repr``."""
    split = Hypergraph(8, ((0, 1), (0, 1), (0, 1, 2), (2, 3), (4, 5), (4, 6)))
    for H in (split, glued_complete_family(5, 3)):
        parsed = parse_hypergraph(serialize_hypergraph(H))
        assert H == parsed and hash(H) == hash(parsed) and repr(H) == repr(parsed)
        expected = Hypergraph(H.n, H.edges)  # only read, never mutated
        comps = components(expected)
        connected = is_connected(expected)
        cut = edge_connectivity(expected)
        report = replace(analyze(expected, connectivity=True, transitivity=True), timings_ms={})

        mutated = components(H)
        assert mutated == comps and mutated is not components(H)
        mutated[0].append(H.n)
        mutated[-1].clear()
        mutated.append([H.n + 1])
        gens = transitivity_generators(H)
        if gens:
            gens.clear()
        analyzed = analyze(H, connectivity=True, transitivity=True)
        analyzed.timings_ms.clear()
        analyzed.edge_sizes = ()
        assert components(H) == comps
        assert is_connected(H) == connected
        assert edge_connectivity(H) == cut
        assert replace(analyze(H, connectivity=True, transitivity=True), timings_ms={}) == report
        assert [degree(H, v) for v in range(H.n)] == [brute_degree(H, v) for v in range(H.n)]

        analyze(parsed, connectivity=True, transitivity=True)
        for table in (H._degrees, H._incidence, H._components, parsed._components):
            assert type(table) is tuple
            assert all(type(item) in (int, tuple) for item in table)
        untouched = Hypergraph(H.n, H.edges)
        for other in (parsed, untouched):
            assert H == other and hash(H) == hash(other) and repr(H) == repr(other)


def test_boundary_examples_and_symmetry():
    H = Hypergraph(4, ((0, 1), (1, 2), (2, 3)))
    assert boundary(H, {0}) == {0}
    assert boundary(H, {0, 1}) == {1}
    assert boundary(H, {0, 1, 2, 3}) == frozenset()
    with pytest.raises(HypergraphError):
        boundary(H, {0, 9})
    rng = SplitMix64(31)
    for name, G in builtin_corpus():
        if G.n > 12:
            continue
        for _ in range(10):
            X = mask_set(rng.below(1 << G.n), G.n)
            comp = set(range(G.n)) - X
            assert boundary(G, X) == brute_boundary(G, X), name
            assert boundary(G, X) == boundary(G, comp), name


def test_boundary_profile_examples():
    H = complete_uniform(4, 3)
    prof = boundary_profile(H, {0, 1})
    assert prof.k == 3
    assert prof.counts == (2, 2, 0)
    from hyperconn import affine_hypergraph

    A = affine_hypergraph(3)
    prof = boundary_profile(A, {0, 3, 6})
    assert prof.counts == (6, 0, 1)
    full = boundary_profile(A, set(range(9)))
    assert full.counts == (0, 0, 9)


def test_boundary_profile_requires_uniform():
    H = Hypergraph(4, ((0, 1), (1, 2, 3)))
    with pytest.raises(HypergraphError):
        boundary_profile(H, {0})


def test_boundary_profile_decomposes_boundary():
    rng = SplitMix64(37)
    for name, H in builtin_corpus():
        if H.m == 0 or is_uniform(H) is None or H.n > 12:
            continue
        k = is_uniform(H)
        for _ in range(8):
            X = mask_set(rng.below(1 << H.n), H.n)
            prof = boundary_profile(H, X)
            assert sum(prof.counts[: k - 1]) == len(boundary(H, X)), name
            assert sum(prof.counts) == sum(1 for e in H.edges if any(v in X for v in e))


def test_vertex_profile_examples():
    from hyperconn import affine_hypergraph

    A = affine_hypergraph(3)
    prof = vertex_profile(A, {0, 3, 6}, 0)
    assert (prof.k, prof.a, prof.b) == (3, (0, 0, 2), (4, 0))

    H = complete_uniform(4, 3)
    prof = vertex_profile(H, {0, 1}, 0)
    assert prof.a == (0, 2, 0)
    assert prof.b == (2, 2)

    single = Hypergraph(3, ((0, 1, 2),))
    prof = vertex_profile(single, {0, 1, 2}, 0)
    assert prof.a == (0, 0, 2)
    assert prof.b == (0, 0)


def test_vertex_profile_requires_membership():
    H = complete_uniform(4, 3)
    with pytest.raises(HypergraphError):
        vertex_profile(H, {0, 1}, 2)


def test_vertex_profile_incidence_totals():
    """Every incident edge splits its other k - 1 vertices between a and b."""
    rng = SplitMix64(41)
    for name, H in builtin_corpus():
        if H.m == 0 or is_uniform(H) is None or H.n > 12:
            continue
        k = is_uniform(H)
        for _ in range(8):
            mask = rng.below(1 << H.n)
            X = mask_set(mask, H.n)
            if not X:
                continue
            x = min(X)
            prof = vertex_profile(H, X, x)
            assert sum(prof.a) + sum(prof.b) == (k - 1) * degree(H, x), name


def test_profiles_count_every_copy_of_a_multi_edge():
    """boundary, boundary_profile and vertex_profile against a recount over
    the edge list, for every x in X, on seeded uniform instances drawn with
    repeated edges; each copy of a multi-edge counts."""
    H = Hypergraph(4, ((0, 1, 2), (0, 1, 2), (1, 2, 3)))
    assert boundary(H, {0, 1}) == {0, 1, 2}
    assert boundary_profile(H, {0, 1}).counts == (1, 2, 0)
    assert vertex_profile(H, {0, 1}, 0)[1:] == ((0, 2, 0), (0, 2))
    rng = SplitMix64(43)
    multi = 0
    for _ in range(60):
        n = 3 + rng.below(8)
        k = 2 + rng.below(min(n, 5) - 1)
        drawn = [rng.subset(n, k) for _ in range(1 + rng.below(2 * n))]
        H = Hypergraph(n, tuple(drawn + drawn[: 1 + rng.below(len(drawn))]))
        multi += len(set(H.edges)) < H.m
        for _ in range(4):
            X = mask_set(rng.below(1 << n), n)
            inside = [len(X.intersection(e)) for e in H.edges]
            assert boundary(H, X) == {i for i, c in enumerate(inside) if 0 < c < k}
            counts = tuple(inside.count(i) for i in range(1, k + 1))
            assert boundary_profile(H, X) == (k, counts)
            for x in X:
                a, b = [0] * k, [0] * k
                for e, c in zip(H.edges, inside):
                    if x in e:
                        a[c - 1] += c - 1
                        b[c - 1] += k - c
                assert vertex_profile(H, X, x) == (k, tuple(a), tuple(b[: k - 1]))
    assert multi == 60


def test_vertex_deletion_identity():
    """|boundary(X - y)| = |boundary(X)| + a_k(y)/(k-1) - b_1(y)/(k-1)."""
    rng = SplitMix64(43)
    checked = 0
    for name, H in builtin_corpus():
        if H.m == 0 or is_uniform(H) is None or H.n > 12:
            continue
        k = is_uniform(H)
        for _ in range(20):
            mask = rng.below(1 << H.n)
            X = mask_set(mask, H.n)
            if len(X) < 2:
                continue
            ys = sorted(X)
            y = ys[rng.below(len(ys))]
            prof = vertex_profile(H, X, y)
            assert prof.a[k - 1] % (k - 1) == 0
            assert prof.b[0] % (k - 1) == 0
            gained = prof.a[k - 1] // (k - 1)
            lost = prof.b[0] // (k - 1)
            before = len(boundary(H, X))
            after = len(boundary(H, X - {y}))
            assert after == before + gained - lost, name
            checked += 1
    assert checked > 100


def test_uncrossing_inequality_exhaustive_small():
    for name, H in builtin_corpus():
        if H.m == 0 or is_uniform(H) is None or H.n > 6:
            continue
        sizes = [len(boundary(H, mask_set(m, H.n))) for m in range(1 << H.n)]
        for x in range(1 << H.n):
            for y in range(x, 1 << H.n):
                assert sizes[x | y] + sizes[x & y] <= sizes[x] + sizes[y], name


def test_uncrossing_inequality_random():
    rng = SplitMix64(47)
    for i in range(300):
        n = 2 + rng.below(9)
        k = 2 + rng.below(min(n, 4) - 1)
        H = random_uniform_hypergraph(n, k, 1 + rng.below(2 * n), seed=500 + i)
        X = mask_set(rng.below(1 << n), n)
        Y = mask_set(rng.below(1 << n), n)
        lhs = len(boundary(H, X | Y)) + len(boundary(H, X & Y))
        rhs = len(boundary(H, X)) + len(boundary(H, Y))
        assert lhs <= rhs
