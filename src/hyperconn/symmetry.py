"""Automorphism search, vertex orbits, transitivity, and block tests.

Permutations are plain tuples in one-line notation: ``p[v]`` is the image
of vertex v.  An automorphism must preserve the edge multiset, so
multi-edges keep their multiplicities.

The search assigns images vertex by vertex in one loop over an explicit
stack of frames, so its depth costs no Python recursion.  Its state is a
bitmask domain of possible images per vertex and a bitmask of candidate
image edges per edge.  Each change to that state is logged on a trail and
undone on backtracking, so no level copies the state.  Every domain starts
as the vertices with the same sorted multiset of incident edge sizes.
Assigning w -> z then prunes with necessary conditions only:

* injectivity: no other vertex may take z;
* adjacency on the 2-section: a free vertex within distance 2 of w shares
  an edge with w exactly when its image shares an edge with z;
* edge candidates: each edge through w maps to an edge of the same size
  through z;
* pinned edges: once an edge has a single candidate, its free vertices map
  into that candidate and no vertex outside the edge may.

Restricting an edge's vertices to the union of several candidates as well
pruned 2 of 43 908 nodes on random instances (n = 60 and 100) and none on
the benchmark's search cases, while doubling the time per node on the
non-linear glued instances, so only a pinned edge restricts its vertices.

The next vertex is one with a single value left, else the one touching the
most edges that hold an assigned vertex, then the one with the smallest
domain.  Leaves are verified against the full edge multiset before being
reported, so the relaxations never surface a false positive.  The tables
these rules read are built once per hypergraph and kept for the most recent
one, which the per-target searches of :func:`transitivity_generators` and
:func:`vertex_orbits` share.  Which automorphism a search returns depends on
this order, so the generator lists do too; the verdicts and orbits do not.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from types import SimpleNamespace
from typing import Iterable, NamedTuple, Sequence

from .model import Hypergraph, HypergraphError, _as_vertex_set, _incidence

__all__ = [
    "CapExceededError",
    "BlockVerdict",
    "is_automorphism",
    "find_automorphism_mapping",
    "is_vertex_transitive",
    "transitivity_generators",
    "vertex_orbits",
    "enumerate_automorphisms",
    "is_block_of_imprimitivity",
]


class CapExceededError(HypergraphError):
    """Automorphism enumeration exceeded the caller's cap."""


class BlockVerdict(NamedTuple):
    """Result of :func:`is_block_of_imprimitivity`; truthy when X is a block.

    ``violator`` is an automorphism whose image of X meets X properly, or
    ``None`` when X is a block.
    """

    is_block: bool
    violator: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.is_block


def is_automorphism(H: Hypergraph, p: Sequence[int]) -> bool:
    """Whether p permutes the vertices and preserves the edge multiset.

    Raises:
        HypergraphError: if p has the wrong length or is not a bijection.
    """
    _check_permutation(H, p)
    mapped = Counter(tuple(sorted(p[v] for v in e)) for e in H.edges)
    return mapped == Counter(H.edges)


def find_automorphism_mapping(H: Hypergraph, u: int, v: int) -> tuple[int, ...] | None:
    """Some automorphism sending u to v, or None if there is none."""
    if not 0 <= u < H.n or not 0 <= v < H.n:
        raise HypergraphError(f"vertices {u}, {v} must lie in [0, {H.n - 1}]")
    T = _tables(H)
    if not T.pool[u] >> v & 1:
        return None
    found = _search(H, T, fix=(u, v), want_all=False, cap=None)
    return found[0] if found else None


def is_vertex_transitive(H: Hypergraph) -> bool:
    """Whether some automorphism maps vertex 0 to every other vertex."""
    return transitivity_generators(H) is not None


def transitivity_generators(H: Hypergraph) -> list[tuple[int, ...]] | None:
    """Automorphisms whose orbit closure carries 0 everywhere, else None.

    Found automorphisms are kept as generators and the orbit of 0 is closed
    under them before any fresh search, so most targets come for free.  The
    list is empty when n is 1 (nothing to move).
    """
    gens: list[tuple[int, ...]] = []
    reached = {0}
    for target in range(1, H.n):
        if target in reached:
            continue
        p = find_automorphism_mapping(H, 0, target)
        if p is None:
            return None
        gens.append(p)
        reached = _orbit_of(0, gens)
    return gens


def vertex_orbits(H: Hypergraph) -> list[list[int]]:
    """Orbits of the automorphism group, each sorted, ordered by minimum.

    Every automorphism found is kept, and each orbit is closed under all of
    them before any fresh search, as in :func:`transitivity_generators`.  A
    vertex already placed in an earlier orbit is skipped, and one success
    can carry the orbit to many later targets at once.
    """
    gens: list[tuple[int, ...]] = []
    placed = [False] * H.n
    orbits: list[list[int]] = []
    for u in range(H.n):
        if placed[u]:
            continue
        orbit = _orbit_of(u, gens)
        for v in range(u + 1, H.n):
            if v in orbit or placed[v]:
                continue
            p = find_automorphism_mapping(H, u, v)
            if p is not None:
                gens.append(p)
                orbit = _orbit_of(u, gens)
        for w in orbit:
            placed[w] = True
        orbits.append(sorted(orbit))
    return orbits


def enumerate_automorphisms(H: Hypergraph, cap: int = 10000) -> list[tuple[int, ...]]:
    """All automorphisms in lexicographic order, at most ``cap`` of them.

    Raises:
        HypergraphError: if cap < 1.
        CapExceededError: as soon as more than cap automorphisms exist.
    """
    if cap < 1:
        raise HypergraphError(f"cap must be >= 1, got {cap}")
    return sorted(_search(H, _tables(H), fix=None, want_all=True, cap=cap))


def is_block_of_imprimitivity(
    H: Hypergraph, X: Iterable[int], autos: Iterable[Sequence[int]]
) -> BlockVerdict:
    """Whether every given automorphism maps X onto itself or off of it.

    Raises:
        HypergraphError: if any element of autos is not an automorphism.
    """
    xs = _as_vertex_set(H, X)
    for p in autos:
        if not is_automorphism(H, p):
            raise HypergraphError("autos contains a permutation that is not an automorphism")
        image = {p[x] for x in xs}
        overlap = image & xs
        if overlap and overlap != xs:
            return BlockVerdict(False, tuple(p))
    return BlockVerdict(True, None)


def _check_permutation(H: Hypergraph, p: Sequence[int]) -> None:
    if len(p) != H.n:
        raise HypergraphError(f"permutation has length {len(p)}, expected {H.n}")
    seen = [False] * H.n
    for image in p:
        if not 0 <= image < H.n or seen[image]:
            raise HypergraphError("permutation is not a bijection on the vertex set")
        seen[image] = True


def _orbit_of(v0: int, gens: list[tuple[int, ...]]) -> set[int]:
    # Forward closure suffices: permutation semigroups on a finite set are
    # groups, so inverse images are reached by iterating the generators.
    seen = {v0}
    stack = [v0]
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


@lru_cache(maxsize=1)
def _tables(H: Hypergraph) -> SimpleNamespace:
    """Per-instance search tables, with vertex and edge sets as bitmasks:

    * ``pool[v]``: the vertices with v's sorted sizes of incident edges;
    * ``incident[v]``, ``size[i]``;
    * ``emask[i]``: the vertices of edge i; ``incmask[v]``: the edges through v;
    * ``by_size[v][s]``: the edges of size s through v;
    * ``same_size[i]``: the edges of edge i's size;
    * ``adj[v]``, ``near[v]``: the vertices sharing an edge with v, and those
      within distance 2 of v, v excluded;
    * ``edge_counter``: the edge multiset.

    One entry is kept: the per-target searches of transitivity_generators
    and vertex_orbits ask about the same instance over and over.
    """
    n = H.n
    incident = _incidence(H)
    size = [len(e) for e in H.edges]
    emask = [sum(1 << v for v in e) for e in H.edges]
    incmask = [sum(1 << i for i in incident[v]) for v in range(n)]
    of_size: dict[int, int] = {}
    for i, s in enumerate(size):
        of_size[s] = of_size.get(s, 0) | 1 << i
    by_size: list[dict[int, int]] = []
    adj: list[int] = []
    for v in range(n):
        buckets: dict[int, int] = {}
        around = 0
        for i in incident[v]:
            buckets[size[i]] = buckets.get(size[i], 0) | 1 << i
            around |= emask[i]
        by_size.append(buckets)
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
    pools: dict[tuple[int, ...], int] = {}
    for v in range(n):
        pools[signature[v]] = pools.get(signature[v], 0) | 1 << v
    return SimpleNamespace(
        pool=[pools[sig] for sig in signature],
        incident=incident,
        size=size,
        emask=emask,
        incmask=incmask,
        by_size=by_size,
        same_size=[of_size[s] for s in size],
        adj=adj,
        near=near,
        edge_counter=Counter(H.edges),
    )


def _search(
    H: Hypergraph,
    T: SimpleNamespace,
    fix: tuple[int, int] | None,
    want_all: bool,
    cap: int | None,
) -> list[tuple[int, ...]]:
    n = H.n
    edges = H.edges
    incident, size, emask, incmask = T.incident, T.size, T.emask, T.incmask
    by_size, adj, near = T.by_size, T.adj, T.near
    # st[v] is vertex v's image domain, st[n + i] edge i's candidate images.
    # Every change to st is logged on the trail and undone by popping it.
    st = [*T.pool, *T.same_size]
    trail: list[tuple[int, int]] = []
    image = [-1] * n
    free = (1 << n) - 1  # unassigned vertices
    used = 0  # images taken; applied to domains lazily
    reach = 0  # vertices within distance 2 of an assigned one
    hit = 0  # edges holding an assigned vertex
    pinned_img = 0  # vertices of the one candidate image of a pinned edge
    pinned_src = 0  # vertices of the pinned edges themselves
    if fix is not None:
        st[fix[0]] = 1 << fix[1]
        reach = 1 << fix[0]
    # A frame is [vertex, untried images, current image, trail length,
    # reach, hit, pinned_img, pinned_src]; the last five are as before
    # the vertex was assigned.
    frames: list[list[int]] = []
    found: list[tuple[int, ...]] = []
    while True:
        if free:
            # Choose the next vertex: any one with a single value left,
            # else the one touching the most hit edges, then the smallest
            # domain.  Domains only shrink, so one with nothing left means
            # a dead end.  Taken and pinned images are removed here, not on
            # assignment; a vertex inside a pinned edge already maps into
            # that edge's candidate and is spared the pinned images.
            best = -1
            best_dom = 0
            best_key = (-1, 0)
            scan = free & reach or free
            while scan:
                low = scan & -scan
                scan ^= low
                x = low.bit_length() - 1
                d = st[x] & ~used
                if not pinned_src & low:
                    d &= ~pinned_img
                if not d & (d - 1):
                    best, best_dom = x, d
                    break
                key = ((incmask[x] & hit).bit_count(), -d.bit_count())
                if key > best_key:
                    best, best_dom, best_key = x, d, key
            if best_dom:
                frames.append([best, best_dom, -1, len(trail), reach, hit, pinned_img, pinned_src])
        else:
            p = tuple(image)
            if Counter(tuple(sorted(p[x] for x in e)) for e in edges) == T.edge_counter:
                found.append(p)
                if not want_all:
                    return found
                if cap is not None and len(found) > cap:
                    raise CapExceededError(f"automorphism count exceeds cap {cap}")
        # Assign the top frame's next untried image, undoing the previous
        # one, and pop frames that have none left.
        while frames:
            frame = frames[-1]
            w, untried, z = frame[0], frame[1], frame[2]
            if z >= 0:
                free |= 1 << w
                used ^= 1 << z
                image[w] = -1
                mark = frame[3]
                while len(trail) > mark:
                    i, old = trail.pop()
                    st[i] = old
                reach, hit, pinned_img, pinned_src = frame[4], frame[5], frame[6], frame[7]
            if not untried:
                frames.pop()
                continue
            low = untried & -untried
            frame[1] = untried ^ low
            z = frame[2] = low.bit_length() - 1
            free ^= 1 << w
            used |= low
            image[w] = z
            reach |= near[w]
            # Adjacency on the 2-section: x shares an edge with w exactly
            # when x's image shares an edge with z.
            az = adj[z]
            aw = adj[w]
            rest = near[w] & free
            while rest:
                bit = rest & -rest
                rest ^= bit
                x = bit.bit_length() - 1
                old = st[x]
                new = old & az if aw & bit else old & ~az
                if new != old:
                    trail.append((x, old))
                    st[x] = new
            # Each edge through w must map to an edge of its size through z.
            # An edge left with one candidate is pinned: its free vertices
            # map into that candidate, and no vertex outside it may.
            sizes_at_z = by_size[z]
            ok = True
            for e in incident[w]:
                old = st[n + e]
                new = old & sizes_at_z.get(size[e], 0)
                if not new:
                    ok = False
                    break
                if new != old:
                    trail.append((n + e, old))
                    st[n + e] = new
                elif hit >> e & 1:
                    continue
                if new & (new - 1):
                    continue
                target = emask[new.bit_length() - 1]
                pinned_img |= target
                pinned_src |= emask[e]
                rest = emask[e] & free
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    x = bit.bit_length() - 1
                    old = st[x]
                    if old & ~target:
                        trail.append((x, old))
                        st[x] = old & target
            hit |= incmask[w]
            if ok:
                break
        else:
            return found
