"""Automorphism search, vertex orbits, transitivity, and block tests.

Permutations are plain tuples in one-line notation: ``p[v]`` is the image
of vertex v.  An automorphism must preserve the edge multiset, so
multi-edges keep their multiplicities.

The search assigns images vertex by vertex, pruning with necessary
conditions only: a candidate image must match the source vertex's degree
and sorted multiset of incident edge sizes, and for every edge through an
assigned vertex the images placed so far must extend to at least one edge
of the same size (which forces fully-assigned edges onto actual edges).
Leaves are verified against the full edge multiset before being reported,
so the relaxations never surface a false positive.
"""

from __future__ import annotations

from collections import Counter
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
    found = _search(H, fix=(u, v), want_all=False, cap=None)
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
    return sorted(_search(H, fix=None, want_all=True, cap=cap))


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


def _constraint_order(H: Hypergraph, incident: list[list[int]], start: int | None) -> list[int]:
    """Static assignment order: repeatedly take the unplaced vertex incident
    to the most already-touched edges (ties to the smallest index), so edge
    constraints bite as early as possible."""
    n = H.n
    count = [0] * n
    placed = [False] * n
    touched = [False] * H.m
    order: list[int] = []

    def place(v: int) -> None:
        placed[v] = True
        order.append(v)
        for ei in incident[v]:
            if touched[ei]:
                continue
            touched[ei] = True
            for w in H.edges[ei]:
                if not placed[w]:
                    count[w] += 1

    if start is not None:
        place(start)
    while len(order) < n:
        best = -1
        for v in range(n):
            if not placed[v] and (best < 0 or count[v] > count[best]):
                best = v
        place(best)
    return order


def _search(
    H: Hypergraph,
    fix: tuple[int, int] | None,
    want_all: bool,
    cap: int | None,
) -> list[tuple[int, ...]]:
    n = H.n
    edges = H.edges
    m = len(edges)
    incident = _incidence(H)
    size_of = [len(e) for e in edges]
    by_size: list[dict[int, frozenset[int]]] = []
    for v in range(n):
        buckets: dict[int, set[int]] = {}
        for i in incident[v]:
            buckets.setdefault(size_of[i], set()).add(i)
        by_size.append({s: frozenset(ids) for s, ids in buckets.items()})
    signature = [tuple(sorted(size_of[i] for i in incident[v])) for v in range(n)]
    pools: dict[tuple[int, ...], tuple[int, ...]] = {}
    for v in range(n):
        pools.setdefault(signature[v], ())
    for sig in pools:
        pools[sig] = tuple(v for v in range(n) if signature[v] == sig)

    if fix is not None and signature[fix[0]] != signature[fix[1]]:
        return []

    order = _constraint_order(H, incident, None if fix is None else fix[0])
    edge_counter = Counter(edges)
    image = [-1] * n
    used = [False] * n
    cand: list[frozenset[int] | None] = [None] * m
    found: list[tuple[int, ...]] = []

    def feasible(w: int, z: int, undo: list[tuple[int, frozenset[int] | None]]) -> bool:
        for ei in incident[w]:
            allowed = by_size[z].get(size_of[ei])
            if allowed is None:
                return False
            cur = cand[ei]
            narrowed = allowed if cur is None else cur & allowed
            if not narrowed:
                return False
            undo.append((ei, cur))
            cand[ei] = narrowed
        return True

    def extend(pos: int) -> bool:
        if pos == n:
            p = tuple(image)
            mapped = Counter(tuple(sorted(p[x] for x in e)) for e in edges)
            if mapped == edge_counter:
                found.append(p)
                if not want_all:
                    return True
                if cap is not None and len(found) > cap:
                    raise CapExceededError(
                        f"automorphism count exceeds cap {cap}"
                    )
            return False
        w = order[pos]
        candidates: Sequence[int] = (fix[1],) if fix is not None and w == fix[0] else pools[signature[w]]
        for z in candidates:
            if used[z]:
                continue
            undo: list[tuple[int, frozenset[int] | None]] = []
            stop = False
            if feasible(w, z, undo):
                image[w] = z
                used[z] = True
                stop = extend(pos + 1)
                used[z] = False
                image[w] = -1
            for ei, prev in reversed(undo):
                cand[ei] = prev
            if stop:
                return True
        return False

    extend(0)
    return found
