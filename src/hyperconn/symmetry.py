"""Automorphism search, transitivity, and block tests.

Permutations are plain tuples in one-line notation: ``p[v]`` is the image
of vertex v.  An automorphism must preserve the edge multiset, so
multi-edges keep their multiplicities.

Transitivity is certified before any search where digit shifts do it.
Read vertex v as a mixed-radix number; the shift of one digit
(``_digit_shift``) adds 1 to that digit modulo its radix and keeps the
others.  ``_shifts`` looks for a labelling whose every digit shift is an
automorphism, digit by digit from the lowest, each time taking the largest
radix whose shift passes :func:`is_automorphism`, with no backtracking.
It runs only when n >= 2 and the input is regular, and at most once per
instance, whose verdict it keeps.  Such shifts carry 0 to every vertex.
A rotation-invariant input (every circulant, cyclic-difference and
complete instance, every cycle) gets the rotation v -> v + 1 mod n alone,
and the affine, doubled affine and glued families get back the shifts
that :mod:`hyperconn.constructions` builds them from.  The shifts are the
generators from :func:`transitivity_generators`, with no search and no
search tables.  The flow route of :mod:`hyperconn.connectivity` reads the
same verdict.
:func:`find_automorphism_mapping` and :func:`enumerate_automorphisms`
always search.

The search assigns images vertex by vertex in one loop over an explicit
stack of frames, so its depth costs no Python recursion.  Its state is a
bitmask domain of possible images per vertex and a bitmask of candidate
image edges per edge.  Each change to that state is logged on a trail and
undone on backtracking, so no level copies the state.  Every domain starts
as the vertices with the same sorted multiset of incident edge sizes, and
every edge's candidates as the edges of the same size.  Assigning w -> z
then prunes with necessary conditions only:

* injectivity: no other vertex may take z;
* adjacency on the 2-section: a free vertex within distance 2 of w shares
  an edge with w exactly when its image shares an edge with z (skipped when
  w and z are both adjacent to every other vertex, as in a linear space,
  where it would only repeat injectivity);
* edge candidates: each edge through w keeps only the candidates through
  z;
* pinned edges: once an edge has a single candidate, its free vertices map
  into that candidate and no vertex outside the edge may;
* refutation: when adjacency or a pinned edge narrows a free vertex to
  taken images only, w -> z is refuted at once; without this, that vertex
  surfaces only once the forced vertices chosen before it are assigned,
  often many levels deeper.  Domains only shrink and taken images stay
  taken below a node, so the rule cuts only branches that hold no
  automorphism, and every search yields what it did without it.

Restricting an edge's vertices to the union of several candidates as well
pruned 2 of 43 908 nodes on random instances (n = 60 and 100) and none on
the benchmark's search cases, while doubling the time per node on the
non-linear glued instances, so only a pinned edge restricts its vertices.

The next vertex is one with a single value left, else the one touching the
most edges that hold an assigned vertex, then the one with the smallest
domain.  Leaves are verified by :func:`is_automorphism` before being
reported, so the relaxations never surface a false positive.  The tables
these rules read are built once per hypergraph, in time linear in its
incidences (times the cost of one n-bit mask operation), and kept on it
with its edge multiset and shift verdict: the per-target searches of
:func:`transitivity_generators` share them, and they are freed with it.
Which automorphism a search returns depends on this order, so the generator
lists do too; the verdicts and orbits do not.
"""

from __future__ import annotations

from collections import Counter
from functools import wraps
from itertools import islice
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .model import Hypergraph, HypergraphError, _as_vertex_set, _check_vertex

__all__ = [
    "CapExceededError",
    "BlockVerdict",
    "is_automorphism",
    "find_automorphism_mapping",
    "is_vertex_transitive",
    "transitivity_generators",
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
    _check_permutation(H.n, p)
    mapped = Counter([tuple(sorted([p[v] for v in e])) for e in H.edges])
    # both hold positive counts only, so dict equality, which runs in C, is
    # multiset equality; Counter's own == loops in Python
    return dict.__eq__(mapped, _edge_multiset(H))


def find_automorphism_mapping(H: Hypergraph, u: int, v: int) -> tuple[int, ...] | None:
    """Some automorphism sending u to v, or None if there is none."""
    _check_vertex(H, u)
    _check_vertex(H, v)
    return next(_search(H, (u, v)), None)


def is_vertex_transitive(H: Hypergraph) -> bool:
    """Whether some automorphism maps vertex 0 to every other vertex."""
    return transitivity_generators(H) is not None


def transitivity_generators(H: Hypergraph) -> list[tuple[int, ...]] | None:
    """Automorphisms whose orbit closure carries 0 everywhere, else None.

    Found automorphisms are kept as generators and the orbit of 0 is closed
    under them before any fresh search, so most targets come for free.
    Targets are taken from n - 1 down: a search tries the least images
    first, so the automorphism it finds for 0 -> t tends to move only the
    vertices up to t (on K_n, the cycle 0 -> t -> t - 1 -> ... -> 0), and
    from the top one search often reaches every vertex (K_30 takes 1
    generator, not 29).  An input that digit shifts certify gets those
    shifts, with no search: a rotation-invariant one the rotation alone.
    A non-regular input gets None with no search, as no vertex-transitive
    input is.  The list is empty when n is 1 (nothing to move).
    """
    shifts = _shifts(H)
    if shifts is not None:
        return list(shifts)
    degs = H._degrees
    if min(degs) != max(degs):
        return None
    gens: list[tuple[int, ...]] = []
    reached = {0}
    for target in range(H.n - 1, 0, -1):
        if target in reached:
            continue
        p = find_automorphism_mapping(H, 0, target)
        if p is None:
            return None
        gens.append(p)
        reached = _orbit_of(0, gens)
    return gens


def enumerate_automorphisms(H: Hypergraph, cap: int = 10000) -> list[tuple[int, ...]]:
    """All automorphisms in lexicographic order, at most ``cap`` of them.

    Raises:
        HypergraphError: if cap < 1.
        CapExceededError: as soon as more than cap automorphisms exist.
    """
    if cap < 1:
        raise HypergraphError(f"cap must be >= 1, got {cap}")
    found = list(islice(_search(H, None), cap + 1))
    if len(found) > cap:
        raise CapExceededError(f"automorphism count exceeds cap {cap}")
    return sorted(found)


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
        overlap = {p[x] for x in xs} & xs
        if overlap and overlap != xs:
            return BlockVerdict(False, tuple(p))
    return BlockVerdict(True, None)


def _kept(build: Callable) -> Callable:
    """``build`` with ``build(H)`` kept on H under build's name, beside the
    derived tables of :class:`Hypergraph`: built on first use, freed with H."""

    def get(H: Hypergraph):
        known = vars(H)
        if build.__name__ not in known:
            known[build.__name__] = build(H)
        return known[build.__name__]

    return wraps(build)(get)


@_kept
def _edge_multiset(H: Hypergraph) -> Counter:
    return Counter(H.edges)


@_kept
def _shifts(H: Hypergraph) -> tuple[tuple[int, ...], ...] | None:
    """Digit shifts of H that carry 0 to every vertex, else None.

    From s = 1, the largest radix r >= 2 that divides n / s and whose
    :func:`_digit_shift` of stride s is an automorphism is kept and s
    becomes s * r, until s = n; when no radix passes at some stride the
    verdict is None, with no backtracking.  The kept shifts cycle every
    digit of one mixed-radix labelling, so they carry 0 everywhere.  The
    first probe is the rotation v -> v + 1 mod n, so a rotation-invariant
    input gets the rotation alone.  A probe first checks that the edges
    through 0 map onto the edges through s, its image, which refuses most
    failing shifts before the full test of :func:`is_automorphism`.  The
    chain runs only on a regular input with n >= 2, as every
    vertex-transitive one is.
    """
    n, edges, degs = H.n, H.edges, H._degrees
    if n < 2 or min(degs) != max(degs):
        return None
    found: list[tuple[int, ...]] = []
    star = [edges[i] for i in H._incidence[0]]
    stride = 1
    while stride < n:
        rest = n // stride
        for radix in range(rest, 1, -1):
            if rest % radix:
                continue
            # the star is mapped by the shift's first span vertices alone
            span = stride * radix
            block = _digit_shift(span, stride, radix)
            moved = [tuple(sorted([v - v % span + block[v % span] for v in e])) for e in star]
            if sorted(moved) != sorted([edges[i] for i in H._incidence[stride]]):
                continue
            p = _digit_shift(n, stride, radix)
            if is_automorphism(H, p):
                found.append(p)
                stride = span
                break
        else:
            return None
    return tuple(found)


def _digit_shift(n: int, stride: int, radix: int) -> tuple[int, ...]:
    """The digit shift of stride s and radix r on range(n), where s * r
    divides n: it cycles the digit (v // s) mod r of every vertex v and
    keeps the others, v -> v + s, or v - (r - 1) * s when that digit is
    r - 1.  So it rotates each run of s * r vertices by s."""
    span = stride * radix
    block = (*range(stride, span), *range(stride))
    return block if span == n else tuple([b + x for b in range(0, n, span) for x in block])


def _check_permutation(n: int, p: Sequence[int]) -> None:
    if len(p) != n:
        raise HypergraphError(f"permutation has length {len(p)}, expected {n}")
    if sorted(p) != list(range(n)):
        raise HypergraphError("permutation is not a bijection on the vertex set")


def _orbit_of(v0: int, gens: list[tuple[int, ...]]) -> set[int]:
    return _closure((v0,), [g.__getitem__ for g in gens])


def _closure(seeds: Iterable, maps: Sequence[Callable]) -> set:
    """The least set holding ``seeds`` and closed under each of ``maps``: the
    seeds' orbits when the maps are generators' actions on points or sets."""
    # Forward closure suffices: permutation semigroups on a finite set are
    # groups, so inverse images are reached by iterating the generators.
    found = set(seeds)
    todo = list(found)
    while todo:
        x = todo.pop()
        for image_of in maps:
            y = image_of(x)
            if y not in found:
                found.add(y)
                todo.append(y)
    return found


@_kept
def _tables(H: Hypergraph) -> SimpleNamespace:
    """Per-instance search tables, with vertex and edge sets as bitmasks:

    * ``pool[v]``: the vertices with v's sorted sizes of incident edges;
    * ``alike[i]``: the edges of edge i's size, one mask shared per size;
    * ``emask[i]``: the vertices of edge i; ``incmask[v]``: the edges through v;
    * ``adj[v]``, ``near[v]``: the vertices sharing an edge with v, and those
      within distance 2 of v, v excluded.
    """
    n, edges = H.n, H.edges
    incident = H._incidence
    size = [len(e) for e in edges]
    vbit = [1 << v for v in range(n)]
    ebit = [1 << i for i in range(len(edges))]
    emask = [_union(vbit, e) for e in edges]
    incmask = [_union(ebit, through) for through in incident]
    adj = [_union(emask, through) & ~vbit[v] for v, through in enumerate(incident)]
    # The edges through v cover v and adj[v], so the vertices within
    # distance 2 of v are the union of reach[i] over those edges, where
    # reach[i] is the union of adj[w] over the vertices w of edge i: each
    # incidence is read once per table, not once per neighbour.
    reach = [_union(adj, e) for e in edges]
    near = [_union(reach, through) & ~vbit[v] for v, through in enumerate(incident)]
    of_size: dict[int, int] = {}
    for i, s in enumerate(size):
        of_size[s] = of_size.get(s, 0) | ebit[i]
    signature = [tuple(sorted([size[i] for i in through])) for through in incident]
    pools: dict[tuple[int, ...], int] = {}
    for v, sig in enumerate(signature):
        pools[sig] = pools.get(sig, 0) | vbit[v]
    pool, alike = [pools[sig] for sig in signature], [of_size[s] for s in size]
    return SimpleNamespace(pool=pool, alike=alike, emask=emask, incmask=incmask, adj=adj, near=near)


def _union(masks: list[int], indices: Iterable[int]) -> int:
    """The OR of ``masks[i]`` over ``indices``; a plain loop measured faster
    than ``sum`` or ``functools.reduce`` over big-integer masks."""
    out = 0
    for i in indices:
        out |= masks[i]
    return out


def _search(H: Hypergraph, fix: tuple[int, int] | None) -> Iterator[tuple[int, ...]]:
    """Yield the automorphisms of H that send ``fix[0]`` to ``fix[1]``, or
    all of them when ``fix`` is None, each verified by :func:`is_automorphism`.
    A ``fix[1]`` outside ``fix[0]``'s pool leaves ``fix[0]`` an empty domain,
    so the search ends at its first vertex choice."""
    T = _tables(H)
    n = H.n
    everyone = (1 << n) - 1
    incident, emask, incmask, adj, near = H._incidence, T.emask, T.incmask, T.adj, T.near
    # st[v] is vertex v's image domain and st[n + i] edge i's candidate
    # images (the edges of its size until its first vertex is assigned).
    # Every change to st is logged on the trail and undone by popping it.
    st = [*T.pool, *T.alike]
    trail: list[tuple[int, int]] = []

    image = [-1] * n
    free = everyone  # unassigned vertices
    used = 0  # images taken; applied to domains lazily
    reach = 0  # vertices within distance 2 of an assigned one
    hit = 0  # edges holding an assigned vertex
    pinned_img = 0  # vertices of the one candidate image of a pinned edge
    pinned_src = 0  # vertices of the pinned edges themselves
    if fix is not None:
        st[fix[0]] &= 1 << fix[1]
        reach = 1 << fix[0]
    # A frame is [vertex, untried images, trail length, reach, hit,
    # pinned_img, pinned_src]; the last five are as before the vertex was
    # assigned.  The vertex's current image is image[vertex].
    frames: list[list[int]] = []
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
                frames.append([best, best_dom, len(trail), reach, hit, pinned_img, pinned_src])
        else:
            p = tuple(image)
            if is_automorphism(H, p):
                yield p
        # Assign the top frame's next untried image, undoing the previous
        # one, and pop frames that have none left.
        while frames:
            frame = frames[-1]
            w, untried = frame[0], frame[1]
            z = image[w]
            if z >= 0:
                free |= 1 << w
                used ^= 1 << z
                image[w] = -1
                mark = frame[2]
                while len(trail) > mark:
                    i, old = trail.pop()
                    st[i] = old
                reach, hit, pinned_img, pinned_src = frame[3], frame[4], frame[5], frame[6]
            if not untried:
                frames.pop()
                continue
            low = untried & -untried
            frame[1] = untried ^ low
            z = low.bit_length() - 1
            free ^= 1 << w
            used |= low
            image[w] = z
            reach |= near[w]
            # Adjacency on the 2-section: x shares an edge with w exactly
            # when x's image shares an edge with z.  When w and z each share
            # an edge with every other vertex, that only takes z from each
            # domain, as `used` does, so the rule is skipped.  A vertex it
            # narrows to taken images only refutes w -> z.
            az = adj[z]
            aw = adj[w]
            ok = True
            rest = 0 if aw | 1 << w == everyone == az | low else near[w] & free
            while rest:
                bit = rest & -rest
                rest ^= bit
                x = bit.bit_length() - 1
                old = st[x]
                new = old & az if aw & bit else old & ~az
                if new == old:
                    continue
                trail.append((x, old))
                st[x] = new
                if not new & ~used:
                    ok = False
                    break
            # Each edge through w must map to a candidate through z.  An
            # edge left with one candidate is pinned: its free vertices
            # map into that candidate, and no vertex outside it may; one it
            # narrows to taken images only refutes w -> z too.  An edge with
            # no free vertex is not pinned: its candidate is its vertices'
            # images, all taken already, and only free vertices are read.
            through_z = incmask[z]
            for e in incident[w] if ok else ():
                old = st[n + e]
                new = old & through_z
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
                rest = emask[e] & free
                if not rest:
                    continue
                target = emask[new.bit_length() - 1]
                pinned_img |= target
                pinned_src |= emask[e]
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    x = bit.bit_length() - 1
                    old = st[x]
                    if not old & ~target:
                        continue
                    new = old & target
                    trail.append((x, old))
                    st[x] = new
                    if not new & ~used:
                        ok = False
                        break
                if not ok:
                    break
            hit |= incmask[w]
            if ok:
                break
        else:
            return
