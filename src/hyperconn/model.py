"""Hypergraph instances, structural predicates, and boundary operators.

Vertices are the integers ``0..n-1``, with 1 <= n <= 2**20 whether an
instance is built or parsed (``hyperconn generate`` also builds at most
2**20 edges and 2**24 incidences).  An edge is a strictly increasing
tuple of at least two vertices.  Duplicate edges (multi-edges) are legal
in the model; the generators in :mod:`hyperconn.constructions` never emit
them.
``Hypergraph`` values are immutable and every function here is pure, so
instances can be shared freely between threads.  An instance fills its
derived tables on first use and keeps them while it lives: degrees,
incidence lists and components (tuples), and for :mod:`hyperconn.symmetry`
the edge multiset (a Counter), the digit-shift verdict (a tuple, or None)
and the search tables (lists of bitmasks).  Each is derived from ``n`` and
``edges`` alone, never changed once filled, and plays no part in
equality, hashing or ``repr``.  Two threads that fill one table at once
compute the same value, so either may win.

File format (UTF-8 text, LF line endings):

* lines starting with ``#`` are comments and may appear anywhere,
* the first content line is a header ``h <n> <m>`` with 1 <= n <= 2**20
  and m >= 0; a larger n is refused before anything is sized by it,
* exactly m further content lines ``e v1 v2 ... vk`` follow, each with
  0 <= vi < n and k >= 2 (vertices in any order, no repeats),
* the serializer emits no comments, edges in lexicographic order, single
  spaces, and a trailing newline, so serialization is canonical.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

__all__ = [
    "HypergraphError",
    "ParseError",
    "GuardError",
    "Hypergraph",
    "LinearityVerdict",
    "BoundaryProfile",
    "VertexProfile",
    "parse_hypergraph",
    "serialize_hypergraph",
    "degree",
    "degree_extremes",
    "is_uniform",
    "is_linear",
    "components",
    "is_connected",
    "boundary",
    "boundary_profile",
    "vertex_profile",
]


_MAX_VERTICES = 1 << 20  # the largest n an instance may have
_MAX_EDGES = 1 << 20  # the most edges ``hyperconn generate`` builds
_MAX_INCIDENCES = 1 << 24  # the most (vertex, edge) incidences it builds


class HypergraphError(ValueError):
    """Invalid hypergraph data or operation arguments."""


class ParseError(HypergraphError):
    """Malformed hypergraph file; ``line_no`` is 1-based."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class GuardError(HypergraphError):
    """An exact-enumeration guard was hit (instance too large)."""


@dataclass(frozen=True)
class Hypergraph:
    """An immutable hypergraph on vertices ``0..n-1``.

    Edges are normalized to sorted tuples at construction; edge order (and
    hence edge indices) is preserved as given.  The parser and the
    generators, whose edges are checked already, build through
    :meth:`_trusted`.  The derived tables below are built on first use and
    kept on the instance.
    """

    n: int
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        _check_vertex_count(self.n)
        object.__setattr__(self, "edges", tuple([_normalize_edge(e, self.n) for e in self.edges]))

    @classmethod
    def _trusted(cls, n: int, edges: Iterable[tuple[int, ...]]) -> Hypergraph:
        """An instance on edges that are already sorted tuples keeping the
        edge rule, taken as given.  Only n is checked, before ``edges`` is
        read, so a lazy ``edges`` builds nothing for a refused n."""
        _check_vertex_count(n)
        H = object.__new__(cls)
        object.__setattr__(H, "n", n)
        object.__setattr__(H, "edges", tuple(edges))
        return H

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        """Every vertex's degree, indexed by vertex."""
        degs = [0] * self.n
        for e in self.edges:
            for v in e:
                degs[v] += 1
        return tuple(degs)

    @cached_property
    def _incidence(self) -> tuple[tuple[int, ...], ...]:
        """For every vertex, the indices of the edges through it, in
        increasing order; a multi-edge appears once per copy."""
        incident: list[list[int]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                incident[v].append(i)
        return tuple(map(tuple, incident))

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex sets of connected components, each sorted, ordered by
        minimum: a breadth-first traversal over vertex-edge incidences, in
        which an isolated vertex is a component of its own."""
        edges, incident = self.edges, self._incidence
        seen_v = [False] * self.n
        seen_e = [False] * len(edges)
        out = []
        for start in range(self.n):
            if seen_v[start]:
                continue
            comp = [start]  # also the BFS queue: the loop reads what it appends
            seen_v[start] = True
            for v in comp:
                for i in incident[v]:
                    if seen_e[i]:
                        continue
                    seen_e[i] = True
                    for w in edges[i]:
                        if not seen_v[w]:
                            seen_v[w] = True
                            comp.append(w)
            comp.sort()
            out.append(tuple(comp))
        return tuple(out)


class LinearityVerdict(NamedTuple):
    """Result of :func:`is_linear`; truthy exactly when linear.

    ``witness`` is ``((u, v), i, j)`` for the first vertex pair found in two
    edges, with edge indices i < j, or ``None`` when linear.
    """

    linear: bool
    witness: tuple[tuple[int, int], int, int] | None

    def __bool__(self) -> bool:
        return self.linear


class BoundaryProfile(NamedTuple):
    """Counts of boundary edges by inside-intersection size, uniform only.

    ``counts[i - 1]`` is the number of edges with exactly i vertices inside
    the queried set, for i = 1..k.  Edges disjoint from the set are not
    counted anywhere.
    """

    k: int
    counts: tuple[int, ...]


class VertexProfile(NamedTuple):
    """Incidence counts of one inside vertex x over classified edges.

    ``a[i - 1]`` counts (neighbour, edge) incidences of x with neighbours
    inside the set, over edges with exactly i vertices inside; ``b[i - 1]``
    counts incidences with neighbours outside, over the same edges.  ``b``
    stops at i = k - 1 since fully-inside edges have no outside neighbours.
    """

    k: int
    a: tuple[int, ...]
    b: tuple[int, ...]


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the text file format described in the module docstring.

    Raises:
        ParseError: on a malformed header, a header declaring more than
            ``_MAX_VERTICES`` vertices, a malformed edge line, a vertex
            out of range, an edge of size < 2, a repeated vertex within an
            edge, or an edge count mismatch; the message names the line.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, ...]] = []
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), 1):
        last_line = line_no
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if fields[0] != "h" or len(fields) != 3:
                raise ParseError(line_no, "malformed header, expected 'h <n> <m>'")
            try:
                n, m = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(line_no, "malformed header, counts must be integers") from None
            if n < 1 or m < 0:
                raise ParseError(line_no, "malformed header, need n >= 1 and m >= 0")
            try:
                _check_vertex_count(n)
            except HypergraphError as exc:
                raise ParseError(line_no, str(exc)) from None
            header = (n, m)
            continue
        n, m = header
        if fields[0] != "e":
            raise ParseError(line_no, f"malformed edge line, expected 'e v1 v2 ...' got {fields[0]!r}")
        if len(edges) >= m:
            raise ParseError(line_no, f"edge count mismatch, header declares {m} edges")
        try:
            verts = [int(f) for f in fields[1:]]
        except ValueError:
            raise ParseError(line_no, "malformed edge line, vertices must be integers") from None
        try:
            edges.append(_normalize_edge(verts, n))
        except HypergraphError as exc:
            raise ParseError(line_no, str(exc)) from None
    if header is None:
        raise ParseError(last_line + 1, "malformed header, missing 'h <n> <m>' line")
    n, m = header
    if len(edges) != m:
        raise ParseError(last_line, f"edge count mismatch, header declares {m} edges, found {len(edges)}")
    # every edge was normalized on its own line
    return Hypergraph._trusted(n, edges)


def serialize_hypergraph(H: Hypergraph) -> str:
    """Canonical text form: header, then edges in lexicographic order."""
    lines = [f"h {H.n} {H.m}"]
    for e in sorted(H.edges):
        lines.append("e " + " ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


def degree(H: Hypergraph, v: int) -> int:
    """Number of edges incident to v (multi-edges counted with multiplicity)."""
    _check_vertex(H, v)
    return H._degrees[v]


def degree_extremes(H: Hypergraph) -> tuple[int, int]:
    """(minimum degree, maximum degree) over all vertices."""
    degs = H._degrees
    return (min(degs), max(degs))


def is_uniform(H: Hypergraph) -> int | None:
    """The common edge size k if every edge has it, else None.

    Raises:
        HypergraphError: if H has no edges (uniformity is undefined there).
    """
    if H.m == 0:
        raise HypergraphError("uniformity is undefined for a hypergraph with no edges")
    sizes = {len(e) for e in H.edges}
    return sizes.pop() if len(sizes) == 1 else None


def is_linear(H: Hypergraph) -> LinearityVerdict:
    """Whether every vertex pair lies in at most one edge, with a witness.

    A vertex of degree 1 lies in one edge only, so no pair that holds it
    can repeat: an edge's members are its vertices of degree 2 or more (a
    2-edge's are both).  Each edge walks the earlier edges through its
    members but one, the hub, which has the most of them and is tested for
    by bisection in each edge met.  So two copies of one wide edge cost
    time linear in its size, and a vertex shared by many edges costs
    nothing unless an edge also shares another member.  The witness is
    ``((u, v), i, j)``: the first edge j sharing two vertices with an
    earlier edge, its least such pair, and the first edge i holding it.
    """
    degrees, edges, incidence = H._degrees, H.edges, H._incidence
    earlier = [0] * H.n  # edges through each member so far
    for j, e in enumerate(edges):
        members = [v for v in e if degrees[v] > 1] if len(e) > 2 else e
        hub = max(members, key=earlier.__getitem__, default=None)
        first: dict[int, int] = {}  # earlier edge -> its least walked member
        found = []
        for v in members:
            if v != hub:
                for i in incidence[v][: earlier[v]]:
                    u = first.setdefault(i, v)
                    if u != v:
                        found.append(((u, v), i))
            earlier[v] += 1
        for i, u in first.items():
            f = edges[i]
            k = bisect_left(f, hub)
            if k < len(f) and f[k] == hub:
                found.append(((u, hub) if u < hub else (hub, u), i))
        if found:
            return LinearityVerdict(False, (*min(found), j))
    return LinearityVerdict(True, None)


def components(H: Hypergraph) -> list[list[int]]:
    """Vertex sets of connected components, each sorted, ordered by minimum.

    Breadth-first traversal over vertex-edge incidences; isolated vertices
    form their own components.  Each call returns new lists.
    """
    return [list(comp) for comp in H._components]


def is_connected(H: Hypergraph) -> bool:
    return len(H._components) == 1


def boundary(H: Hypergraph, X: Iterable[int]) -> frozenset[int]:
    """Indices of edges meeting both X and its complement."""
    xs = _as_vertex_set(H, X)
    return frozenset([i for i, e in enumerate(H.edges) if 0 < len(xs.intersection(e)) < len(e)])


def boundary_profile(H: Hypergraph, X: Iterable[int]) -> BoundaryProfile:
    """Classify edges meeting X by their inside-intersection size.

    Requires a uniform hypergraph; counts for i = 1..k-1 partition the
    boundary, and counts[k-1] is the number of edges entirely inside X.
    """
    k = _uniform_k(H, "boundary profile")
    xs = _as_vertex_set(H, X)
    counts = [0] * k
    for e in H.edges:
        inside = len(xs.intersection(e))
        if inside:
            counts[inside - 1] += 1
    return BoundaryProfile(k, tuple(counts))


def vertex_profile(H: Hypergraph, X: Iterable[int], x: int) -> VertexProfile:
    """Inside/outside incidence counts of x over edges classified by X.

    Each edge through x with exactly i vertices inside X contributes i - 1
    to a[i - 1] and k - i to b[i - 1], so a_i + b_i over one such edge is
    always k - 1.  Requires a uniform hypergraph and x in X.
    """
    k = _uniform_k(H, "vertex profile")
    xs = _as_vertex_set(H, X)
    if x not in xs:
        raise HypergraphError(f"vertex {x} is not in X")
    a, b = [0] * k, [0] * k
    for i in H._incidence[x]:
        inside = len(xs.intersection(H.edges[i]))
        a[inside - 1] += inside - 1
        b[inside - 1] += k - inside
    return VertexProfile(k, tuple(a), tuple(b[: k - 1]))


def _first_uncrossing_violation(table: list[int]) -> tuple[int, int] | None:
    """The first pair of vertex bitmasks x <= y, by x then y, with
    table[x | y] + table[x & y] > table[x] + table[y]; None if there is none.

    ``table`` holds a size, such as |boundary(X)|, for each of the 2**n
    bitmasks.  Each x is checked against every y at once on lanes of one
    integer, lane y of w bits holding a number for the pair (x, y).
    ``ors[x]`` has table[x | y] in lane y, and comes from ``ors[x - b]``, b
    the lowest bit of x: lanes of y holding b stay and the others take the
    lane b above.  ``ands[x]`` has table[x & y], and comes from
    ``ands[x + b]``, b the lowest bit not in x, with lanes moved b up.  Lane y
    of ``t + top + table[x] * ones - ors[x] - ands[x]``, t holding the table
    and top the top bit of every lane, then stays within 1..2**w - 1, and its
    top bit is clear just where (x, y) breaks the inequality.
    """
    size = len(table)
    w = (2 * max(table) + 1).bit_length() + 1
    every = (1 << size * w) - 1
    ones = every // ((1 << w) - 1)
    top = ones << w - 1
    t = sum(v << y * w for y, v in enumerate(table))
    split = {}  # bit b -> (the lanes of the y holding b, the other lanes, the bits of b lanes)
    for i in range(size.bit_length() - 1):
        span = w << i
        held = every // ((1 << 2 * span) - 1) * ((1 << span) - 1 << span)
        split[1 << i] = held, every ^ held, span
    ands = [t] * size
    for x in range(size - 2, -1, -1):
        b = ~x & x + 1
        held, clear, span = split[b]
        a = ands[x + b]
        ands[x] = a & clear | a << span & held
    ors = [t] * size
    start = t + top
    for x in range(size):
        b = x & -x
        if b:
            held, clear, span = split[b]
            o = ors[x - b]
            ors[x] = o & held | o >> span & clear
        bad = (~(start + table[x] * ones - ors[x] - ands[x]) & top) >> x * w
        if bad:
            return x, x + ((bad & -bad).bit_length() - 1) // w
    return None


def _uniform_k(H: Hypergraph, what: str) -> int:
    k = is_uniform(H)
    if k is None:
        raise HypergraphError(f"{what} requires a uniform hypergraph")
    return k


def _as_vertex_set(H: Hypergraph, X: Iterable[int]) -> frozenset[int]:
    xs = frozenset(X)
    for v in xs:
        _check_vertex(H, v)
    return xs


def _normalize_edge(e: Iterable[int], n: int) -> tuple[int, ...]:
    """Edge e as a sorted tuple, checked against the edge rule: at least two
    vertices, none repeated, each in [0, n - 1]."""
    verts = tuple(sorted(e))
    if len(verts) < 2:
        raise HypergraphError(f"edge of size {len(verts)}, minimum is 2")
    for a, b in zip(verts, verts[1:]):
        if a == b:
            raise HypergraphError(f"repeated vertex {a} within edge")
    if verts[0] < 0 or verts[-1] >= n:
        bad = verts[0] if verts[0] < 0 else verts[-1]
        raise HypergraphError(f"vertex index {bad} out of range [0, {n - 1}]")
    return verts


def _check_vertex(H: Hypergraph, v: int) -> None:
    if not 0 <= v < H.n:
        raise HypergraphError(f"vertex {v} out of range [0, {H.n - 1}]")


def _check_vertex_count(n: int) -> None:
    if n < 1:
        raise HypergraphError(f"vertex count must be >= 1, got {n}")
    if n > _MAX_VERTICES:
        raise HypergraphError(f"too many vertices, header declares {n}, limit {_MAX_VERTICES}")


def _mask_vertices(mask: int, n: int) -> tuple[int, ...]:
    """The vertices of a bitmask over ``range(n)``, in increasing order."""
    # built from a list so the tuple is sized once; growing it from a
    # generator left about 0.6 MB more peak RSS after verify lemma's trials
    return tuple([v for v in range(n) if mask >> v & 1])
