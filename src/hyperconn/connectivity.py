"""Exact edge-connectivity: a max-flow route, an independent brute-force
oracle, minimum-cut witnesses, and edge atoms.

The flow route reduces "minimum number of edges separating s from t" to a
max-flow problem on a network with one node per vertex.  A 2-edge {u, v}
is one arc pair, u -> v and v -> u, each of capacity 1.  An edge e of 3
or more vertices becomes a node pair (e_in, e_out) joined by a capacity-1
arc, and every incidence v in e adds arcs v -> e_in and e_out -> v with
capacity m + 1, which no minimum separating edge set can reach.  Either
way every vertex side X has cut capacity |boundary(X)|, so the max s-t
flow equals the minimum boundary over vertex sets separating s from t.
One ``_Dinic`` object holds the network, the source set and the labels,
and finds the flow in phases: a BFS from the source set labels residual
distances, then a walk from t back to the source set pushes one unit along
each path that steps one level down, and the phase then resets only the
nodes its BFS labelled.  The BFS that no longer reaches t has labelled the
residual reach of the source set, and its vertex nodes form the witness
side.  That side is the same for every maximum flow, and
whether a 2-edge is built as an arc pair or as a node pair: it is the
unique inclusion-minimal minimum side containing the source set (Picard &
Queyranne, 1980).

``edge_connectivity`` builds the network once per call and takes the
targets in index order, skipping the source s.  After a target's flow the
target joins a source set S that starts as {s}, and the next flow starts
from the flow already in the network: it is conserved at every node
outside S and the next target, so it is a feasible flow of value 0
(Hao & Orlin, 1994).  The best cut starts as {s}, of value delta, and
each flow is capped at the best value so far, or at kappa' + 1 when
automorphisms certify kappa' (below): a flow that reaches the cap cannot
change the answer, so it stops there and builds no witness.  After each
target the loop stops once the best reaches a floor: 1, the least value
of a connected input, or kappa' itself when automorphisms certify it.
Most capped flows need not run at all: ``_Dinic.lower_bound`` reads a
lower bound on the S-t flow from t's own arcs, and a target whose bound
reaches the cap joins S with no flow.  A skip pushes nothing, and the
flow already in the network has value 0 at t, so it stays a feasible
start once t joins S.  Later flows then reach the same values, and their
witnesses, each the unique minimal minimum side, are the same too.

The answer is the one n - 1 separate s-t flows would give: the minimal
minimum side X of the first target t* with lambda(s, t*) = kappa'.  When
kappa' = delta, t* is the first target and X is the start {s}: it is a
minimum side, and no side holding s is smaller.  Otherwise an earlier
target t outside X would have lambda(s, t) <= kappa', against the choice
of t*, so X holds every earlier target.  Hence X is also the minimal
minimum side holding S and not t*.  An earlier target's S-t value is at
least its s-t value, which is above kappa', so the cap at t* is above
kappa' and t*'s flow ends at kappa' with X as its witness; no later flow
goes below kappa'.

Automorphisms certify the floor (Mader, 1971).  Write lambda(u, v) for
the least boundary separating u from v.  Then lambda(g(u), g(v)) =
lambda(u, v) for every automorphism g, and lambda(u, w) >= min(lambda(u,
v), lambda(v, w)), as a side separating u from w separates v from one of
them.  Let a set A of automorphisms carry 0 to every vertex.  A walk
from 0 to h(0), h a word g_1 ... g_l in A, steps from (g_1 ... g_j-1)(0)
to (g_1 ... g_j)(0), the image of the pair (0, g_j(0)), so kappa' = min
over g in A of lambda(0, g(0)).  Such an input is vertex-transitive,
hence regular, and s = 0.  A is the digit shifts of ``symmetry._shifts``
when they passed, else the automorphisms the caller holds, each checked.
The shifts are found once per instance and only on a regular input, so a
caller that got them as its generators has them tested already.  Each
image g(0) other than 0 and 1 gets one flow of its own from {0}, capped
at the least value so far, starting from delta.  These flows share one
network, whose capacities are reset after each, so each starts from no
flow; the merged loop then runs on it too.  Target 1's flow is the loop's
first, from the same {0}, so when 1 is an image that flow serves both, and
the floor is complete once it is done; the rotation v -> v + 1 mod n is
the case whose only image is 1.  Each merged flow is capped at the floor
of the other images plus 1, as well as at the best value so far.  Target
1's flow finds lambda(0, 1) with its witness when that is below the cap,
and otherwise the floor of the other images is kappa' itself.  An earlier
target than t* has an S-t value above kappa', so the cap only stops its
flow sooner, and t*'s flow ends at kappa', below the cap, with the same
witness.  The floor of 1 that a connected input has anyway certifies
nothing, and its flows keep the best value as their only cap.
Stopping at the floor changes no answer: once the best is kappa', a
capped flow could return a side only below kappa', which no S-t flow is.
A network is built only when a flow may run: none when delta = 1, and
none more when the floor already is delta.

The oracle and the edge atom enumerate vertex sides outright.  Both read
the boundary sizes from one kernel, ``_side_blocks``, and neither shares
any code with the flow route, so the oracle and the flow route can check
each other.  The kernel counts a block of sides at once, bit-sliced, with
a carry-save adder; an edge whose crossings are the same in every block is
added once per instance.  It promises no block order, so each keeps its
answer across blocks by a key: the oracle the least ``(value, mask)``, and
the atom the least value, then size, then sorted vertex sequence.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Sequence

from .model import (
    GuardError,
    Hypergraph,
    HypergraphError,
    _as_vertex_set,
    _check_vertex,
    _mask_vertices,
    boundary,
    is_connected,
)
from .symmetry import _orbit_of, _shifts, is_automorphism

__all__ = [
    "CutResult",
    "st_edge_connectivity",
    "edge_connectivity",
    "edge_connectivity_oracle",
    "edge_atom",
]

_ENUM_GUARD = 26  # exhaustive subset enumeration beyond this is refused


def _check_enumeration_guard(H: Hypergraph, what: str) -> None:
    if not 2 <= H.n <= _ENUM_GUARD:
        raise GuardError(f"{what} enumeration requires 2 <= n <= {_ENUM_GUARD}, got n={H.n}")


@dataclass(frozen=True)
class CutResult:
    """A vertex side and the edge cut it induces; ``value == len(cut_edges)``."""

    side: tuple[int, ...]
    cut_edges: tuple[int, ...]
    value: int

    @classmethod
    def from_side(cls, H: Hypergraph, side) -> "CutResult":
        verts = tuple(sorted(_as_vertex_set(H, side)))
        if not verts or len(verts) >= H.n:
            raise HypergraphError("cut side must be a nonempty proper vertex subset")
        cut = tuple(sorted(boundary(H, verts)))
        return cls(verts, cut, len(cut))


class _Dinic:
    """Dinic's max-flow on the edge network of H, from a source set S that
    starts as {s} and grows by ``join``, to a target t outside S.

    Node ids: vertex v is node v, then each edge of 3 or more vertices gets
    a pair (e_in, e_out), in edge order.  Arcs are stored in pairs, so
    ``a ^ 1`` is the reverse of arc ``a``.

    ``level`` and ``cursor`` last the object's life.  Between flows
    ``level`` is 0 on S and -1 elsewhere, the start of every BFS, and every
    cursor is 0.  A BFS starts from S's ``frontier``, the S nodes that
    still have an arc to a node outside S, and each phase resets exactly the
    nodes its BFS labelled, so a phase costs what it touches, not the size
    of the network.  Paths are walked from t and end at the first level-0
    node, so every node the walk enters was reached from S and the walk
    does not wander.  Both searches are iterative, so path length is
    bounded by memory, not by the interpreter's recursion limit.

    A flow is not undone between calls: it starts from whatever flow the
    capacities already hold.  That is a feasible start as long as it is
    conserved at every node outside S and t.

    One unit per path is always right, even though an arc may have more
    capacity left (a 2-edge's arc holds 2 after a push the other way): an
    arc with capacity left stays under its node's cursor, so the next walk
    from t takes it again.  ``_residual_side`` checks the value.
    """

    def __init__(self, H: Hypergraph, s: int) -> None:
        self.vertices = H.n
        size = H.n + 2 * sum(len(e) > 2 for e in H.edges)
        adj: list[list[int]] = [[] for _ in range(size)]
        to: list[int] = []
        cap: list[int] = []

        def add(u: int, v: int, forward: int, back: int) -> None:
            adj[u].append(len(to))
            to.append(v)
            cap.append(forward)
            adj[v].append(len(to))
            to.append(u)
            cap.append(back)

        big = H.m + 1
        e_in = H.n
        for e in H.edges:
            if len(e) == 2:
                add(e[0], e[1], 1, 1)  # the reverse arc is the edge's other direction
                continue
            e_out = e_in + 1
            add(e_in, e_out, 1, 0)
            for v in e:
                add(v, e_in, big, 0)
                add(e_out, v, big, 0)
            e_in += 2
        self.adj, self.to, self.cap = adj, to, cap
        self.level = [-1] * size
        self.cursor = [0] * size
        self.frontier: list[int] = []
        self.outside = [len(arcs) for arcs in adj]  # arcs to nodes outside S
        self.join(s)

    def join(self, v: int) -> None:
        """Put node v in S, then every edge node whose vertices now all are.

        An edge's (e_in, e_out) pair joins S once all of the edge's vertices
        have, so neither the frontier nor a BFS grows with |S|.  Nodes join
        depth first from a worklist, and the frontier is rebuilt once.
        """
        level, outside, to, adj, n = self.level, self.outside, self.to, self.adj, self.vertices
        joined = []
        todo = [v]
        while todo:
            v = todo.pop()
            if level[v] >= 0:
                continue
            level[v] = 0
            joined.append(v)
            closed = []
            for a in adj[v]:
                w = to[a]
                outside[w] -= 1
                # once its vertices are in S, an edge node's one arc leaving S
                # goes to its partner
                if w >= n and outside[w] <= 1 and level[w] < 0:
                    closed.append(w)
            todo += reversed(closed)
        self.frontier = [u for u in self.frontier + joined if outside[u]]

    def max_flow(self, t: int, limit: int) -> tuple[int, list[int] | None]:
        """Push flow from S to t (not in it) until it is maximum or reaches
        ``limit``.

        Returns ``(value, side)``.  Below ``limit`` the value is the maximum
        flow, and the last BFS, which found no path to t, labelled exactly
        the residual reach of S; ``side`` lists its vertices in increasing
        order.  ``side`` is None when the flow stopped at ``limit``.
        """
        level, cursor = self.level, self.cursor
        total = 0
        side = None
        while total < limit and side is None:
            labelled = self._levels(t)
            if level[t] < 0:
                side = [v for v in range(self.vertices) if level[v] >= 0]
            else:
                total += self._blocking_flow(t, limit - total)
            for x in labelled:
                level[x] = -1
                cursor[x] = 0
        return total, side

    def lower_bound(self, t: int) -> int:
        """A lower bound on the S-t max flow, read from t's own arcs between
        flows; the larger of two counts.

        The edges through t that meet S, multi-edges counted, are disjoint
        one-edge paths, so their number bounds the S-t max flow of the
        network with no flow in it.  The other count is a flow in the
        residual network, on disjoint arcs: every S-t arc of a 2-edge, for
        each 2-edge neighbour u outside S the least of the residual capacity
        of its arcs to t and of the arcs into it from S, each summed over
        parallel arcs, and the e_in -> e_out arc of every wide edge meeting S
        (its incidence arcs keep at least m of their m + 1).  Both bound the
        flow ``max_flow`` would find, since the flow already in the network
        has value 0 at t.
        """
        adj, to, cap, level, n = self.adj, self.to, self.cap, self.level, self.vertices
        meet = residual = 0
        through: dict[int, int] = {}  # 2-edge neighbour outside S -> residual into t
        for b in adj[t]:
            u = to[b]
            if u < n:
                if level[u]:
                    through[u] = through.get(u, 0) + cap[b ^ 1]
                else:
                    meet += 1
                    residual += cap[b ^ 1]
            elif not (u - n) & 1 and self.outside[u] < len(adj[u]):
                # the e_in of a wide edge with a vertex in S
                meet += 1
                residual += cap[adj[u][0]]
        for u, out in through.items():
            if out:
                # an edge node next to u is outside S, as u is
                into = sum(cap[a ^ 1] for a in adj[u] if not level[to[a]])
                residual += min(out, into)
        return max(meet, residual)

    def _levels(self, t: int) -> list[int]:
        """Label residual distances from S, by a BFS from its frontier that
        stops once t is labelled, and return the nodes it labelled."""
        adj, to, cap, level = self.adj, self.to, self.cap, self.level
        queue = self.frontier[:]
        start = len(queue)
        for u in queue:
            d = level[u] + 1
            for a in adj[u]:
                v = to[a]
                if cap[a] and level[v] < 0:
                    level[v] = d
                    queue.append(v)
                    if v == t:
                        return queue[start:]
        return queue[start:]

    def _blocking_flow(self, t: int, limit: int) -> int:
        """Push one unit along each path from S to t whose every arc steps
        one level up, until none is left or ``limit`` units have been pushed.

        The walk starts at t and keeps its path as a stack of the arcs it
        crossed backwards, with a per-node arc cursor.  A node whose arcs
        are exhausted is a dead end: its level is cleared to -1 so no later
        walk enters it.  After each push the walk restarts from t.
        """
        adj, to, cap, level, cursor = self.adj, self.to, self.cap, self.level, self.cursor
        path: list[int] = []
        total = 0
        v = t
        while True:
            if not level[v]:
                for a in path:
                    cap[a] -= 1
                    cap[a ^ 1] += 1
                total += 1
                if total == limit:
                    return total
                path.clear()
                v = t
                continue
            arcs = adj[v]
            prev = level[v] - 1
            for i in range(cursor[v], len(arcs)):
                b = arcs[i]
                if cap[b ^ 1] and level[to[b]] == prev:
                    cursor[v] = i
                    path.append(b ^ 1)
                    v = to[b]
                    break
            else:
                level[v] = -1
                if not path:
                    return total
                v = to[path.pop()]


def _residual_side(H: Hypergraph, value: int, side: list[int]) -> CutResult:
    """The witness of a maximum flow of ``value``, its residual ``side``,
    checked against it."""
    result = CutResult.from_side(H, side)
    if result.value != value:
        raise AssertionError("flow value disagrees with boundary size of the residual side")
    return result


def st_edge_connectivity(H: Hypergraph, s: int, t: int) -> CutResult:
    """Minimum number of edges whose removal separates s from t, with the
    witness side containing s."""
    _check_vertex(H, s)
    _check_vertex(H, t)
    if s == t:
        raise HypergraphError("source and target must differ")
    # each unit leaves s through a distinct edge of s, so deg(s) <= m bounds
    # the flow and m + 1 is no cap
    return _residual_side(H, *_Dinic(H, s).max_flow(t, H.m + 1))


def edge_connectivity(H: Hypergraph, *, automorphisms: Iterable[Sequence[int]] = ()) -> CutResult:
    """Global edge-connectivity via flows from a growing source set.

    The source s is the lowest-indexed minimum-degree vertex, the best cut
    starts as {s}, and each finished target joins the source set.  A
    target runs a flow capped at the best value unless its ``lower_bound``
    already reaches that value.  The least value is the global value: for
    a minimum side X holding s, every target before the first one outside
    X lies in X, so that target's flow is at most |boundary(X)|.  The
    result is the witness of the first target that reaches that minimum,
    the one separate s-t flows would give (see the module docstring).
    Disconnected input yields value 0 with a component as witness.

    The loop also stops once the best value reaches kappa' as certified
    by automorphisms, which changes no answer (see the module docstring):
    by the digit shifts found on a regular input, else by
    ``automorphisms``, each checked, when they carry 0 to every vertex;
    a shift that passed its probe is not tested again.  Target 1's flow,
    the loop's first, also serves as the flow of 1 as an image of 0.  With
    such a floor, each merged flow is capped at kappa' + 1.  Automorphisms
    that do not carry 0 everywhere certify nothing.

    Raises:
        HypergraphError: if n < 2, or if ``automorphisms`` holds a
            permutation that is not an automorphism.
    """
    if H.n < 2:
        raise HypergraphError("edge-connectivity is undefined for fewer than 2 vertices")
    autos = list(automorphisms)
    shifts = _shifts(H) or ()  # each passed its probe, so not tested again
    if not all(p in shifts or is_automorphism(H, p) for p in autos):
        raise HypergraphError("automorphisms holds a permutation that is not an automorphism")
    comps = H._components
    if len(comps) > 1:
        return CutResult.from_side(H, comps[0])
    degs = H._degrees
    delta = min(degs)
    s = degs.index(delta)
    # every edge through s crosses {s}, once per copy
    best = CutResult((s,), H._incidence[s], delta)
    certs = shifts or autos
    floor = certified = 1  # connected, so no target goes below 1
    ceiling = H.m + 1  # no flow reaches it, as deg(s) <= m
    net = None
    if len(_orbit_of(0, certs)) == H.n:
        # transitive, hence regular, so s is 0 and target 1 is the loop's first
        images = {p[0] for p in certs} - {0}
        certified = delta
        for t in sorted(images - {1}):
            if certified > 1:
                if net is None:
                    net = _Dinic(H, 0)
                    empty = net.cap[:]
                value, side = net.max_flow(t, certified)
                net.cap[:] = empty  # each flow starts from {0} and no flow
                if side is not None:
                    certified = value
        ceiling = certified + 1  # above kappa' + 1 only if target 1 then ends the loop
        if 1 not in images:
            floor = certified
    if best.value <= floor:
        return best
    if net is None:
        net = _Dinic(H, s)
    for t in range(H.n):
        if t == s:
            continue
        # a flow the bound already takes to the cap would build no witness
        cap = min(best.value, ceiling)
        if net.lower_bound(t) < cap:
            value, side = net.max_flow(t, cap)
            if side is not None:
                best = _residual_side(H, value, side)
        net.join(t)
        floor = certified  # complete once target 1, the first, is done
        if best.value <= floor:
            break
    return best


def edge_connectivity_oracle(H: Hypergraph) -> CutResult:
    """Brute-force reference: minimize the boundary over all vertex sides.

    By complement symmetry only sides containing vertex 0 are enumerated.
    The witness is the side least by ``(value, mask)``: the first minimum in
    increasing mask order, whatever order the blocks come in.  Independent
    of the flow route by construction.  Guarded to n <= 26.
    """
    _check_enumeration_guard(H, "oracle")
    best_val, best_mask = H.m + 1, 0
    for base, sides, counter in _side_blocks(H):
        val, at = _least(counter, sides)
        p = (at & -at).bit_length() - 1  # the lowest position holding val
        mask = base | p << 1 | 1
        if (val, mask) < (best_val, best_mask):
            best_val, best_mask = val, mask
    return CutResult.from_side(H, _mask_vertices(best_mask, H.n))


def edge_atom(H: Hypergraph) -> CutResult:
    """The canonical optimal side: minimum boundary, then minimum size, then
    lexicographically smallest sorted vertex sequence.

    The complement of an optimal side is optimal too, so the atom never has
    more than n/2 vertices.  Requires a connected input; guarded to n <= 26,
    and the guard comes first, so a large input is refused without a walk.
    """
    _check_enumeration_guard(H, "atom")
    if not is_connected(H):
        raise HypergraphError("edge atom is undefined for a disconnected hypergraph")
    n = H.n
    full = (1 << n) - 1
    low = _block_width(n)
    ones = (1 << (1 << low)) - 1
    bits, present = _position_bits(low)  # bits[v - 1]: the positions whose side holds v
    top = (1 << len(present)) - 1
    absent = [ones ^ x for x in present]  # count top - held, least where held is most
    best_val, best_size, best_mask = H.m + 1, n, 0
    for base, sides, counter in _side_blocks(H):
        val, cand = _least(counter, sides)
        if val > best_val:
            continue
        # this block's best side, by size over the sides and their complements
        high = base.bit_count()
        held, at_held = _least(present, cand)
        unheld, at_left = _least(absent, cand)
        size, comp_size = 1 + high + held, n - 1 - high - (top - unheld)
        if size <= comp_size:
            # At equal size the side wins, as it holds vertex 0.  No other
            # side of val and this size ties with it: two, X and Y, would make
            # X | Y a proper side (both have at most n/2 vertices), and as
            # boundary sizes are submodular the smaller X & Y would hold val.
            side = base | (at_held.bit_length() - 1) << 1 | 1
        else:
            # of complements of one size, the one holding the lowest vertex
            # where they differ
            size = comp_size
            for x in bits:
                at_left = at_left & ~x or at_left
            side = full ^ (base | (at_left.bit_length() - 1) << 1 | 1)
        # then across blocks, by the same rule on whole masks
        if val < best_val or size < best_size:
            best_val, best_size, best_mask = val, size, side
        elif size == best_size:
            # Of two sides of one size, the one holding the lowest vertex
            # where they differ has the smaller sorted vertex sequence.
            diff = side ^ best_mask
            if side & diff & -diff:
                best_mask = side
    return CutResult.from_side(H, _mask_vertices(best_mask, n))


_BLOCK_BITS = 15  # vertices 1..15 vary inside one block of 2**15 sides


def _side_blocks(H: Hypergraph) -> Iterator[tuple[int, int, list[int]]]:
    """The boundary size of every nonempty proper side containing vertex 0,
    bit-sliced: one big integer holds one bit of many sides' sizes.

    Yields ``(base, sides, counter)`` once per block, in no promised order.
    With L = min(n - 1, _BLOCK_BITS), a block covers the 2**L sides
    ``base | p << 1 | 1`` for positions p < 2**L: ``base`` fixes vertices
    L+1..n-1 and bit v - 1 of p places vertex v for v = 1..L.  Bit p of
    ``sides`` is set when that side is a proper subset (only the full vertex
    set is not), and bit p of ``counter[b]`` is bit b of its boundary size.
    A side's complement has the same boundary, so these 2**(n-1) - 1 sides
    cover every nonempty proper side.

    Each low vertex v (v <= L) has a plane, bit p set when side p holds v;
    vertex 0's plane is all ones.  An edge crosses at the positions where
    its planes' OR and AND differ.  The OR and the AND over an edge's low
    vertices are taken once per instance.  An edge with no vertex above L
    crosses at the same positions in every block, so it is added once, into
    a carry-save counter that each block copies.  Every other edge has a
    crossing plane that depends only on which of its high vertices ``base``
    holds: the low AND's complement when all of them, the low OR when none,
    and all ones otherwise.  Blocks keep the planes at 2**L bits however
    large n is.
    """
    n = H.n
    low = _block_width(n)
    ones = (1 << (1 << low)) - 1
    low_verts, full = (2 << low) - 1, (1 << n) - 1
    planes = (ones, *_position_bits(low)[0])

    def low_planes(vs: Sequence[int]) -> tuple[int, int]:
        any_in, all_in = 0, ones
        for v in vs:
            any_in |= planes[v]
            all_in &= planes[v]
        return any_in, ones ^ all_in

    inside: list[tuple[int, ...]] = []  # the edges on vertices 0..L
    reaching: list[tuple[int, int, int]] = []  # (high mask, low OR, not low AND)
    shared: dict[tuple[int, ...], tuple[int, int]] = {}  # one pair per low part
    for e in H.edges:
        k = bisect_right(e, low)
        if k == len(e):
            inside.append(e)
            continue
        head = e[:k]
        if head not in shared:
            shared[head] = low_planes(head)
        reaching.append((sum(1 << v for v in e[k:]), *shared[head]))
    fixed = _carry_save([], (any_in & not_all for any_in, not_all in map(low_planes, inside)))

    def crossing(base: int) -> Iterator[int]:
        for high, any_in, not_all in reaching:
            met = high & base
            yield not_all if met == high else any_in if not met else ones

    for base in range(0, 1 << n, 2 << low):
        sides = ones >> 1 if base | low_verts == full else ones
        yield base, sides, _settle(_carry_save(fixed[:], crossing(base)))


def _block_width(n: int) -> int:
    """L, the number of vertices that vary inside one block of n-vertex sides."""
    return min(n - 1, _BLOCK_BITS)


@cache
def _position_bits(width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For b < ``width``, the 2**width-bit integer whose bit p is bit b of p,
    and the counter planes of how many of them hold each p.

    Each is grown from one period by doubling, which is much faster than
    building it by big-integer division.  Both are built once per width and
    shared, so they are tuples.
    """
    out = []
    for b in range(width):
        half = 1 << b
        x, span = ((1 << half) - 1) << half, 2 * half
        while span < 1 << width:
            x |= x << span
            span *= 2
        out.append(x)
    return tuple(out), tuple(_settle(_carry_save([], out)))


def _carry_save(pending: list[tuple[int, int]], planes: Iterable[int]) -> list[tuple[int, int]]:
    """Add each one-bit-per-position plane into ``pending``, a carry-save
    counter, and return it.

    ``pending[b]`` holds two planes of weight 2**b, 0 where empty.  A third
    plane at a weight is folded in by a full adder, which leaves the sum at
    that weight and moves the carry up one, so the counter keeps two planes
    per bit of the largest count, however many planes are added.
    """
    for x in planes:
        for b, (a, c) in enumerate(pending):
            if not x:
                break
            if not a:
                pending[b] = x, 0
                break
            if not c:
                pending[b] = a, x
                break
            u = a ^ c
            pending[b] = u ^ x, 0
            x = a & c | u & x
        else:
            if x:
                pending.append((x, 0))
    return pending


def _settle(pending: list[tuple[int, int]]) -> list[int]:
    """The bit-sliced counter of a carry-save one, by one ripple: plane b
    holds bit b of every position's count."""
    counter = []
    carry = 0
    for a, c in pending:
        u = a ^ c
        counter.append(u ^ carry)
        carry = a & c | u & carry
    if carry:
        counter.append(carry)
    return counter


def _least(counter: list[int], cand: int) -> tuple[int, int]:
    """The least count over the positions in ``cand`` (nonzero) and the
    positions that hold it, read from the top bit down."""
    value = 0
    for b in range(len(counter) - 1, -1, -1):
        rest = cand & ~counter[b]
        if rest:
            cand = rest
        else:
            value |= 1 << b
    return value, cand
