"""Independent answers for the benchmark's output checks.

Nothing here imports hyperconn.  Instances are read back from the files the
program receives, and every answer is computed by code written separately
from the program's own, so a wrong answer from the program cannot also be
the expected one.

The minimum cuts use breadth-first augmenting paths (Edmonds-Karp) on the
standard hypergraph network: edge i becomes the arc ``in_i -> out_i`` of
capacity 1 and each incidence v in e_i adds uncapacitated arcs
``v -> in_i`` and ``out_i -> v``.  After a maximum a-t flow, the vertices
reachable from a in the residual network form the unique inclusion-minimal
minimum a-t side (Picard & Queyranne, 1980).
"""

from __future__ import annotations

from collections import deque


def read_instance(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """(n, edges) from the hypergraph file format; edges keep file order."""
    n = None
    edges = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "h":
            n = int(fields[1])
        elif fields[0] == "e":
            edges.append(tuple(sorted(int(f) for f in fields[1:])))
        else:
            raise ValueError(f"unexpected line {line!r}")
    if n is None:
        raise ValueError("missing header")
    return n, edges


def degrees(n: int, edges) -> list[int]:
    degs = [0] * n
    for e in edges:
        for v in e:
            degs[v] += 1
    return degs


def uniform_k(edges) -> int | None:
    sizes = {len(e) for e in edges}
    return sizes.pop() if len(sizes) == 1 else None


def is_linear(edges) -> bool:
    seen = set()
    for e in edges:
        for i, u in enumerate(e):
            for w in e[i + 1 :]:
                if (u, w) in seen:
                    return False
                seen.add((u, w))
    return True


def component_of(n: int, edges, start: int) -> set[int]:
    incident: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        for v in e:
            incident[v].append(e)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for e in incident[v]:
            for w in e:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return seen


def boundary(edges, side) -> list[int]:
    """Indices of edges with vertices both in and outside ``side``."""
    inside = set(side)
    return [i for i, e in enumerate(edges) if 0 < sum(v in inside for v in e) < len(e)]


def machine_base(n: int, edges) -> dict[str, str]:
    """The structural ``--machine`` lines: n, m, delta, Delta, uniform_k,
    linear, connected."""
    degs = degrees(n, edges)
    k = uniform_k(edges)
    return {
        "n": str(n),
        "m": str(len(edges)),
        "delta": str(min(degs)),
        "Delta": str(max(degs)),
        "uniform_k": "none" if k is None else str(k),
        "linear": _flag(is_linear(edges)),
        "connected": _flag(len(component_of(n, edges, 0)) == n),
    }


class CutNetwork:
    """Unit-capacity network of one hypergraph, rebuilt capacities per pair."""

    def __init__(self, n: int, edges) -> None:
        self.n = n
        size = n + 2 * len(edges)
        self.adj: list[list[int]] = [[] for _ in range(size)]
        self.head: list[int] = []
        self.base: list[int] = []
        big = len(edges) + 1
        for i, e in enumerate(edges):
            e_in, e_out = n + 2 * i, n + 2 * i + 1
            self._arc(e_in, e_out, 1)
            for v in e:
                self._arc(v, e_in, big)
                self._arc(e_out, v, big)

    def _arc(self, u: int, v: int, capacity: int) -> None:
        self.adj[u].append(len(self.head))
        self.head.append(v)
        self.base.append(capacity)
        self.adj[v].append(len(self.head))
        self.head.append(u)
        self.base.append(0)

    def min_cut(self, s: int, t: int, cap: int) -> tuple[int, set[int] | None]:
        """(min(flow value, cap), minimal side) for the s-t pair.

        The side is the residual-reachable vertex set when the value is
        below ``cap``, else None (the pair cannot beat the cap).
        """
        res = list(self.base)
        flow = 0
        while True:
            parent = {s: -1}
            queue = deque([s])
            while queue and t not in parent:
                u = queue.popleft()
                for a in self.adj[u]:
                    v = self.head[a]
                    if res[a] > 0 and v not in parent:
                        parent[v] = a
                        queue.append(v)
            if t not in parent:
                return flow, {v for v in parent if v < self.n}
            flow += 1
            if flow >= cap:
                return cap, None
            v = t
            while v != s:
                a = parent[v]
                res[a] -= 1
                res[a ^ 1] += 1
                v = self.head[a ^ 1]


def edge_connectivity(n: int, edges) -> int:
    """Global minimum edge cut: 0 when disconnected, else min over targets
    of the flow from vertex 0, each flow capped at the best value so far."""
    if len(component_of(n, edges, 0)) < n:
        return 0
    best = min(degrees(n, edges))
    net = CutNetwork(n, edges)
    for t in range(1, n):
        value, _ = net.min_cut(0, t, best)
        best = min(best, value)
    return best


def edge_atom(n: int, edges, kappa: int) -> tuple[int, ...]:
    """Smallest side of boundary kappa, ties to the lexicographically least.

    The atom A is the minimal minimum a-t side for any a in A and t outside
    it, so it is the least of the minimal sides over all ordered pairs
    whose flow value is kappa.
    """
    net = CutNetwork(n, edges)
    best: tuple[int, tuple[int, ...]] | None = None
    for a in range(n):
        for t in range(n):
            if a == t:
                continue
            value, side = net.min_cut(a, t, kappa + 1)
            if value == kappa:
                key = (len(side), tuple(sorted(side)))
                if best is None or key < best:
                    best = key
    if best is None:
        raise ValueError("no side attains kappa")
    return best[1]


def _flag(value: bool) -> str:
    return "true" if value else "false"
