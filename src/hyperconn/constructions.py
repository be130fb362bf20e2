"""Deterministic instance generators and the built-in verification corpora.

Every generator is 0-based and emits a lexicographically sorted,
deduplicated edge list, so serialization of generated instances is
canonical.  Where a construction is usually described with 1-based labels,
the mapping is noted on the generator (and echoed into the provenance
comments the CLI writes).

The circulant, cyclic-difference, affine, doubled affine and glued
families are orbit closures (:func:`orbit_hypergraph`) of a few base
blocks under the rotation or digit shifts (``symmetry._digit_shift``), so
those generators are automorphisms of the family by construction.
"""

from __future__ import annotations

import struct
from itertools import chain, combinations, islice
from typing import Iterable, Iterator, Sequence

from .model import Hypergraph, HypergraphError, _check_vertex_count, _normalize_edge
from .symmetry import _check_permutation, _closure, _digit_shift

__all__ = [
    "SplitMix64",
    "orbit_hypergraph",
    "complete_uniform",
    "glued_complete_family",
    "affine_hypergraph",
    "affine_doubled_family",
    "cyclic_difference_hypergraph",
    "base_differences_distinct",
    "circulant_graph",
    "random_uniform_hypergraph",
    "builtin_corpus",
    "transitive_graph_corpus",
    "linear_uniform_corpus",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# SplitMix64._block evaluates this many outputs at once, one per 128-bit lane
# of a Python int; lane i is bits 128*i .. 128*i + 127.
_LANES = 256


_LANE_ONES = int.from_bytes((1).to_bytes(16, "little") * _LANES, "little")
_LANE_STEPS = int.from_bytes(
    b"".join([((i + 1) * _GAMMA).to_bytes(16, "little") for i in range(_LANES)]), "little"
)
_LANE_LOW64 = _LANE_ONES * _MASK64
# struct format of the lanes' low halves: lane i's is little-endian bytes 16*i .. 16*i + 7
_LANE_LOW_FORMAT = "<" + "Q8x" * _LANES


class SplitMix64:
    """SplitMix64: a tiny, documented, portable 64-bit generator.

    Step: state += 0x9E3779B97F4A7C15; z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
    output z ^ (z >> 31); all arithmetic mod 2**64.

    Identical seeds give identical streams on every platform, so corpora
    sampled through this class are reproducible across implementations.

    Output i (from 1) depends only on a counter: it is the mix of
    state_i = seed + i * 0x9E3779B97F4A7C15 mod 2**64 (Steele, Lea & Flood,
    OOPSLA 2014).  So the next outputs need not be taken one step at a time:
    ``_block`` puts the states of the next ``_LANES`` outputs into the 128-bit
    lanes of one int and applies each xor-shift and multiply to all lanes at
    once.  A lane holds a value below 2**64 and a product of two such values
    fits in 128 bits, so after masking each lane back to 64 bits no step
    carries between lanes, and every lane ends with exactly the scalar
    output.  Only ``_block`` mixes: every draw takes from one stream of its
    blocks (``_stream``), so all draws from a generator continue one sequence.
    """

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64
        self._outputs = chain.from_iterable(iter(self._block, None))

    def next_u64(self) -> int:
        return next(self._stream())

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), bound <= 2**64, by rejection, so no modulo bias."""
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must be in [1, 2**64], got {bound}")
        return _below(self._stream(), bound)

    def subset(self, n: int, k: int) -> tuple[int, ...]:
        """Uniform k-subset of range(n), n <= 2**64, via a partial Fisher-Yates shuffle."""
        if not 0 <= k <= n <= 1 << 64:
            raise ValueError(f"subset needs 0 <= k <= n <= 2**64, got n={n}, k={k}")
        (chosen,) = _draw_subsets(self._stream(), n, k, 1)
        return tuple(sorted(chosen))

    def _block(self) -> tuple[int, ...]:
        """The next ``_LANES`` outputs, as that many calls of ``next_u64``
        would return them, evaluated in one pass over the lanes."""
        # lane i holds state + (i + 1) * gamma, the state of output i + 1
        z = (self.state * _LANE_ONES + _LANE_STEPS) & _LANE_LOW64
        z = (((z ^ (z >> 30)) & _LANE_LOW64) * 0xBF58476D1CE4E5B9) & _LANE_LOW64
        z = (((z ^ (z >> 27)) & _LANE_LOW64) * 0x94D049BB133111EB) & _LANE_LOW64
        # the shift leaks the next lane's low bits into this lane's high
        # half only, which the read below drops
        z ^= z >> 31
        self.state = (self.state + _LANES * _GAMMA) & _MASK64
        return struct.unpack(_LANE_LOW_FORMAT, z.to_bytes(16 * _LANES, "little"))

    def _stream(self) -> Iterator[int]:
        """The outputs not yet taken, evaluated by ``_block`` a whole block
        ahead: the generator's one stream, the same iterator at every call."""
        return self._outputs


def _threshold(bound: int) -> int:
    """The one rejection rule of a draw below ``bound``: an output at or
    past the largest multiple of ``bound`` not above 2**64 is rejected, so
    ``u % bound`` of an accepted output u has no modulo bias."""
    return (1 << 64) - (1 << 64) % bound


def _below(outputs: Iterator[int], bound: int) -> int:
    """A uniform integer in [0, bound) from the first output of ``outputs``
    that ``_threshold`` accepts."""
    threshold = _threshold(bound)
    u = next(outputs)
    while u >= threshold:
        u = next(outputs)
    return u % bound


def _lemma_trials(rng: SplitMix64, trials: int, nmax: int) -> Iterator[tuple]:
    """The seeded random trials of ``verify lemma``, one at a time, each as
    (n, masks, X, Y), drawn in order from one stream of ``rng``:
    n = 2 + below(nmax - 1), m = 1 + below(2 * n), then m outputs u, each
    giving the vertex bitmask u & (2**n - 1), listed in draw order with
    repeats and masks of fewer than two vertices, as neither can break the
    inequality edge by edge, then X and Y below 2**n.
    """
    outputs = rng._stream()
    for _ in range(trials):
        n = 2 + _below(outputs, nmax - 1)
        full = (1 << n) - 1
        masks = [u & full for u in islice(outputs, 1 + _below(outputs, 2 * n))]
        yield n, masks, next(outputs) & full, next(outputs) & full


def orbit_hypergraph(n: int, gens: Iterable[Sequence[int]], bases: Iterable[Iterable[int]]) -> Hypergraph:
    """The union of the set-orbits of the base blocks under the group that
    the permutations ``gens`` of range(n) generate, each edge once, sorted;
    every generator is an automorphism of the result.  Images are closed as
    vertex orbits are, by ``symmetry._closure``.

    Raises:
        HypergraphError: if n is out of range, a generator is not a
            permutation of range(n), or a base block breaks the edge rule.
    """
    return Hypergraph._trusted(n, _orbit_edges(n, gens, bases))


def _orbit_edges(
    n: int, gens: Iterable[Sequence[int]], bases: Iterable[Iterable[int]]
) -> Iterator[tuple[int, ...]]:
    """The edges of :func:`orbit_hypergraph`, sorted; nothing runs before
    the first is asked for, so a refused n builds nothing."""
    maps = []
    for g in gens:
        _check_permutation(n, g)
        maps.append(lambda e, image_of=tuple(g).__getitem__: tuple(sorted(map(image_of, e))))
    yield from sorted(_closure([_normalize_edge(b, n) for b in bases], maps))


def complete_uniform(n: int, k: int) -> Hypergraph:
    """All k-subsets of range(n) as edges, in lexicographic order."""
    if not 2 <= k <= n:
        raise HypergraphError(f"complete uniform requires 2 <= k <= n, got k={k}, n={n}")
    return Hypergraph._trusted(n, combinations(range(n), k))


def glued_complete_family(n: int, k: int) -> Hypergraph:
    """k complete k-uniform blocks on n vertices each, glued by n joining edges.

    Block i (1-based) occupies vertices [(i-1)*n, i*n); the joining edge for
    position v collects that position across all blocks, so a 1-based label
    (v, i) is vertex (i-1)*n + (v-1).  Requires k >= 3 and n >= k + 2.
    """
    if k < 3 or n < k + 2:
        raise HypergraphError(
            f"glued complete family requires k >= 3 and n >= {k + 2}, got n={n}, k={k}"
        )
    gens = (_digit_shift(n * k, 1, n), _digit_shift(n * k, n, k))
    return orbit_hypergraph(n * k, gens, [*combinations(range(n), k), range(0, n * k, n)])


def affine_hypergraph(k: int) -> Hypergraph:
    """k*k vertices and the k*k lines of the sloped classes; the row class is
    deliberately left out, which makes the instance k-regular and linear."""
    _require_odd_prime(k)
    gens = (_digit_shift(k * k, 1, k), _digit_shift(k * k, k, k))
    return orbit_hypergraph(k * k, gens, _lines_through_0(k))


def affine_doubled_family(k: int) -> Hypergraph:
    """Two disjoint copies of :func:`affine_hypergraph` joined row by row.

    The second copy occupies vertices k*k..2*k*k-1.  Joining edge i (size
    2k) is row i of the grid together with its shifted twin, restoring row
    adjacency that the line classes alone do not provide.
    """
    _require_odd_prime(k)
    n = 2 * k * k
    gens = (_digit_shift(n, 1, k), _digit_shift(n, k, k), _digit_shift(n, k * k, 2))
    return orbit_hypergraph(n, gens, [*_lines_through_0(k), (*range(k), *range(k * k, k * k + k))])


def _lines_through_0(k: int) -> list[list[int]]:
    """The line of each slope s through grid point 0: in row t, column s * t mod k."""
    return [[t * k + s * t % k for t in range(k)] for s in range(k)]


def cyclic_difference_hypergraph(n: int, base: Iterable[int]) -> Hypergraph:
    """All translates of ``base`` modulo n, deduplicated and sorted.

    Rotation by one is always an automorphism.  The instance is linear
    exactly when the pairwise differences of the base are distinct mod n
    (see :func:`base_differences_distinct`), provided the translates are
    themselves pairwise distinct.
    """
    b = tuple(sorted(set(base)))
    if len(b) < 2:
        raise HypergraphError(f"base must contain at least 2 residues, got {b}")
    if b[0] < 0 or b[-1] >= n:
        raise HypergraphError(f"base {b} must lie in [0, {n - 1}]")
    return orbit_hypergraph(n, [_digit_shift(n, 1, n)], [b])


def base_differences_distinct(n: int, base: Iterable[int]) -> bool:
    """Whether all ordered pairwise differences of the base are distinct mod n."""
    b = tuple(sorted(set(base)))
    diffs = [(x - y) % n for x in b for y in b if x != y]
    return len(diffs) == len(set(diffs))


def circulant_graph(n: int, offsets: Iterable[int]) -> Hypergraph:
    """2-uniform instance joining v to v + d mod n for each offset d."""
    offs = sorted(set(offsets))
    if n < 2:
        raise HypergraphError(f"circulant graph requires n >= 2, got {n}")
    for d in offs:
        if not 1 <= d <= n // 2:
            raise HypergraphError(f"offset {d} outside [1, {n // 2}]")
    return orbit_hypergraph(n, [_digit_shift(n, 1, n)], [(0, d) for d in offs])


def random_uniform_hypergraph(n: int, k: int, m: int, seed: int) -> Hypergraph:
    """m k-subsets of range(n) drawn uniformly with replacement through
    :class:`SplitMix64`, then deduplicated, so at most m edges are emitted.

    The edges are the ones m calls of ``SplitMix64(seed).subset(n, k)``
    would draw: the draw takes the same outputs, only evaluated in blocks.
    """
    if not 2 <= k <= n:
        raise HypergraphError(f"random uniform requires 2 <= k <= n, got k={k}, n={n}")
    if m < 0:
        raise HypergraphError(f"edge count must be >= 0, got {m}")
    _check_vertex_count(n)  # before any draw: past 2**64 vertices no draw ends
    outputs = SplitMix64(seed)._stream()
    edges = {tuple(sorted(chosen)) for chosen in _draw_subsets(outputs, n, k, m)}
    return Hypergraph._trusted(n, sorted(edges))


def _draw_subsets(outputs: Iterator[int], n: int, k: int, m: int) -> Iterator[list[int]]:
    """Yield m uniform k-subsets of range(n), 0 <= k <= n, each as its
    members in draw order, taking ``outputs`` in order and none past the
    last one used.

    Each subset is a partial Fisher-Yates shuffle: step i swaps position i
    with i + u mod (n - i), where an output u that ``_threshold`` rejects is
    skipped and the next one taken, exactly as :meth:`SplitMix64.below`
    does.  Only swapped positions are stored, so a subset costs O(k), not
    O(n).
    """
    thresholds = [_threshold(n - i) for i in range(k)]
    for _ in range(m):
        chosen: list[int] = []
        moved: dict[int, int] = {}
        for i, threshold in enumerate(thresholds):
            u = next(outputs)
            while u >= threshold:
                u = next(outputs)
            j = i + u % (n - i)
            chosen.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        yield chosen


def transitive_graph_corpus() -> list[tuple[str, Hypergraph]]:
    """2-uniform connected instances with a transitive symmetry group."""
    return [
        ("circulant_6_1", circulant_graph(6, {1})),
        ("circulant_7_12", circulant_graph(7, {1, 2})),
        ("circulant_8_12", circulant_graph(8, {1, 2})),
        ("circulant_9_13", circulant_graph(9, {1, 3})),
        ("circulant_10_125", circulant_graph(10, {1, 2, 5})),
    ]


def linear_uniform_corpus() -> list[tuple[str, Hypergraph]]:
    """Linear k-uniform (k >= 3) connected vertex-transitive instances."""
    return [
        ("affine_3", affine_hypergraph(3)),
        ("affine_5", affine_hypergraph(5)),
        ("cyclic_difference_13_014", cyclic_difference_hypergraph(13, (0, 1, 4))),
        ("cyclic_difference_21_037", cyclic_difference_hypergraph(21, (0, 3, 7))),
    ]


def builtin_corpus() -> list[tuple[str, Hypergraph]]:
    """Named instances exercised by tests and the built-in verification
    suite: the generator families at small parameters plus hand-picked
    controls (a path, a matching, disconnected and non-uniform cases)."""
    items: list[tuple[str, Hypergraph]] = [
        ("single_edge_3", Hypergraph(3, ((0, 1, 2),))),
        ("path_3", Hypergraph(3, ((0, 1), (1, 2)))),
        ("matching_4", Hypergraph(4, ((0, 1), (2, 3)))),
        ("two_triangles_6", Hypergraph(6, ((0, 1, 2), (3, 4, 5)))),
        ("complete_4_2", complete_uniform(4, 2)),
        ("complete_4_3", complete_uniform(4, 3)),
        ("complete_5_3", complete_uniform(5, 3)),
        ("cyclic_difference_7_013", cyclic_difference_hypergraph(7, (0, 1, 3))),
        ("circulant_7_123", circulant_graph(7, {1, 2, 3})),
        ("random_8_3_10_s42", random_uniform_hypergraph(8, 3, 10, 42)),
        ("glued_complete_5_3", glued_complete_family(5, 3)),
        ("affine_doubled_3", affine_doubled_family(3)),
    ]
    items.extend(transitive_graph_corpus())
    items.extend(linear_uniform_corpus())
    items.sort(key=lambda pair: pair[0])
    return items


def _require_odd_prime(k: int) -> None:
    if k < 3 or k % 2 == 0 or any(k % d == 0 for d in range(3, int(k**0.5) + 1, 2)):
        raise HypergraphError(f"parameter must be an odd prime, got {k}")
