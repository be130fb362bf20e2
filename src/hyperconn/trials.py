"""The seeded random trials of ``verify lemma``.

A trial takes every draw from the suite's one SplitMix64 stream, in order:
n, k and m, then the k * m outputs of its m edges, then the vertex bitmasks
X and Y.  The stream is evaluated in blocks (``SplitMix64._stream``), and
the edges are read off their outputs in closed form (see ``_subset_masks``)
unless one of them might be rejected.  Trials are drawn one at a time, so
memory does not grow with the number of trials.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterator

from .constructions import SplitMix64, _below, _draw_subsets


def _lemma_trials(rng: SplitMix64, trials: int, nmax: int) -> Iterator[tuple]:
    """Each trial as (n, k, m, edge masks, X, Y): the draws that
    ``rng.below(nmax - 1)``, ``rng.below(min(n, 4) - 1)``,
    ``rng.below(2 * n)``, m calls of ``rng.subset(n, k)`` and two of
    ``rng.below(2**n)`` make, with the edges as the set of their vertex
    bitmasks.

    Every bound of an edge step is at most n, so no output at or below
    2**64 - n is rejected: a trial whose k * m outputs are all at most that
    has its masks in closed form, and any other draws its edges through
    ``_draw_subsets``, which rejects exactly and takes replacements from the
    stream.
    """
    outputs = rng._stream()
    for _ in range(trials):
        n = 2 + _below(outputs, nmax - 1)
        k = 2 + _below(outputs, min(n, 4) - 1)
        m = 1 + _below(outputs, 2 * n)
        drawn = list(islice(outputs, k * m))
        if max(drawn) > (1 << 64) - n:
            chosen = _draw_subsets(chain(drawn, outputs), n, k, m)
            edge_masks = {sum(1 << v for v in subset) for subset in chosen}
        else:
            edge_masks = _subset_masks(drawn, n, k)
        yield n, k, m, edge_masks, _below(outputs, 1 << n), _below(outputs, 1 << n)


def _subset_masks(outputs: list[int], n: int, k: int) -> set[int]:
    """The vertex bitmasks of the k-subsets of range(n), 2 <= k <= 4, that
    ``_draw_subsets`` picks from ``outputs``, k to a subset, when it rejects
    none of them.

    Step i takes output u_i, swaps position i with j_i = i + u_i % (n - i)
    and picks the vertex at j_i.  Swap t moved position t's vertex to j_t,
    so walking back from p = j_i through t = i - 1, ..., 0, p becomes t
    wherever p == j_t, and the vertex picked is the final p.  Each walk is
    written out below, with a, b, c for j_0, j_1, j_2, so a subset needs no
    dict and no loop: a 2-subset is {j_0, j_1}, or {j_0, 0} when j_1 == j_0.
    """
    n1, n2, n3 = n - 1, n - 2, n - 3
    outs = iter(outputs)  # zip(outs, outs) pairs consecutive outputs
    if k == 2:
        return {1 << (a := u0 % n) | 1 << (0 if (b := 1 + u1 % n1) == a else b) for u0, u1 in zip(outs, outs)}
    if k == 3:
        return {
            1 << (a := u0 % n)
            | 1 << (0 if (b := 1 + u1 % n1) == a else b)
            | 1 << (0 if (p := 1 if (c := 2 + u2 % n2) == b else c) == a else p)
            for u0, u1, u2 in zip(outs, outs, outs)
        }
    return {
        1 << (a := u0 % n)
        | 1 << (0 if (b := 1 + u1 % n1) == a else b)
        | 1 << (0 if (p := 1 if (c := 2 + u2 % n2) == b else c) == a else p)
        | 1 << (0 if (p := 1 if (p := 2 if (p := 3 + u3 % n3) == c else p) == b else p) == a else p)
        for u0, u1, u2, u3 in zip(outs, outs, outs, outs)
    }
