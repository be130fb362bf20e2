"""The seeded random trials of ``verify lemma``, drawn in groups.

Each trial's draws are the ones scalar calls of ``below``, ``next_u64``
and ``random_uniform_hypergraph`` would make, but the instances' outputs
are evaluated a group of trials at a time, in one lane-packed pass, and
their edges are read off in closed form (see ``_subset_masks``).  Only a
group's draws and masks are held at once, so memory does not grow with the
number of trials.
"""

from __future__ import annotations

from typing import Iterator

from .constructions import (
    _GAMMA,
    _LANES,
    _MASK64,
    SplitMix64,
    _below,
    _draw_subsets,
    _lane_ramp,
    _mix_lanes,
)

# a group closes once it holds _GROUP instance outputs or more, and a trial
# adds at most 4 * 2 * 64 = 512, so a pass evaluates fewer than
# _GROUP + 512 <= _PASS_LANES
_GROUP = 2 * _LANES
_PASS_LANES = 4 * _LANES


def _lemma_trials(rng: SplitMix64, trials: int, nmax: int) -> Iterator[tuple]:
    """Each trial as (n, k, m, seed, edge masks, X, Y): n, k, m, the
    instance seed and the vertex bitmasks X and Y as ``rng.below`` and
    ``rng.next_u64`` draw them, and the vertex bitmasks of the edges of
    random_uniform_hypergraph(n, k, m, seed).

    A group's draws are taken from ``rng`` in trial order until its
    instances hold ``_GROUP`` outputs or more; each instance's states follow
    from its seed, so all those outputs are evaluated in one ``_mix_lanes``
    pass.  A bound below n rejects no output at or below 2**64 - n, so only
    a pass holding a larger output is checked trial by trial, and a trial
    that holds one draws its edges through ``_draw_subsets``, which
    rejects exactly.
    """
    outputs = rng._stream()
    # built per call: as module constants these would cost every import of
    # the package, for this suite alone
    ones, steps = _lane_ramp(_PASS_LANES, _GAMMA)
    mask = ones * _MASK64
    while trials:
        group, bases, size = [], bytearray(), 0
        while trials and size < _GROUP:
            n = 2 + _below(outputs, nmax - 1)
            k = 2 + _below(outputs, min(n, 4) - 1)
            m = 1 + _below(outputs, 2 * n)
            seed = next(outputs)
            group.append((n, k, m, seed, _below(outputs, 1 << n), _below(outputs, 1 << n)))
            # lane size + i holds seed - size * gamma; adding steps below
            # makes it seed + (i + 1) * gamma, the state of the instance's
            # output i + 1
            bases += ((seed - size * _GAMMA) & _MASK64).to_bytes(16, "little") * (k * m)
            size += k * m
            trials -= 1
        states = int.from_bytes(bases, "little") + (steps & ((1 << 128 * size) - 1))
        drawn = _mix_lanes(states, size, mask)
        check = max(drawn) > (1 << 64) - nmax
        end = 0
        for n, k, m, seed, x_mask, y_mask in group:
            start, end = end, end + k * m
            if check and max(drawn[start:end]) > (1 << 64) - n:
                chosen = _draw_subsets(SplitMix64(seed), n, k, m)
                edge_masks = {sum(1 << v for v in subset) for subset in chosen}
            else:
                edge_masks = _subset_masks(drawn[start:end], n, k)
            yield n, k, m, seed, edge_masks, x_mask, y_mask


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
