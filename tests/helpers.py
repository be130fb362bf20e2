"""Helpers shared by several test modules."""

from hyperconn import (
    Hypergraph,
    SplitMix64,
    affine_hypergraph,
    boundary,
    cyclic_difference_hypergraph,
    glued_complete_family,
    is_automorphism,
)
from hyperconn.cli import main
from hyperconn.constructions import affine_doubled_family


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def mask_set(mask, n):
    return {v for v in range(n) if mask >> v & 1}


def all_min_atom_sides(H):
    """Every nonempty proper side hitting (min boundary, then min size)."""
    best_value = None
    sides = []
    for mask in range(1, (1 << H.n) - 1):
        X = tuple(v for v in range(H.n) if mask >> v & 1)
        value = len(boundary(H, set(X)))
        if best_value is None or value < best_value:
            best_value = value
            sides = [X]
        elif value == best_value:
            sides.append(X)
    min_size = min(len(s) for s in sides)
    return best_value, sorted(s for s in sides if len(s) == min_size)


def orbit_union(n, bases):
    """The union of the Z_n orbits of ``bases``, each orbit without repeats
    (a base that is a coset of a subgroup has a short orbit); a base given
    twice gives each edge of its orbit twice."""
    return Hypergraph(n, tuple(e for b in bases for e in cyclic_difference_hypergraph(n, b).edges))


def relabelled(H, seed):
    """H under a random relabelling of its vertices."""
    rng = SplitMix64(seed)
    perm = list(range(H.n))
    for i in range(H.n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return Hypergraph(H.n, tuple(tuple(perm[v] for v in e) for e in H.edges))


def rotates(H):
    return is_automorphism(H, (*range(1, H.n), 0))


def digit_shift(n, stride, radix):
    """The permutation that adds 1 to the digit (v // stride) mod radix of
    every vertex v, modulo radix, and keeps its other digits."""
    return tuple(v + stride if v // stride % radix < radix - 1 else v - (radix - 1) * stride for v in range(n))


def shift_families():
    """(name, instance, digit shifts of its mixed-radix labelling) for the
    generated families that the rotation does not fix: the affine grid has
    digits (row, column), the doubled grid (copy, row, column) and the glued
    family (block, position)."""
    out = [(f"affine_{k}", affine_hypergraph(k), (digit_shift(k * k, 1, k), digit_shift(k * k, k, k)))
           for k in (3, 5, 7, 11, 13)]
    out += [(f"affine_doubled_{k}", affine_doubled_family(k),
             (digit_shift(2 * k * k, 1, k), digit_shift(2 * k * k, k, k), digit_shift(2 * k * k, k * k, 2)))
            for k in (3, 5, 7)]
    out += [(f"glued_complete_{n}_{k}", glued_complete_family(n, k), (digit_shift(n * k, 1, n), digit_shift(n * k, n, k)))
            for n, k in ((5, 3), (6, 3), (7, 4))]
    return out


# Z_n orbit unions that are transitive but not maximal, with (delta, kappa'):
# three from a census of unions of at most 3 orbits, each checked by the
# oracle, and the linear family with kappa' = 3 and delta = n/3 + 1 at
# n = 18 (2-edges at the even differences 3 does not divide, and the three
# cosets of 3Z_18).
CENSUS = (
    (10, ((0, 1, 5, 6), (0, 2, 4, 6)), 6, 5),
    (12, ((0, 3), (0, 2, 4, 6, 8, 10)), 3, 2),
    (12, ((0, 2), (0, 4), (0, 3, 6, 9)), 5, 3),
    (18, ((0, 2), (0, 4), (0, 8), tuple(range(0, 18, 3))), 7, 3),
    # every orbit doubled, and one doubled: multi-edges
    (10, ((0, 1, 5, 6), (0, 1, 5, 6), (0, 2, 4, 6), (0, 2, 4, 6)), 12, 10),
    (12, ((0, 2), (0, 4), (0, 4), (0, 3, 6, 9)), 7, 3),
)
