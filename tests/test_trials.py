"""The lemma trials: a known answer, and the closed-form subset masks
against the drawer they stand for."""

import hashlib
from itertools import product

from hyperconn import SplitMix64
from hyperconn.constructions import _draw_subsets
from hyperconn.trials import _lemma_trials, _subset_masks


def test_lemma_trials_match_pinned_digest():
    """Known answer of the trial stream: any change to the order or the
    rule of the draws fails here."""
    digest = hashlib.sha256()
    for n, k, m, edge_masks, x_mask, y_mask in _lemma_trials(SplitMix64(7), 300, 16):
        digest.update(repr((n, k, m, sorted(edge_masks), x_mask, y_mask)).encode())
    assert digest.hexdigest() == "bb30caed9f80c86108672bd7b51d1202a2df0c8e04d3d9782e380c961c7d31b8"


def check_residues(n, k, steps):
    """Each residue tuple, as outputs u with u % (n - i) = r_i, gives the
    one mask of the subset ``_draw_subsets`` picks from the same outputs."""
    steps = list(steps)
    picked = _draw_subsets(iter([r for rs in steps for r in rs]), n, k, len(steps))
    for rs, chosen in zip(steps, picked):
        assert _subset_masks(list(rs), n, k) == {sum(1 << v for v in chosen)}, (n, rs)


def test_pair_closed_form_is_the_drawers_pick():
    """{j0, j1}, or {j0, 0} when j1 == j0, for every n in 2..65 and every
    pair of residues (r0 < n, r1 < n - 1)."""
    for n in range(2, 66):
        check_residues(n, 2, product(range(n), range(n - 1)))


def test_triple_and_quadruple_walks_are_the_drawers_pick():
    """Every residue tuple for small n, where positions repeat most, and
    seeded tuples up to n = 65."""
    for n in range(3, 15):
        check_residues(n, 3, product(range(n), range(n - 1), range(n - 2)))
    for n in range(4, 11):
        check_residues(n, 4, product(range(n), range(n - 1), range(n - 2), range(n - 3)))
    rng = SplitMix64(3)
    for n in range(4, 66):
        for k in (3, 4):
            check_residues(n, k, [[rng.below(n - i) for i in range(k)] for _ in range(300)])


def test_masks_of_many_subsets_are_their_set():
    """Outputs for m subsets, large and repeated, give the set of the m
    masks: the one set the trial counts boundaries on."""
    rng = SplitMix64(11)
    for n, k, m in ((2, 2, 5), (9, 3, 40), (16, 4, 32), (64, 4, 128), (64, 2, 1)):
        outputs = [rng.next_u64() for _ in range(k * m)]
        picked = _draw_subsets(iter(outputs), n, k, m)
        assert _subset_masks(outputs, n, k) == {sum(1 << v for v in c) for c in picked}
