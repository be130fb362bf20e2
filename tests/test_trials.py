"""The lemma trials: a known answer, and the sample they draw."""

import hashlib

from hyperconn import SplitMix64
from hyperconn.constructions import _lemma_trials


def test_lemma_trials_match_pinned_digest():
    """Known answer of the trial stream: any change to the order or the
    rule of the draws fails here."""
    digest = hashlib.sha256()
    for n, m, edge_masks, x_mask, y_mask in _lemma_trials(SplitMix64(7), 300, 16):
        digest.update(repr((n, m, sorted(edge_masks), x_mask, y_mask)).encode())
    assert digest.hexdigest() == "68072fae83d9f1c3c87e8afb7dc770295f35a3ae399a54e63e1c02ebefd195a7"


def test_lemma_trials_meet_every_crossing_pattern():
    """X and Y split the vertices into X n Y, X - Y, Y - X and the rest, and
    an edge meets a nonempty set of those four parts: 15 patterns, on which
    the uncrossing inequality is checked edge by edge.  The 1000 trials of
    ``verify lemma --seed 0 --nmax 10`` meet every pattern, with edges of
    more than 4 vertices among them."""
    patterns = set()
    widest = 0
    for n, m, edge_masks, x_mask, y_mask in _lemma_trials(SplitMix64(0), 1000, 10):
        assert 2 <= n <= 10 and 1 <= m <= 2 * n and len(edge_masks) <= m
        parts = (x_mask & y_mask, x_mask & ~y_mask, ~x_mask & y_mask, ~x_mask & ~y_mask)
        for em in edge_masks:
            assert em < 1 << n and em & (em - 1), (n, em)  # two or more vertices
            patterns.add(tuple(bool(em & part) for part in parts))
            widest = max(widest, bin(em).count("1"))
    assert len(patterns) == 15
    assert widest > 4
