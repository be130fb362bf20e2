"""Helpers shared by several test modules."""

from hyperconn import boundary
from hyperconn.cli import main


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
