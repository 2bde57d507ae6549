"""The companions work in blocks of at most ``_BLOCK`` points, as the evaluator does."""

import numpy as np
import pytest

from voigt2dom import core, fadsamp, oracle, reference_values, trapezoid, wtrap
from voigt2dom._common import _BLOCK

# evaluator -> (module whose globals it reaches its branches through, branch names)
_BRANCHES = {
    "fadsamp": (fadsamp, core, ["w_sampling", "w_symmetrized", "w_continued_fraction"]),
    "wtrap": (wtrap, trapezoid, ["wtrap_midpoint", "wtrap_offset", "wtrap_corrected"]),
    "reference_values": (reference_values, oracle, ["_series_values", "wtrap", "w_continued_fraction"]),
}


@pytest.fixture(scope="module")
def points():
    # |z| from ~1e-3 to ~20 with either sign of x and y up to ~16: every block
    # of these shuffled points reaches every branch of all three evaluators
    rng = np.random.default_rng(20240214)
    n = 3 * _BLOCK + 17
    z = rng.uniform(-12.0, 12.0, n) + 1j * 10 ** rng.uniform(-3.0, 1.2, n)
    return z[rng.permutation(n)]


@pytest.mark.parametrize("name", list(_BRANCHES))
def test_no_branch_gets_more_than_a_block(monkeypatch, points, name):
    fn, module, branches = _BRANCHES[name]
    sizes = {b: [] for b in branches}

    def recording(branch):
        inner = getattr(module, branch)

        def wrapper(v, *args):
            sizes[branch].append(v.size)
            return inner(v, *args)

        return wrapper

    for b in branches:
        monkeypatch.setattr(module, b, recording(b))
    fn(points)
    # every block reaches every branch once
    blocks = -(-points.size // _BLOCK)
    assert all(len(s) == blocks for s in sizes.values()), sizes
    assert max(max(s) for s in sizes.values()) <= _BLOCK
    assert sum(sum(s) for s in sizes.values()) == points.size


@pytest.mark.parametrize("name", list(_BRANCHES))
def test_blocks_do_not_change_values(points, name):
    fn = _BRANCHES[name][0]
    w = fn(points)
    pieces = np.concatenate([fn(c) for c in np.array_split(points, 5)])
    assert np.array_equal(w, pieces)
    p = np.random.default_rng(1).permutation(points.size)
    assert np.array_equal(fn(points[p]), w[p])
