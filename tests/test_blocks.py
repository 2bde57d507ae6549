"""Every dispatching evaluator works in blocks of at most ``_BLOCK`` points
and sends each point to the branch its mask function chooses."""

import numpy as np
import pytest

from voigt2dom import (
    InputDomainError, OracleDomainError, TwoDomainEvaluator, core, fadsamp, oracle,
    reference_values, trapezoid, twodomain, wtrap, wtrap_branches,
)
from voigt2dom._common import _BLOCK, _STREAM

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


# sorted points that all take one branch: |z| > 8, y >= max(pi/h, |x|), |z| <= 2
_ONE_BRANCH = {
    "fadsamp": ("w_continued_fraction", lambda x: 8.5 + 30.0 * (x + 1.0) + 0.5j),
    "wtrap": ("wtrap_midpoint", lambda x: 5.0 * x + 10j),
    "reference_values": ("_series_values", lambda x: 1.5 * x + 0.5j),
}


@pytest.mark.parametrize("name", list(_BRANCHES))
def test_whole_blocks_reach_their_branch_in_slices(monkeypatch, name):
    fn, module, _ = _BRANCHES[name]
    branch, line = _ONE_BRANCH[name]
    z = line(np.linspace(-1.0, 1.0, 3 * _BLOCK + 17))
    want = fn(z)
    calls = []
    inner = getattr(module, branch)

    def recording(v, *args):
        calls.append(v)
        return inner(v, *args)

    monkeypatch.setattr(module, branch, recording)
    got = fn(z)
    # consecutive slices of at most _STREAM points that cover the input in order
    assert len(calls) == 3 * (_BLOCK // _STREAM) + 1
    assert max(v.size for v in calls) <= _STREAM
    assert np.array_equal(np.concatenate(calls), z)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name", list(_BRANCHES))
def test_blocks_do_not_change_values(points, name):
    fn = _BRANCHES[name][0]
    w = fn(points)
    pieces = np.concatenate([fn(c) for c in np.array_split(points, 5)])
    assert np.array_equal(w, pieces)
    p = np.random.default_rng(1).permutation(points.size)
    assert np.array_equal(fn(points[p]), w[p])


def _returns_index(i):
    return lambda v, *args: np.full(v.shape, i, dtype=complex)


def _chosen(masks):
    """Index of the one mask that selects each point."""
    masks = np.array(masks)
    assert (masks.sum(axis=0) == 1).all(), "masks must partition"
    return np.argmax(masks, axis=0)


@pytest.mark.parametrize("name", list(_BRANCHES))
def test_each_point_takes_the_branch_its_masks_choose(monkeypatch, points, name):
    fn, module, branches = _BRANCHES[name]
    for i, b in enumerate(branches):
        monkeypatch.setattr(module, b, _returns_index(i))
    if fn is wtrap:
        expected = wtrap_branches(points) - 1
    else:
        expected = _chosen(module._masks(points))
    assert np.all(np.bincount(expected, minlength=len(branches)) > 0)
    assert np.array_equal(fn(points), expected)


@pytest.mark.parametrize("y", [0.3, 2.0])
def test_two_domain_points_take_the_branch_its_masks_choose(monkeypatch, y):
    # y >= 0.25: no Gaussian is added back to the interior branch's values
    monkeypatch.setattr(twodomain, "eval_spline", lambda spline, x: _returns_index(0)(x))
    monkeypatch.setattr(twodomain, "w_cf_external", _returns_index(1))
    xs = np.random.default_rng(5).uniform(-40.0, 40.0, 3 * _BLOCK + 17)
    ev = TwoDomainEvaluator(y)
    expected = _chosen(ev._masks(xs))
    assert np.all(np.bincount(expected, minlength=2) > 0)
    assert np.array_equal(ev(xs, opt=3), expected)


# each evaluator's mask function checks every block, the last one too
@pytest.mark.parametrize("fn, bad, error", [
    (fadsamp, 1.0 - 1e-300j, InputDomainError),
    (wtrap, 1.0 - 1j, InputDomainError),
    (wtrap, 1.0 + 0j, InputDomainError),
    (reference_values, 1.0 - 1j, OracleDomainError),
    (reference_values, 1.0 + 0j, OracleDomainError),
    (reference_values, 2e4j, OracleDomainError),
])
def test_a_bad_point_in_the_last_block_raises(points, fn, bad, error):
    z = points.copy()
    z[-1] = bad
    with pytest.raises(error):
        fn(z)
