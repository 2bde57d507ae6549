"""Tests for the block splitter shared by the multi-branch evaluators."""

import numpy as np
import pytest

from voigt2dom import TwoDomainEvaluator, _common, fadsamp, reference_values, wtrap
from voigt2dom._common import _BLOCK, in_blocks


def _recording(calls, name, fn):
    def branch(v):
        calls.append((name, v))
        return fn(v)

    return branch


def test_empty_input_calls_no_branch():
    calls = []
    out = in_blocks(np.empty(0), lambda b: (b > 0, b <= 0), (
        _recording(calls, "a", np.negative),
        _recording(calls, "b", np.negative),
    ))
    assert calls == []
    assert out.shape == (0,) and out.dtype == np.complex128


@pytest.mark.parametrize("whole", [0, 1, 2])
def test_branch_selecting_every_point_is_the_only_call(whole):
    flat = np.linspace(-2.0, 2.0, 9)
    every = np.ones(flat.shape, dtype=bool)
    for all_of, none_of in ((every, ~every), (np.True_, np.False_)):
        calls = []
        out = in_blocks(
            flat,
            lambda b: tuple(all_of if i == whole else none_of for i in range(3)),
            tuple(_recording(calls, i, lambda v: 2.0 * v) for i in range(3)),
        )
        assert len(calls) == 1
        assert calls[0][0] == whole and np.shares_memory(calls[0][1], flat)
        assert np.array_equal(out, 2.0 * flat)


@pytest.mark.parametrize("split", [0, 4, 9])
def test_result_is_a_writable_complex128_array(split):
    flat = np.linspace(-2.0, 2.0, 9)
    first = np.arange(flat.size) < split
    out = in_blocks(flat, lambda b: (first, ~first), (lambda v: v + 1.0, lambda v: v * 1j))
    assert out.dtype == np.complex128 and out.flags.writeable
    assert np.array_equal(out, np.where(first, flat + 1.0, flat * 1j))


# the first branch takes no block, a whole block or part of one, in each block
@pytest.mark.parametrize("split", [0, _BLOCK + 5, 2 * _BLOCK + 3])
def test_each_block_writes_its_slice(split):
    flat = np.arange(2 * _BLOCK + 9, dtype=float)
    out = in_blocks(flat, lambda b: (b < split, b >= split), (lambda v: v + 1.0, lambda v: v * 1j))
    assert np.array_equal(out, np.where(flat < split, flat + 1.0, flat * 1j))


def test_in_blocks_hands_each_block_its_masks():
    flat = np.arange(2 * _BLOCK + 3, dtype=float)
    seen = []

    def masks(block):
        seen.append(block.size)
        even = block % 2 == 0
        return even, ~even

    out = in_blocks(flat, masks, (lambda v: v, lambda v: -v))
    assert seen == [_BLOCK, _BLOCK, 3]
    assert out.dtype == np.complex128
    assert np.array_equal(out, np.where(flat % 2 == 0, flat, -flat))
    assert in_blocks(flat[:0], masks, ()).shape == (0,) and len(seen) == 3


def test_in_blocks_wants_one_mask_per_branch():
    flat = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError):
        in_blocks(flat, lambda b: (b > 0,), (np.negative, np.positive))
    # also when the one mask covers the whole block
    with pytest.raises(ValueError):
        in_blocks(flat, lambda b: (b > -2.0,), (np.negative, np.positive))


_SIZES = [1, 2, 63, 64, 65, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17]


def _mask(kind, n):
    """One mask of ``n`` points: scattered (random, alternating) or in runs."""
    i = np.arange(n)
    rng = np.random.default_rng(n)
    return {
        "random50": rng.random(n) < 0.5,
        "random1": rng.random(n) < 0.01,
        "one_run": (i >= n // 4) & (i < n - n // 4),
        # a sorted line's exterior
        "two_runs": (i < n // 4) | (i >= n - n // 4),
        "alternating": i % 2 == 0,
    }[kind]


def _split_in_blocks(flat, first):
    """``in_blocks`` over ``flat`` with masks ``first``, then the rest split by i % 3."""
    rest = np.arange(flat.size) % 3 == 0
    global_masks = (first, ~first & rest, ~first & ~rest)
    start = [0]
    calls = {0: [], 1: [], 2: []}

    def masks(block):
        s = start[0]
        start[0] += block.size
        return tuple(m[s:s + block.size] for m in global_masks)

    fns = (lambda v: v * v + 1j, np.exp, lambda v: 1.0 / (v - 0.5j))
    out = in_blocks(flat, masks, tuple(_recording(calls[i], i, fn) for i, fn in enumerate(fns)))
    return out, global_masks, fns, calls


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("kind", ["random50", "random1", "one_run", "two_runs", "alternating"])
def test_both_gather_paths_give_the_masked_values(kind, n):
    rng = np.random.default_rng([n, 1])
    flat = rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(0.0, 3.0, n)
    out, masks, fns, calls = _split_in_blocks(flat, _mask(kind, n))
    ref = np.empty(n, dtype=np.complex128)
    for m, fn in zip(masks, fns):
        if m.any():
            ref[m] = fn(flat[m])
    assert np.array_equal(out, ref)
    for i, m in enumerate(masks):
        # exactly its points, in input order, and never an empty selection
        assert all(v.size for _, v in calls[i])
        got = np.concatenate([v for _, v in calls[i]]) if calls[i] else flat[:0]
        assert np.array_equal(got, flat[m])


@pytest.mark.parametrize("kind, by_index", [
    ("random50", True), ("random1", True), ("alternating", True),
    ("one_run", False), ("two_runs", False),
])
def test_fragmented_blocks_are_gathered_by_index(kind, by_index, monkeypatch):
    indexed = []

    def flatnonzero(m):
        indexed.append(m.size)
        return np.nonzero(np.ravel(m))[0]

    monkeypatch.setattr(np, "flatnonzero", flatnonzero)
    flat = np.linspace(-3.0, 3.0, _BLOCK)
    _split_in_blocks(flat, _mask(kind, _BLOCK))
    assert bool(indexed) == by_index


# branch 0 takes the first block whole, and the other two share the rest
@pytest.mark.parametrize("stream", [5000, _BLOCK, 2 * _BLOCK])
def test_whole_blocks_stream_in_slices(stream, monkeypatch):
    flat = np.linspace(-3.0, 3.0, 2 * _BLOCK + 9)
    first = np.arange(flat.size) < _BLOCK
    # the reference: slices as long as a block, so one call per whole block
    monkeypatch.setattr(_common, "_STREAM", _BLOCK)
    ref, _, _, ref_calls = _split_in_blocks(flat, first)
    monkeypatch.setattr(_common, "_STREAM", stream)
    out, _, _, calls = _split_in_blocks(flat, first)
    assert out.tobytes() == ref.tobytes()
    assert [(np.shares_memory(v, flat), v.size) for _, v in ref_calls[0]] == [(True, _BLOCK)]
    # consecutive in-order views of flat, of at most stream points, that cover the block
    views = [v for _, v in calls[0]]
    assert all(np.shares_memory(v, flat) and v.size <= stream for v in views)
    assert [(v.ctypes.data - flat.ctypes.data) // flat.itemsize for v in views] == \
        list(range(0, _BLOCK, stream))
    assert sum(v.size for v in views) == _BLOCK
    # the partial masks' branches get the calls they get without slices
    for i in (1, 2):
        assert len(calls[i]) == len(ref_calls[i]) == 2
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(calls[i], ref_calls[i]))


_X = np.linspace(-3.0, 3.0, 257)
_FAR = np.linspace(50.0, 60.0, 257)


def _two_domain(y):
    return lambda v: TwoDomainEvaluator(y)(v, opt=3)


# for each evaluator, points that all take one branch (the whole-branch path)
# and points that take several
@pytest.mark.parametrize("fn, arg", [
    pytest.param(fadsamp, _X / 3 + 0.5j, id="fadsamp-sampling"),
    pytest.param(fadsamp, _FAR + 1j, id="fadsamp-cf"),
    pytest.param(fadsamp, _X * 4 + 0.01j, id="fadsamp-mixed"),
    pytest.param(wtrap, _X + 30j, id="wtrap-midpoint"),
    pytest.param(wtrap, _X * 3 + 0.3j, id="wtrap-mixed"),
    pytest.param(reference_values, _X / 3 + 0.1j, id="reference-series"),
    pytest.param(reference_values, _X * 3 + 0.5j, id="reference-mixed"),
    pytest.param(_two_domain(0.1), _X, id="evaluate-interior"),
    pytest.param(_two_domain(0.1), _FAR, id="evaluate-exterior"),
    pytest.param(_two_domain(2.0), _X * 20, id="evaluate-mixed"),
    pytest.param(_two_domain(1e-9), _X, id="evaluate-bypass"),
])
def test_evaluators_leave_the_callers_input_unchanged(fn, arg):
    arg = arg.copy()
    before = arg.tobytes()
    # a branch writing to its argument would raise here
    arg.flags.writeable = False
    fn(arg)
    assert arg.tobytes() == before
