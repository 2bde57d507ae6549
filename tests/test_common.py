"""Tests for the block splitter shared by the multi-branch evaluators."""

import numpy as np
import pytest

from voigt2dom import TwoDomainEvaluator, fadsamp, reference_values, wtrap
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
