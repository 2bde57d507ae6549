"""Property tests over the whole finite upper half-plane.

Every public evaluator either returns finite values or raises a typed
``VoigtError``; a warning (overflow, invalid value) fails the test through
the suite's ``filterwarnings = error``.  The component formulas and the
trapezoidal rules keep that contract on the real axis and below it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voigt2dom import (
    TwoDomainConfig,
    VoigtError,
    evaluate,
    fadsamp,
    reference_values,
    w_cf_external,
    w_continued_fraction,
    w_sampling,
    w_simple_rational,
    w_symmetrized,
    wtrap,
    wtrap_corrected,
    wtrap_midpoint,
    wtrap_offset,
)

# reproducible, and nothing written to a local example database
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=300)

Y_FLOOR = TwoDomainConfig().y_floor
Y_MAX = float(np.finfo(float).max)

abscissas = st.lists(
    st.floats(allow_nan=False, allow_infinity=False),
    min_size=1, max_size=8,
)
heights = st.one_of(
    st.floats(5e-324, Y_MAX, allow_nan=False, allow_infinity=False),
    st.sampled_from([
        float(np.nextafter(Y_FLOOR, 0.0)), Y_FLOOR, float(np.nextafter(Y_FLOOR, 1.0)),
        0.25, 35.0, 1e300, Y_MAX,
    ]),
)


def value_or_typed_error(fn, *args):
    """``fn(*args)`` when it returns finite values, None when it raises a VoigtError."""
    try:
        w = fn(*args)
    except VoigtError:
        return None
    assert np.all(np.isfinite(w))
    return w


class TestValueOrTypedError:
    @PROPERTY
    @given(abscissas, st.one_of(heights, st.just(0.0)))
    def test_fadsamp(self, xs, y):
        value_or_typed_error(fadsamp, np.array(xs) + 1j * y)

    @PROPERTY
    @given(abscissas, heights)
    def test_wtrap(self, xs, y):
        value_or_typed_error(wtrap, np.array(xs) + 1j * y)

    @pytest.mark.parametrize(
        "rule", [wtrap_midpoint, wtrap_corrected, wtrap_offset], ids=lambda f: f.__name__
    )
    @PROPERTY
    @given(abscissas, heights)
    def test_trapezoid_rule(self, rule, xs, y):
        value_or_typed_error(rule, np.array(xs) + 1j * y)

    @pytest.mark.parametrize(
        "rule", [wtrap_midpoint, wtrap_corrected, wtrap_offset], ids=lambda f: f.__name__
    )
    @PROPERTY
    @given(abscissas, heights.map(lambda y: -y))
    def test_trapezoid_rule_below_the_axis(self, rule, xs, y):
        value_or_typed_error(rule, np.array(xs) + 1j * y)

    @pytest.mark.parametrize(
        "formula",
        [w_sampling, w_symmetrized, w_continued_fraction, w_cf_external, w_simple_rational],
        ids=lambda f: f.__name__,
    )
    @PROPERTY
    @given(abscissas, st.one_of(heights, st.just(0.0)))
    def test_component_formula(self, formula, xs, y):
        value_or_typed_error(formula, np.array(xs) + 1j * y)

    @PROPERTY
    @given(abscissas, heights)
    def test_evaluate(self, xs, y):
        value_or_typed_error(evaluate, np.array(xs), y, 3)

    @PROPERTY
    @given(abscissas, heights)
    def test_reference_values(self, xs, y):
        value_or_typed_error(reference_values, np.array(xs) + 1j * y)


class TestConjugateSymmetry:
    @PROPERTY
    @given(abscissas, heights)
    def test_wtrap_is_exact(self, xs, y):
        z = np.array(xs) + 1j * y
        w = value_or_typed_error(wtrap, z)
        if w is not None:
            assert np.array_equal(wtrap(-np.conj(z)), np.conj(w))

    @PROPERTY
    @given(abscissas, heights)
    def test_evaluate(self, xs, y):
        xs = np.array(xs)
        w = evaluate(np.concatenate([xs, -xs]), y, 3)
        right, left = w[:xs.size], w[xs.size:]
        assert np.all(np.abs(left - np.conj(right)) <= 1e-13 * np.abs(right))
