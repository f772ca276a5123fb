import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conzopt import IntervalBox
from conzopt.sets import _product

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def endpoints_strategy():
    return st.tuples(finite, finite).map(lambda t: (min(t), max(t)))


def _bounds(box):
    return box.lo.tolist(), box.hi.tolist()


def test_add_endpoints():
    assert _bounds(IntervalBox([1, -1], [2, 0]) + IntervalBox([3, 5], [4, 6])) == ([4, 4], [6, 6])


def test_sub_endpoints():
    assert _bounds(IntervalBox([1, -1], [2, 0]) - IntervalBox([3, 5], [4, 6])) == ([-3, -7], [-1, -5])


def test_mul_hand_example():
    assert _product((-1.0, 2.0), (-3.0, 4.0)) == (-6.0, 8.0)
    assert _product((1.0, 2.0), (-3.0, -1.0)) == (-6.0, -1.0)


def test_box_takes_both_bounds():
    with pytest.raises(TypeError):
        IntervalBox([0.0, 1.0])


def test_invalid_interval_rejected():
    with pytest.raises(ValueError, match="component 0"):
        IntervalBox([2.0], [1.0])
    with pytest.raises(ValueError, match="component 1"):
        IntervalBox([0.0, 3.0], [1.0, 2.0])


@pytest.mark.parametrize("lo, hi", [([np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.nan]),
                                    ([np.nan], [np.nan])])
def test_nan_bounds_rejected_like_interval(lo, hi):
    # a NaN bound is refused as an inverted one is, at its component
    bad = int(np.argmax(np.isnan(lo) | np.isnan(hi)))
    with pytest.raises(ValueError, match=f"^invalid box: not lo <= hi at component {bad}$"):
        IntervalBox(lo, hi)


def test_box_membership():
    box = IntervalBox([-1.0, 0.0], [1.0, 2.0])
    assert box.contains([0.0, 1.0])
    assert not box.contains([0.0, 2.5])
    assert box.contains(box.lo) and box.contains(box.hi)


def test_interval_contains_is_closed():
    box = IntervalBox([0.0], [1.0])
    assert box.contains(0.0) and box.contains(1.0) and box.contains(0.5)
    assert not box.contains(np.nextafter(0.0, -1.0)) and not box.contains(np.nextafter(1.0, 2.0))


def _sample(iv, t):
    # lo + t (hi - lo) can round past hi, e.g. lo = -63, hi = 1.9, t = 1
    lo, hi = iv
    return min(max(lo + t * (hi - lo), lo), hi)


@given(endpoints_strategy(), endpoints_strategy(), st.floats(0, 1), st.floats(0, 1))
@example((0.0, 0.0), (-63.0, 1.9), 0.0, 1.0)
@settings(max_examples=300, deadline=None)
def test_inclusion_isotonic_add_sub_mul(ix, iy, tx, ty):
    x = _sample(ix, tx)
    y = _sample(iy, ty)
    bx, by = IntervalBox(*ix), IntervalBox(*iy)
    assert (bx + by).contains(x + y)
    assert (bx - by).contains(x - y)
    lo, hi = _product(ix, iy)
    assert lo - 1e-6 * (1 + abs(lo)) <= x * y <= hi + 1e-6 * (1 + abs(hi))


def test_inclusion_isotonic_bulk(rng):
    # 1000 contained samples per operation
    lo_x, lo_y = rng.normal(size=(2, 1000))
    wx, wy = rng.random(size=(2, 1000))
    x = lo_x + rng.random(1000) * wx
    y = lo_y + rng.random(1000) * wy
    bx, by = IntervalBox(lo_x, lo_x + wx), IntervalBox(lo_y, lo_y + wy)
    assert (bx + by).contains(x + y)
    assert (bx - by).contains(x - y)
    for i in range(1000):
        lo, hi = _product((lo_x[i], lo_x[i] + wx[i]), (lo_y[i], lo_y[i] + wy[i]))
        assert lo - 1e-12 <= x[i] * y[i] <= hi + 1e-12


def test_box_operands_are_scalars_or_vectors_of_its_length():
    box = IntervalBox([0.0], [1.0])
    # each of these once broadcast to a two-component result or answer
    for op in (lambda: box.contains([0.5, 0.5]), lambda: box + [1.0, 2.0], lambda: box - [1.0, 2.0],
               lambda: box + IntervalBox([0.0, 0.0], [1.0, 1.0]), lambda: box.contains([[0.5]])):
        with pytest.raises(ValueError, match="^operand of shape .* does not match a box of length 1$"):
            op()
    with pytest.raises(ValueError, match=r"^bounds of shapes \(2, 2\) and \(2, 2\) are not vectors"):
        IntervalBox(np.zeros((2, 2)), np.ones((2, 2)))
    # scalars and infinite entries stay allowed
    assert box.contains(0.5) and IntervalBox([-np.inf], [np.inf]).contains([np.inf])
    assert (box + 1.0).lo[0] == 1.0 and (box - [np.inf]).lo[0] == -np.inf
