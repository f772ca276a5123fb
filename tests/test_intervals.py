import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conzopt import Interval, IntervalBox

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def interval_strategy():
    return st.tuples(finite, finite).map(lambda t: Interval(min(t), max(t)))


def test_add_endpoints():
    assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)


def test_sub_endpoints():
    assert Interval(1, 2) - Interval(3, 4) == Interval(-3, -1)


def test_mul_hand_example():
    assert Interval(-1, 2) * Interval(-3, 4) == Interval(-6, 8)


def test_scale_sign_split():
    assert Interval(1, 2).scale(3) == Interval(3, 6)
    assert Interval(1, 2).scale(-3) == Interval(-6, -3)
    assert -2 * Interval(-1, 4) == Interval(-8, 2)


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError, match="component 1"):
        IntervalBox([0.0, 3.0], [1.0, 2.0])


@pytest.mark.parametrize("lo, hi", [([np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.nan]),
                                    ([np.nan], [np.nan])])
def test_nan_bounds_rejected_like_interval(lo, hi):
    bad = int(np.argmax(np.isnan(lo) | np.isnan(hi)))
    with pytest.raises(ValueError):
        Interval(lo[bad], hi[bad])
    with pytest.raises(ValueError, match=f"component {bad}"):
        IntervalBox(lo, hi)


def test_box_membership():
    box = IntervalBox([-1.0, 0.0], [1.0, 2.0])
    assert box.contains([0.0, 1.0])
    assert not box.contains([0.0, 2.5])
    assert box.contains(box.lo) and box.contains(box.hi)


def test_interval_contains_is_closed():
    iv = Interval(0.0, 1.0)
    assert iv.contains(0.0) and iv.contains(1.0) and iv.contains(0.5)
    assert not iv.contains(np.nextafter(0.0, -1.0)) and not iv.contains(np.nextafter(1.0, 2.0))


def _sample(iv, t):
    # lo + t (hi - lo) can round past hi, e.g. lo = -63, hi = 1.9, t = 1
    return min(max(iv.lo + t * (iv.hi - iv.lo), iv.lo), iv.hi)


@given(interval_strategy(), interval_strategy(), st.floats(0, 1), st.floats(0, 1))
@example(Interval(0.0, 0.0), Interval(-63.0, 1.9), 0.0, 1.0)
@settings(max_examples=300, deadline=None)
def test_inclusion_isotonic_add_sub_mul(ix, iy, tx, ty):
    x = _sample(ix, tx)
    y = _sample(iy, ty)
    assert (ix + iy).contains(x + y)
    assert (ix - iy).contains(x - y)
    prod = (ix * iy)
    assert prod.lo - 1e-6 * (1 + abs(prod.lo)) <= x * y <= prod.hi + 1e-6 * (1 + abs(prod.hi))


@given(interval_strategy(), st.floats(-100, 100), st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_inclusion_isotonic_scale(ix, alpha, tx):
    x = ix.lo + tx * (ix.hi - ix.lo)
    scaled = ix.scale(alpha)
    assert scaled.lo - 1e-9 * (1 + abs(scaled.lo)) <= alpha * x <= scaled.hi + 1e-9 * (1 + abs(scaled.hi))


def test_box_roundtrip_intervals():
    box = IntervalBox([Interval(0, 1), Interval(-2, 3)])
    assert len(box) == 2
    assert box[1] == Interval(-2, 3)
    assert [iv.width for iv in box] == [1.0, 5.0]


def test_inclusion_isotonic_bulk(rng):
    # 1000 contained samples per operation
    lo_x, lo_y = rng.normal(size=(2, 1000))
    wx, wy = rng.random(size=(2, 1000))
    x = lo_x + rng.random(1000) * wx
    y = lo_y + rng.random(1000) * wy
    alpha = rng.normal(size=1000) * 10
    for i in range(1000):
        ix = Interval(lo_x[i], lo_x[i] + wx[i])
        iy = Interval(lo_y[i], lo_y[i] + wy[i])
        assert (ix + iy).contains(x[i] + y[i])
        assert (ix - iy).contains(x[i] - y[i])
        prod = ix * iy
        assert prod.lo - 1e-12 <= x[i] * y[i] <= prod.hi + 1e-12
        scaled = ix.scale(alpha[i])
        assert scaled.lo - 1e-12 <= alpha[i] * x[i] <= scaled.hi + 1e-12
