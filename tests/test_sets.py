import hashlib
import json

import numpy as np
import pytest

from conzopt import (
    ConZono,
    IntervalBox,
    LinearSystem,
    SparseMat,
    affine_map,
    cartesian_product,
    generalized_intersection,
    interval_to_zono,
    make_regular_polygon,
    minkowski_sum,
    point_set,
    rotation_matrix,
    rotation_uncertainty_zono,
    svse_step_sparse,
    unroll,
    zonotope_support,
)
from conzopt.sets import _trig_range
from oracles import lp_contains, lp_is_empty, random_zonotope


def unit_box(n=2):
    return interval_to_zono(IntervalBox(-np.ones(n), np.ones(n)))


def test_conzono_validation():
    with pytest.raises(ValueError, match="^c of length 3 does not match 2"):
        ConZono(SparseMat(np.eye(2)), np.zeros(3))
    with pytest.raises(ValueError, match=r"^A of shape \(1, 3\) does not match \(\*, 2\)$"):
        ConZono(SparseMat(np.eye(2)), np.zeros(2), SparseMat(np.ones((1, 3))), [0.0])
    with pytest.raises(ValueError, match="^b of length 2 does not match 1"):
        ConZono(SparseMat(np.eye(2)), np.zeros(2), SparseMat(np.ones((1, 2))), [0.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["G", "c", "A", "b"])
def test_conzono_rejects_non_finite_entries(name, bad):
    parts = {"G": np.eye(2), "c": np.zeros(2), "A": np.ones((1, 2)), "b": np.zeros(1)}
    parts[name] = parts[name].copy()
    parts[name].flat[0] = bad
    with pytest.raises(ValueError, match=f"^{name} has a NaN or infinite entry"):
        ConZono(parts["G"], parts["c"], parts["A"], parts["b"])


_HUGE = ConZono(SparseMat.eye(1), [1e308])
_HUGE_SYSTEM = LinearSystem(SparseMat.eye(1), SparseMat.eye(1), _HUGE, _HUGE, C=SparseMat.eye(1))

_OVERFLOWS = {   # each result's center or rhs overflows to an infinity (svse_step_sparse's at y - V.c)
    "minkowski_sum": ("c", lambda: minkowski_sum(_HUGE, _HUGE)),
    "generalized_intersection": ("b", lambda: generalized_intersection(_HUGE, ConZono(SparseMat.eye(1), [-1e308]))),
    "affine_map": ("c", lambda: affine_map(SparseMat.eye(1), _HUGE, [1e308])),
    "unroll": ("b", lambda: unroll(_HUGE, SparseMat.eye(1), SparseMat.eye(1), [(_HUGE, _HUGE, [-1e308])])),
    "svse_step_sparse": ("b", lambda: svse_step_sparse(_HUGE, _HUGE_SYSTEM, _HUGE, ConZono(SparseMat.eye(1), [-1e308]),
                                                       [0.0], [1e308])),
}


@pytest.mark.parametrize("op", sorted(_OVERFLOWS))
def test_overflowing_set_arithmetic_raises(op):
    name, make = _OVERFLOWS[op]
    # numpy's overflow warning is an error under the project's warning filter; the set must refuse the infinity
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=f"^{name} has a NaN or infinite entry"):
        make()


def test_json_rejects_non_finite_center():
    d = unit_box().to_json_dict()
    d["c"] = [float("nan"), 0.0]
    with pytest.raises(ValueError, match="^c "):
        ConZono.from_json_dict(d)


def test_polygon_vertex_count_must_be_an_integer():
    with pytest.raises(TypeError):
        make_regular_polygon(6.9, 1.0)
    assert make_regular_polygon(np.int64(6), 1.0).n_g == 3


def test_affine_identity_preserves_structure():
    Z = unit_box()
    out = affine_map(SparseMat.eye(2), Z)
    assert np.array_equal(out.G.toarray(), Z.G.toarray())
    assert np.array_equal(out.c, Z.c)
    assert out.A.nnz == Z.A.nnz
    assert out.G.nnz == Z.G.nnz


def test_affine_scale_shift():
    out = affine_map(SparseMat(2.0 * np.eye(2)), unit_box(), [1.0, 0.0])
    assert np.array_equal(out.G.toarray(), 2.0 * np.eye(2))
    assert np.array_equal(out.c, [1.0, 0.0])


def test_affine_rotation_matches_dense_product(rng):
    Z = random_zonotope(rng, 2, 5)
    R = rotation_matrix(np.pi / 2.0)
    out = affine_map(R, Z)
    assert np.allclose(out.G.toarray(), R.toarray() @ Z.G.toarray())


def test_affine_dimension_errors():
    with pytest.raises(ValueError):
        affine_map(SparseMat(np.ones((2, 3))), unit_box())
    with pytest.raises(ValueError, match="offset"):
        affine_map(SparseMat.eye(2), unit_box(), [1.0])


def test_minkowski_singleton_shifts_center():
    Z = unit_box()
    out = minkowski_sum(Z, point_set([2.0, -1.0]))
    assert np.array_equal(out.c, [2.0, -1.0])
    assert out.n_g == Z.n_g


def test_minkowski_box_supports_add():
    out = minkowski_sum(unit_box(), unit_box())
    assert out.n_g == 4
    assert zonotope_support(out, [1.0, 0.0]) == pytest.approx(2.0)


def test_minkowski_support_additivity(rng):
    Z1 = random_zonotope(rng, 3, 4)
    Z2 = random_zonotope(rng, 3, 6)
    out = minkowski_sum(Z1, Z2)
    for _ in range(16):
        d = rng.normal(size=3)
        assert zonotope_support(out, d) == pytest.approx(
            zonotope_support(Z1, d) + zonotope_support(Z2, d))


def test_minkowski_dimension_error():
    with pytest.raises(ValueError):
        minkowski_sum(unit_box(2), unit_box(3))


def test_cartesian_with_point():
    Z = unit_box()
    out = cartesian_product(Z, point_set([3.0]))
    assert out.dim == 3
    assert out.n_g == Z.n_g
    assert np.array_equal(out.c, [0.0, 0.0, 3.0])


def test_cartesian_intervals_make_box():
    iv = interval_to_zono(IntervalBox([-1.0], [1.0]))
    out = cartesian_product(iv, iv)
    assert np.array_equal(out.G.toarray(), np.eye(2))
    assert np.array_equal(out.c, [0.0, 0.0])


def test_cartesian_nnz_additivity(rng):
    Z1 = random_zonotope(rng, 2, 3)
    Z2 = random_zonotope(rng, 3, 2)
    out = cartesian_product(Z1, Z2)
    assert out.G.nnz == Z1.G.nnz + Z2.G.nnz
    assert out.dim == 5 and out.n_g == 5


def test_intersection_interval_example():
    Z1 = interval_to_zono(IntervalBox([0.0], [1.0]))
    Z2 = interval_to_zono(IntervalBox([2.0], [3.0]))
    out = generalized_intersection(Z1, Z2)
    assert np.array_equal(out.G.toarray(), [[0.5, 0.0]])
    assert np.array_equal(out.A.toarray(), [[0.5, -0.5]])
    assert np.array_equal(out.b, [2.0])
    assert np.array_equal(out.c, [0.5])


def test_intersection_counts():
    Z1, Z2 = unit_box(), unit_box()
    out = generalized_intersection(Z1, Z2)
    assert out.dim == 2
    assert out.n_g == Z1.n_g + Z2.n_g
    assert out.n_c == Z1.n_c + Z2.n_c + Z2.dim


def test_self_intersection_contains_center(rng):
    Z = random_zonotope(rng, 2, 4)
    out = generalized_intersection(Z, Z)
    assert lp_contains(out, Z.c)


def test_intersection_emptiness_by_shift():
    box = unit_box()
    near = affine_map(SparseMat.eye(2), box, [0.5, 0.0])
    far = affine_map(SparseMat.eye(2), box, [3.0, 0.0])
    assert not lp_is_empty(generalized_intersection(box, near))
    assert lp_is_empty(generalized_intersection(box, far))


def test_generalized_intersection_dimension_errors():
    with pytest.raises(ValueError):
        generalized_intersection(unit_box(2), unit_box(3))
    with pytest.raises(ValueError):
        generalized_intersection(unit_box(2), unit_box(2), SparseMat(np.ones((3, 2))))


def test_intersection_with_ambient_box_preserves_membership(rng):
    Z = random_zonotope(rng, 2, 4)
    radius = np.sum(np.abs(Z.G.toarray()), axis=1)
    ambient = interval_to_zono(IntervalBox(Z.c - 2 * radius - 1, Z.c + 2 * radius + 1))
    out = generalized_intersection(Z, ambient)
    for _ in range(100):
        x = Z.c + rng.normal(size=2) * (radius + 0.5)
        assert lp_contains(Z, x) == lp_contains(out, x)


def test_support_identities(rng):
    Z = random_zonotope(rng, 3, 5)
    R = SparseMat(rng.normal(size=(2, 3)))
    s = rng.normal(size=2)
    mapped = affine_map(R, Z, s)
    for _ in range(16):
        d = rng.normal(size=2)
        lhs = zonotope_support(mapped, d)
        rhs = zonotope_support(Z, R.rmatvec(d)) + d @ s
        assert lhs == pytest.approx(rhs)


def test_make_regular_polygon_square_is_unit_box():
    sq = make_regular_polygon(4, 1.0)
    assert np.allclose(sq.G.toarray(), np.eye(2))
    assert np.array_equal(sq.c, [0.0, 0.0])


def test_make_regular_polygon_hexagon_facet_supports():
    hexa = make_regular_polygon(6, 1.0)
    # facet normals are orthogonal to the edge directions
    for k in range(3):
        angle = 2.0 * np.pi * k / 6.0 + np.pi / 2.0
        d = np.array([np.cos(angle), np.sin(angle)])
        assert zonotope_support(hexa, d) == pytest.approx(1.0)
        assert zonotope_support(hexa, -d) == pytest.approx(1.0)


def test_make_regular_polygon_12gon_circumradius():
    poly = make_regular_polygon(12, 5.0)
    circum = 5.0 / np.cos(np.pi / 12.0)
    # vertex directions bisect adjacent facet normals
    for k in range(12):
        angle = np.pi / 2.0 + np.pi / 12.0 + k * np.pi / 6.0
        d = np.array([np.cos(angle), np.sin(angle)])
        assert zonotope_support(poly, d) == pytest.approx(circum)


def test_make_regular_polygon_rejects_odd():
    with pytest.raises(ValueError):
        make_regular_polygon(5, 1.0)
    with pytest.raises(ValueError):
        make_regular_polygon(2, 1.0)


@pytest.mark.parametrize("inradius", [-1.0, -1e-300, np.nan, np.inf])
def test_make_regular_polygon_rejects_bad_inradius(inradius):
    with pytest.raises(ValueError, match="inradius"):
        make_regular_polygon(6, inradius)


def test_make_regular_polygon_zero_inradius_is_point():
    p = make_regular_polygon(6, 0.0, center=(6.0, -5.0))
    assert p.n_g == 3 and p.G.nnz == 0
    assert zonotope_support(p, [1.0, 0.0]) == 6.0 and zonotope_support(p, [-1.0, 0.0]) == -6.0


def test_interval_to_zono_rejects_nan_box():
    with pytest.raises(ValueError):
        interval_to_zono(IntervalBox([np.nan, 0.0], [1.0, 1.0]))


def test_make_regular_polygon_center():
    p = make_regular_polygon(6, 2.0, center=(1.0, -1.0))
    assert np.array_equal(p.c, [1.0, -1.0])


def test_interval_to_zono():
    out = interval_to_zono(IntervalBox([-1.0, -1.0], [1.0, 1.0]))
    assert np.array_equal(out.G.toarray(), np.eye(2))
    out2 = interval_to_zono(IntervalBox([0.0], [2.0]))
    assert np.array_equal(out2.G.toarray(), [[1.0]])
    assert np.array_equal(out2.c, [1.0])


def test_interval_to_zono_degenerate_keeps_column():
    out = interval_to_zono(IntervalBox([3.0], [3.0]))
    assert out.n_g == 1
    assert out.G.nnz == 0
    assert np.array_equal(out.c, [3.0])


def test_rotation_uncertainty_zero_error_is_pure_rotation():
    box = IntervalBox([-1.0, -0.5], [1.0, 0.5])
    theta = 0.7
    out = rotation_uncertainty_zono(theta, 0.0, box)
    pure = affine_map(rotation_matrix(theta), interval_to_zono(box))
    assert np.allclose(out.c, pure.c)
    # error set collapses to the origin: extra generator columns are zero
    assert np.allclose(out.G.toarray()[:, :2], pure.G.toarray())
    assert np.allclose(out.G.toarray()[:, 2:], 0.0)


def test_rotation_uncertainty_contains_all_rotations(rng):
    box = IntervalBox([-1.0, -1.0], [1.0, 1.0])
    out = rotation_uncertainty_zono(0.0, np.pi / 2.0, box)
    corners = np.array([[sx, sy] for sx in (-1, 1) for sy in (-1, 1)], dtype=float)
    for theta in np.linspace(-np.pi / 2.0, np.pi / 2.0, 100):
        R = rotation_matrix(theta).toarray()
        for corner in corners:
            assert lp_contains(out, R @ corner)


def test_rotation_uncertainty_monotone_in_error(rng):
    box = IntervalBox([-1.0, -0.3], [1.0, 0.3])
    small = rotation_uncertainty_zono(0.4, 0.3, box)
    large = rotation_uncertainty_zono(0.4, 0.6, box)
    for _ in range(16):
        d = rng.normal(size=2)
        assert zonotope_support(small, d) <= zonotope_support(large, d) + 1e-12


def test_rotation_uncertainty_rejects_negative_error():
    with pytest.raises(ValueError):
        rotation_uncertainty_zono(0.0, -0.1, IntervalBox([-1, -1], [1, 1]))


def test_rotation_uncertainty_rejects_non_finite_inputs():
    box = IntervalBox([-1.0, -0.5], [1.0, 0.5])
    for theta in (np.inf, -np.inf, np.nan):     # inf used to warn in np.cos, then overflow
        with pytest.raises(ValueError, match="theta_meas must be finite"):
            rotation_uncertainty_zono(theta, 0.1, box)
    with pytest.raises(ValueError, match="e_theta must be nonnegative, got nan"):
        rotation_uncertainty_zono(0.4, np.nan, box)
    # an infinite error allows any heading: the error box spans [-1, 1] in cos and sin
    any_heading = rotation_uncertainty_zono(0.4, np.inf, box)
    for d in ([1.0, 0.0], [0.0, -1.0], [0.6, 0.8]):
        assert zonotope_support(any_heading, d) >= np.hypot(1.0, 0.5) - 1e-12


def test_rotation_uncertainty_arrays_are_pinned():
    # SHA-256 of G, c, A and b over 432 inputs, as the scalar-interval code computed them
    headings = (-100.0, -np.pi, -0.4, 0.0, 0.7, np.pi / 2.0, np.pi, 3.0 * np.pi / 4.0, 100.0)
    errors = (0.0, 1e-9, 0.3, np.pi / 2.0, np.pi, 2.0 * np.pi, 7.0, np.inf)
    boxes = (([0.0, 0.0], [0.0, 0.0]), ([1.0, -0.5], [1.0, 0.5]), ([-1.0, -0.5], [1.0, 0.5]),
             ([0.0, 0.5], [2.0, 1.5]), ([-3.0, -2.0], [-1.0, -0.5]), ([0.0, -1.0], [2.0, 0.0]))
    digest = hashlib.sha256()
    for theta in headings:
        for e_theta in errors:
            for lo, hi in boxes:
                Z = rotation_uncertainty_zono(theta, e_theta, IntervalBox(lo, hi))
                for part in (Z.G.toarray(), Z.c, Z.A.toarray(), Z.b):
                    digest.update(part.tobytes())
    assert digest.hexdigest() == "0c76b3cc92d86c22e98722b796d7e08c64a008ca38d529400a6ef95bd1ae5838"


def test_rotation_uncertainty_rejects_infinite_or_nan_body_boxes():
    for e_theta in (0.0, 0.3, np.inf):
        for lo, hi in (([0.0, -1.0], [np.inf, 1.0]), ([-1.0, -np.inf], [1.0, 0.0])):
            with pytest.raises(ValueError):
                rotation_uncertainty_zono(0.4, e_theta, IntervalBox(lo, hi))
    # 0 * inf in the error box's products
    with pytest.raises(ValueError):
        rotation_uncertainty_zono(0.4, 0.0, IntervalBox([-np.inf, -1.0], [np.inf, 1.0]))
    with pytest.raises(ValueError, match="invalid box"):
        rotation_uncertainty_zono(0.4, 0.3, IntervalBox([np.nan, -1.0], [1.0, 1.0]))


@pytest.mark.parametrize("f, peak", [(np.cos, 0.0), (np.sin, np.pi / 2.0)])
def test_trig_range_contains_samples_and_their_extremes(rng, f, peak):
    for lo, width in zip(rng.uniform(-20.0, 20.0, 200), rng.exponential(1.5, 200)):
        hi = lo + width
        # dense samples, and every extremum peak + k pi near [lo, hi]
        ks = np.arange(np.floor((lo - peak) / np.pi), np.ceil((hi - peak) / np.pi) + 1)
        t = np.concatenate([np.linspace(lo, hi, 2001), peak + np.pi * ks])
        values = f(t[(lo <= t) & (t <= hi)])
        low, high = _trig_range(f, peak, lo, hi)
        assert low <= values.min() + 1e-15 and values.max() - 1e-15 <= high
        # and the range is tight: both ends are reached within the sample spacing
        assert values.min() - low <= 1e-4 and high - values.max() <= 1e-4
    for f_lo, f_hi in ((0.3, 0.3 + 2.0 * np.pi), (-np.inf, np.inf), (5.0, 40.0)):
        assert _trig_range(f, peak, f_lo, f_hi) == (-1.0, 1.0)


def test_zonotope_support_rejects_bad_directions():
    hexa = make_regular_polygon(6, 1.0)
    for d in ([1.0], [1.0, 0.0, 0.0], [[1.0], [0.0]]):
        with pytest.raises(ValueError, match="^d of (length . does not match 2|shape .2, 1. is not a vector)"):
            zonotope_support(hexa, d)
    for d in ([np.nan, 0.0], [np.inf, 1.0]):     # NaN used to return nan
        with pytest.raises(ValueError, match="^d has a NaN or infinite entry"):
            zonotope_support(hexa, d)


def test_json_roundtrip_bit_stable(rng):
    Z = random_zonotope(rng, 3, 4)
    Zc = generalized_intersection(Z, affine_map(SparseMat.eye(3), Z, [0.1, 0.0, 0.0]))
    text = json.dumps(Zc.to_json_dict())
    back = ConZono.from_json_dict(json.loads(text))
    assert np.array_equal(back.G.toarray(), Zc.G.toarray())
    assert np.array_equal(back.A.toarray(), Zc.A.toarray())
    assert np.array_equal(back.c, Zc.c)
    assert np.array_equal(back.b, Zc.b)
    # a second pass through text must be byte-identical
    assert json.dumps(ConZono.from_json_dict(json.loads(text)).to_json_dict()) == text


def test_json_schema_fields():
    Z = unit_box()
    d = Z.to_json_dict()
    assert set(d) == {"n", "nG", "nC", "G", "A", "c", "b"}
    assert d["n"] == 2 and d["nG"] == 2 and d["nC"] == 0
    assert sorted(d["G"]) == [[0, 0, 1.0], [1, 1, 1.0]]
    assert json.loads(json.dumps(d)) == d


def test_json_rejects_non_integral_indices():
    d = unit_box().to_json_dict()
    d["G"][1][0] = 0.5      # used to be truncated to row 0
    with pytest.raises(ValueError, match="row indices must be integers"):
        ConZono.from_json_dict(d)
    d = unit_box().to_json_dict()
    d["G"][0][1] = 1.25
    with pytest.raises(ValueError, match="column indices must be integers"):
        ConZono.from_json_dict(d)
    d = unit_box().to_json_dict()
    d["G"][1][0] = 1.0      # an integral float is an index
    assert ConZono.from_json_dict(d).G.triplets() == [(0, 0, 1.0), (1, 1, 1.0)]


@pytest.mark.parametrize("key, value", [("n", 2.7), ("nG", 1.9), ("nC", 0.0)])
def test_json_rejects_non_integer_counts(key, value):
    # a count is an integer: truncating "n": 2.7 would build a 2-dimensional set
    d = unit_box().to_json_dict()
    d[key] = value
    with pytest.raises(TypeError):
        ConZono.from_json_dict(d)


def test_sets_are_immutable():
    Z = unit_box()
    with pytest.raises(AttributeError):
        Z.c = np.zeros(2)


def test_point_maps_factors():
    Z = unit_box()
    assert np.array_equal(Z.point([0.5, -0.5]), [0.5, -0.5])
