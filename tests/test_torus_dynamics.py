"""Automorphism validation, orbits against the exact rational orbit, and
frequency pushforward."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from szegolab.torus_dynamics import (
    CAT_MAP,
    FREQUENCY_POWER_CAP,
    TWO_PI,
    TorusPoint,
    frequency_pushforward,
    matrix_power,
    orbit_slices,
    validate,
)

from oracles import exact_orbit, scalar_orbit


def _radians(turns):
    """(x, y) arrays of radian coordinates of points given in turns."""
    return (
        np.array([TWO_PI * float(x) for x, _ in turns]),
        np.array([TWO_PI * float(y) for _, y in turns]),
    )


HYPERBOLIC = [
    [[2, 1], [1, 1]],
    [[3, 2], [1, 1]],
    [[5, 2], [2, 1]],
    [[-2, 1], [1, -1]],
]


def test_cat_map_expanding_eigenvalue():
    A = validate([[2, 1], [1, 1]])
    assert A.rho == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)


def test_parabolic_rejected():
    with pytest.raises(ValueError):
        validate([[1, 1], [0, 1]])


def test_rotation_rejected():
    # determinant is fine, |trace| = 0 fails hyperbolicity
    with pytest.raises(ValueError):
        validate([[0, 1], [-1, 0]])


def test_det_minus_one_rejected():
    with pytest.raises(ValueError):
        validate([[2, 1], [1, 0]])


def test_non_integer_rejected():
    with pytest.raises(ValueError):
        validate([[2.5, 1], [1, 1]])


def test_wrong_shape_rejected():
    with pytest.raises(ValueError):
        validate([1, 2, 3])


def test_flat_and_nested_forms_agree():
    assert validate([2, 1, 1, 1]).entries == CAT_MAP.entries


@pytest.mark.parametrize("mat", HYPERBOLIC)
def test_eigen_data(mat):
    A = validate(mat)
    M = np.array(mat, dtype=float)
    vp = np.array(A.v_plus)
    vm = np.array(A.v_minus)
    assert np.max(np.abs(M @ vp - A.rho * vp)) <= 1e-12
    # det M = 1: the contracting eigenvalue is 1 / rho, and the two sum to the trace
    rho_minus = 1.0 / A.rho
    assert np.max(np.abs(M @ vm - rho_minus * vm)) <= 1e-12
    assert abs(A.rho + rho_minus - np.trace(M)) <= 1e-12
    assert abs(np.linalg.norm(vp) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(vm) - 1.0) <= 1e-12
    assert abs(A.rho) > 1.0
    assert A.expansion_rate == pytest.approx(math.log(abs(A.rho)))


def test_origin_is_fixed():
    exact = exact_orbit(CAT_MAP, 0, 0, 40)
    assert set(exact) == {(0, 0)}
    ((xs, ys),) = orbit_slices(CAT_MAP, [[0.0, 0.0]], 40)
    want_x, want_y = _radians(exact)
    assert np.array_equal(xs[0], want_x) and np.array_equal(ys[0], want_y)


def test_period_three_orbit():
    # (pi, 0) -> (0, pi) -> (pi, pi) -> (pi, 0) under the cat map; pi, 2 pi
    # and 3 pi are exact in floats, so the float orbit is bitwise periodic
    exact = exact_orbit(CAT_MAP, Fraction(1, 2), 0, 30)
    half = Fraction(1, 2)
    assert exact[:4] == [(half, 0), (0, half), (half, half), (half, 0)]
    assert exact == exact[:3] * 10
    ((xs, ys),) = orbit_slices(CAT_MAP, [[math.pi, 0.0]], 30)
    want_x, want_y = _radians(exact)
    assert np.array_equal(xs[0], want_x) and np.array_equal(ys[0], want_y)


def test_fifth_root_step():
    assert exact_orbit(CAT_MAP, Fraction(1, 5), Fraction(1, 5), 2)[1] == (
        Fraction(3, 5),
        Fraction(2, 5),
    )
    # the float orbit lands on the same spot
    ((xs, ys),) = orbit_slices(CAT_MAP, [[TWO_PI / 5.0, TWO_PI / 5.0]], 2)
    assert xs[0, 1] == pytest.approx(6.0 * math.pi / 5.0, abs=1e-12)
    assert ys[0, 1] == pytest.approx(4.0 * math.pi / 5.0, abs=1e-12)


@pytest.mark.parametrize("A", [CAT_MAP, validate([[2, -1], [-1, 1]])], ids=["cat", "signed"])
def test_orbit_slices_shadow_exact_orbit(A):
    # every start with denominator 5, 7 or 9, all rows of one batched
    # stream: the float orbit leaves the exact one by at most a rounding
    # of the coordinates, grown by rho per step
    n = 31
    starts = [
        (Fraction(i, q), Fraction(j, q)) for q in (5, 7, 9) for i in range(q) for j in range(q)
    ]
    ((xs, ys),) = orbit_slices(A, np.column_stack(_radians(starts)), n)
    bound = 2.0 * TWO_PI * np.finfo(float).eps * abs(A.rho) ** np.arange(n)
    for row, (xt, yt) in enumerate(starts):
        want_x, want_y = _radians(exact_orbit(A, xt, yt, n))
        for got, want in ((xs[row], want_x), (ys[row], want_y)):
            # distance on the circle of length 2 pi
            gap = np.abs((got - want + math.pi) % TWO_PI - math.pi)
            assert np.all(gap <= bound), (xt, yt)


def test_matrix_power_inverse_cancels():
    for n in (1, 7, 40):
        (a, b), (c, d) = matrix_power(CAT_MAP.entries, n)
        (e, f), (g, h) = matrix_power(CAT_MAP.entries, -n)
        prod = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        assert prod == (1, 0, 0, 1)


def test_pushforward_examples():
    assert frequency_pushforward(CAT_MAP, (1, 0), 1) == (2, 1)
    assert frequency_pushforward(CAT_MAP, (2, 1), -1) == (1, 0)
    assert frequency_pushforward(CAT_MAP, (3, -2), 0) == (3, -2)


@given(
    k1=st.integers(-4, 4),
    k2=st.integers(-4, 4),
    m=st.integers(-20, 20),
    n=st.integers(-20, 20),
)
def test_pushforward_composition(k1, k2, m, n):
    one = frequency_pushforward(CAT_MAP, frequency_pushforward(CAT_MAP, (k1, k2), m), n)
    both = frequency_pushforward(CAT_MAP, (k1, k2), m + n)
    assert one == both


def test_pushforward_cap():
    with pytest.raises(ValueError):
        frequency_pushforward(CAT_MAP, (1, 0), FREQUENCY_POWER_CAP + 1)


def test_orbit_equidistributes():
    rng = np.random.default_rng(11)
    p = TorusPoint.random(rng)
    ((xs, ys),) = orbit_slices(CAT_MAP, [[p.x, p.y]], 10_000)
    avg = np.mean(np.exp(1j * (xs[0] + ys[0])))
    assert abs(avg) <= 0.05


def test_orbit_blocks_concatenate():
    # the points do not depend on the slice width
    p = TorusPoint(2.5, 0.1)
    n = 70_000
    ((xs, ys),) = orbit_slices(CAT_MAP, [[p.x, p.y]], n, n)
    slices = list(orbit_slices(CAT_MAP, [[p.x, p.y]], n))
    assert len(slices) > 1
    assert np.array_equal(xs, np.concatenate([bx for bx, _ in slices], axis=1))
    assert np.array_equal(ys, np.concatenate([by for _, by in slices], axis=1))


# start coordinates at and past the edges of [0, 2 pi)
EDGE_STARTS = (0.0, np.nextafter(TWO_PI, 0.0), TWO_PI + 0.25, -0.75)


@pytest.mark.parametrize(
    "A",
    # trace 3 with negative entries: the remainder's sign fix runs
    [CAT_MAP, validate([[2, -1], [-1, 1]])],
    ids=["cat", "signed"],
)
# row counts on both sides of WIDE_BATCH, where stepping turns batched
@pytest.mark.parametrize("B", [1, 7, 63, 64, 81, 512])
@pytest.mark.parametrize("n", [0, 1, 2, 400])
def test_orbit_rows_bitwise_equal_to_scalar_orbits(A, B, n):
    rng = np.random.default_rng(B * 1000 + n)
    starts = rng.uniform(-TWO_PI, 2.0 * TWO_PI, size=(B, 2))
    k = min(B, len(EDGE_STARTS))
    starts[:k, 0] = EDGE_STARTS[:k]
    starts[:k, 1] = EDGE_STARTS[::-1][:k]
    width = 150  # does not divide 400: the last slice is shorter
    slices = list(orbit_slices(A, starts, n, width))
    assert len(slices) == -(-n // width)
    for bx, by in slices:
        assert bx.shape == by.shape and bx.shape[0] == B and bx.shape[1] <= width
        assert bx.flags.c_contiguous and by.flags.c_contiguous
    xs = np.concatenate([np.empty((B, 0))] + [bx for bx, _ in slices], axis=1)
    ys = np.concatenate([np.empty((B, 0))] + [by for _, by in slices], axis=1)
    for b, (x, y) in enumerate(starts.tolist()):
        want_x, want_y = scalar_orbit(A, x, y, n)
        assert np.array_equal(xs[b].view(np.uint64), want_x.view(np.uint64))
        assert np.array_equal(ys[b].view(np.uint64), want_y.view(np.uint64))


def test_torus_point_reduces_coordinates():
    p = TorusPoint(TWO_PI + 0.5, -0.5)
    assert 0.0 <= p.x < TWO_PI
    assert 0.0 <= p.y < TWO_PI
    assert p.x == pytest.approx(0.5)
    assert p.y == pytest.approx(TWO_PI - 0.5)
