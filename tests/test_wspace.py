"""Weighted space and field basics: validation, pairing algebra, mass."""

import numpy as np
import pytest

from framelab import Field, WeightedSpace, inner, norm, random_field, total_mass
from framelab.wspace import _Normals

import oracles


def test_space_validation():
    with pytest.raises(ValueError):
        WeightedSpace(0, 1, np.ones(0))
    with pytest.raises(ValueError):
        WeightedSpace(4, 0, np.ones(4))
    with pytest.raises(ValueError):
        WeightedSpace(4, 1, np.ones(3))
    with pytest.raises(ValueError):
        WeightedSpace(4, 1, np.array([1.0, -0.1, 1.0, 1.0]))
    with pytest.raises(ValueError):
        WeightedSpace(4, 1, np.zeros(4))
    with pytest.raises(ValueError):
        WeightedSpace(4, 1, np.array([1.0, np.inf, 1.0, 1.0]))
    # a positive weight whose quadrature weight w/N would be subnormal
    tiny = np.finfo(float).tiny
    with pytest.raises(ValueError, match="subnormal"):
        WeightedSpace(4, 1, np.array([1.0, 2.0 * tiny, 1.0, 1.0]))
    assert WeightedSpace(4, 1, np.array([1.0, 4.0 * tiny, 0.0, 1.0])).support[1]


@pytest.mark.parametrize(
    "grid_size, fiber_dim, name",
    [
        (4.5, 1, "grid_size"),
        (float("nan"), 1, "grid_size"),
        (4, 2.5, "fiber_dim"),
        (4, float("inf"), "fiber_dim"),
        ("4", 1, "grid_size"),
        (4, 1j, "fiber_dim"),
    ],
)
def test_non_integer_sizes_are_refused_not_truncated(grid_size, fiber_dim, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        WeightedSpace(grid_size, fiber_dim, np.ones(4))


def test_integral_float_and_numpy_sizes_are_stored_as_int():
    for n, m in [(4.0, 2.0), (np.int64(4), np.int32(2))]:
        sp = WeightedSpace(n, m, np.ones(4))
        assert (sp.grid_size, sp.fiber_dim) == (4, 2)
        assert type(sp.grid_size) is int and type(sp.fiber_dim) is int


def test_weights_are_readonly():
    sp = WeightedSpace(4, 2, np.ones(4))
    with pytest.raises(ValueError):
        sp.weights[0] = 2.0


def test_support_is_the_positive_weights():
    sp = WeightedSpace(5, 1, np.array([0.0, 1e-300, 2.0, 0.0, 1e-13]))
    assert np.array_equal(sp.support, [False, True, True, False, True])
    with pytest.raises(ValueError):
        sp.support[0] = True


def test_uniform_and_grid():
    sp = WeightedSpace(8, 3, np.ones(8))
    assert sp.grid_size == 8 and sp.fiber_dim == 3
    assert np.all(sp.weights == 1.0)
    assert np.allclose(sp.grid, np.arange(8) / 8)
    assert sp.grid[0] == 0.0 and sp.grid[-1] < 1.0


def test_field_validation():
    with pytest.raises(ValueError):
        Field(np.ones(4))
    f = Field(np.ones((4, 2)))
    with pytest.raises(ValueError):
        f.values[0, 0] = 5.0


def test_inner_frozen_value():
    # (1/4) * (2*0.5 + 2 + 2 + 2) = 7/4
    sp = WeightedSpace(4, 2, np.array([0.5, 1.0, 1.0, 1.0]))
    f = Field(np.ones((4, 2)))
    assert inner(sp, f, f) == pytest.approx(1.75, abs=1e-15)
    assert norm(sp, f) == pytest.approx(np.sqrt(1.75), abs=1e-15)


def test_total_mass_frozen_value():
    sp = WeightedSpace(4, 1, np.array([0.5, 0.25, 0.5, 0.25]))
    assert total_mass(sp) == pytest.approx(0.375, abs=1e-16)


def test_inner_shape_mismatch():
    sp = WeightedSpace(4, 2, np.ones(4))
    good = Field(np.ones((4, 2)))
    bad = Field(np.ones((4, 3)))
    with pytest.raises(ValueError):
        inner(sp, good, bad)
    with pytest.raises(ValueError):
        inner(sp, bad, good)


def test_inner_sesquilinear_sweep():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 4))
        sp = WeightedSpace(n, m, rng.uniform(0.0, 2.0, n) + 1e-3)
        f, g, h = (random_field(sp, rng) for _ in range(3))
        a = complex(rng.standard_normal(), rng.standard_normal())
        lhs = inner(sp, Field(a * f.values + g.values), h)
        rhs = a * inner(sp, f, h) + inner(sp, g, h)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        # conjugate-linear in the second slot
        assert inner(sp, f, Field(a * g.values)) == pytest.approx(
            np.conj(a) * inner(sp, f, g), abs=1e-12
        )
        # hermitian symmetry
        assert inner(sp, f, g) == pytest.approx(np.conj(inner(sp, g, f)), abs=1e-12)
        assert norm(sp, f) >= 0.0


def _bits(z: complex) -> bytes:
    return np.array([z]).tobytes()


def test_inner_keeps_its_bits_in_range():
    # the sum taken under w / 2^e and scaled back by 2^e is exact in binary
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(1, 5))
        w = (rng.uniform(0.0, 2.0, n) + 1e-3) * 10.0 ** rng.uniform(-100, 100)
        sp = WeightedSpace(n, m, w)
        f, g = random_field(sp, rng), random_field(sp, rng)
        assert _bits(inner(sp, f, g)) == _bits(oracles.unscaled_inner(sp, f, g))


def test_inner_at_extreme_weights():
    # ||f||^2 is past the float range, so <f, f> is infinite in its real
    # part and 0 in its imaginary part, not NaN, while the norm is finite;
    # a pairing that is in range is the one of the weights scaled down
    w = np.linspace(1e300, 1.7e308, 8)
    sp = WeightedSpace(8, 2, w)
    f = random_field(sp, _Normals(1))
    assert inner(sp, f, f) == complex(np.inf, 0.0)
    assert np.isfinite(norm(sp, f))
    g = Field(f.values * 2.0**-600)
    assert inner(sp, f, g) == inner(WeightedSpace(8, 2, np.ldexp(w, -600)), f, f)


def test_zero_weight_nodes_are_invisible():
    w = np.array([0.0, 1.0, 1.0, 0.0])
    sp = WeightedSpace(4, 1, w)
    vals = np.zeros((4, 1), dtype=complex)
    vals[0, 0] = 7.0
    vals[3, 0] = -2.0j
    f = Field(vals)
    assert norm(sp, f) == 0.0
    g = Field(np.ones((4, 1)))
    assert inner(sp, f, g) == 0.0


def test_probe_stream_is_pinned():
    # The uniforms are random.Random(seed).random(), whose stream Python keeps
    # across releases; a release that changed it would move these values, and
    # with them every drawn residual of a report.  The tolerance leaves room
    # only for the last bits of numpy's log1p, cos and sin on other machines.
    np.testing.assert_allclose(
        _Normals(0).standard_normal(3),
        [-1.693761550279378, -0.09432106341716918, 0.9232475469372473],
        rtol=1e-13,
    )
    np.testing.assert_allclose(
        _Normals(1).standard_normal((2, 2)),
        [[0.04643568461001409, -0.061750845544236974],
         [-0.5351876824197448, 1.938169075162387]],
        rtol=1e-13,
    )


def test_probe_stream_follows_its_seed():
    shape = (16, 3)
    a = _Normals(7).standard_normal(shape)
    assert a.shape == shape and a.dtype == float
    np.testing.assert_array_equal(a, _Normals(7).standard_normal(shape))
    assert not np.any(a == _Normals(8).standard_normal(shape))
    # one source draws fresh values on each call; an int shape is a 1-d array
    src = _Normals(7)
    first, second = src.standard_normal(5), src.standard_normal(5)
    assert first.shape == (5,) and not np.any(first == second)


def test_probe_stream_moments():
    z = _Normals(0).standard_normal(200_001)
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) < 5 / np.sqrt(z.size)
    assert abs(z.var() - 1.0) < 5 * np.sqrt(2.0 / z.size)
