"""Coefficient operators: pointwise maps, dual routes, spectra, bounds."""

import numpy as np
import pytest

from framelab import (
    Field,
    OperatorFamily,
    TensorBasis,
    WeightedSpace,
    bessel_excess,
    build_default,
    frame_spectrum,
    inner,
    lambda_all,
    parseval_residual,
    random_field,
    total_mass,
)
from framelab.wspace import _Normals

from oracles import (
    analysis_matrix,
    complex_lambda_all,
    lambda_tilde,
    tensor_field,
    unscaled_bessel_excess,
    walsh_family,
)


def _family(n, m, weights=None):
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    sp = WeightedSpace(n, m, w)
    return sp, OperatorFamily(sp, build_default(n))


def test_family_shape_validation():
    sp = WeightedSpace(4, 2, np.ones(4))
    with pytest.raises(ValueError):
        OperatorFamily(sp, build_default(5))


def test_lambda_tilde_hand_values():
    # N=2 scalar family rows: (1, 1) and (1, -1)
    sp, fam = _family(2, 1)
    f = Field(np.array([[2.0], [3.0j]]))
    assert np.allclose(lambda_tilde(fam, 0, 0, f), [2.0, 3.0j])
    assert np.allclose(lambda_tilde(fam, 0, 1, f), [2.0, -3.0j])
    with pytest.raises(IndexError):
        lambda_tilde(fam, 1, 0, f)
    with pytest.raises(IndexError):
        lambda_tilde(fam, 0, 2, f)


def test_lambda_all_matches_loop():
    rng = np.random.default_rng(8)
    sp, fam = _family(6, 3, rng.uniform(0.1, 2.0, 6))
    f = random_field(sp, rng)
    table = lambda_all(fam, f)
    assert table.shape == (3, 6)
    for m in range(3):
        for n in range(6):
            ref = inner(sp, f, tensor_field(fam, m, n))
            assert table[m, n] == pytest.approx(ref, abs=1e-13)


@pytest.mark.parametrize(
    "kind, n", [("dft", 7), ("dft", 512), ("midpoint", 512), ("walsh", 256)]
)
def test_lambda_all_matches_complex_product(kind, n):
    # lambda_all reads the real form R: one real product and an O(NM)
    # unfold give the complex product of the family to rounding, for the
    # analyze, heisenberg and Walsh-Hadamard families, weights with zeros
    # and fiber dimensions 1 to 3, all read through one basis.
    rng = np.random.default_rng(n)
    k = np.arange(n)
    basis = {
        "dft": lambda: TensorBasis.fourier(k, k, n),
        "midpoint": lambda: TensorBasis.fourier(n // 2 - k, 2 * k + 1, 2 * n),
        "walsh": lambda: TensorBasis(walsh_family(n)),
    }[kind]()
    for m in (1, 2, 3):
        w = rng.uniform(0.0, 2.0, n)
        w[::3] = 0.0
        sp = WeightedSpace(n, m, w)
        fam = OperatorFamily(sp, basis)
        f = random_field(sp, rng)
        ref = complex_lambda_all(fam, f)
        assert np.max(np.abs(lambda_all(fam, f) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_adjoint_pairing_identities():
    # the adjoints in closed form: phi -> f_n phi g_m and c -> c G_{m,n}
    rng = np.random.default_rng(21)
    n, m = 8, 2
    w = rng.uniform(0.1, 3.0, n)
    sp, fam = _family(n, m, w)
    f = random_field(sp, rng)
    phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    scalar, fiber = fam.basis.scalar_family, np.eye(m)
    for mm in range(m):
        for nn in (0, 3, 7):
            lt = lambda_tilde(fam, mm, nn, f)
            lhs = complex((lt * np.conj(phi) * w).sum() / n)
            adj = Field(np.outer(scalar[nn] * phi, fiber[mm]))
            assert lhs == pytest.approx(inner(sp, f, adj), abs=1e-12)
            c = complex(rng.standard_normal(), rng.standard_normal())
            lhs2 = inner(sp, f, tensor_field(fam, mm, nn)) * np.conj(c)
            rhs2 = inner(sp, f, Field(c * tensor_field(fam, mm, nn).values))
            assert lhs2 == pytest.approx(rhs2, abs=1e-12)


def _column_by_column(fam, support=None, coeffs=complex_lambda_all):
    """Reference analysis matrix: ``coeffs`` (the complex product of the
    family by default) on each coordinate field."""
    n, m = fam.space.grid_size, fam.space.fiber_dim
    w = fam.space.weights
    idx = np.arange(n) if support is None else np.flatnonzero(support)
    cols = []
    for i in idx:
        for j in range(m):
            vals = np.zeros((n, m), dtype=complex)
            vals[i, j] = np.sqrt(n / w[i])
            cols.append(coeffs(fam, Field(vals)).reshape(-1))
    return np.array(cols).T


def test_analysis_matrix_shape_and_spectrum_frozen():
    sp, fam = _family(2, 1, np.array([0.25, 4.0]))
    T = analysis_matrix(fam)
    assert T.shape == (2, 2)
    spec = frame_spectrum(fam)
    assert np.allclose(spec, [0.25, 4.0], atol=1e-12)


def test_analysis_matrix_matches_column_construction():
    rng = np.random.default_rng(53)
    for n, m in [(5, 2), (64, 2), (37, 3), (16, 1)]:
        w = rng.uniform(0.1, 3.0, n)
        sp, fam = _family(n, m, w)
        T = analysis_matrix(fam)
        assert np.array_equal(T, _column_by_column(fam))
        # lambda_all takes the real form: the same matrix up to rounding
        T_real = _column_by_column(fam, coeffs=lambda_all)
        assert np.max(np.abs(T - T_real)) <= 2e-15 * np.max(np.abs(T))

        w_dead = w.copy()
        w_dead[::3] = 0.0
        sp, fam = _family(n, m, w_dead)
        supp = w_dead > 0
        T = analysis_matrix(fam)
        assert T.shape == (n * m, int(supp.sum()) * m)
        assert np.array_equal(T, _column_by_column(fam, supp))

        # a basis holding the family as an array gives the same matrix
        fam_u = OperatorFamily(sp, TensorBasis(build_default(n).scalar_family))
        T = analysis_matrix(fam_u)
        ref = _column_by_column(fam_u, supp)
        assert np.max(np.abs(T - ref)) <= 1e-15 * np.max(np.abs(T))


def test_frame_spectrum_equals_weight_multiset():
    rng = np.random.default_rng(17)
    for _ in range(12):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, 4))
        w = rng.uniform(0.1, 10.0, n)
        sp, fam = _family(n, m, w)
        spec = frame_spectrum(fam)
        expect = np.sort(np.repeat(w, m))
        assert spec.shape == expect.shape
        assert np.max(np.abs(spec - expect)) < 1e-9


def test_frame_spectrum_oracle_eigensolve():
    # independent route: assemble the analysis Gram by applying the
    # coefficient table to each normalized coordinate field, then eigvalsh
    rng = np.random.default_rng(29)
    n, m = 5, 2
    w = rng.uniform(0.2, 4.0, n)
    sp, fam = _family(n, m, w)
    A = _column_by_column(fam).T
    gram = A @ A.conj().T
    oracle = np.sort(np.linalg.eigvalsh(gram).real)
    assert np.max(np.abs(frame_spectrum(fam) - oracle)) < 1e-10


def test_support_restriction_drops_only_dead_nodes():
    w = np.array([0.0, 2.0, 0.0, 0.5])
    sp, fam = _family(4, 2, w)
    spec = frame_spectrum(fam)
    assert np.allclose(spec, np.sort(np.repeat([2.0, 0.5], 2)), atol=1e-12)


def test_parseval_identity_per_scalar_index():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 4))
        sp, fam = _family(n, m, rng.uniform(0.1, 5.0, n))
        f = random_field(sp, rng)
        assert parseval_residual(fam, f) < 1e-12


def test_parseval_residual_of_a_field_off_the_support_is_zero():
    # a field on the zero-weight nodes alone has norm 0, and so no defect
    sp, fam = _family(4, 2, [0.0, 2.0, 0.0, 0.5])
    values = np.zeros((4, 2), dtype=complex)
    values[[0, 2]] = [[1.0, 2j], [-3.0, 0.5]]
    assert parseval_residual(fam, Field(values)) == 0.0


def test_bessel_bound_with_mass_constant():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 4))
        sp, fam = _family(n, m, rng.uniform(0.1, 5.0, n))
        f = random_field(sp, rng)
        assert bessel_excess(fam, f) <= 1e-10 * max(1.0, inner(sp, f, f).real)


def test_bessel_excess_keeps_its_bits_in_range():
    # both terms taken in power-of-two units and the excess scaled back is
    # exact in binary: the same bits as the unscaled difference
    rng = np.random.default_rng(44)
    for _ in range(300):
        n = int(rng.integers(2, 17))
        m = int(rng.integers(1, 5))
        sp, fam = _family(n, m, rng.uniform(0.1, 10.0, n) * 10.0 ** rng.uniform(-50, 50))
        f = random_field(sp, rng)
        got, want = bessel_excess(fam, f), unscaled_bessel_excess(fam, f)
        assert np.array([got]).tobytes() == np.array([want]).tobytes()


def test_bessel_excess_at_extreme_weights():
    # Scaling the weights by 4^j scales the excess by 16^j, exactly: over
    # every weight the space accepts it is that of the ramp 0.5..2 times
    # 16^j, never NaN, and -inf only once that is below -1.8e308.
    base_w = np.linspace(0.5, 2.0, 8)
    sp, fam = _family(8, 2, base_w)
    f = random_field(sp, _Normals(1))
    base = bessel_excess(fam, f)
    assert base < 0.0
    for j in [*range(-500, 512, 9), 511]:  # the top weight 2 * 4^511 is 2^1023
        got = bessel_excess(_family(8, 2, np.ldexp(base_w, 2 * j))[1], f)
        with np.errstate(over="ignore", under="ignore"):
            want = np.ldexp(base, 4 * j)
        assert got == want, j
    for lo, hi in ((0.5e160, 2e160), (1e300, 1.7e308)):
        sp, fam = _family(8, 2, np.linspace(lo, hi, 8))
        assert bessel_excess(fam, random_field(sp, _Normals(1))) == -np.inf


def test_bessel_bound_tight_for_constant_fields():
    # constant fields saturate the mass bound exactly
    w = np.array([0.5, 1.0, 2.0, 0.25])
    sp, fam = _family(4, 2, w)
    v = np.tile(np.array([1.0 + 1.0j, -2.0]), (4, 1))
    f = Field(v)
    c = total_mass(sp)
    table = lambda_all(fam, f)
    per_n = (np.abs(table) ** 2).sum(axis=0)
    target = c * inner(sp, f, f).real
    assert per_n[0] == pytest.approx(target, rel=1e-12)
    assert abs(bessel_excess(fam, f)) < 1e-12
