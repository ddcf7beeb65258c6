"""Dilated-window weight, band mass, coefficient model, frame bounds."""

import tracemalloc

import numpy as np
import pytest

import framelab.heisenberg as hb
from framelab import cli
from framelab import (
    OperatorFamily,
    TensorBasis,
    Verdict,
    WeightedSpace,
    decide_frame,
    witness_ratio,
)
from framelab.tensor_onb import _ComplexForm, build_default, fourier_family

import oracles


def test_hs_weight_closed_form_anchors():
    assert hb.hs_weight(0.5, 1, 0.7) == pytest.approx(0.7, abs=1e-12)
    assert hb.hs_weight(0.5, 2, 0.3) == 0.0
    assert hb.hs_weight(0.5, 0, 0.7) == pytest.approx(1.0, abs=1e-12)
    assert hb.hs_weight(0.5, 1, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert hb.hs_weight(0.5, 1, 0.5) == 0.0  # cutoff itself is excluded
    assert hb.hs_weight(0.0, 3, 0.25) == pytest.approx(0.25 ** 3, abs=1e-12)


def test_hs_weight_pointwise_sweep():
    rng = np.random.default_rng(51)
    for _ in range(30):
        eps = float(rng.uniform(0.0, 0.95))
        d = int(rng.integers(0, 6))
        alpha = rng.uniform(1e-6, 1.0, 40)
        w = hb.hs_weight(eps, d, alpha)
        expect = np.where(alpha > eps, alpha ** d, 0.0)
        assert np.max(np.abs(w - expect)) < 1e-12


def test_hs_weight_domain_errors():
    with pytest.raises(ValueError):
        hb.hs_weight(1.0, 1, 0.5)
    with pytest.raises(ValueError):
        hb.hs_weight(-0.1, 1, 0.5)
    with pytest.raises(ValueError):
        hb.hs_weight(0.5, -1, 0.5)
    with pytest.raises(ValueError):
        hb.hs_weight(0.5, 1, 0.0)
    with pytest.raises(ValueError):
        hb.hs_weight(0.5, 1, 1.2)


def test_psi_norm_sq_anchor_and_closed_form():
    assert hb.psi_norm_sq(0.5, 1) == pytest.approx(0.375, abs=1e-9)
    assert hb.psi_norm_sq(0.0, 1) == pytest.approx(0.5, abs=1e-9)
    for eps in (0.1, 0.3, 0.7, 0.9):
        for d in (1, 2, 3, 7):
            closed = (1.0 - eps ** (d + 1)) / (d + 1)
            assert hb.psi_norm_sq(eps, d) == pytest.approx(closed, abs=1e-12)


def test_psi_norm_sq_large_degree_stays_exact():
    # node count scales with the polynomial degree
    assert hb.psi_norm_sq(0.2, 40) == pytest.approx(
        (1.0 - 0.2 ** 41) / 41, rel=1e-12
    )


def test_weight_envelope_sandwich():
    grid = hb.midpoint_grid(4096)
    for eps in (0.1, 0.5, 0.9):
        for d in (1, 2, 3):
            lo, hi = hb.weight_envelope_check(eps, d, grid)
            assert lo >= eps ** d - 1e-12
            assert hi <= 1.0 + 1e-12
            assert lo <= hi


def test_weight_envelope_empty_support():
    grid = np.array([0.1, 0.2])
    with pytest.raises(ValueError):
        hb.weight_envelope_check(0.5, 1, grid)


def test_midpoint_grid():
    g = hb.midpoint_grid(4)
    assert np.allclose(g, [0.125, 0.375, 0.625, 0.875])
    assert g.min() > 0.0 and g.max() < 1.0
    with pytest.raises(ValueError):
        hb.midpoint_grid(1)


def test_model_construction_and_support():
    model = hb.CenterTranslateModel(0.5, 1, resolution=1024, k_max=2)
    space = model.space
    assert space.weights.shape == (1024,)
    assert space.support.sum() == 512
    assert np.all(space.weights[space.support] > 0.5)
    assert hb._envelope(space) == hb.weight_envelope_check(0.5, 1, hb.midpoint_grid(1024))
    with pytest.raises(ValueError):
        hb.CenterTranslateModel(0.5, 1, k_max=-1)
    with pytest.raises(ValueError):
        hb.CenterTranslateModel(0.5, 0)
    with pytest.raises(ValueError, match="^eps must be positive for the band model$"):
        hb.CenterTranslateModel(0.0, 1)


@pytest.mark.parametrize(
    "call, args, name",
    [
        (hb.hs_weight, (0.5, 2.5, 0.7), "d"),
        (hb.psi_norm_sq, (0.5, 2.5), "d"),
        (hb.weight_envelope_check, (0.5, 1.5, hb.midpoint_grid(8)), "d"),
        (hb.midpoint_grid, (4.7,), "resolution"),
        (hb.midpoint_grid, (float("nan"),), "resolution"),
        (hb.CenterTranslateModel, (0.5, 1.9, 64.9, 2.5), "d"),
        (hb.CenterTranslateModel, (0.5, 2, 64.9), "resolution"),
        (hb.CenterTranslateModel, (0.5, 2, 64, 2.5), "k_max"),
        (hb.frame_report, (0.5, 2.5), "d"),
        (hb.frame_report, (0.5, 2, 64.5), "resolution"),
        (hb.midpoint_grid, ("8",), "resolution"),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_non_integer_parameters_are_refused_not_truncated(call, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(*args)


def test_integral_floats_and_numpy_integers_pass():
    assert hb.hs_weight(0.5, 2.0, 0.7) == hb.hs_weight(0.5, np.int64(2), 0.7) == 0.7 ** 2
    assert hb.psi_norm_sq(0.5, 2.0) == hb.psi_norm_sq(0.5, 2)
    assert np.array_equal(hb.midpoint_grid(4.0), hb.midpoint_grid(np.int64(4)))
    model = hb.CenterTranslateModel(0.5, 2.0, resolution=64.0, k_max=np.int64(2))
    assert (model.d, model.resolution, model.k_max) == (2, 64, 2)
    assert all(type(v) is int for v in (model.d, model.resolution, model.k_max))
    same = hb.CenterTranslateModel(0.5, 2, resolution=64, k_max=2)
    assert np.array_equal(model.space.weights, same.space.weights)
    rep = hb.frame_report(0.5, 2.0, resolution=64.0)
    assert np.array_equal(rep.spectrum, hb.frame_report(0.5, 2, resolution=64).spectrum)


def test_s_map_support_and_shape():
    model = hb.CenterTranslateModel(0.5, 1, resolution=256, k_max=1)
    sf = hb.s_map(model, np.array([0.0, 1.0, 0.0], dtype=complex))
    assert sf.shape == (256,)
    band = model.space.support
    assert np.all(sf[~band] == 0.0)
    assert np.max(np.abs(np.abs(sf[band]) - 1.0)) < 1e-12
    with pytest.raises(ValueError):
        hb.s_map(model, np.ones(4, dtype=complex))


def test_isometry_residual_random_sweep():
    rng = np.random.default_rng(53)
    model = hb.CenterTranslateModel(0.4, 2, resolution=2048, k_max=4)
    for _ in range(50):
        a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert hb.isometry_residual(model, a) < 1e-8


@pytest.mark.parametrize(
    "eps, d, resolution, k_max",
    [(0.37, 5, 1001, 16), (0.9, 1, 257, 8), (0.5, 1, 7, 8)],  # last: 2K+1 > R
)
def test_fft_s_map_and_translate_gram_match_dense_routes(eps, d, resolution, k_max):
    model = hb.CenterTranslateModel(eps, d, resolution=resolution, k_max=k_max)
    rng = np.random.default_rng(resolution)
    a = rng.standard_normal(2 * k_max + 1) + 1j * rng.standard_normal(2 * k_max + 1)
    sf = hb.s_map(model, a)
    dense = oracles.s_map(model, a)
    assert np.max(np.abs(sf - dense)) <= 1e-13 * np.max(np.abs(dense))
    field = float((np.abs(sf) ** 2 * model.space.weights).sum() / model.resolution)
    gram = float(np.real(a.conj() @ oracles.translate_gram(model) @ a))
    assert field == pytest.approx(gram, rel=1e-13)
    assert hb.isometry_residual(model, a) < 1e-13


@pytest.mark.parametrize(
    "eps, d, resolution, k_max",
    [(0.37, 5, 1001, 16), (0.5, 1, 7, 8), (0.5, 3, 65536, 64)],
)
def test_s_map_zeroes_off_band_in_place_bit_for_bit(monkeypatch, eps, d, resolution, k_max):
    # zeroing the FFT output off the band writes the same bits as np.where,
    # so the isometry residual keeps its value bit for bit
    model = hb.CenterTranslateModel(eps, d, resolution=resolution, k_max=k_max)
    k = np.arange(2 * k_max + 1)
    a = np.cos(k) + 1j * np.sin(3.0 * k)
    got, want = hb.s_map(model, a), oracles.where_s_map(model, a)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    value = hb.isometry_residual(model, a)
    monkeypatch.setattr(hb, "s_map", oracles.where_s_map)
    assert hb.isometry_residual(model, a).hex() == value.hex()


def test_model_holds_its_band_space_alone():
    # the weights (8 bytes a node) and the support mask (1 byte a node) of
    # its one WeightedSpace, and no scale grid beside them
    r = 65536
    tracemalloc.start()
    try:
        model = hb.CenterTranslateModel(0.5, 3, resolution=r, k_max=4)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 9.1 * r
    assert model.space.grid_size == r


def test_isometry_route_working_set():
    # A warm call peaks in s_map, at the coefficient bins and their FFT
    # (16 bytes a node each) and the off-band mask (1 byte a node) that
    # zeroes the FFT in place: no third complex R-point array.
    r = 65536
    model = hb.CenterTranslateModel(0.5, 3, resolution=r, k_max=64)
    a = np.arange(129.0) + 0.5j
    hb.isometry_residual(model, a)
    tracemalloc.start()
    try:
        gap = hb.isometry_residual(model, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gap < 1e-13
    assert peak <= 34 * r


def _isometry_check_alone_fails(tmp_path, resolution, k_max) -> float:
    """The isometry residual of a ``heisenberg`` run at eps = 0.5, d = 2,
    which must exit 2 with it the only failing check."""
    section = {"eps": 0.5, "d": 2, "resolution": resolution, "k_max": k_max}
    code = cli.run_config({"mode": "heisenberg", "heisenberg": section}, tmp_path / "run")
    assert code == 2
    name = "isometry_vs_translate_gram"
    assert [failed for failed, _ in cli._failed_checks(code.doc)] == [name]
    return code.doc["residuals"][name]


def test_isometry_guard_is_live(tmp_path, monkeypatch):
    # a field route off by 1e-6 puts a relative gap of (1 + 1e-6)^2 - 1 in
    # the residual, which the run reports and fails on alone
    model = hb.CenterTranslateModel(0.5, 2, resolution=512, k_max=3)
    a = np.arange(1.0, 8.0) + 0.5j
    assert hb.isometry_residual(model, a) < 1e-13
    s_map = hb.s_map
    monkeypatch.setattr(hb, "s_map", lambda m, c: s_map(m, c) * (1.0 + 1e-6))
    gap = (1.0 + 1e-6) ** 2 - 1.0
    assert hb.isometry_residual(model, a) == pytest.approx(gap, rel=1e-6)
    assert _isometry_check_alone_fails(tmp_path, 512, 3) == pytest.approx(gap, rel=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coefficients_are_refused(bad):
    model = hb.CenterTranslateModel(0.5, 2, resolution=64, k_max=2)
    a = np.ones(5, dtype=complex)
    a[2] = bad
    for route in (hb.s_map, hb.isometry_residual):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            route(model, a)


def test_isometry_guard_fails_a_nan_gap(tmp_path, monkeypatch):
    # a NaN gap between the routes is returned as NaN, and it is no pass:
    # the report writes it as null, and the CLI fails a null check as one
    # above the tolerance
    model = hb.CenterTranslateModel(0.5, 2, resolution=64, k_max=2)
    monkeypatch.setattr(hb, "s_map", lambda m, c: np.full(m.resolution, np.nan))
    assert np.isnan(hb.isometry_residual(model, np.ones(5)))
    assert _isometry_check_alone_fails(tmp_path, 64, 2) is None


def test_band_report_leaves_the_frame_decision_as_built(monkeypatch):
    # support_fraction is added to a copy of the residuals, not written into
    # the report the frame decision returned
    built, kwargs = [], []
    decide = hb.decide_frame
    monkeypatch.setattr(
        hb,
        "decide_frame",
        lambda *a, **k: kwargs.append(k) or built.append(decide(*a, **k)) or built[-1],
    )
    rep = hb.frame_report(0.5, 1, resolution=64)
    assert kwargs == [{"band": True}]
    assert set(built[0].residuals) == {"spectrum_vs_weight"}
    assert rep.residuals == {**built[0].residuals, "support_fraction": 0.5}


def test_scalar_family_orthonormal_on_midpoint_grid():
    # The translate exponentials on the midpoint grid, gathered from the
    # table of roots, meet their exp form to a few ulps of its largest
    # phase argument, and are orthonormal to rounding.
    for r in (4, 16, 64, 512, 1024):
        k = np.arange(r)
        freqs, numer = r // 2 - k, 2 * k + 1
        fam = fourier_family(freqs, numer, 2 * r)
        arg = np.pi * np.max(np.abs(np.outer(freqs, numer))) / r
        assert np.max(np.abs(fam - oracles.midpoint_family(r))) <= 4 * np.finfo(float).eps * arg
        assert np.max(np.abs(oracles.scalar_gram_defect(fam))) <= 1e-15
        assert np.max(np.abs(np.abs(fam) - 1.0)) < 1e-12


@pytest.mark.parametrize("eps, d", [(0.5, 1), (0.3, 3), (0.5, 64)])
def test_frame_report_is_the_frame_decision_on_the_band(eps, d):
    # the closed-form weight on the midpoint grid, decided over its band; the
    # spectrum is that of the whole-grid decision, which reads the support
    r, tol = 128, 1e-9
    grid = hb.midpoint_grid(r)
    w = np.where(grid > eps, grid**d, 0.0)
    sp = WeightedSpace(r, 1, w)
    # the basis a run builds, so the two decisions share its real fold
    fam = OperatorFamily(sp, build_default(r))
    whole = decide_frame(fam, tol)
    band = w > 0
    lo, hi = w[band].min(), w[band].max()
    rep = hb.frame_report(eps, d, resolution=r, tol=tol)
    assert rep.verdict is (Verdict.FRAME if lo > tol else Verdict.NOT_FRAME)
    assert rep.weight_bounds == (lo, hi)
    assert rep.oracle_bounds == whole.oracle_bounds
    assert np.array_equal(rep.spectrum, whole.spectrum)
    gap = whole.residuals["spectrum_vs_weight"]
    assert rep.residuals["spectrum_vs_weight"] == gap
    assert rep.residuals["support_fraction"] == band.mean()
    undercut = band & (w <= tol)
    if not undercut.any():
        assert rep.witness is None
        assert set(rep.residuals) == {"spectrum_vs_weight", "support_fraction"}
    else:  # alpha^64 dips below the verdict tolerance inside the band
        assert rep.verdict is Verdict.NOT_FRAME
        assert np.array_equal(rep.witness.values[:, 0] != 0, undercut)
        # the coefficient route, which for an orthonormal family meets the
        # closed form sum w^2 |f|^2 / sum w |f|^2
        ratio = rep.residuals["witness_ratio"]
        assert ratio == witness_ratio(fam, rep.witness)
        f2 = (np.abs(rep.witness.values) ** 2).sum(axis=1)
        closed = (w**2 * f2).sum() / (w * f2).sum()
        assert 0.0 < ratio < tol
        assert ratio == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("eps, d", [(0.5, 1), (0.3, 3), (0.5, 64)])
def test_frame_report_meets_the_midpoint_recipe_in_complex_form(eps, d):
    # The translate exponentials e^(2 pi i k alpha_i) on the midpoint grid
    # are the discrete Fourier rows of the report times one constant phase
    # per row, which moves no bound.  Their recipe pairs its rows only up
    # to those phases, so its basis holds F itself and decides in complex
    # arithmetic, and the report on the real fold meets it: one verdict
    # and witness, with spectrum, bounds and witness ratio within 1e-13 of
    # the largest value.
    r, tol = 128, 1e-9
    k = np.arange(r)
    basis = TensorBasis.fourier(r // 2 - k, 2 * k + 1, 2 * r)
    assert isinstance(basis._form, _ComplexForm)
    sp = WeightedSpace(r, 1, hb.hs_weight(eps, d, hb.midpoint_grid(r)))
    want = decide_frame(OperatorFamily(sp, basis), tol, band=True)
    rep = hb.frame_report(eps, d, resolution=r, tol=tol)

    def gap(got, ref):
        return np.max(np.abs(np.subtract(got, ref))) / np.max(np.abs(ref))

    assert rep.verdict is want.verdict
    assert rep.weight_bounds == want.weight_bounds
    assert gap(rep.spectrum, want.spectrum) <= 1e-13
    assert gap(rep.oracle_bounds, want.oracle_bounds) <= 1e-13
    assert set(rep.residuals) == {*want.residuals, "support_fraction"}
    assert (rep.witness is None) == (want.witness is None) == (d < 64)
    if d == 64:
        assert np.array_equal(rep.witness.values, want.witness.values)
        ratio = want.residuals["witness_ratio"]
        assert gap(rep.residuals["witness_ratio"], ratio) <= 1e-13


def test_band_decision_working_set():
    # Each R x R complex array takes 16 R^2 bytes, a real one half that.  The
    # basis holds its real form alone.  A not_frame band decision then holds
    # the real form, its
    # support columns and, until the eigensolve, their frame operator
    # X^T X, |S| x |S|; its witness ratio goes through the coefficient
    # functionals, which read the real form and add no R x R array.
    r = 1024
    tracemalloc.start()
    try:
        rep = hb.frame_report(0.5, 64, resolution=r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict is Verdict.NOT_FRAME
    assert 0.0 < rep.residuals["witness_ratio"] < 1e-9
    assert peak <= 1.0 * 16 * r * r


def test_lattice_profile_matches_where_form_bit_for_bit():
    # The power is taken only inside the band, on a zeroed buffer; outside
    # it the where form adds the same zeros, so every sum is the same.
    rng = np.random.default_rng(89)
    gauss = np.polynomial.legendre.leggauss(hb.QUAD_NODES)[0]
    grids = [hb.midpoint_grid(r) for r in (2, 255, 4096, 65536)]
    for d in [0, 64, *rng.integers(0, 65, 20)]:
        eps = float(rng.random())
        for x in grids + [eps + (gauss + 1.0) * (1.0 - eps) / 2.0]:
            args = (eps, int(d), x, hb.LATTICE_WINDOW)
            assert np.array_equal(hb._lattice_profile(*args), oracles.lattice_profile(*args))


def test_frame_report_bounds_and_verdict():
    for eps in (0.1, 0.5, 0.9):
        for d in (1, 2, 3):
            rep = hb.frame_report(eps, d, resolution=128)
            assert rep.verdict is Verdict.FRAME
            lo, hi = rep.oracle_bounds
            assert lo >= eps ** d - 1e-9
            assert hi <= 1.0 + 1e-9
            assert rep.residuals["spectrum_vs_weight"] < 1e-9
            assert 0.0 < rep.residuals["support_fraction"] <= 1.0


def test_frame_report_support_restriction_keeps_quadrature():
    # the verdict is over the translate span: support bounds, not global
    rep = hb.frame_report(0.5, 1, resolution=256)
    assert rep.weight_bounds[0] > 0.5
    assert rep.weight_bounds[1] < 1.0
    assert rep.oracle_bounds[0] == pytest.approx(rep.weight_bounds[0], abs=1e-10)
    assert rep.oracle_bounds[1] == pytest.approx(rep.weight_bounds[1], abs=1e-10)


def test_weight_guard_is_live(monkeypatch):
    # A lattice sum that drifts from the closed form raises nowhere: the
    # weight stays the closed form, and both residuals return the gap of the
    # drifted route, NaN for a NaN route, for the caller to judge.
    alpha = np.array([0.3, 0.7, 0.9])
    w = hb.hs_weight(0.5, 1, alpha)
    assert hb.lattice_residual(0.5, 1, alpha, w) == 0.0
    assert hb.band_mass_residual(0.5, 1, hb.psi_norm_sq(0.5, 1)) == 0.0
    monkeypatch.setattr(
        hb, "_lattice_profile", lambda eps, d, x, window: np.full(np.shape(x), 0.123)
    )
    assert np.array_equal(hb.hs_weight(0.5, 1, alpha), w)
    assert hb.lattice_residual(0.5, 1, alpha, w) == pytest.approx((0.9 - 0.123) / 0.9)
    mass = hb.psi_norm_sq(0.5, 1)
    assert mass == pytest.approx(0.123 * 0.5)
    assert hb.band_mass_residual(0.5, 1, mass) == pytest.approx((0.375 - mass) / 0.375)
    assert np.isnan(hb.lattice_residual(0.5, 1, alpha, np.full(3, np.nan)))
    assert np.isnan(hb.band_mass_residual(0.5, 1, np.nan))
