"""Dilated-window weight, band mass, coefficient model, frame bounds."""

import numpy as np
import pytest

import framelab.heisenberg as hb
from framelab import ConsistencyError, Verdict


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
    assert model.alpha.shape == (1024,)
    assert model.support.sum() == 512
    assert np.all(model.weights[model.support] > 0.5)
    with pytest.raises(ValueError):
        hb.CenterTranslateModel(0.5, 1, k_max=-1)
    with pytest.raises(ValueError):
        hb.CenterTranslateModel(0.5, 0)


def test_s_map_support_and_shape():
    model = hb.CenterTranslateModel(0.5, 1, resolution=256, k_max=1)
    sf = hb.s_map(model, np.array([0.0, 1.0, 0.0], dtype=complex))
    assert sf.shape == (256,)
    assert np.all(sf[~model.support] == 0.0)
    assert np.max(np.abs(np.abs(sf[model.support]) - 1.0)) < 1e-12
    with pytest.raises(ValueError):
        hb.s_map(model, np.ones(4, dtype=complex))


def test_isometry_residual_random_sweep():
    rng = np.random.default_rng(53)
    model = hb.CenterTranslateModel(0.4, 2, resolution=2048, k_max=4)
    for _ in range(50):
        a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert hb.isometry_residual(model, a) < 1e-8


def test_norm_periodization_route_differs_then_matches():
    model = hb.CenterTranslateModel(0.5, 1, resolution=512, k_max=2)
    a = np.array([1.0, 0.5j, -0.25, 0.0, 2.0], dtype=complex)
    sf = hb.s_map(model, a)
    direct = float(
        (np.abs(sf) ** 2 * model.weights).sum() / model.resolution
    )
    assert hb.norm_sq_periodization(model, a) == pytest.approx(direct, rel=1e-12)


def test_scalar_family_orthonormal_on_midpoint_grid():
    for r in (4, 16, 64):
        fam = hb.scalar_family(r)
        gram = fam @ fam.conj().T / r
        assert np.max(np.abs(gram - np.eye(r))) < 1e-12
        assert np.max(np.abs(np.abs(fam) - 1.0)) < 1e-12


def test_frame_problem_weight_matches_closed_form():
    space, fam = hb.frame_problem(0.5, 1, 128)
    grid = hb.midpoint_grid(128)
    expect = np.where(grid > 0.5, grid, 0.0)
    assert np.max(np.abs(space.weights - expect)) < 1e-12
    assert fam.shape == (128, 128)


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
    monkeypatch.setattr(
        hb, "_lattice_profile", lambda eps, d, x, window: np.full(np.shape(x), 0.123)
    )
    with pytest.raises(ConsistencyError):
        hb.hs_weight(0.5, 1, np.array([0.7, 0.9]))
