"""Translate systems, periodized weights, Zak transform, Gabor check."""

import numpy as np
import pytest

import framelab.shiftinv as si
from framelab import (
    ConsistencyError,
    OperatorFamily,
    TensorBasis,
    TruncationError,
    Verdict,
    WeightedSpace,
    decide_frame,
)


def _random_generator(rng, N=16, R=2):
    fhat = rng.standard_normal(2 * R * N) + 1j * rng.standard_normal(2 * R * N)
    return si.Generator(fhat, R, N)


def test_generator_validation():
    with pytest.raises(ValueError):
        si.Generator(np.ones(8), 0, 4)
    with pytest.raises(ValueError):
        si.Generator(np.ones(7), 1, 4)
    with pytest.raises(ValueError):
        si.Generator(np.full(8, np.nan), 1, 4)
    with pytest.raises(ValueError):
        si.Generator(np.ones(8), 1, 4, decay_tail=-1.0)
    with pytest.raises(ValueError):
        si.make_generator("no-such", 8)


def test_generator_refuses_nan_decay_tail():
    # a NaN tail would slip past the truncation refusal in periodized_weight
    with pytest.raises(ValueError, match="decay_tail"):
        si.Generator(np.ones(8), 1, 4, decay_tail=float("nan"))


def test_indicator_weight_is_one_everywhere():
    for n in (2, 8, 32, 64):
        gen = si.make_generator("indicator", n)
        w = si.periodized_weight(gen)
        assert np.max(np.abs(w - 1.0)) < 1e-12


def test_wide_indicator_folds_to_one():
    gen = si.make_generator("wide-indicator", 16)
    w = si.periodized_weight(gen)
    assert np.max(np.abs(w - 1.0)) < 1e-12
    with pytest.raises(ValueError):
        si.make_generator("wide-indicator", 16, radius=1)


def test_truncation_refusal():
    gen = si.make_generator("gaussian", 16, radius=1)
    assert gen.decay_tail > 1e-6
    with pytest.raises(TruncationError):
        si.periodized_weight(gen)
    wide = si.make_generator("gaussian", 16)
    assert wide.decay_tail < 1e-6
    si.periodized_weight(wide)


def test_mass_identity_exact_rearrangement():
    rng = np.random.default_rng(12)
    for _ in range(20):
        gen = _random_generator(rng, N=int(rng.integers(4, 33)), R=int(rng.integers(1, 4)))
        w = si.periodized_weight(gen)
        mass = w.sum() / gen.grid_size
        norm_sq = (np.abs(gen.fhat) ** 2).sum() / gen.grid_size
        assert mass == pytest.approx(norm_sq, rel=1e-12)


def test_time_samples_match_quadrature_norm():
    rng = np.random.default_rng(14)
    gen = _random_generator(rng)
    phi = si._time_samples(gen)
    # cyclic quadrature norm equals the frequency-side norm (unitarity)
    t_norm = (np.abs(phi) ** 2).sum() / (2 * gen.radius)
    f_norm = (np.abs(gen.fhat) ** 2).sum() / gen.grid_size
    assert t_norm == pytest.approx(f_norm, rel=1e-12)


def test_translate_gram_spectrum_equals_weight():
    rng = np.random.default_rng(18)
    for _ in range(6):
        gen = _random_generator(rng, N=int(rng.integers(2, 25)), R=2)
        w = si.periodized_weight(gen)
        eig = np.sort(np.linalg.eigvalsh(si.translate_gram(gen)))
        assert np.max(np.abs(eig - np.sort(w))) < 1e-9 * max(1.0, w.max())


def test_translate_frame_verdict_through_weight():
    gen = si.make_generator("gaussian", 16)
    w = si.periodized_weight(gen)
    sp = WeightedSpace(16, 1, w)
    ks = np.arange(16)
    scal = np.exp(-2j * np.pi * np.outer(ks, sp.grid))
    rep = decide_frame(OperatorFamily(sp, TensorBasis(scal, np.eye(1))))
    assert rep.verdict is Verdict.FRAME
    assert rep.weight_bounds[0] > 0.5


def test_zak_transform_shape_and_indicator():
    phi = si.gabor_window("indicator", 8, 6)
    z = si.zak_transform(phi, 8, 6)
    assert z.values.shape == (8, 6)
    assert np.max(np.abs(z.values - 1.0)) == 0.0
    with pytest.raises(ValueError):
        si.zak_transform(phi, 8, 7)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_window_must_be_finite(bad):
    phi = si.gabor_window("gaussian", 4, 4)
    phi[-1] = bad
    for route in (si.zak_transform, si.gabor_gram_spectrum, si.gabor_riesz_check):
        with pytest.raises(ValueError, match="window must be finite"):
            route(phi, 4, 4)


def test_zak_quasiperiodicity():
    rng = np.random.default_rng(23)
    for _ in range(5):
        N, L = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        phi = rng.standard_normal(N * L) + 1j * rng.standard_normal(N * L)
        zak = si.zak_transform(phi, N, L)
        assert si._quasiperiodicity_residual(zak, phi) < 1e-12 * max(
            1.0, np.abs(phi).max() * L
        )


def test_zak_inverts_from_samples():
    # inverse check: averaging Z over frequency recovers the first period
    rng = np.random.default_rng(24)
    N, L = 8, 4
    phi = rng.standard_normal(N * L) + 1j * rng.standard_normal(N * L)
    z = si.zak_transform(phi, N, L).values
    rec = z.mean(axis=1)
    assert np.max(np.abs(rec - phi[:N])) < 1e-12


def test_gabor_window_validation():
    with pytest.raises(ValueError):
        si.gabor_window("no-such", 8, 8)


def _gabor_system(phi, N, L):
    """Dense test oracle: all N*L time-frequency shifts of the window, one
    per row (row a*L + b is the a-th modulation of the b-period translate)."""
    P = N * L
    assert P <= 256, "the dense oracle is for small systems only"
    s = np.arange(P)
    V = np.empty((P, P), dtype=complex)
    for a in range(N):
        mod = np.exp(2j * np.pi * a * s / N)
        for b in range(L):
            V[a * L + b] = mod * np.roll(phi, b * N)
    return V


def _dense_gram_spectrum(phi, N, L):
    """Ascending eigenvalues of the dense Gabor Gram V V^H / N."""
    V = _gabor_system(phi, N, L)
    return np.linalg.eigvalsh((V @ V.conj().T) / N)


def test_gabor_system_shape_and_members():
    N, L = 4, 3
    phi = si.gabor_window("indicator", N, L)
    V = _gabor_system(phi, N, L)
    assert V.shape == (12, 12)
    s = np.arange(12)
    # row (a=1, b=2): modulation times two-period translate
    expect = np.exp(2j * np.pi * s / N) * np.roll(phi, 2 * N)
    assert np.allclose(V[1 * L + 2], expect, atol=1e-14)


@pytest.mark.parametrize("shape", [(2, 128), (16, 16), (8, 32), (128, 2), (5, 7)])
def test_structured_gram_spectrum_matches_dense_oracle(shape):
    N, L = shape
    rng = np.random.default_rng(N * 1000 + L)
    windows = {
        "indicator": si.gabor_window("indicator", N, L),
        "gaussian": si.gabor_window("gaussian", N, L),
        "random": rng.standard_normal(N * L) + 1j * rng.standard_normal(N * L),
    }
    for name, phi in windows.items():
        dense = _dense_gram_spectrum(phi, N, L)
        eig = si.gabor_gram_spectrum(phi, N, L)
        assert eig.shape == (N * L,)
        assert np.all(np.diff(eig) >= 0)
        assert np.max(np.abs(eig - dense)) <= 1e-12 * np.abs(dense).max(), name


def test_gabor_check_compares_whole_spectrum(monkeypatch):
    # same extremes as the Zak magnitudes, wrong interior: only a comparison
    # of the full multiset can see it
    rng = np.random.default_rng(31)
    N, L = 6, 5
    phi = rng.standard_normal(N * L) + 1j * rng.standard_normal(N * L)
    zsq = np.sort(np.abs(si.zak_transform(phi, N, L).values) ** 2, axis=None)
    skewed = np.linspace(zsq[0], zsq[-1], N * L)
    assert np.max(np.abs(skewed - zsq)) > 1e-3 * zsq[-1]
    monkeypatch.setattr(si, "gabor_gram_spectrum", lambda *a, **k: skewed)
    with pytest.raises(ConsistencyError):
        si.gabor_riesz_check(phi, N, L)


def test_gabor_check_keeps_spectrum():
    rng = np.random.default_rng(32)
    N, L = 8, 4
    phi = rng.standard_normal(N * L) + 1j * rng.standard_normal(N * L)
    rep = si.gabor_riesz_check(phi, N, L)
    assert np.array_equal(rep.spectrum, si.gabor_gram_spectrum(phi, N, L))
    assert rep.oracle_bounds == (rep.spectrum[0], rep.spectrum[-1])


def test_gabor_indicator_is_onb():
    phi = si.gabor_window("indicator", 8, 8)
    rep = si.gabor_riesz_check(phi, 8, 8)
    assert rep.verdict is Verdict.ONB
    assert rep.weight_bounds == (1.0, 1.0)
    assert rep.residuals["zak_vs_gram"] < 1e-12
    # min |Z|^2 = 1 does not exceed tol 1.5, so the system is no frame at
    # that tolerance although every |Z|^2 is within it of 1
    assert si.gabor_riesz_check(phi, 8, 8, tol=1.5).verdict is Verdict.NOT_FRAME


def test_gabor_gaussian_zak_zero_kills_riesz():
    N = L = 16
    phi = si.gabor_window("gaussian", N, L)
    z = si.zak_transform(phi, N, L).values
    zsq = np.abs(z) ** 2
    j, m = np.unravel_index(np.argmin(zsq), zsq.shape)
    assert (j, m) == (N // 2, L // 2)
    assert zsq[j, m] < 1e-20
    rep = si.gabor_riesz_check(phi, N, L)
    assert rep.verdict is Verdict.NOT_FRAME
    assert rep.residuals["zak_vs_gram"] < 1e-6


def test_gabor_generic_window_is_riesz():
    rng = np.random.default_rng(27)
    N, L = 6, 5
    phi = rng.standard_normal(N * L) + 1j * rng.standard_normal(N * L)
    rep = si.gabor_riesz_check(phi, N, L)
    assert rep.verdict in (Verdict.RIESZ_BASIS, Verdict.NOT_FRAME)
    zsq = np.abs(si.zak_transform(phi, N, L).values) ** 2
    assert rep.weight_bounds == (pytest.approx(zsq.min()), pytest.approx(zsq.max()))


def test_gabor_check_guard_trips(monkeypatch):
    N = L = 4
    phi = si.gabor_window("indicator", N, L)
    monkeypatch.setattr(
        si, "gabor_gram_spectrum", lambda *a, **k: np.linspace(5.0, 9.0, N * L)
    )
    with pytest.raises(ConsistencyError):
        si.gabor_riesz_check(phi, N, L)
