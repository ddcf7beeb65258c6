"""Translate systems, periodized weights, Zak transform, Gabor check."""

import tracemalloc

import numpy as np
import pytest

import framelab.shiftinv as si
import oracles
from framelab import cli
from framelab import (
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


@pytest.mark.parametrize(
    "call, args, name",
    [
        (si.zak_transform, (np.ones(8), 4.7, 2), "time_resolution"),
        (si.zak_transform, (np.ones(8), 4, 2.5), "translates"),
        (si.gabor_window, ("indicator", 4.9, 2), "time_resolution"),
        (si.gabor_window, ("gaussian", 4, float("inf")), "translates"),
        (si.gabor_gram_spectrum, (np.ones(8), 4, 2.5), "translates"),
        (si.gabor_riesz_check, (np.ones(8), float("nan"), 2), "time_resolution"),
        (si.make_generator, ("indicator", 4.5), "grid_size"),
        (si.make_generator, ("gaussian", 8, 2.5), "radius"),
        (si.Generator, (np.ones(12), 1.5, 4), "radius"),
        (si.Generator, (np.ones(12), 1, 6.5), "grid_size"),
        (si.make_generator, ("indicator", "4"), "grid_size"),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_non_integer_sizes_are_refused_not_truncated(call, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(*args)


def test_integral_float_and_numpy_sizes_are_stored_as_int():
    gen = si.Generator(np.ones(8), 1.0, np.int64(4))
    assert (gen.radius, gen.grid_size) == (1, 4)
    assert type(gen.radius) is int and type(gen.grid_size) is int
    assert np.array_equal(si.periodized_weight(gen), np.full(4, 2.0))
    made = si.make_generator("indicator", 4.0, np.int64(1))
    assert type(made.radius) is int and type(made.grid_size) is int
    phi = si.gabor_window("gaussian", 4.0, np.int64(2))
    assert np.array_equal(phi, si.gabor_window("gaussian", 4, 2))
    zak = si.zak_transform(phi, np.int64(4), 2.0)
    assert (zak.time_resolution, zak.translates) == (4, 2)
    assert type(zak.time_resolution) is int and type(zak.translates) is int
    assert np.array_equal(zak.values, si.zak_transform(phi, 4, 2).values)


def test_sizes_below_one_are_refused():
    with pytest.raises(ValueError, match="^time_resolution must be >= 1"):
        si.zak_transform(np.ones(0), 0, 2)
    with pytest.raises(ValueError, match="^translates must be >= 1"):
        si.gabor_window("indicator", 4, -1)
    with pytest.raises(ValueError, match="^grid_size must be >= 1"):
        si.make_generator("indicator", 0)


def test_zak_grid_reads_its_sizes_off_its_values():
    zak = si.ZakGrid(np.zeros((3, 5)))
    assert (zak.time_resolution, zak.translates) == (3, 5)
    assert not zak.values.flags.writeable
    with pytest.raises(ValueError, match="2-d"):
        si.ZakGrid(np.zeros(15))


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
    phi = gen.time_samples
    # made once per generator, and read-only, so every route reads the same
    assert gen.time_samples is phi
    assert not phi.flags.writeable
    # cyclic quadrature norm equals the frequency-side norm (unitarity)
    t_norm = (np.abs(phi) ** 2).sum() / (2 * gen.radius)
    f_norm = (np.abs(gen.fhat) ** 2).sum() / gen.grid_size
    assert t_norm == pytest.approx(f_norm, rel=1e-12)


def test_translate_gram_spectrum_equals_weight():
    rng = np.random.default_rng(18)
    for _ in range(6):
        gen = _random_generator(rng, N=int(rng.integers(2, 25)), R=2)
        w = si.periodized_weight(gen)
        eig = si.translate_gram_spectrum(gen)
        assert np.max(np.abs(eig - np.sort(w))) < 1e-9 * max(1.0, w.max())


def test_translate_gram_spectrum_matches_dense_oracle():
    # the lag-DFT route against eigvalsh of the dense Gram, odd N and N = 1
    # included; the dense Gram is circulant, which is what the route assumes
    rng = np.random.default_rng(19)
    for N in [1, 2, 3, *rng.integers(4, 40, size=12)]:
        for R in range(1, 5):
            gen = _random_generator(rng, N=int(N), R=R)
            G = oracles.generator_translate_gram(gen)
            atol = 1e-13 * np.abs(G).max()
            for k in range(gen.grid_size):
                assert np.allclose(np.roll(G[:, 0], k), G[:, k], rtol=0, atol=atol)
            dense = np.linalg.eigvalsh(G)
            eig = si.translate_gram_spectrum(gen)
            assert eig.shape == (gen.grid_size,)
            assert np.all(np.diff(eig) >= 0)
            assert np.max(np.abs(eig - dense)) <= 1e-14 * np.max(np.abs(dense))


def test_translate_gram_spectrum_working_set_at_cap():
    # 256 translates at radius 16, the validator's caps: the route holds the
    # time samples and the N lags, no N x P array (which alone would be
    # N x 16P bytes); its peak is that of forming the samples.  Measured
    # 4.0 x 16P.
    gen = si.make_generator("gaussian", 256, 16)
    P = gen.fhat.size
    tracemalloc.start()
    try:
        eig = si.translate_gram_spectrum(gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eig.shape == (256,)
    assert peak <= 8 * 16 * P


def test_translate_frame_verdict_through_weight():
    gen = si.make_generator("gaussian", 16)
    w = si.periodized_weight(gen)
    sp = WeightedSpace(16, 1, w)
    ks = np.arange(16)
    scal = np.exp(-2j * np.pi * np.outer(ks, sp.grid))
    rep = decide_frame(OperatorFamily(sp, TensorBasis(scal)))
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


@pytest.mark.parametrize("chunk", [si.ZAK_CHUNK, 64, 1])
def test_chunked_gram_spectrum_keeps_the_bits_of_one_chunk(monkeypatch, chunk):
    # The shifted products are summed a chunk of shifts at a time; each sum
    # runs over the same periods in the same order as the one-chunk form, so
    # the spectrum keeps its bits for every chunk size.  At the default size
    # 2 x 1024 takes 32 chunks and every shape with L * P <= 2^16 one.
    monkeypatch.setattr(si, "ZAK_CHUNK", chunk)
    rng = np.random.default_rng(37)
    for N, L in [(2, 1024), (1, 2048), (32, 32), (16, 64), (7, 300), (5, 7), (1, 1)]:
        windows = (
            si.gabor_window("gaussian", N, L),
            rng.standard_normal(N * L) + 1j * rng.standard_normal(N * L),
        )
        for phi in windows:
            got, want = si.gabor_gram_spectrum(phi, N, L), oracles.gabor_gram_spectrum(phi, N, L)
            assert np.array_equal(got, want), (N, L)


def test_gram_spectrum_working_set_at_2x1024():
    # The one-chunk form holds L x L x N complex products, 64 MiB at
    # N = 2, L = 1024.  In chunks of ZAK_CHUNK = 2^16 complex entries the
    # route holds one chunk of products and its period indices beside
    # O(P) arrays.  Measured 2.3 x 16 * 2^16 bytes.
    phi = si.gabor_window("gaussian", 2, 1024)
    tracemalloc.start()
    try:
        eig = si.gabor_gram_spectrum(phi, 2, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eig.shape == (2048,)
    assert peak <= 3 * 16 * si.ZAK_CHUNK


def _zak_check_alone_fails(tmp_path, cfg) -> dict:
    """The report of a ``zak`` run of ``cfg``, which must exit 2 with
    ``zak_vs_gram`` its only failing check."""
    code = cli.run_config(cfg, tmp_path / "run")
    assert code == 2
    assert [name for name, _ in cli._failed_checks(code.doc)] == ["zak_vs_gram"]
    return code.doc


def test_gabor_check_compares_whole_spectrum(tmp_path, monkeypatch):
    # same extremes as the Zak magnitudes, wrong interior: only a comparison
    # of the full multiset can see it
    rng = np.random.default_rng(31)
    N, L = 6, 5
    phi = rng.standard_normal(N * L) + 1j * rng.standard_normal(N * L)
    zsq = np.sort(np.abs(si.zak_transform(phi, N, L).values) ** 2, axis=None)
    skewed = np.linspace(zsq[0], zsq[-1], N * L)
    gap = np.max(np.abs(skewed - zsq)) / zsq[-1]
    assert gap > 1e-3
    monkeypatch.setattr(si, "gabor_gram_spectrum", lambda *a, **k: skewed)
    assert si.gabor_riesz_check(phi, N, L).residuals["zak_vs_gram"] == gap
    path = tmp_path / "window.csv"
    path.write_text(oracles.csv_text(("re", "im"), (phi.real, phi.imag)))
    window = {"preset": "custom", "samples_path": str(path)}
    cfg = {"mode": "zak", "window": window, "time_resolution": N, "translates": L}
    assert _zak_check_alone_fails(tmp_path, cfg)["residuals"]["zak_vs_gram"] == gap


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


def test_window_whose_energy_overflows_is_refused():
    # finite samples whose squared Zak magnitudes overflow: L * sum |phi|^2
    # bounds every |Z|^2 and every Gram eigenvalue, so it must be finite
    phi = 1e200 * si.gabor_window("indicator", 8, 8)
    for route in (si.zak_transform, si.gabor_gram_spectrum, si.gabor_riesz_check):
        with pytest.raises(ValueError, match="window energy .* overflows"):
            route(phi, 8, 8)
    # a large window whose energy is in range is checked as any other
    rep = si.gabor_riesz_check(1e150 * si.gabor_window("indicator", 8, 8), 8, 8)
    assert rep.weight_bounds == (pytest.approx(1e300), pytest.approx(1e300))
    assert rep.residuals["zak_vs_gram"] <= 1e-15


def test_gabor_check_guard_trips(tmp_path, monkeypatch):
    # every |Z|^2 of the indicator is 1, so a Gram spectrum on [5, 9] is off
    # by 8 at most, relative to 9: the check returns that gap, and the run
    # reports it and fails on it alone
    N = L = 4
    phi = si.gabor_window("indicator", N, L)
    monkeypatch.setattr(
        si, "gabor_gram_spectrum", lambda *a, **k: np.linspace(5.0, 9.0, N * L)
    )
    assert si.gabor_riesz_check(phi, N, L).residuals["zak_vs_gram"] == 8.0 / 9.0
    window = {"preset": "indicator"}
    cfg = {"mode": "zak", "window": window, "time_resolution": N, "translates": L}
    assert _zak_check_alone_fails(tmp_path, cfg)["residuals"]["zak_vs_gram"] == 8.0 / 9.0
