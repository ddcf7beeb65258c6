"""Verdict logic, witnesses, and the Gram route."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import (
    Field,
    OperatorFamily,
    TensorBasis,
    Verdict,
    WeightedSpace,
    bessel_excess,
    build_default,
    classify,
    decide_frame,
    decide_onb,
    frame_spectrum,
    lambda_all,
    norm,
    parseval_residual,
    random_field,
    synthesis_gram,
    total_mass,
    witness_lower_failure,
    witness_ratio,
)
from framelab import analyzer
import framelab.heisenberg as hb
import framelab.shiftinv as si
from framelab.analyzer import _gram_fold, _gram_spectrum, _multiset_gap
from framelab.tensor_onb import PAIRING_BLOCK, fourier_family
import oracles


def _family(weights, m=1):
    w = np.asarray(weights, dtype=float)
    sp = WeightedSpace(w.size, m, w)
    return sp, OperatorFamily(sp, build_default(w.size))


def test_synthesis_gram_spectrum_is_weight_multiset():
    rng = np.random.default_rng(2)
    for _ in range(8):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 4))
        w = rng.uniform(0.0, 5.0, n)
        w[int(rng.integers(n))] = 2.0  # keep the space valid
        sp, fam = _family(w, m)
        eig = np.sort(np.linalg.eigvalsh(synthesis_gram(fam)))
        assert np.max(np.abs(eig - np.sort(np.repeat(w, m)))) < 1e-9


def test_gram_frozen_two_point_case():
    sp, fam = _family([0.3, 1.7])
    lo, hi = classify(fam).gram_bounds
    assert lo == pytest.approx(0.3, abs=1e-12)
    assert hi == pytest.approx(1.7, abs=1e-12)


def test_decide_frame_positive_and_negative():
    sp, fam = _family([0.5, 1.0, 1.0, 1.0], m=2)
    rep = decide_frame(fam)
    assert rep.verdict is Verdict.FRAME
    assert rep.weight_bounds == (0.5, 1.0)
    assert rep.oracle_bounds[0] == pytest.approx(0.5, abs=1e-10)
    assert rep.oracle_bounds[1] == pytest.approx(1.0, abs=1e-10)
    assert rep.residuals["spectrum_vs_weight"] < 1e-10
    assert rep.witness is None

    sp2, fam2 = _family([0.0, 1.0, 1.0, 1.0])
    rep2 = decide_frame(fam2)
    assert rep2.verdict is Verdict.NOT_FRAME
    assert rep2.witness is not None
    assert rep2.residuals["witness_ratio"] == 0.0  # dead-node witness


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_deciders_refuse_a_tolerance_that_is_not_positive_and_finite(tol):
    # At tol -1 the zero weight passed the frame rule, so classify read
    # riesz_basis and the critical-density Gaussian, whose Zak transform
    # vanishes, read riesz_basis too; a NaN tolerance raised a message about
    # a claimed lower bound.  The one verdict rule refuses each, naming tol.
    sp, fam = _family([0.0, 1.0, 1.0, 1.0])
    gauss = si.gabor_window("gaussian", 4, 4)
    calls = (
        lambda: classify(fam, tol=tol),
        lambda: decide_frame(fam, tol=tol),
        lambda: decide_onb(fam, tol=tol),
        lambda: si.gabor_riesz_check(gauss, 4, 4, tol=tol),
        lambda: hb.frame_report(0.5, 2, resolution=64, tol=tol),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^tol must be positive and finite, got "):
            call()


def test_decide_frame_rejects_invalid_family():
    w = np.linspace(0.5, 2.0, 6)
    sp = WeightedSpace(6, 1, w)
    scalar = build_default(6).scalar_family.copy()
    scalar[1] *= 2.0  # not unimodular
    fam = OperatorFamily(sp, TensorBasis(scalar))
    with pytest.raises(ValueError, match="unimodularity"):
        decide_frame(fam)


def test_nan_family_refused_by_both_deciders():
    n = 8
    sp = WeightedSpace(n, 1, np.linspace(0.5, 2.0, n))
    scalar = build_default(n).scalar_family.copy()
    scalar[3, 5] = np.nan
    fam = OperatorFamily(sp, TensorBasis(scalar))
    for decide in (decide_frame, classify):
        with pytest.raises(ValueError, match=r"unimodularity \(residual nan\)"):
            decide(fam)


def test_infinite_family_refused_on_unimodularity_without_warning():
    # The pass that measures unimodularity also keys every row for the
    # conjugate pairing; an infinite entry must not warn there first.
    n = 8
    sp = WeightedSpace(n, 1, np.linspace(0.5, 2.0, n))
    scalar = build_default(n).scalar_family.copy()
    scalar[3, 5] = complex(np.inf, np.inf)
    fam = OperatorFamily(sp, TensorBasis(scalar))
    for decide in (decide_frame, classify):
        with pytest.raises(ValueError, match=r"unimodularity \(residual inf\)"):
            decide(fam)


def _half_frequency_family() -> TensorBasis:
    """N = 100 nodes m/100 with the integer frequencies 0, 50 and +-1 ..
    +-48, orthonormal among themselves, then one conjugate pair at +-48.5
    (97 and -97 over the denominator 200), listed last, so its lower row is
    the last of the 51 rows n <= p(n) and falls in their last, ragged row
    block of the fold."""
    j = np.arange(1, 49)
    freqs = np.concatenate([[0, 100], np.stack([2 * j, -2 * j], 1).ravel(), [97, -97]])
    return TensorBasis.fourier(freqs, np.arange(100), 200)


@pytest.mark.parametrize(
    "basis, residual",
    [
        (TensorBasis.fourier([0, 1, -1, 4], np.arange(4), 8), "5.000e-01"),
        (_half_frequency_family(), "3.987e-02"),
    ],
    ids=["n4", "n100_last_block"],
)
def test_family_violating_scalar_orthonormality_is_refused(basis, residual):
    # Unimodular, so only the isometry check on the frame operator refuses
    # it, through every decider, with the column Gram defect
    # max |F^H F / N - I| of the family on its full support, for the recipe
    # (on its real fold) and for its array twin (on the complex family)
    # alike: F^H F of a family closed under conjugation is real.
    n = basis.grid_size
    F = basis.scalar_family
    defect = np.abs(F.conj().T @ F / n - np.eye(n)).max()
    assert f"{defect:.3e}" == residual
    twin = TensorBasis(F)
    for b in (basis, twin):
        fam = OperatorFamily(WeightedSpace(n, 1, np.linspace(0.5, 2.0, n)), b)
        assert np.max(np.abs(np.abs(b.scalar_family) - 1.0)) <= 1e-15
        for decide in (classify, decide_frame, decide_onb, frame_spectrum):
            with pytest.raises(
                ValueError,
                match=rf"^family violates scalar orthonormality \(residual {residual}\)$",
            ):
                decide(fam)
    # the pair in the last, ragged block of the fold is folded: the real
    # form is the Hartley form of the family, bit for bit
    form = basis._form
    last = np.flatnonzero(np.arange(n) <= form.partner)[PAIRING_BLOCK:]
    assert n == 4 or (last.size == 19 and form.partner[last[-1]] == 99)
    assert np.array_equal(form.matrix, oracles.real_form(F, form.partner))


def _phased(F: np.ndarray) -> np.ndarray:
    """F times seeded unimodular column phases: no row of the product is
    the conjugate of another, even up to a constant phase, and the product
    is an isometry exactly when F is."""
    return F * np.exp(2j * np.pi * np.random.default_rng(79).random(F.shape[1]))


def _merged(n: int) -> np.ndarray:
    """The Fourier family of order ``n`` with nodes 2 and 3 on one column:
    unimodular and closed under conjugation, but no isometry."""
    k = np.arange(n)
    numer = k.copy()
    numer[3] = numer[2]
    return fourier_family(k, numer, n)


# Each family with the first hypothesis it breaks, in the order of the
# checks: column phases keep the moduli and the isometry of a family, so a
# phased family breaks what its unphased one breaks, and the doubled merged
# family breaks both hypotheses, unimodularity first.
_BROKEN = {
    "mixed_rows": (oracles.mixed_row_family, "unimodularity"),
    "mixed_rows_phased": (lambda n: _phased(oracles.mixed_row_family(n)), "unimodularity"),
    "merged_doubled": (lambda n: 2.0 * _merged(n), "unimodularity"),
    "merged_phased": (lambda n: _phased(_merged(n)), "scalar orthonormality"),
    "merged": (_merged, "scalar orthonormality"),
}


def _patched_frame_report(fam, monkeypatch):
    """``heisenberg.frame_report`` with its basis patched to that of ``fam``,
    on a midpoint grid whose every node is in the band."""
    monkeypatch.setattr(hb, "build_default", lambda grid_size: fam.basis)
    return hb.frame_report(0.01, 1, resolution=fam.space.grid_size)


def _probe(fam):
    return random_field(fam.space, np.random.default_rng(80))


_ENTRY_POINTS = {
    "classify": lambda fam, _: classify(fam),
    "decide_frame": lambda fam, _: decide_frame(fam),
    "decide_frame_band": lambda fam, _: decide_frame(fam, band=True),
    "frame_report": _patched_frame_report,
    "decide_onb": lambda fam, _: decide_onb(fam),
    "frame_spectrum": lambda fam, _: frame_spectrum(fam),
    "lambda_all": lambda fam, _: lambda_all(fam, _probe(fam)),
    "witness_ratio": lambda fam, _: witness_ratio(fam, _probe(fam)),
    "bessel_excess": lambda fam, _: bessel_excess(fam, _probe(fam)),
}
# the coefficient routes read the form alone and form no X^H X
_COEFFICIENT_ROUTES = {"lambda_all", "witness_ratio", "bessel_excess"}


@pytest.mark.parametrize("family", list(_BROKEN))
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_entry_point_refuses_a_family_on_its_first_broken_hypothesis(
    entry, family, monkeypatch
):
    # Each hypothesis is checked where the array that needs it is built:
    # unimodularity as the basis builds its form, then scalar orthonormality
    # on the frame operator X^H X, whose off-diagonal defect on a complex
    # family is the larger of max |Re| and max |Im|.  Every entry point that
    # reads the form refuses a family on the first hypothesis it breaks,
    # with the message of that check, the band decision included.
    n = 16
    build, hypothesis = _BROKEN[family]
    F = build(n)
    if hypothesis == "scalar orthonormality":
        defect = np.abs((F.conj().T @ F / n - np.eye(n)).view(float)).max()
        message = f"family violates {hypothesis} (residual {defect:.3e})"
    else:
        with pytest.raises(ValueError) as err:
            TensorBasis(F)._form
        message = str(err.value)
    assert message.startswith(f"family violates {hypothesis} (residual ")
    fam = OperatorFamily(WeightedSpace(n, 2, np.linspace(0.5, 2.0, n)), TensorBasis(F))
    run = _ENTRY_POINTS[entry]
    if entry in _COEFFICIENT_ROUTES and hypothesis == "scalar orthonormality":
        assert np.all(np.isfinite(run(fam, monkeypatch)))
        return
    with pytest.raises(ValueError) as err:
        run(fam, monkeypatch)
    assert str(err.value) == message


def test_isometry_is_required_on_the_support_only():
    # Two nodes on one column: the family is no isometry, but the column of
    # a zero-weight node enters no coefficient, Gram entry or spectrum, so
    # the deciders refuse it only when that node carries weight, and
    # otherwise give the report of the orthonormal family, bit for bit.
    n = 16
    k = np.arange(n)
    numer = k.copy()
    numer[3] = numer[2]
    merged = TensorBasis.fourier(k, numer, n)
    w = np.linspace(0.5, 2.0, n)
    fam = OperatorFamily(WeightedSpace(n, 1, w), merged)
    for decide in (classify, decide_frame, decide_onb):
        with pytest.raises(ValueError, match=r"orthonormality \(residual 1\.000e\+00\)"):
            decide(fam)
    w[3] = 0.0
    sp = WeightedSpace(n, 1, w)
    for decide in (classify, decide_frame, decide_onb):
        rep = decide(OperatorFamily(sp, merged))
        want = decide(OperatorFamily(sp, build_default(n)))
        assert rep.verdict is want.verdict is Verdict.NOT_FRAME
        assert rep.residuals == want.residuals
        assert rep.gram_bounds == want.gram_bounds
        assert np.array_equal(rep.witness.values, want.witness.values)
        assert rep.spectrum is want.spectrum is None or np.array_equal(
            rep.spectrum, want.spectrum
        )


def test_classify_working_set_at_grid_cap():
    # Each N x N complex array takes 16 N^2 bytes, a real one half that.
    # The basis holds its real form R alone.  classify then holds at most
    # one more real N x N array beside R at a time: the frame operator
    # R^T R, formed from R itself on this full support and scaled in place
    # for eigvalsh, then the weighted real Gram (R w/N) R^T, written a
    # block of rows at a time into its one output, whose moduli are read
    # off it a block of rows at a time.
    # The isometry check reads the frame operator in place, before it is
    # scaled, so it adds no N x N array.  The Parseval and defect ratios go
    # through the coefficient functionals, which add no N x N array either.
    # The default probe source
    # imports nothing, so no module import is traced as working set.
    # Measured 1.11 x 16 N^2.
    n, m = 512, 2
    tracemalloc.start()
    try:
        sp, fam = _family(np.linspace(0.5, 2.0, n), m=m)
        rep = classify(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict is Verdict.RIESZ_BASIS
    assert peak <= 1.15 * 16 * n * n


def test_witness_ratio_two_sum_formula():
    sp, fam = _family([0.5, 1.0, 1.0, 1.0])
    field = witness_lower_failure(fam, 0.9)
    assert field is not None
    ratio = witness_ratio(fam, field)
    # (sum w^2) / (sum w) over E = {0}
    assert ratio == pytest.approx(0.5, abs=1e-12)
    assert ratio <= 0.5 < 0.9


def test_witness_lower_failure_edge_cases():
    sp, fam = _family([0.5, 1.0, 1.0, 1.0])
    assert witness_lower_failure(fam, 0.4) is None
    with pytest.raises(ValueError):
        witness_lower_failure(fam, 0.0)
    with pytest.raises(ValueError):
        witness_lower_failure(fam, -1.0)
    field = witness_lower_failure(fam, 2.0)  # every node undercuts
    assert np.count_nonzero(np.abs(field.values).sum(axis=1)) == 4


def test_witness_soundness_random_sweep():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 17))
        m = int(rng.integers(1, 4))
        w = rng.uniform(0.1, 10.0, n)
        sp, fam = _family(w, m)
        a_claimed = float(np.median(w)) + 1e-6
        if w.min() >= a_claimed:
            continue
        field = witness_lower_failure(fam, a_claimed)
        mask = w < a_claimed
        two_sum = float((w[mask] ** 2).sum() / w[mask].sum())
        ratio = witness_ratio(fam, field)
        assert ratio == pytest.approx(two_sum, rel=1e-12)
        # single-point supports can round w*w/w one ulp above w itself
        assert ratio <= w[mask].max() * (1.0 + 4.0 * np.finfo(float).eps)
        assert ratio < a_claimed


def test_classify_gram_tracks_full_weight_range():
    sp, fam = _family([0.0, 1.0, 2.0, 1.0], m=2)
    rep = classify(fam)
    assert rep.verdict is Verdict.NOT_FRAME
    assert rep.gram_bounds[0] == pytest.approx(0.0, abs=1e-10)
    assert rep.gram_bounds[1] == pytest.approx(2.0, abs=1e-10)
    assert rep.residuals["gram_vs_weight"] < 1e-9

    sp2, fam2 = _family([0.5, 1.5])
    rep2 = classify(fam2)
    assert rep2.verdict is Verdict.RIESZ_BASIS


def test_decide_onb_exact_boundary():
    w = np.ones(6)
    w[3] = 1.0 + 5e-10
    sp, fam = _family(w)
    assert decide_onb(fam, tol=1e-9).verdict is Verdict.ONB

    w2 = np.ones(6)
    w2[3] = 1.0 + 5e-9
    sp2, fam2 = _family(w2)
    assert decide_onb(fam2, tol=1e-9).verdict is Verdict.RIESZ_BASIS


def test_decide_onb_three_conditions_and_defect():
    sp, fam = _family(np.ones(8), m=2)
    rep = decide_onb(fam)
    assert rep.verdict is Verdict.ONB
    assert rep.residuals["onb_cross"] < 1e-12
    assert rep.residuals["onb_norm"] < 1e-12
    assert rep.residuals["onb_parseval"] < 1e-12
    assert rep.witness is None

    w = np.ones(8)
    w[5] = 0.9
    sp2, fam2 = _family(w, m=2)
    rep2 = decide_onb(fam2)
    assert rep2.verdict is Verdict.RIESZ_BASIS
    assert rep2.residuals["onb_defect_ratio"] == pytest.approx(0.9, abs=1e-10)
    assert rep2.witness is not None
    # defect field sits at the dipped node
    assert np.flatnonzero(np.abs(rep2.witness.values).sum(axis=1)) == [5]

    w3 = np.ones(8)
    w3[5] = 0.0
    sp3, fam3 = _family(w3)
    assert decide_onb(fam3).verdict is Verdict.NOT_FRAME


def test_decide_scalar_frame():
    n = 8
    w = np.full(n, 0.7)
    sp = WeightedSpace(n, 1, w)
    basis = TensorBasis(build_default(n).scalar_family)
    rep = decide_frame(OperatorFamily(sp, basis))
    assert rep.verdict is Verdict.FRAME
    assert rep.oracle_bounds[0] == pytest.approx(0.7, abs=1e-10)
    # the space alone states M: the same scalar basis serves fiber dimension 2
    rep2 = decide_frame(OperatorFamily(WeightedSpace(n, 2, w), basis))
    assert rep2.verdict is Verdict.FRAME and rep2.weight_bounds == rep.weight_bounds
    assert rep2.spectrum.size == 2 * rep.spectrum.size


def test_classify_merges_reports():
    rng = np.random.default_rng(6)
    sp, fam = _family([0.5, 1.0, 1.0, 1.0], m=2)
    rep = classify(fam, rng=rng)
    assert rep.verdict is Verdict.RIESZ_BASIS
    for key in (
        "spectrum_vs_weight",
        "gram_vs_weight",
        "onb_cross",
        "onb_norm",
        "onb_parseval",
        "onb_defect_ratio",
    ):
        assert key in rep.residuals
    assert rep.oracle_bounds is not None and rep.gram_bounds is not None

    spu, famu = _family(np.ones(4), m=2)
    assert classify(famu, rng=rng).verdict is Verdict.ONB
    # a weight of 1 is no frame at tol 1.5: not_frame is decided first
    rep1 = classify(famu, tol=1.5, rng=rng)
    assert rep1.verdict is Verdict.NOT_FRAME
    assert rep1.residuals["witness_ratio"] == pytest.approx(1.0, abs=1e-12)
    assert decide_onb(famu, tol=1.5).verdict is Verdict.NOT_FRAME

    spz, famz = _family([0.0, 1.0, 1.0, 1.0])
    repz = classify(famz, rng=rng)
    assert repz.verdict is Verdict.NOT_FRAME
    assert repz.witness is not None


_WEIGHTS = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(1.0 - 2e-3, 1.0 + 2e-3),
    st.floats(1e-12, 20.0),
)


@settings(max_examples=60)
@given(
    st.lists(_WEIGHTS, min_size=1, max_size=40),
    st.integers(1, 3),
    st.sampled_from([1e-9, 1e-3]),
    st.integers(0, 2**32 - 1),
)
def test_classify_equals_the_three_deciders_merged(w, m, tol, seed):
    w = np.array(w)
    if not np.any(w > 1e-12):
        w[0] = 1.0
    sp, fam = _family(w, m)
    rep = classify(fam, tol=tol, rng=np.random.default_rng(seed))
    fr = decide_frame(fam, tol=tol)
    ob = decide_onb(fam, tol=tol, rng=np.random.default_rng(seed))
    # the Gram route: its whole spectrum from the fold against all the
    # weights, each m times, in the ONB half; the frame route against the
    # support weights, each m times
    gram = _gram_spectrum(_gram_fold(fam), sp)
    assert ob.residuals["gram_vs_weight"] == _multiset_gap(np.repeat(np.sort(w), m), gram)
    live = np.repeat(np.sort(w[w > 0]), m)
    assert fr.residuals["spectrum_vs_weight"] == _multiset_gap(live, fr.spectrum)
    basis = Verdict.RIESZ_BASIS if fr.verdict is Verdict.FRAME else Verdict.NOT_FRAME
    assert rep.verdict is (ob.verdict if ob.verdict is Verdict.ONB else basis)
    assert rep.verdict is ob.verdict
    assert rep.weight_bounds == fr.weight_bounds == ob.weight_bounds
    assert rep.oracle_bounds == fr.oracle_bounds
    assert np.array_equal(rep.spectrum, fr.spectrum)
    assert rep.gram_bounds == (gram[0], gram[-1]) == ob.gram_bounds
    merged = {**fr.residuals, **ob.residuals}
    assert rep.residuals == merged
    witness = fr.witness if fr.witness is not None else ob.witness
    if witness is None:
        assert rep.witness is None
    else:
        assert np.array_equal(rep.witness.values, witness.values)


def test_power_of_four_weight_scaling_scales_ratios_and_spectrum_bit_for_bit():
    # Every energy ratio and the frame spectrum are taken in units of a power
    # of two read off the weights, so scaling the weights by 4^k scales them
    # by 4^k exactly, from weights near the underflow limit of the space to
    # weights near the largest float.
    n = 64
    w = np.linspace(0.5, 2.0, n)
    w[::7] = 0.0
    rng = np.random.default_rng(97)
    fields = [Field(rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))]
    fields.append(Field(np.eye(n, 2)))
    _, fam = _family(w, m=2)
    want = [witness_ratio(fam, f) for f in fields]
    spec = frame_spectrum(fam)
    for k in (-500, -128, -1, 1, 128, 510):
        _, scaled = _family(np.ldexp(w, 2 * k), m=2)
        got = [witness_ratio(scaled, f) for f in fields]
        assert got == [float(np.ldexp(r, 2 * k)) for r in want]
        assert np.array_equal(frame_spectrum(scaled), np.ldexp(spec, 2 * k))


def test_power_of_four_weight_scaling_keeps_every_spectral_check_bit_for_bit():
    # The frame and Gram routes both run in the space's unit, so scaling the
    # weights by 4^k scales both spectra and the Gram bounds by 4^k exactly,
    # and the two checks, relative to the largest value, keep their bits.
    w = np.linspace(0.3, 1.7, 64)
    w[::5] = 0.0
    sp, fam = _family(w, m=2)
    rep = classify(fam, rng=np.random.default_rng(0))
    gram = _gram_spectrum(_gram_fold(fam), sp)
    for k in range(-20, 21):
        sp_k, fam_k = _family(np.ldexp(w, 2 * k), m=2)
        rep_k = classify(fam_k, rng=np.random.default_rng(0))
        assert np.array_equal(rep_k.spectrum, np.ldexp(rep.spectrum, 2 * k))
        assert np.array_equal(
            _gram_spectrum(_gram_fold(fam_k), sp_k), np.ldexp(gram, 2 * k)
        )
        assert rep_k.gram_bounds == tuple(float(np.ldexp(g, 2 * k)) for g in rep.gram_bounds)
        for check in ("spectrum_vs_weight", "gram_vs_weight"):
            assert rep_k.residuals[check] == rep.residuals[check]


def test_energy_ratios_stay_finite_at_extreme_weights():
    # The coefficient energies of weights near 1e160 overflow a plain sum of
    # squares, and a total mass above 1.8e308 overflows a plain sum; both are
    # weights the space accepts.  The ratios keep their meaning: the defect
    # field of a node has the energy ratio of its weight, and the Parseval
    # gap is the distance of a ratio in the weight range from 1; the
    # pointwise Parseval defect stays at rounding.
    for lo, hi in ((0.5e160, 2e160), (1e300, 1.7e308), (1e-300, 2e-300)):
        w = np.linspace(lo, hi, 8)
        sp, fam = _family(w, m=2)
        mass = float((w / 8).sum())
        assert total_mass(sp) == pytest.approx(mass, rel=1e-15)
        root = np.sqrt(2.0) * np.sqrt(mass)
        assert norm(sp, Field(np.ones((8, 2)))) == pytest.approx(root, rel=1e-15)
        rep = decide_onb(fam)
        assert rep.residuals["onb_defect_ratio"] == pytest.approx(hi, rel=1e-13)
        gaps = abs(lo - 1.0), abs(hi - 1.0)
        gap = rep.residuals["onb_parseval"]
        assert min(gaps) * (1 - 1e-13) <= gap <= max(gaps) * (1 + 1e-13)
        low = witness_lower_failure(fam, float(np.nextafter(lo, np.inf)))
        assert witness_ratio(fam, low) == pytest.approx(lo, rel=1e-13)
        f = random_field(sp, np.random.default_rng(98))
        assert parseval_residual(fam, f) <= 1e-14


def test_parseval_residual_propagates_a_nan_ratio(monkeypatch):
    # A NaN energy ratio must show in onb_parseval, not vanish under max().
    _, fam = _family(np.linspace(0.5, 2.0, 8))
    ratios = iter([1.0, 1.0, float("nan")] + [1.0] * 8)
    monkeypatch.setattr(analyzer, "witness_ratio", lambda fam, f: next(ratios))
    assert np.isnan(decide_onb(fam).residuals["onb_parseval"])
