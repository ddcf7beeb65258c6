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
    build_default,
    classify,
    decide_frame,
    decide_onb,
    synthesis_gram,
    weight_bounds,
    witness_lower_failure,
    witness_ratio,
)
from framelab.analyzer import _extremes, _gram_factors, _gram_spectrum


def _family(weights, m=1):
    w = np.asarray(weights, dtype=float)
    sp = WeightedSpace(w.size, m, w)
    return sp, OperatorFamily(sp, build_default(w.size, m))


def test_weight_bounds():
    sp, _ = _family([0.5, 2.0, 1.0])
    assert weight_bounds(sp) == (0.5, 2.0)


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


def test_decide_frame_rejects_invalid_family():
    w = np.linspace(0.5, 2.0, 6)
    sp = WeightedSpace(6, 1, w)
    scalar = build_default(6, 1).scalar_family.copy()
    scalar[1] *= 2.0  # not unimodular
    fam = OperatorFamily(sp, TensorBasis(scalar, np.eye(1)))
    with pytest.raises(ValueError, match="unimodularity"):
        decide_frame(fam)


def test_nan_family_refused_by_both_deciders():
    n = 8
    sp = WeightedSpace(n, 1, np.linspace(0.5, 2.0, n))
    scalar = build_default(n, 1).scalar_family.copy()
    scalar[3, 5] = np.nan
    fam = OperatorFamily(sp, TensorBasis(scalar, np.eye(1)))
    for decide in (decide_frame, classify):
        with pytest.raises(ValueError, match=r"unimodularity \(residual nan\)"):
            decide(fam)


def test_classify_working_set_at_grid_cap():
    # Each N x N complex array takes 16 N^2 bytes, a real one half that.
    # The run holds one family and its real form R, and classify adds the
    # real scalar Gram R R^T / N of the hypothesis check, then the support
    # columns of R for the SVD, then the weighted real Gram, then one
    # quadrature shared by the Parseval and defect ratios.
    n, m = 512, 2
    tracemalloc.start()
    try:
        sp, fam = _family(np.linspace(0.5, 2.0, n), m=m)
        rep = classify(fam, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict is Verdict.RIESZ_BASIS
    assert peak <= 3.0 * 16 * n * n


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
    basis = TensorBasis(build_default(n, 1).scalar_family, np.eye(1))
    rep = decide_frame(OperatorFamily(sp, basis))
    assert rep.verdict is Verdict.FRAME
    assert rep.oracle_bounds[0] == pytest.approx(0.7, abs=1e-10)
    sp_bad = WeightedSpace(n, 2, w)
    with pytest.raises(ValueError):
        OperatorFamily(sp_bad, basis)  # a scalar family needs fiber dimension 1


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
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
    # the Gram route: its spectrum from the factors against the weight range
    gb = _extremes(_gram_spectrum(_gram_factors(fam)))
    lo, hi = fr.weight_bounds
    gram = {"gram_vs_weight": max(abs(gb[0] - lo), abs(gb[1] - hi)) / max(1.0, hi)}
    basis = Verdict.RIESZ_BASIS if fr.verdict is Verdict.FRAME else Verdict.NOT_FRAME
    assert rep.verdict is (ob.verdict if ob.verdict is Verdict.ONB else basis)
    assert rep.verdict is ob.verdict
    assert rep.weight_bounds == fr.weight_bounds == ob.weight_bounds
    assert rep.oracle_bounds == fr.oracle_bounds
    assert np.array_equal(rep.spectrum, fr.spectrum)
    assert rep.gram_bounds == gb == ob.gram_bounds
    merged = {**fr.residuals, **gram, **ob.residuals}
    assert rep.residuals == merged
    witness = fr.witness if fr.witness is not None else ob.witness
    if witness is None:
        assert rep.witness is None
    else:
        assert np.array_equal(rep.witness.values, witness.values)
