"""Kronecker-factored frame and Gram spectra against the dense NM x NM
references, plus scale and permutation properties of the factored route."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import (
    OperatorFamily,
    TensorBasis,
    Verdict,
    WeightedSpace,
    build_default,
    classify,
    decide_onb,
    frame_spectrum,
    gram_bounds,
    synthesis_gram,
)
from framelab.analyzer import _gram_factors, _gram_spectrum
from oracles import analysis_matrix


def _oracle_cases():
    """(family, support mask, standard fiber?) over seeded random weights,
    with and without dead nodes, with the standard and a random unitary
    fiber basis."""
    rng = np.random.default_rng(61)
    for n, m in [(5, 2), (37, 3), (64, 2), (16, 1)]:
        w = rng.uniform(0.1, 3.0, n)
        dead = w.copy()
        dead[::3] = 0.0
        q, _ = np.linalg.qr(
            rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        )
        scalar = build_default(n, m).scalar_family
        for weights, supp in ((w, None), (dead, dead > 0)):
            sp = WeightedSpace(n, m, weights)
            for fiber, standard in ((np.eye(m, dtype=complex), True), (q, False)):
                yield OperatorFamily(sp, TensorBasis(scalar, fiber)), supp, standard


def test_factored_frame_spectrum_matches_dense_svd():
    for fam, supp, standard in _oracle_cases():
        spec = frame_spectrum(fam, support=supp)
        T = analysis_matrix(fam, support=supp)
        dense = np.sort(np.linalg.svd(T, compute_uv=False)) ** 2
        assert spec.shape == dense.shape
        if fam.space.fiber_dim == 1 and standard:
            assert np.array_equal(spec, dense)
        else:
            assert np.max(np.abs(spec - dense)) <= 1e-12 * dense.max()


def test_factored_gram_route_matches_dense_gram():
    for fam, _, standard in _oracle_cases():
        gram = synthesis_gram(fam)
        dense_eig = np.linalg.eigvalsh(gram)
        dense_cross = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
        dense_norm = float(np.max(np.abs(np.diag(gram).real - 1.0)))
        spec = _gram_spectrum(_gram_factors(fam))
        rep = decide_onb(fam.space, fam)
        cross, unit = rep.residuals["onb_cross"], rep.residuals["onb_norm"]
        if fam.space.fiber_dim == 1 and standard:
            assert np.array_equal(spec, dense_eig)
            assert rep.gram_bounds == (float(dense_eig[0]), float(dense_eig[-1]))
            assert cross == dense_cross and unit == dense_norm
        else:
            scale = float(np.max(np.abs(gram)))
            assert np.max(np.abs(spec - dense_eig)) <= 1e-12 * scale
            assert abs(cross - dense_cross) <= 1e-12 * scale
            assert abs(unit - dense_norm) <= 1e-12 * scale
        assert rep.gram_bounds == (float(spec[0]), float(spec[-1]))


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def weighted_families(draw, values=st.floats(0.05, 20.0)):
    n = draw(st.integers(2, 24))
    m = draw(st.integers(1, 3))
    w = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return n, m, w


def _fam(n, m, w):
    sp = WeightedSpace(n, m, w)
    return sp, OperatorFamily(sp, build_default(n, m))


@PROPERTY
@given(weighted_families(), st.floats(1e-3, 1e3))
def test_weight_scaling_scales_spectra(case, c):
    n, m, w = case
    _, fam = _fam(n, m, w)
    _, fam_c = _fam(n, m, c * w)
    spec, spec_c = frame_spectrum(fam), frame_spectrum(fam_c)
    assert np.max(np.abs(spec_c - c * spec)) <= 1e-12 * c * spec.max()
    lo, hi = gram_bounds(fam)
    lo_c, hi_c = gram_bounds(fam_c)
    assert abs(lo_c - c * lo) <= 1e-12 * c * hi
    assert abs(hi_c - c * hi) <= 1e-12 * c * hi


@PROPERTY
@given(
    weighted_families(
        values=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.05, 20.0))
    ),
    st.randoms(use_true_random=False),
)
def test_node_permutation_keeps_spectrum_and_verdict(case, rnd):
    n, m, w = case
    if not np.any(w > 0):
        w[0] = 1.0
    perm = list(range(n))
    rnd.shuffle(perm)
    sp, fam = _fam(n, m, w)
    sp_p, fam_p = _fam(n, m, w[perm])
    supp = w > 0
    spec = frame_spectrum(fam, support=supp)
    spec_p = frame_spectrum(fam_p, support=supp[perm])
    assert np.max(np.abs(spec_p - spec)) <= 1e-12 * spec.max()
    rep = classify(sp, fam, rng=np.random.default_rng(0))
    rep_p = classify(sp_p, fam_p, rng=np.random.default_rng(0))
    assert rep_p.verdict is rep.verdict
    expect = (
        Verdict.ONB
        if np.all(w == 1.0)
        else Verdict.RIESZ_BASIS if w.min() > 1e-9 else Verdict.NOT_FRAME
    )
    assert rep.verdict is expect
