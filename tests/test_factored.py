"""Kronecker-factored frame and Gram spectra against the dense NM x NM
references, the in-place family and factor builders against their
one-expression forms bit for bit, plus scale and permutation properties of
the factored route."""

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
    frame_spectrum,
    synthesis_gram,
)
import oracles
from framelab import witness_ratio
from framelab.analyzer import _extremes, _gram_factors, _gram_spectrum
from framelab.operators import _quadrature
from framelab.tensor_onb import fourier_family
from oracles import analysis_matrix


def _oracle_cases():
    """(family, standard fiber?) over seeded random weights, with and without
    dead nodes, with the standard and a random unitary fiber basis."""
    rng = np.random.default_rng(61)
    for n, m in [(5, 2), (37, 3), (64, 2), (16, 1)]:
        w = rng.uniform(0.1, 3.0, n)
        dead = w.copy()
        dead[::3] = 0.0
        q, _ = np.linalg.qr(
            rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        )
        scalar = build_default(n, m).scalar_family
        for weights in (w, dead):
            sp = WeightedSpace(n, m, weights)
            for fiber, standard in ((np.eye(m, dtype=complex), True), (q, False)):
                yield OperatorFamily(sp, TensorBasis(scalar, fiber)), standard


def test_factored_frame_spectrum_matches_dense_svd():
    # The real fold of q is a different route from the dense complex SVD,
    # so even at M = 1 with the standard fiber the two agree to rounding.
    for fam, _ in _oracle_cases():
        spec = frame_spectrum(fam)
        T = analysis_matrix(fam)
        dense = np.sort(np.linalg.svd(T, compute_uv=False)) ** 2
        assert spec.shape == dense.shape
        assert np.max(np.abs(spec - dense)) <= 1e-12 * dense.max()


def test_factored_gram_route_matches_dense_gram():
    # The spectrum comes from the real fold of gs and meets the dense
    # eigensolve to rounding.  onb_cross and onb_norm are the moduli and the
    # diagonal of the complex factors, read off the real fold; at M = 1 with
    # the standard fiber they are those of the one-expression real Gram.
    for fam, standard in _oracle_cases():
        gram = synthesis_gram(fam)
        dense_eig = np.linalg.eigvalsh(gram)
        dense_cross = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
        dense_norm = float(np.max(np.abs(np.diag(gram).real - 1.0)))
        spec = _gram_spectrum(_gram_factors(fam))
        rep = decide_onb(fam)
        cross, unit = rep.residuals["onb_cross"], rep.residuals["onb_norm"]
        scale = float(np.max(np.abs(gram)))
        assert np.max(np.abs(spec - dense_eig)) <= 1e-12 * scale
        if fam.space.fiber_dim == 1 and standard:
            n = fam.space.grid_size
            F = fam.basis.scalar_family
            R = oracles.real_form(F, oracles.conjugate_partner(np.arange(n), n))
            diag, off = fam.basis._pairs.moduli(oracles.real_gram(R, fam.space.weights))
            assert cross == off and unit == float(np.max(np.abs(diag - 1.0)))
        assert abs(cross - dense_cross) <= 1e-12 * scale
        assert abs(unit - dense_norm) <= 1e-12 * scale
        assert rep.gram_bounds == (float(spec[0]), float(spec[-1]))


BIT_SIZES = (1, 3, 7, 100, 257, 512)


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(float), b.view(float))


def _family_kinds(n: int):
    """(family, builder arguments, conjugate partner, exp-based references)
    of each scalar family a runner builds: ``build_default``'s, a
    ``shiftinv`` run's and, for n >= 2 (the midpoint grid needs two
    points), a ``heisenberg`` run's, whose dephased row k is
    exp(2 pi i k i / n)."""
    k = np.arange(n)
    yield (
        build_default(n, 1).scalar_family,
        (k, k, n),
        oracles.conjugate_partner(k, n),
        (oracles.grid_family(n), oracles.dft_family(n)),
    )
    yield (
        fourier_family(-k, k, n),
        (-k, k, n),
        oracles.conjugate_partner(-k, n),
        (oracles.translate_family(n),),
    )
    if n >= 2:
        yield (
            fourier_family(n // 2 - k, 2 * k + 1, 2 * n),
            (n // 2 - k, 2 * k + 1, 2 * n),
            oracles.conjugate_partner(n // 2 - k, n),
            (oracles.midpoint_family(n),),
        )


def test_family_builders_match_one_expression_bit_for_bit():
    # Each builder reads one table of roots of unity at k m mod denom, which
    # is exp of the reduced phase bit for bit.  The exp-based references
    # round a phase argument of up to 2 pi max|k m / denom| (about 3200 at
    # n = 512), so they agree with it to a few ulps of that argument.
    for n in BIT_SIZES:
        for F, (freqs, numer, denom), _, refs in _family_kinds(n):
            assert _same_bits(F, oracles.table_family(freqs, numer, denom))
            arg = 2 * np.pi * np.max(np.abs(np.outer(freqs, numer))) / denom
            for ref in refs:
                assert np.max(np.abs(F - ref)) <= 4 * np.finfo(float).eps * arg


@pytest.mark.parametrize("n", [512, 1024])
def test_families_are_orthonormal_to_rounding(n):
    # The exp-based grid family missed orthonormality by 4.4e-14 at n = 512.
    for F, *_ in _family_kinds(n):
        assert np.max(np.abs(oracles.scalar_gram_defect(F))) <= 1e-15


def test_working_set_routes_match_dense_forms_bit_for_bit():
    rng = np.random.default_rng(71)
    for n in BIT_SIZES:
        w = rng.uniform(0.1, 3.0, n)
        dead = w.copy()
        dead[1::3] = 0.0
        for F, _, partner, _ in _family_kinds(n):
            basis = TensorBasis(F, np.eye(1))
            assert basis.unimodularity_residual() == float(
                np.max(np.abs(np.abs(F) - 1.0))
            )
            R = oracles.real_form(F, partner)
            assert _same_bits(basis._pairs.real, R)
            diag, off = basis._pairs.moduli(R @ R.T / n)
            assert basis.scalar_gram_residual() == max(
                float(np.max(np.abs(diag - 1.0))), off
            )
            for weights in (w, dead):
                sp = WeightedSpace(n, 1, weights)
                fam = OperatorFamily(sp, basis)
                assert _same_bits(_quadrature(fam), oracles.quadrature(fam))
                assert _same_bits(_gram_factors(fam)[1], oracles.real_gram(R, weights))


def _fold_cases():
    """The family of each scalar family a runner builds, at ``BIT_SIZES``,
    with and without dead nodes, at M = 1 and at M = 3 with a random
    unitary fiber basis."""
    rng = np.random.default_rng(73)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    for n in BIT_SIZES:
        for F, *_ in _family_kinds(n):
            w = rng.uniform(0.1, 3.0, n)
            dead = w.copy()
            dead[1::3] = 0.0
            for fiber in (np.eye(1, dtype=complex), q):
                for weights in (w, dead):
                    sp = WeightedSpace(n, fiber.shape[0], weights)
                    yield OperatorFamily(sp, TensorBasis(F, fiber))


def test_moduli_match_complex_scalar_gram():
    # The diagonal and the largest off-diagonal modulus of the complex
    # scalar Gram, read off the 2 x 2 pair blocks of its real fold, under
    # the case's weights and under unit weights.
    for fam in _fold_cases():
        if fam.space.fiber_dim > 1:
            continue  # the scalar factor does not depend on the fiber
        F, n = fam.basis.scalar_family, fam.space.grid_size
        for w in (fam.space.weights, np.ones(n)):
            sp = WeightedSpace(n, 1, w)
            gs = oracles.weighted_scalar_gram(F, w)
            real = _gram_factors(OperatorFamily(sp, fam.basis))[1]
            diag, off = fam.basis._pairs.moduli(real)
            scale = float(w.max())
            gap = np.max(np.abs(np.sort(diag) - np.sort(np.diag(gs).real)))
            assert gap <= 1e-15 * scale
            assert abs(off - np.max(np.abs(oracles.off_diagonal(gs)))) <= 1e-15 * scale


def test_folded_spectra_match_complex_oracles_and_weights():
    # Dense NM x NM oracles up to NM = 512; above that the complex factored
    # routes (complex SVD of q, complex eigvalsh of gs), since a dense
    # 1536 x 1536 SVD per case would dominate the suite.
    for fam in _fold_cases():
        n, m = fam.space.grid_size, fam.space.fiber_dim
        w = fam.space.weights
        spec = frame_spectrum(fam)
        gram = _gram_spectrum(_gram_factors(fam))
        if n * m <= 512:
            T = analysis_matrix(fam)
            oracle = np.sort(np.linalg.svd(T, compute_uv=False)) ** 2
            oracle_gram = np.linalg.eigvalsh(synthesis_gram(fam))
        else:
            oracle = oracles.complex_frame_spectrum(fam)
            oracle_gram = oracles.complex_gram_spectrum(fam)
        scale = float(w.max())
        live = w[w > 0]
        assert np.max(np.abs(spec - oracle)) <= 1e-12 * scale
        assert np.max(np.abs(spec - np.sort(np.repeat(live, m)))) <= 1e-12 * scale
        assert np.max(np.abs(gram - oracle_gram)) <= 1e-12 * scale
        assert np.max(np.abs(gram - np.sort(np.repeat(w, m)))) <= 1e-12 * scale


def test_family_not_closed_under_conjugation_is_refused():
    # Random column phases keep the family unimodular and orthonormal, but
    # no dephased row is the conjugate of another.
    n = 8
    rng = np.random.default_rng(79)
    F = build_default(n, 1).scalar_family * np.exp(2j * np.pi * rng.random(n))
    sp = WeightedSpace(n, 2, np.linspace(0.5, 2.0, n))
    fam = OperatorFamily(sp, TensorBasis(F, np.eye(2, dtype=complex)))
    assert fam.basis.unimodularity_residual() <= 1e-12
    assert np.max(np.abs(oracles.scalar_gram_defect(F))) <= 1e-12
    checks = (
        classify,
        decide_frame,
        frame_spectrum,
        lambda fam: fam.basis.scalar_gram_residual(),
    )
    for decide in checks:
        with pytest.raises(ValueError, match="conjugate symmetry"):
            decide(fam)


def test_shared_quadrature_ratios_match_witness_ratio():
    # decide_onb shares one quadrature between its Parseval probes and the
    # defect ratio; each must equal witness_ratio of the same field exactly.
    for n, m in [(1, 1), (7, 1), (100, 1), (100, 2), (64, 3)]:
        w = np.linspace(0.4, 2.5, n) if n > 1 else np.array([0.7])
        sp, fam = _fam(n, m, w)
        rep = decide_onb(fam, rng=np.random.default_rng(5))
        rng = np.random.default_rng(5)
        parseval = 0.0
        for _ in range(8):
            shape = (n, m)
            f = Field(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            parseval = max(parseval, abs(witness_ratio(fam, f) - 1.0))
        assert rep.residuals["onb_parseval"] == parseval
        defect = witness_ratio(fam, rep.witness)
        assert rep.residuals["onb_defect_ratio"] == defect


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
@given(
    weighted_families(values=st.one_of(st.just(0.0), st.floats(0.05, 20.0))),
    st.floats(1e-14, 1e12),
)
def test_weight_scaling_scales_spectra(case, c):
    # scaling keeps the support, so the spectra keep their length, even
    # where every weight lies far below 1
    n, m, w = case
    if not np.any(w > 0):
        w[0] = 1.0
    _, fam = _fam(n, m, w)
    _, fam_c = _fam(n, m, c * w)
    spec, spec_c = frame_spectrum(fam), frame_spectrum(fam_c)
    assert spec_c.shape == spec.shape == (m * np.count_nonzero(w),)
    assert np.max(np.abs(spec_c - c * spec)) <= 1e-12 * c * spec.max()
    lo, hi = _extremes(_gram_spectrum(_gram_factors(fam)))
    lo_c, hi_c = _extremes(_gram_spectrum(_gram_factors(fam_c)))
    assert abs(lo_c - c * lo) <= 1e-12 * c * hi
    assert abs(hi_c - c * hi) <= 1e-12 * c * hi
    # the cross checks are relative to the weight scale, so they pass in any unit
    rep = classify(fam_c, rng=np.random.default_rng(0))
    assert rep.residuals["spectrum_vs_weight"] <= 1e-12
    assert rep.residuals["gram_vs_weight"] <= 1e-12


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
    spec = frame_spectrum(fam)
    spec_p = frame_spectrum(fam_p)
    assert np.max(np.abs(spec_p - spec)) <= 1e-12 * spec.max()
    rep = classify(fam, rng=np.random.default_rng(0))
    rep_p = classify(fam_p, rng=np.random.default_rng(0))
    assert rep_p.verdict is rep.verdict
    expect = (
        Verdict.ONB
        if np.all(w == 1.0)
        else Verdict.RIESZ_BASIS if w.min() > 1e-9 else Verdict.NOT_FRAME
    )
    assert rep.verdict is expect
