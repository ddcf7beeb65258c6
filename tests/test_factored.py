"""Kronecker-factored frame and Gram spectra against the dense NM x NM
references, the in-place family and factor builders against their
one-expression forms bit for bit, plus scale and permutation properties of
the factored route."""

import itertools

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
    lambda_all,
    random_field,
    synthesis_gram,
)
import oracles
from framelab import witness_ratio
from framelab.analyzer import _extremes, _gram_fold, _gram_spectrum
from framelab import tensor_onb
from framelab.tensor_onb import _isometry_residual, fourier_family
from oracles import analysis_matrix


def _oracle_cases():
    """Families over seeded random weights, with and without dead nodes,
    with the Fourier basis and a basis holding its family as an array."""
    rng = np.random.default_rng(61)
    for n, m in [(5, 2), (37, 3), (64, 2), (16, 1)]:
        w = rng.uniform(0.1, 3.0, n)
        dead = w.copy()
        dead[::3] = 0.0
        scalar = build_default(n).scalar_family
        for weights in (w, dead):
            sp = WeightedSpace(n, m, weights)
            for basis in (build_default(n), TensorBasis(scalar)):
                yield OperatorFamily(sp, basis)


def test_factored_frame_spectrum_matches_dense_svd():
    # The eigvalsh of the real frame operator is a different route from the
    # dense complex SVD, so even at M = 1 the two agree to rounding.
    for fam in _oracle_cases():
        spec = frame_spectrum(fam)
        T = analysis_matrix(fam)
        dense = np.sort(np.linalg.svd(T, compute_uv=False)) ** 2
        assert spec.shape == dense.shape
        assert np.max(np.abs(spec - dense)) <= 1e-12 * dense.max()


def test_factored_gram_route_matches_dense_gram():
    # The spectrum comes from the real fold of gs and meets the dense
    # eigensolve to rounding.  onb_cross and onb_norm are the moduli and the
    # diagonal of the complex scalar Gram, read off the real fold of the
    # recipe basis, where at M = 1 they are those of the real Gram formed
    # by the same row blocks, and off the complex Gram of the array basis.
    for fam in _oracle_cases():
        gram = synthesis_gram(fam)
        dense_eig = np.linalg.eigvalsh(gram)
        dense_cross = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
        dense_norm = float(np.max(np.abs(np.diag(gram).real - 1.0)))
        spec = _gram_spectrum(_gram_fold(fam), fam.space)
        rep = decide_onb(fam)
        cross, unit = rep.residuals["onb_cross"], rep.residuals["onb_norm"]
        scale = float(np.max(np.abs(gram)))
        assert np.max(np.abs(spec - dense_eig)) <= 1e-12 * scale
        if fam.space.fiber_dim == 1 and fam.basis._recipe is not None:
            n = fam.space.grid_size
            F = fam.basis.scalar_family
            R = oracles.real_form(F, oracles.conjugate_partner(np.arange(n), n))
            g = oracles.gram_by_row_blocks(R, fam.space.weights)
            diag, off = oracles.moduli(fam.basis._form, g)
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
    of each scalar family a runner builds: ``build_default``'s, which a
    ``heisenberg`` run builds too, and a ``shiftinv`` run's."""
    k = np.arange(n)
    yield (
        build_default(n).scalar_family,
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


def test_working_set_routes_match_dense_forms_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(71)
    checks = []
    check = tensor_onb._check_hypothesis
    monkeypatch.setattr(
        tensor_onb, "_check_hypothesis", lambda name, r: checks.append((name, r)) or check(name, r)
    )
    for n in BIT_SIZES:
        w = rng.uniform(0.1, 3.0, n)
        dead = w.copy()
        dead[1::3] = 0.0
        for F, args, partner, _ in _family_kinds(n):
            gap = float(np.max(np.abs(np.abs(F) - 1.0)))
            checks.clear()
            # the array basis checks max abs(|F| - 1) on every entry and
            # keeps the family as given, without a copy
            basis = TensorBasis(F)
            assert np.shares_memory(basis._form.matrix, F)
            assert _same_bits(basis._form.matrix, F)
            assert checks == [("unimodularity", gap)]
            # a recipe basis checks its table of roots, whose largest
            # deviation from unit modulus bounds every entry it gathers, and
            # then folds the same family in one pass
            checks.clear()
            R = oracles.real_form(F, partner)
            recipe = TensorBasis.fourier(*args)
            assert _same_bits(recipe._form.matrix, R)
            # which is U F for the unitary U of the pairing, to rounding
            U = oracles.hartley_unitary(partner)
            assert np.max(np.abs(U.conj().T @ U - np.eye(n))) <= 1e-15
            assert np.max(np.abs(U @ F - R)) <= 1e-15
            # conj of a real array is the array itself, so the Gram routes
            # take R^T, not a copy of R (numpy 1.24 and later)
            assert recipe._form.matrix.conj() is recipe._form.matrix
            table = np.exp(2j * np.pi * np.arange(args[2]) / args[2])
            assert checks == [("unimodularity", float(np.max(np.abs(np.abs(table) - 1.0))))]
            assert gap <= checks[0][1] <= 1e-15
            # The isometry check reads the column Gram R^T R = F^H F in
            # place: it is max |R^T R / N - I| bit for bit, and leaves the
            # Gram's bits as they were.
            gram = R.T @ R
            kept = gram.copy()
            defect = np.max(np.abs(gram / n - np.eye(n)))
            assert _isometry_residual(gram, n) == defect <= 1e-14
            assert _same_bits(gram, kept)
            # The Gram fold matches the block loop bit for bit and the
            # whole product to rounding: a row of a block product need not
            # keep its bits.
            for weights in (w, dead):
                sp = WeightedSpace(n, 1, weights)
                # the fold is taken in the space's unit, so multiplied back
                # by it, exactly, it is the absolute fold bit for bit
                fold = np.ldexp(_gram_fold(OperatorFamily(sp, recipe)), sp.unit_exponent)
                assert _same_bits(fold, oracles.gram_by_row_blocks(R, weights))
                whole = oracles.real_gram(R, weights)
                assert np.max(np.abs(fold - whole)) <= 1e-15 * weights.max()


def _fold_cases():
    """The recipe basis of each scalar family a runner builds, at
    ``BIT_SIZES``, with and without dead nodes, at M = 1 and at M = 3."""
    rng = np.random.default_rng(73)
    for n in BIT_SIZES:
        for _, args, *_ in _family_kinds(n):
            w = rng.uniform(0.1, 3.0, n)
            dead = w.copy()
            dead[1::3] = 0.0
            for m in (1, 3):
                for weights in (w, dead):
                    sp = WeightedSpace(n, m, weights)
                    yield OperatorFamily(sp, TensorBasis.fourier(*args))


def test_moduli_match_complex_scalar_gram():
    # The diagonal and the largest off-diagonal modulus of the complex
    # scalar Gram, read off the row pairs of its real fold, under
    # the case's weights and under unit weights.
    for fam in _fold_cases():
        if fam.space.fiber_dim > 1:
            continue  # the scalar factor does not depend on the fiber
        F, n = fam.basis.scalar_family, fam.space.grid_size
        for w in (fam.space.weights, np.ones(n)):
            sp = WeightedSpace(n, 1, w)
            gs = oracles.weighted_scalar_gram(F, w)
            real = _gram_fold(OperatorFamily(sp, fam.basis))
            diag, off = fam.basis._form.moduli(real)
            diag, off = np.ldexp(diag, sp.unit_exponent), np.ldexp(off, sp.unit_exponent)
            scale = float(w.max())
            gap = np.max(np.abs(np.sort(diag) - np.sort(np.diag(gs).real)))
            assert gap <= 1e-15 * scale
            assert abs(off - np.max(np.abs(oracles.off_diagonal(gs)))) <= 1e-15 * scale


def test_streamed_moduli_match_whole_matrix_bit_for_bit():
    # The moduli read g a few rows n <= p(n) at a time with their partner
    # rows, and give the diagonal and the largest off-diagonal modulus of
    # the whole-matrix form bit for bit: on each fold, on one that is
    # symmetric only to rounding and on random symmetric matrices near the
    # overflow and the underflow ranges and in the subnormal range, whose
    # blocks differ in their largest entry.
    rng = np.random.default_rng(83)
    for fam in _fold_cases():
        if fam.space.fiber_dim > 1:
            continue
        form, n = fam.basis._form, fam.space.grid_size
        fold = _gram_fold(fam)
        a = rng.standard_normal((n, n))
        sym = a + a.T
        scaled = (sym * 2.0**1000, sym * 2.0**-1000, sym * 2.0**-1070)
        for g in (fold, fold + 1e-17 * a, sym, *scaled):
            want_diag, want_off = oracles.moduli(form, g)
            diag, off = form.moduli(g)
            assert _same_bits(diag, want_diag) and off == want_off


def _spread_cases():
    """The family of each scalar family a runner builds, at N = 7, 100 and
    257 and M = 1 and 3, on a full support, a random half of the nodes and
    a single node, with weights spread over 14 decades below their largest,
    which is 1 or 1e300."""
    rng = np.random.default_rng(75)
    for n in (7, 100, 257):
        spread = np.geomspace(1e-14, 1.0, n)
        rng.shuffle(spread)
        half = rng.random(n) < 0.5
        half[rng.integers(n)] = True
        for live in (np.ones(n, bool), half, np.arange(n) == n // 2):
            for F, *_ in _family_kinds(n):
                for top in (1.0, 1e300):
                    w = np.where(live, spread * top, 0.0)
                    for m in (1, 3):
                        yield OperatorFamily(WeightedSpace(n, m, w), TensorBasis(F))


def test_folded_spectra_match_complex_oracles_and_weights():
    # The frame route is an eigvalsh of the real frame operator T*T, the
    # oracle an SVD of the complex analysis matrix.  Dense NM x NM oracles
    # up to NM = 512; above that the complex factored routes (complex SVD of
    # q, complex eigvalsh of gs), since a dense 1536 x 1536 SVD per case
    # would dominate the suite.
    for fam in itertools.chain(_fold_cases(), _spread_cases()):
        n, m = fam.space.grid_size, fam.space.fiber_dim
        w = fam.space.weights
        spec = frame_spectrum(fam)
        gram = _gram_spectrum(_gram_fold(fam), fam.space)
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


def test_family_not_closed_under_conjugation_is_accepted():
    # Random column phases keep the family unimodular and orthonormal, but
    # no row is the conjugate of another, even up to a constant phase.
    # Closure under conjugation is no hypothesis: every decider accepts the
    # family and gives it the decision of the Fourier family, and its
    # coefficients are those of the Fourier family times the conjugate
    # phases.
    n = 8
    rng = np.random.default_rng(79)
    u = np.exp(2j * np.pi * rng.random(n))
    F = build_default(n).scalar_family * u
    sp = WeightedSpace(n, 2, np.linspace(0.5, 2.0, n))
    fam, dft = (OperatorFamily(sp, b) for b in (TensorBasis(F), build_default(n)))
    assert np.max(np.abs(np.abs(F) - 1.0)) <= 1e-12
    assert np.max(np.abs(oracles.scalar_gram_defect(F))) <= 1e-12
    f = random_field(sp, np.random.default_rng(80))
    # sum_i conj(F[n, i]) u_i f_i = sum_i conj(f_n(x_i)) f_i, with |u_i| = 1
    shifted = Field(f.values * u[:, None])
    assert np.max(np.abs(lambda_all(fam, shifted) - lambda_all(dft, f))) <= 1e-14
    assert abs(witness_ratio(fam, shifted) - witness_ratio(dft, f)) <= 1e-14
    assert np.max(np.abs(frame_spectrum(fam) - frame_spectrum(dft))) <= 1e-14
    for decide in (classify, decide_frame, decide_onb):
        got, want = decide(fam), decide(dft)
        assert got.verdict is want.verdict
        assert got.residuals.keys() == want.residuals.keys()
        for key, value in want.residuals.items():
            assert abs(got.residuals[key] - value) <= 1e-14, key


@pytest.mark.parametrize("n", [16, 512])
def test_walsh_hadamard_family_is_classified(n):
    # The Sylvester Walsh-Hadamard family is real, +-1 and orthonormal, so
    # every row is its own conjugate partner; its weighted scalar Gram is
    # not circulant, so the DFT diagonalizes neither route.
    H = oracles.walsh_family(n)
    w = np.linspace(0.5, 2.0, n)
    fam = OperatorFamily(WeightedSpace(n, 1, w), TensorBasis(H))
    assert np.array_equal(fam.basis._form.matrix, H)  # its form is the family
    assert classify(fam, rng=np.random.default_rng(0)).verdict is Verdict.RIESZ_BASIS
    tol = 1e-12 * w.max()
    assert np.max(np.abs(frame_spectrum(fam) - np.sort(w))) <= tol
    assert np.max(np.abs(_gram_spectrum(_gram_fold(fam), fam.space) - np.sort(w))) <= tol


def test_onb_ratios_match_witness_ratio():
    # decide_onb takes its Parseval probes and its defect ratio through
    # witness_ratio; each must equal witness_ratio of the same field exactly.
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


PROPERTY = settings(max_examples=40)


def test_property_tests_run_under_the_derandomized_profile():
    # conftest loads one profile before any test module builds its
    # settings, so every @given of the suite draws the same examples on
    # every run, a new one included
    for s in (settings.default, PROPERTY, settings(max_examples=1)):
        assert s.derandomize is True and s.database is None and s.deadline is None


@st.composite
def weighted_families(draw, values=st.floats(0.05, 20.0)):
    n = draw(st.integers(2, 24))
    m = draw(st.integers(1, 3))
    w = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return n, m, w


def _fam(n, m, w):
    sp = WeightedSpace(n, m, w)
    return sp, OperatorFamily(sp, build_default(n))


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
    lo, hi = _extremes(_gram_spectrum(_gram_fold(fam), fam.space))
    lo_c, hi_c = _extremes(_gram_spectrum(_gram_fold(fam_c), fam_c.space))
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


def _repeat_cases():
    """(basis, weights with zeros) of the recipe basis of each runner family
    and, at a power of 2, the array basis of the Walsh-Hadamard family, at
    N = 7, 64 and 100."""
    rng = np.random.default_rng(83)
    for n in (7, 64, 100):
        bases = [TensorBasis.fourier(*args) for _, args, *_ in _family_kinds(n)]
        if n & (n - 1) == 0:
            bases.append(TensorBasis(oracles.walsh_family(n)))
        for basis in bases:
            w = rng.uniform(0.1, 3.0, n)
            w[1::3] = 0.0
            yield basis, w


@pytest.mark.parametrize("m", [2, 3, 16])
def test_fiber_dimension_only_repeats_the_scalar_values(m):
    # The fiber C^M in its standard basis repeats each scalar value M times
    # and adds no rounding: every spectrum and ONB defect at fiber dimension
    # M is, bit for bit, the M = 1 value repeated.  The coefficients of each
    # field component are the M = 1 ones to rounding only: lambda_all takes
    # one real product with all 2M float columns, whose rounding depends on
    # the column count; with OpenBLAS 0.3.31 (Haswell kernels) the last bit
    # differs from a 2-column product at M >= 3 and N >= 64.
    rng = np.random.default_rng(m)
    for basis, w in _repeat_cases():
        n = w.size
        one = OperatorFamily(WeightedSpace(n, 1, w), basis)
        fam = OperatorFamily(WeightedSpace(n, m, w), basis)
        assert _same_bits(frame_spectrum(fam), np.repeat(frame_spectrum(one), m))
        gram = _gram_spectrum(_gram_fold(fam), fam.space)
        assert _same_bits(gram, np.repeat(_gram_spectrum(_gram_fold(one), one.space), m))
        rep, rep_one = decide_onb(fam), decide_onb(one)
        for key in ("onb_cross", "onb_norm"):
            assert _same_bits(rep.residuals[key], rep_one.residuals[key])
        assert rep.gram_bounds == rep_one.gram_bounds
        f = random_field(fam.space, rng)
        coeffs = lambda_all(fam, f)
        for j in range(m):
            ref = lambda_all(one, Field(f.values[:, j : j + 1]))[0]
            assert np.max(np.abs(coeffs[j] - ref)) <= 1e-14 * np.max(np.abs(ref))
