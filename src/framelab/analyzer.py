"""Classification of coefficient families by their weight profile.

For a unimodular orthonormal tensor family over a weighted grid, the whole
frame-theoretic character of the coefficient functionals is carried by the
node weights: the frame-operator spectrum and the synthesis Gram spectrum
both equal the weight multiset (repeated per fiber dimension).  The
deciders here read the verdict off the weights and independently verify it
spectrally, reporting residuals and, on failure, an explicit witness field.

Every decider takes the family alone: an ``OperatorFamily`` binds the
space it analyzes, so every route reads one weight.  ``classify`` is the
frame half of ``decide_frame`` followed by the ONB half of ``decide_onb``.
One frame decision serves every weight mode: ``decide_frame`` reads the
verdict, the weight bounds and a witness over the whole grid, and
``heisenberg`` takes the same decision over its positive-weight band, the
nodes its family must cover.  The ``_vs_`` residuals are relative to
max(1, largest weight), so they do not depend on the units of the weight.

The spectral route stays dense on purpose: an SVD of the analysis factors
and an ``eigvalsh`` of the synthesis-Gram factors, O(N^3) in the grid size.
For the discrete Fourier family the weighted scalar Gram is circulant, and
its FFT eigenvalues are the weights themselves, so an FFT Gram route would
read back the very numbers the weight route reads and check nothing.  The
cost of the cross check is the price of its independence.  Every N x N
product runs in real arithmetic all the same: every family here is closed
under conjugation, and a fixed sparse unitary (the centrohermitian
reduction) maps it to its real form R, built once per basis.  The
hypothesis check reads the scalar Gram R R^T / N, the frame route takes
the SVD of the support columns of R, and the Gram route the ``eigvalsh``
of its own product (R w/N) R^T, so the routes share only the family.  The
fold regroups entries and diagonalizes nothing, so the routes stay dense
and independent, and the moduli and the diagonal of the complex Gram that
the residuals report are read back off the real one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .operators import OperatorFamily, _lambda_all, _quadrature, frame_spectrum
from .tensor_onb import HYPOTHESIS_TOL, _field_matrix
from .wspace import Field, WeightedSpace, norm

__all__ = [
    "Verdict",
    "FrameReport",
    "weight_bounds",
    "synthesis_gram",
    "decide_frame",
    "decide_onb",
    "classify",
    "witness_lower_failure",
    "witness_ratio",
]

PARSEVAL_FIELDS = 8


class Verdict(str, Enum):
    NOT_FRAME = "not_frame"
    FRAME = "frame"
    RIESZ_BASIS = "riesz_basis"
    ONB = "onb"


@dataclass(frozen=True)
class FrameReport:
    """Outcome of a classification run.

    Attributes:
        verdict: strongest property established for the family.
        weight_bounds: (min, max) of the node weights in play.
        oracle_bounds: extreme frame-operator eigenvalues, when computed.
        gram_bounds: extreme synthesis-Gram eigenvalues, when computed.
        residuals: named nonnegative diagnostics from the cross checks.
        witness: field exhibiting a failure, when the verdict is negative.
        spectrum: ascending frame-operator spectrum on the support (the
            squared singular values of the analysis matrix) when the
            analysis route ran, or the ascending Gabor Gram spectrum of a
            Zak check, so callers can reuse it instead of computing it
            again; ``oracle_bounds`` are its first and last entries.
    """

    verdict: Verdict
    weight_bounds: tuple
    oracle_bounds: tuple | None
    gram_bounds: tuple | None
    residuals: dict
    witness: Field | None
    spectrum: np.ndarray | None = None


def weight_bounds(space: WeightedSpace) -> tuple:
    w = space.weights
    return (float(w.min()), float(w.max()))


def _validate_family(fam: OperatorFamily) -> None:
    """The deciders assume a unimodular orthonormal tensor family.  The
    checks run in order and the first failure is raised: unimodularity,
    then conjugate symmetry (the real form the scalar check reads needs
    it), then scalar and fiber orthonormality."""
    b = fam.basis
    checks = (
        ("unimodularity", b.unimodularity_residual),
        ("scalar orthonormality", b.scalar_gram_residual),
        ("fiber orthonormality", b.fiber_gram_residual),
    )
    for name, residual in checks:
        res = residual()
        if not res <= HYPOTHESIS_TOL:  # a NaN residual fails too
            raise ValueError(f"family violates {name} (residual {res:.3e})")


def synthesis_gram(fam: OperatorFamily) -> np.ndarray:
    """Gram matrix of the synthesis images G_{m,n} in the weighted space.

    The dense NM x NM reference, built from the fields themselves.  It
    equals kron(G G^H, (F w/N) F^H); the deciders work from those two
    factors (``_gram_factors``) and never call this.
    """
    V = _field_matrix(fam.basis)
    wq = np.repeat(fam.space.weights, fam.space.fiber_dim) / fam.space.grid_size
    return (V * wq) @ V.conj().T


def _gram_factors(fam: OperatorFamily) -> tuple:
    """Kronecker factors of the synthesis Gram: the fiber Gram G G^H
    (M x M) and the real fold (R w/N) R^T (N x N) of the weighted scalar
    Gram (F w/N) F^H, with R the basis's real form.

    Entry ((m, n), (m', n')) of the synthesis Gram is
    <g_m, g_m'> * (1/N) sum_i f_n(x_i) conj(f_n'(x_i)) w_i, the product of
    the two factor entries, so the Gram is their Kronecker product.  The
    scalar factor is its own real product of the family entries, not the
    square of the frame route's matrix, so the two routes share only the
    family.
    """
    G, R = fam.basis.fiber_family, fam.basis._pairs.real
    weighted = R * (fam.space.weights / fam.space.grid_size)
    return G @ G.conj().T, weighted @ R.T


def _gram_spectrum(factors: tuple) -> np.ndarray:
    """Ascending synthesis-Gram spectrum: the pairwise products of the
    eigenvalues of the two factors (tiny negative ones from zero-weight
    nodes included).

    The scalar factor is the real symmetric fold U D gs D^H U^H of the
    weighted scalar Gram gs, with D the row dephasing and U the sparse
    unitary of the basis's conjugate row pairing, so it has the spectrum of
    gs and ``eigvalsh`` runs in real arithmetic on the family entries.  The
    fold is not an FFT: for the discrete Fourier family an FFT would
    diagonalize gs and read back the weights, and check nothing.
    """
    gf, gs = factors
    return np.sort(np.outer(np.linalg.eigvalsh(gf), np.linalg.eigvalsh(gs)).ravel())


def _extremes(spec: np.ndarray) -> tuple:
    return (float(spec[0]), float(spec[-1]))


def _offmax(a: np.ndarray) -> float:
    """Largest modulus off the diagonal; 0 for a 1 x 1 matrix."""
    r = np.abs(a)
    np.fill_diagonal(r, 0.0)
    return float(np.max(r))


def witness_ratio(fam: OperatorFamily, field: Field) -> float:
    """Total coefficient energy of ``field`` over its squared norm.

    Zero-norm fields (supported where the weight vanishes) report 0.
    """
    return _witness_ratio(fam, field, None)


def _witness_ratio(fam: OperatorFamily, field: Field, quad: np.ndarray | None) -> float:
    """``witness_ratio`` with the weighted quadrature of ``fam`` given, so
    that several fields share one, or built here when None and needed."""
    den = norm(fam.space, field) ** 2
    if den == 0.0:
        return 0.0
    if quad is None:
        quad = _quadrature(fam)
    num = float((np.abs(_lambda_all(fam, quad, field)) ** 2).sum())
    return num / den


def _indicator_field(fam: OperatorFamily, nodes) -> Field:
    """The first fiber vector g_0 on ``nodes`` (a mask or an index), else 0."""
    vals = np.zeros((fam.space.grid_size, fam.space.fiber_dim), dtype=complex)
    vals[nodes] = fam.basis.fiber_family[0]
    return Field(vals)


def witness_lower_failure(fam: OperatorFamily, a_claimed: float):
    """Indicator field on the nodes where the weight undercuts a claimed
    lower bound.

    On E = {i : w_i < a_claimed} the field 1_E g_0 has coefficient energy
    (1/N) sum_E w_i^2 against squared norm (1/N) sum_E w_i, so its energy
    ratio is at most max(w on E) and in particular below the claim.

    Returns:
        The witness field, or None when every weight meets the claim.

    Raises:
        ValueError: if ``a_claimed`` is not positive.
    """
    return _lower_witness(fam, a_claimed, False)


def _verdict(values: np.ndarray, tol: float) -> Verdict:
    """The verdict rule for weights, or squared Zak magnitudes: not_frame
    unless every value exceeds ``tol``, else onb when every value is within
    ``tol`` of 1, else riesz_basis."""
    if not values.min() > tol:
        return Verdict.NOT_FRAME
    if np.max(np.abs(values - 1.0)) <= tol:
        return Verdict.ONB
    return Verdict.RIESZ_BASIS


def _band_ratio(fam: OperatorFamily, field: Field) -> float:
    """``witness_ratio`` of a field of positive norm for a square orthonormal
    family, read off the weights: sum w^2 |f|^2 over sum w |f|^2."""
    w = fam.space.weights
    f2 = (np.abs(field.values) ** 2).sum(axis=1)
    return float((w**2 * f2).sum() / (w * f2).sum())


def _lower_witness(fam: OperatorFamily, claim: float, band: bool) -> Field | None:
    """Indicator field of the nodes whose weight undercuts ``claim``, of the
    support only with ``band``; None when no node undercuts it."""
    if not claim > 0:
        raise ValueError("claimed lower bound must be positive")
    mask = fam.space.weights < claim
    if band:
        mask &= fam.space.support
    return _indicator_field(fam, mask) if mask.any() else None


def _factor_residuals(fam: OperatorFamily, factors: tuple) -> dict:
    """ONB defects of the synthesis Gram kron(gf, gs) from its factors: the
    largest off-diagonal modulus (onb_cross) and the largest deviation of a
    diagonal entry from 1 (onb_norm).  The moduli and the diagonal of the
    complex scalar factor gs are read off its real fold."""
    # Off the diagonal of kron(gf, gs) either m != m' (any n, n') or
    # m = m' and n != n'; the diagonal is diag(gf) (x) diag(gs).
    gf, real = factors
    dgs, off = fam.basis._pairs.moduli(real)
    dgf = np.diag(gf)
    return {
        "onb_cross": max(
            _offmax(gf) * max(float(np.max(np.abs(dgs))), off),
            float(np.max(np.abs(dgf))) * off,
        ),
        "onb_norm": float(np.max(np.abs(np.outer(dgf, dgs).real - 1.0))),
    }


def _parseval_checks(
    fam: OperatorFamily,
    verdict: Verdict,
    rng: np.random.Generator | None,
    quad: np.ndarray,
) -> tuple:
    """Energy preservation on ``PARSEVAL_FIELDS`` random fields
    (onb_parseval) and, unless the verdict is onb, the defect field at the
    node whose weight is farthest from 1 with its energy ratio
    (onb_defect_ratio), all through the one quadrature ``quad``.

    Returns:
        (defect field or None, residuals).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    shape = (fam.space.grid_size, fam.space.fiber_dim)
    parseval = 0.0
    for _ in range(PARSEVAL_FIELDS):
        f = Field(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        parseval = max(parseval, abs(_witness_ratio(fam, f, quad) - 1.0))
    residuals = {"onb_parseval": parseval}
    if verdict is Verdict.ONB:
        return None, residuals
    defect = _indicator_field(fam, int(np.argmax(np.abs(fam.space.weights - 1.0))))
    residuals["onb_defect_ratio"] = _witness_ratio(fam, defect, quad)
    return defect, residuals


def _frame_half(fam: OperatorFamily, tol: float, claim, band: bool) -> FrameReport:
    """``decide_frame`` without the witness ratio, over the whole grid or,
    with ``band``, over the support.  The spectrum on the support must
    reproduce the support weight range: spectrum_vs_weight is the gap of the
    extremes, relative to max(1, largest weight).  The witness undercuts
    ``claim``, else, for a non-frame, the smallest claim above ``tol``,
    which holds the nodes of weight <= tol."""
    spec = frame_spectrum(fam)
    sw = fam.space.weights[fam.space.support]
    gap = max(abs(float(spec[0]) - sw.min()), abs(float(spec[-1]) - sw.max()))
    residuals = {"spectrum_vs_weight": gap / max(1.0, float(sw.max()))}
    w = sw if band else fam.space.weights
    lo, hi = float(w.min()), float(w.max())
    witness = None if claim is None else _lower_witness(fam, claim, band)
    if witness is None and not lo > tol:  # no claim witness for a non-frame
        witness = _lower_witness(fam, float(np.nextafter(tol, np.inf)), band)
    verdict = Verdict.FRAME if lo > tol else Verdict.NOT_FRAME
    bounds = _extremes(spec)
    return FrameReport(verdict, (lo, hi), bounds, None, residuals, witness, spec)


def _onb_half(fam: OperatorFamily, tol: float, rng) -> tuple:
    """The ONB checks, in their stage order: the synthesis-Gram factors,
    their spectrum and ONB defects; the factors freed; then one weighted
    quadrature for the Parseval probes and the defect field.

    Returns:
        (the report of ``decide_onb``, the quadrature).
    """
    factors = _gram_factors(fam)
    gb = _extremes(_gram_spectrum(factors))
    residuals = _factor_residuals(fam, factors)
    del factors  # the quadrature takes the place of the N x N scalar Gram
    quad = _quadrature(fam)
    verdict = _verdict(fam.space.weights, tol)
    defect, probes = _parseval_checks(fam, verdict, rng, quad)
    bounds = weight_bounds(fam.space)
    return FrameReport(verdict, bounds, None, gb, {**residuals, **probes}, defect), quad


def decide_frame(fam: OperatorFamily, tol: float = 1e-9, claim=None) -> FrameReport:
    """Frame verdict from the weight minimum, cross-checked spectrally.

    The family is a frame exactly when the weight stays above ``tol``; the
    frame-operator spectrum on the support (nodes with positive weight)
    must reproduce the support weight range.  The witness undercuts
    ``claim``, else, for a non-frame, the smallest claim above ``tol``.
    """
    _validate_family(fam)
    return _decide_frame(fam, tol, claim, band=False)


def _decide_frame(
    fam: OperatorFamily, tol: float, claim, band: bool
) -> FrameReport:
    """``decide_frame`` for a family that holds its hypotheses by construction;
    with ``band``, over the positive-weight band, with the witness ratio read
    off the weights so that no N x N quadrature joins the N x N family."""
    rep = _frame_half(fam, tol, claim, band)
    if rep.witness is not None:
        ratio = _band_ratio if band else witness_ratio
        rep.residuals["witness_ratio"] = ratio(fam, rep.witness)
    return rep


def decide_onb(
    fam: OperatorFamily, tol: float = 1e-9, rng: np.random.Generator | None = None
) -> FrameReport:
    """Orthonormal-basis verdict: holds exactly when the weight is 1 to
    within ``tol`` and, as for every ONB, the family is a frame, i.e. the
    weight exceeds ``tol``.

    Three independent conditions are verified and reported: cross
    orthogonality of the synthesis images (onb_cross), unit norm of the
    synthesis images (onb_norm), and energy preservation on random fields
    (onb_parseval).  Unless the verdict is onb, the node whose weight is
    farthest from 1 yields an explicit defect field whose energy ratio
    equals its weight.
    """
    _validate_family(fam)
    return _onb_half(fam, tol, rng)[0]


def classify(
    fam: OperatorFamily, tol: float = 1e-9, rng: np.random.Generator | None = None
) -> FrameReport:
    """Strongest verdict with all cross checks merged into one report.

    Note the family is square, so the two-sided bound and the basis
    property coincide; the merged verdict is onb, riesz_basis or not_frame.
    The frame half of ``decide_frame`` and the ONB half of ``decide_onb``
    merged, plus the synthesis-Gram spectrum against the weight range
    (gram_vs_weight, relative to max(1, largest weight)): the family
    hypotheses are verified once, and the lower-bound witness takes its
    ratio through the quadrature of the ONB half.  The verdict is that of
    ``decide_onb``; the witness is the lower-bound one, else the defect
    field.
    """
    _validate_family(fam)
    fr = _frame_half(fam, tol, None, band=False)
    onb, quad = _onb_half(fam, tol, rng)
    (lo, hi), gb = fr.weight_bounds, onb.gram_bounds
    gram = max(abs(gb[0] - lo), abs(gb[1] - hi)) / max(1.0, hi)
    residuals = {**fr.residuals, "gram_vs_weight": gram, **onb.residuals}
    if fr.witness is not None:
        residuals["witness_ratio"] = _witness_ratio(fam, fr.witness, quad)
    witness = onb.witness if fr.witness is None else fr.witness
    return replace(
        fr, verdict=onb.verdict, gram_bounds=gb, residuals=residuals, witness=witness
    )
