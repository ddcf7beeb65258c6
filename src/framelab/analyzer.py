"""Classification of coefficient families by their weight profile.

For a unimodular orthonormal tensor family over a weighted grid, the whole
frame-theoretic character of the coefficient functionals is carried by the
node weights: the frame-operator spectrum and the synthesis Gram spectrum
both equal the weight multiset (repeated per fiber dimension).  The
deciders here read the verdict off the weights and independently verify it
spectrally, reporting residuals and, on failure, an explicit witness field.

One frame decision serves every weight mode: ``decide_frame`` reads the
verdict, the weight bounds and a witness over the whole grid, and
``heisenberg`` takes the same decision over its positive-weight band, the
nodes its family must cover.

The spectral route stays dense on purpose: an SVD of the analysis factors
and an ``eigvalsh`` of the synthesis-Gram factors, O(N^3) in the grid size.
For the discrete Fourier family the weighted scalar Gram is circulant, and
its FFT eigenvalues are the weights themselves, so an FFT Gram route would
read back the very numbers the weight route reads and check nothing.  The
cost of the cross check is the price of its independence.  Both
decompositions run in real arithmetic all the same: every family here is
closed under conjugation, and a fixed sparse unitary (the centrohermitian
reduction) makes the scalar factors real without changing their spectra.
That fold regroups entries and diagonalizes nothing, so the routes stay
dense and independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .operators import OperatorFamily, _lambda_all, _quadrature, frame_spectrum
from .tensor_onb import HYPOTHESIS_TOL, PAIRING_BLOCK, _field_matrix, _weighted_gram
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
    """The deciders assume a unimodular orthonormal tensor family."""
    b = fam.basis
    checks = (
        ("unimodularity", b.unimodularity_residual()),
        ("scalar orthonormality", b.scalar_gram_residual()),
        ("fiber orthonormality", b.fiber_gram_residual()),
    )
    for name, res in checks:
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
    (M x M) and the weighted scalar Gram (F w/N) F^H (N x N).

    Entry ((m, n), (m', n')) of the synthesis Gram is
    <g_m, g_m'> * (1/N) sum_i f_n(x_i) conj(f_n'(x_i)) w_i, the product of
    the two factor entries, so the Gram is their Kronecker product.
    """
    G, F = fam.basis.fiber_family, fam.basis.scalar_family
    gs = _weighted_gram(F, fam.space.weights / fam.space.grid_size)
    return G @ G.conj().T, gs


def _gram_spectrum(fam: OperatorFamily, factors: tuple) -> np.ndarray:
    """Ascending synthesis-Gram spectrum: the pairwise products of the
    eigenvalues of the two Hermitian factors (tiny negative ones from
    zero-weight nodes included).

    The scalar factor gs is folded to a real symmetric matrix with the same
    spectrum, U D gs D^H U^H, with D the row dephasing and U the sparse
    unitary of the basis's conjugate row pairing; dephased, entry
    (p(n), p(n')) is the conjugate of entry (n, n'), so the rows of the
    self-paired and the lower paired nodes determine it.  ``eigvalsh`` then
    runs in real arithmetic on the Gram entries themselves.  The fold is
    not an FFT: for the discrete Fourier family an FFT would diagonalize
    gs and read back the weights, and check nothing.

    Raises:
        ValueError: if the scalar family is not closed under conjugation.
    """
    gf, gs = factors
    pairs = fam.basis._pairs
    cols = np.concatenate([pairs.rows, pairs.partners])
    col_phase = np.conj(pairs.phase[cols])
    ns, na = pairs.n_self, pairs.partners.size
    real = np.empty(gs.shape)
    for start in range(0, pairs.rows.size, PAIRING_BLOCK):
        rows = pairs.rows[start : start + PAIRING_BLOCK]
        h = gs[np.ix_(rows, cols)]
        h *= pairs.phase[rows, None]
        h *= col_phase
        # h times U^H, in place: column n' and its partner p' become
        # (n' + p')/sqrt(2) and i (n' - p')/sqrt(2)
        plus, minus = h[:, ns : ns + na], h[:, ns + na :]
        plus += minus
        minus *= -2.0
        minus += plus
        plus *= np.sqrt(0.5)
        minus *= 1j * np.sqrt(0.5)
        pairs.fold(h, real, start)
    del h
    return np.sort(np.outer(np.linalg.eigvalsh(gf), np.linalg.eigvalsh(real)).ravel())


def _extremes(spec: np.ndarray) -> tuple:
    return (float(spec[0]), float(spec[-1]))


def _offmax(a: np.ndarray) -> float:
    """Largest modulus off the diagonal; 0 for a 1 x 1 matrix."""
    r = np.abs(a)
    np.fill_diagonal(r, 0.0)
    return float(np.max(r))


def witness_ratio(space: WeightedSpace, fam: OperatorFamily, field: Field) -> float:
    """Total coefficient energy of ``field`` over its squared norm.

    Zero-norm fields (supported where the weight vanishes) report 0.
    """
    return _witness_ratio(space, fam, field, None)


def _witness_ratio(
    space: WeightedSpace, fam: OperatorFamily, field: Field, quad: np.ndarray | None
) -> float:
    """``witness_ratio`` with the weighted quadrature of ``fam`` given, so
    that several fields share one, or built here when None and needed."""
    den = norm(space, field) ** 2
    if den == 0.0:
        return 0.0
    if quad is None:
        quad = _quadrature(fam)
    num = float((np.abs(_lambda_all(fam, quad, field)) ** 2).sum())
    return num / den


def _indicator_field(space: WeightedSpace, fam: OperatorFamily, nodes) -> Field:
    """The first fiber vector g_0 on ``nodes`` (a mask or an index), else 0."""
    vals = np.zeros((space.grid_size, space.fiber_dim), dtype=complex)
    vals[nodes] = fam.basis.fiber_family[0]
    return Field(vals)


def witness_lower_failure(space: WeightedSpace, fam: OperatorFamily, a_claimed: float):
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
    return _lower_witness(space, fam, a_claimed, False, None)[0]


def _frame_route(space: WeightedSpace, fam: OperatorFamily) -> tuple:
    """Ascending frame-operator spectrum on the support (nodes with positive
    weight) and its gap to the extremes of the support weights."""
    spec = frame_spectrum(fam)
    sw = space.weights[space.support]
    return spec, max(abs(float(spec[0]) - sw.min()), abs(float(spec[-1]) - sw.max()))


def _verdict(values: np.ndarray, tol: float) -> Verdict:
    """The verdict rule for weights, or squared Zak magnitudes: not_frame
    unless every value exceeds ``tol``, else onb when every value is within
    ``tol`` of 1, else riesz_basis."""
    if not values.min() > tol:
        return Verdict.NOT_FRAME
    if np.max(np.abs(values - 1.0)) <= tol:
        return Verdict.ONB
    return Verdict.RIESZ_BASIS


def _default_claim(lo: float, tol: float) -> float | None:
    """No claim for a frame (weight minimum ``lo`` > ``tol``), else the
    smallest one above ``tol``: its witness holds the nodes of weight <= tol."""
    return None if lo > tol else float(np.nextafter(tol, np.inf))


def _band_ratio(space: WeightedSpace, field: Field) -> float:
    """``witness_ratio`` of a field of positive norm for a square orthonormal
    family, read off the weights: sum w^2 |f|^2 over sum w |f|^2."""
    f2 = (np.abs(field.values) ** 2).sum(axis=1)
    return float((space.weights**2 * f2).sum() / (space.weights * f2).sum())


def _lower_witness(space, fam, claim: float | None, band: bool, ratio) -> tuple:
    """(field, {"witness_ratio": ratio(field)}) of the ``claim`` witness, on
    the support only with ``band``, without the entry when ``ratio`` is None;
    (None, {}) when ``claim`` is None or no node undercuts it."""
    if claim is None:
        return None, {}
    if not claim > 0:
        raise ValueError("claimed lower bound must be positive")
    mask = space.weights < claim
    if band:
        mask &= space.support
    if not mask.any():
        return None, {}
    field = _indicator_field(space, fam, mask)
    return field, {} if ratio is None else {"witness_ratio": ratio(field)}


def _factor_residuals(factors: tuple) -> dict:
    """ONB defects of the synthesis Gram kron(gf, gs) from its factors: the
    largest off-diagonal modulus (onb_cross) and the largest deviation of a
    diagonal entry from 1 (onb_norm)."""
    # Off the diagonal of kron(gf, gs) either m != m' (any n, n') or
    # m = m' and n != n'; the diagonal is diag(gf) (x) diag(gs).
    gf, gs = factors
    dgf = np.diag(gf)
    return {
        "onb_cross": max(
            _offmax(gf) * float(np.max(np.abs(gs))),
            float(np.max(np.abs(dgf))) * _offmax(gs),
        ),
        "onb_norm": float(np.max(np.abs(np.outer(dgf, np.diag(gs)).real - 1.0))),
    }


def _parseval_checks(
    space: WeightedSpace,
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
    shape = (space.grid_size, space.fiber_dim)
    parseval = 0.0
    for _ in range(PARSEVAL_FIELDS):
        f = Field(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        parseval = max(parseval, abs(_witness_ratio(space, fam, f, quad) - 1.0))
    residuals = {"onb_parseval": parseval}
    if verdict is Verdict.ONB:
        return None, residuals
    defect = _indicator_field(space, fam, int(np.argmax(np.abs(space.weights - 1.0))))
    residuals["onb_defect_ratio"] = _witness_ratio(space, fam, defect, quad)
    return defect, residuals


def decide_frame(
    space: WeightedSpace, fam: OperatorFamily, tol: float = 1e-9, claim=None
) -> FrameReport:
    """Frame verdict from the weight minimum, cross-checked spectrally.

    The family is a frame exactly when the weight stays above ``tol``; the
    frame-operator spectrum on the support (nodes with positive weight)
    must reproduce the support weight range.  The witness undercuts
    ``claim``, else, for a non-frame, the smallest claim above ``tol``.
    """
    _validate_family(fam)
    return _decide_frame(space, fam, tol, claim, band=False)


def _decide_frame(space, fam, tol: float, claim, band: bool) -> FrameReport:
    """``decide_frame`` for a family that holds its hypotheses by construction;
    with ``band``, over the positive-weight band, with the witness ratio read
    off the weights so that no N x N quadrature joins the N x N family."""
    spec, gap = _frame_route(space, fam)
    w = space.weights[space.support] if band else space.weights
    lo, hi = float(w.min()), float(w.max())
    ratio_of = partial(_band_ratio, space) if band else partial(witness_ratio, space, fam)
    witness, ratio = _lower_witness(space, fam, claim, band, ratio_of)
    if witness is None:  # no claim, or one at or below every weight
        claim = _default_claim(lo, tol)
        witness, ratio = _lower_witness(space, fam, claim, band, ratio_of)
    verdict = Verdict.FRAME if lo > tol else Verdict.NOT_FRAME
    residuals = {"spectrum_vs_weight": gap, **ratio}
    return FrameReport(verdict, (lo, hi), _extremes(spec), None, residuals, witness, spec)


def decide_onb(
    space: WeightedSpace,
    fam: OperatorFamily,
    tol: float = 1e-9,
    rng: np.random.Generator | None = None,
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
    factors = _gram_factors(fam)
    gb = _extremes(_gram_spectrum(fam, factors))
    residuals = _factor_residuals(factors)
    verdict = _verdict(space.weights, tol)
    witness, probes = _parseval_checks(space, fam, verdict, rng, _quadrature(fam))
    return FrameReport(
        verdict, weight_bounds(space), None, gb, {**residuals, **probes}, witness
    )


def classify(
    space: WeightedSpace,
    fam: OperatorFamily,
    tol: float = 1e-9,
    rng: np.random.Generator | None = None,
) -> FrameReport:
    """Strongest verdict with all cross checks merged into one report.

    Note the family is square, so the two-sided bound and the basis
    property coincide; the merged verdict is onb, riesz_basis or not_frame.
    The checks of ``decide_frame`` and ``decide_onb`` plus the synthesis-Gram
    spectrum against the weight range (gram_vs_weight), with the family
    hypotheses verified, the synthesis-Gram factors and their spectrum
    computed once, and one weighted quadrature shared by the lower-bound
    witness, the Parseval probes and the defect field.  The witness is the
    lower-bound one, else the defect field.
    """
    _validate_family(fam)
    lo, hi = weight_bounds(space)
    spec, gap = _frame_route(space, fam)
    factors = _gram_factors(fam)
    gb = _extremes(_gram_spectrum(fam, factors))
    residuals = {
        "spectrum_vs_weight": gap,
        "gram_vs_weight": max(abs(gb[0] - lo), abs(gb[1] - hi)),
        **_factor_residuals(factors),
    }
    del factors  # the quadrature takes the place of the N x N scalar Gram
    quad = _quadrature(fam)
    ratio_of = partial(_witness_ratio, space, fam, quad=quad)
    claim = _default_claim(lo, tol)
    witness, ratio = _lower_witness(space, fam, claim, False, ratio_of)
    verdict = _verdict(space.weights, tol)
    defect, probes = _parseval_checks(space, fam, verdict, rng, quad)
    return FrameReport(
        verdict,
        (lo, hi),
        _extremes(spec),
        gb,
        {**residuals, **ratio, **probes},
        defect if witness is None else witness,
        spec,
    )
