"""Classification of coefficient families by their weight profile.

For a unimodular orthonormal tensor family over a weighted grid, the whole
frame-theoretic character of the coefficient functionals is carried by the
node weights: the frame-operator spectrum and the synthesis Gram spectrum
both equal the weight multiset (repeated per fiber dimension).  The
deciders here read the verdict off the weights and independently verify it
spectrally, reporting residuals and, on failure, an explicit witness field.

The spectral route stays dense on purpose: an SVD of the analysis factors
and an ``eigvalsh`` of the synthesis-Gram factors, O(N^3) in the grid size.
For the discrete Fourier family the weighted scalar Gram is circulant, and
its FFT eigenvalues are the weights themselves, so an FFT Gram route would
read back the very numbers the weight route reads and check nothing.  The
cost of the cross check is the price of its independence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .operators import OperatorFamily, frame_spectrum, lambda_all
from .tensor_onb import _field_matrix
from .wspace import Field, WeightedSpace, norm

__all__ = [
    "Verdict",
    "FrameReport",
    "weight_bounds",
    "synthesis_gram",
    "gram_bounds",
    "decide_frame",
    "decide_riesz",
    "decide_onb",
    "classify",
    "witness_lower_failure",
    "witness_ratio",
]

SUPPORT_ETA = 1e-12
HYPOTHESIS_TOL = 1e-9
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


def _support(space: WeightedSpace) -> np.ndarray:
    return space.weights > SUPPORT_ETA


def _validate_family(fam: OperatorFamily) -> None:
    """The deciders assume a unimodular orthonormal tensor family."""
    b = fam.basis
    checks = (
        ("unimodularity", b.unimodularity_residual()),
        ("scalar orthonormality", b.scalar_gram_residual()),
        ("fiber orthonormality", b.fiber_gram_residual()),
    )
    for name, res in checks:
        if res > HYPOTHESIS_TOL:
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
    gs = (F * (fam.space.weights / fam.space.grid_size)) @ F.conj().T
    return G @ G.conj().T, gs


def _gram_spectrum(factors: tuple) -> np.ndarray:
    """Ascending synthesis-Gram spectrum: the pairwise products of the
    eigenvalues of the two Hermitian factors (tiny negative ones from
    zero-weight nodes included)."""
    gf, gs = factors
    return np.sort(np.outer(np.linalg.eigvalsh(gf), np.linalg.eigvalsh(gs)).ravel())


def _extremes(spec: np.ndarray) -> tuple:
    return (float(spec[0]), float(spec[-1]))


def gram_bounds(fam: OperatorFamily) -> tuple:
    return _extremes(_gram_spectrum(_gram_factors(fam)))


def _offmax(a: np.ndarray) -> float:
    """Largest modulus off the diagonal; 0 for a 1 x 1 matrix."""
    return float(np.max(np.abs(a - np.diag(np.diag(a)))))


def witness_ratio(space: WeightedSpace, fam: OperatorFamily, field: Field) -> float:
    """Total coefficient energy of ``field`` over its squared norm.

    Zero-norm fields (supported where the weight vanishes) report 0.
    """
    den = norm(space, field) ** 2
    if den == 0.0:
        return 0.0
    num = float((np.abs(lambda_all(fam, field)) ** 2).sum())
    return num / den


def witness_lower_failure(space: WeightedSpace, fam: OperatorFamily, a_claimed: float):
    """Indicator field on the nodes where the weight undercuts a claimed
    lower bound.

    On E = {i : w_i < a_claimed} the field 1_E e_0 has coefficient energy
    (1/N) sum_E w_i^2 against squared norm (1/N) sum_E w_i, so its energy
    ratio is at most max(w on E) and in particular below the claim.

    Returns:
        The witness field, or None when every weight meets the claim.

    Raises:
        ValueError: if ``a_claimed`` is not positive.
    """
    if not a_claimed > 0:
        raise ValueError("claimed lower bound must be positive")
    mask = space.weights < a_claimed
    if not mask.any():
        return None
    vals = np.zeros((space.grid_size, space.fiber_dim), dtype=complex)
    vals[mask, :] = fam.basis.fiber_family[0][None, :]
    return Field(vals)


def decide_frame(space: WeightedSpace, fam: OperatorFamily, tol: float = 1e-9) -> FrameReport:
    """Frame verdict from the weight minimum, cross-checked spectrally.

    The family is a frame exactly when the weights stay above ``tol``.  The
    frame-operator spectrum is computed on the support (nodes with positive
    weight) and must reproduce the support weight range.
    """
    _validate_family(fam)
    return _decide_frame(space, fam, tol)


def _decide_frame(space: WeightedSpace, fam: OperatorFamily, tol: float) -> FrameReport:
    lo, hi = weight_bounds(space)
    supp = _support(space)
    sw = space.weights[supp]
    spec = frame_spectrum(fam, support=supp)
    oracle = (float(spec[0]), float(spec[-1]))
    residuals = {
        "spectrum_vs_weight": max(
            abs(oracle[0] - sw.min()), abs(oracle[1] - sw.max())
        )
    }
    witness = None
    if lo > tol:
        verdict = Verdict.FRAME
    else:
        verdict = Verdict.NOT_FRAME
        claim = float(np.nextafter(max(lo, tol), np.inf))
        witness = witness_lower_failure(space, fam, claim)
        residuals["witness_ratio"] = witness_ratio(space, fam, witness)
    return FrameReport(verdict, (lo, hi), oracle, None, residuals, witness, spec)


def decide_riesz(space: WeightedSpace, fam: OperatorFamily, tol: float = 1e-9) -> FrameReport:
    """Riesz-basis verdict; for this square family it coincides with the
    frame condition, verified through the synthesis Gram spectrum."""
    _validate_family(fam)
    return _decide_riesz(space, fam, tol, gram_bounds(fam))


def _decide_riesz(
    space: WeightedSpace, fam: OperatorFamily, tol: float, gb: tuple
) -> FrameReport:
    lo, hi = weight_bounds(space)
    residuals = {"gram_vs_weight": max(abs(gb[0] - lo), abs(gb[1] - hi))}
    verdict = Verdict.RIESZ_BASIS if lo > tol else Verdict.NOT_FRAME
    witness = None
    if verdict is Verdict.NOT_FRAME:
        claim = float(np.nextafter(max(lo, tol), np.inf))
        witness = witness_lower_failure(space, fam, claim)
        residuals["witness_ratio"] = witness_ratio(space, fam, witness)
    return FrameReport(verdict, (lo, hi), None, gb, residuals, witness)


def decide_onb(
    space: WeightedSpace,
    fam: OperatorFamily,
    tol: float = 1e-9,
    rng: np.random.Generator | None = None,
    n_fields: int = PARSEVAL_FIELDS,
) -> FrameReport:
    """Orthonormal-basis verdict: holds exactly when the weight is 1.

    Three independent conditions are verified and reported: cross
    orthogonality of the synthesis images (onb_cross), unit norm of the
    synthesis images (onb_norm), and energy preservation on random fields
    (onb_parseval).  When the weight deviates, the worst node yields an
    explicit defect field whose energy ratio equals its weight.
    """
    _validate_family(fam)
    factors = _gram_factors(fam)
    gb = _extremes(_gram_spectrum(factors))
    return _decide_onb(space, fam, tol, rng, n_fields, factors, gb)


def _decide_onb(
    space: WeightedSpace,
    fam: OperatorFamily,
    tol: float,
    rng: np.random.Generator | None,
    n_fields: int,
    factors: tuple,
    gb: tuple,
) -> FrameReport:
    if rng is None:
        rng = np.random.default_rng(0)
    lo, hi = weight_bounds(space)
    # Off the diagonal of kron(gf, gs) either m != m' (any n, n') or
    # m = m' and n != n'; the diagonal is diag(gf) (x) diag(gs).
    gf, gs = factors
    dgf = np.diag(gf)
    residuals = {
        "onb_cross": max(
            _offmax(gf) * float(np.max(np.abs(gs))),
            float(np.max(np.abs(dgf))) * _offmax(gs),
        ),
        "onb_norm": float(
            np.max(np.abs(np.outer(dgf, np.diag(gs)).real - 1.0))
        ),
    }
    parseval = 0.0
    for _ in range(n_fields):
        shape = (space.grid_size, space.fiber_dim)
        f = Field(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        ratio = witness_ratio(space, fam, f)
        parseval = max(parseval, abs(ratio - 1.0))
    residuals["onb_parseval"] = parseval

    deviation = float(np.max(np.abs(space.weights - 1.0)))
    witness = None
    if deviation <= tol:
        verdict = Verdict.ONB
    else:
        verdict = Verdict.RIESZ_BASIS if lo > tol else Verdict.NOT_FRAME
        i_star = int(np.argmax(np.abs(space.weights - 1.0)))
        vals = np.zeros((space.grid_size, space.fiber_dim), dtype=complex)
        vals[i_star, :] = fam.basis.fiber_family[0][None, :]
        witness = Field(vals)
        residuals["onb_defect_ratio"] = witness_ratio(space, fam, witness)
    return FrameReport(verdict, (lo, hi), None, gb, residuals, witness)


def classify(
    space: WeightedSpace,
    fam: OperatorFamily,
    tol: float = 1e-9,
    rng: np.random.Generator | None = None,
) -> FrameReport:
    """Strongest verdict with all cross checks merged into one report.

    Note the family is square, so the two-sided bound and the basis
    property coincide; the merged verdict is onb, riesz_basis or not_frame.
    The same checks as ``decide_frame``, ``decide_riesz`` and ``decide_onb``,
    with the family hypotheses verified and the synthesis-Gram factors and
    their spectrum computed once for all three.
    """
    _validate_family(fam)
    fr = _decide_frame(space, fam, tol)
    factors = _gram_factors(fam)
    gb = _extremes(_gram_spectrum(factors))
    rz = _decide_riesz(space, fam, tol, gb)
    ob = _decide_onb(space, fam, tol, rng, PARSEVAL_FIELDS, factors, gb)
    residuals = {**fr.residuals, **rz.residuals, **ob.residuals}
    verdict = ob.verdict if ob.verdict is Verdict.ONB else rz.verdict
    witness = fr.witness if fr.witness is not None else ob.witness
    return FrameReport(
        verdict,
        fr.weight_bounds,
        fr.oracle_bounds,
        gb,
        residuals,
        witness,
        fr.spectrum,
    )
