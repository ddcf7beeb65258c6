"""Classification of coefficient families by their weight profile.

For a unimodular orthonormal tensor family over a weighted grid, the whole
frame-theoretic character of the coefficient functionals is carried by the
node weights: the frame-operator spectrum and the synthesis Gram spectrum
both equal the weight multiset (repeated per fiber dimension).  The
deciders here read the verdict off the weights and independently verify it
spectrally, reporting residuals and, on failure, an explicit witness field.

Every decider takes the family alone: an ``OperatorFamily`` binds the
space it analyzes, so every route reads one weight.  ``classify`` is
``decide_frame`` followed by the ONB half of ``decide_onb``.  One frame
decision serves every weight mode: ``decide_frame`` reads the verdict, the
weight bounds and a witness over the whole grid, or with ``band`` over the
positive-weight band, the nodes a ``heisenberg`` family must cover.  Each
family hypothesis is checked where its array is built: unimodularity by
the basis before it builds its form, the isometry on X^H X (below).
Every spectral ``_vs_`` residual follows one rule, ``_multiset_gap``: the
whole ascending spectrum against the whole sorted multiset it must
reproduce, relative to the largest value of either, so it does not depend
on the units of the weight.

Every coefficient energy, sum |Lambda_{m,n} f|^2 against ||f||^2, takes
one route: ``witness_ratio`` through ``operators.lambda_all``, one product
of the basis's form with the weighted fiber coefficients of the field.
The witness ratio, the Parseval probes and the defect ratio all take it,
so each ratio is a coefficient computation of its own, never read off the
weights, and none forms an N x N array beside the form.

The spectral route stays dense on purpose: an ``eigvalsh`` of the scalar
frame operator q^H q (|S| x |S|, S the support) and one of the scalar
Gram q q^H (N x N), O(N^3) in the grid size.
For the discrete Fourier family the weighted scalar Gram is circulant, and
its FFT eigenvalues are the weights themselves, so an FFT Gram route would
read back the very numbers the weight route reads and check nothing.  The
cost of the cross check is the price of its independence.  Each route
reads the basis's form A through one code path: the real form R of every
runner's family, a Fourier recipe whose integers pair its rows with their
conjugates, whose Hartley form R = Re F + Im F = U F (U a fixed sparse
unitary) makes every N x N product of a run real; any other family is its
own form F.  The frame route takes the
``eigvalsh`` of X^H X, X the support columns of A, scaled by sqrt(w/N)
on both sides, and the Gram route the ``eigvalsh`` of its own product
(A w/N) A^H, so the routes share only the family.  The isometry
hypothesis F^H F = N I is the column Gram A^H A, so each decider reads it
off X^H X before the weight scales it (``_support_gram``): it costs the
frame route no copy and no product, and ``decide_onb``, which has no
frame route, forms X^H X for it alone.  No decider forms A A^H.  U mixes
each row with its conjugate and diagonalizes nothing, so the routes stay
dense and independent, and the moduli and the diagonal of the complex Gram that the
residuals report are read back off the real one.  The Gram route writes
its one N x N output a block of rows of A at a time, so no run holds an
N x N array beside A and that output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .operators import OperatorFamily, _support_gram, _unit_energy, frame_spectrum
from .tensor_onb import PAIRING_BLOCK
from .wspace import Field, WeightedSpace, _Normals, random_field

__all__ = [
    "Verdict",
    "FrameReport",
    "synthesis_gram",
    "decide_frame",
    "decide_onb",
    "classify",
    "witness_lower_failure",
    "witness_ratio",
]

PARSEVAL_FIELDS = 8
# The default verdict tolerance of every decider and of the CLI config.
VERDICT_TOL = 1e-9


class Verdict(str, Enum):
    NOT_FRAME = "not_frame"
    FRAME = "frame"
    RIESZ_BASIS = "riesz_basis"
    ONB = "onb"


@dataclass(frozen=True, eq=False)
class FrameReport:
    """Outcome of a classification run.

    Attributes:
        verdict: strongest property established for the family.
        weight_bounds: (min, max) of the node weights in play.
        gram_bounds: extreme synthesis-Gram eigenvalues, when computed.
        residuals: named nonnegative diagnostics from the cross checks.
        witness: field exhibiting a failure, when the verdict is negative.
        spectrum: ascending frame-operator spectrum on the support (the
            eigenvalues of S = T*T, T the analysis matrix) when the analysis
            route ran, or the ascending Gabor Gram spectrum of a Zak check,
            so callers can reuse it instead of computing it again.
    """

    verdict: Verdict
    weight_bounds: tuple
    gram_bounds: tuple | None
    residuals: dict
    witness: Field | None
    spectrum: np.ndarray | None = None

    @property
    def oracle_bounds(self) -> tuple | None:
        """The first and last entries of ``spectrum``, None without one."""
        return None if self.spectrum is None else _extremes(self.spectrum)


def synthesis_gram(fam: OperatorFamily) -> np.ndarray:
    """Gram matrix of the synthesis images G_{m,n} in the weighted space.

    The dense NM x NM reference, built from the fields themselves.  It
    equals kron(I_M, (F w/N) F^H); the deciders work from the scalar block
    (``_gram_fold``) and never call this.
    """
    V = _field_matrix(fam)
    wq = np.repeat(fam.space.weights, fam.space.fiber_dim) / fam.space.grid_size
    return (V * wq) @ V.conj().T


def _field_matrix(fam: OperatorFamily) -> np.ndarray:
    """All G_{m,n} flattened: row (m, n) m-major, column (i, j) i-major."""
    N, M = fam.space.grid_size, fam.space.fiber_dim
    stack = np.einsum("mj,ni->mnij", np.eye(M), fam.basis.scalar_family)
    return stack.reshape(M * N, N * M)


def _gram_fold(fam: OperatorFamily) -> np.ndarray:
    """The Gram (A u/N) A^H (N x N) of the basis's form A, with u = w / 2^e
    the space's unit weights: for a real fold A = R the real fold of the
    weighted scalar Gram gs = (F u/N) F^H, else gs itself, in the space's
    unit, in the form's dtype.

    Entry ((m, n), (m', n')) of the synthesis Gram is
    delta_{m m'} * (1/N) sum_i f_n(x_i) conj(f_n'(x_i)) w_i, so the Gram is
    kron(I_M, gs).  The fold is its own product of the family entries,
    not the square of the frame route's matrix, so the two routes share
    only the family.  It is written into its one N x N output a block of
    ``PAIRING_BLOCK`` rows at a time, each block of A scaled by u/N, so no
    scaled copy of A is formed; on a real fold ``conj`` returns R itself,
    so no copy of it either.
    """
    A = fam.basis._form.matrix
    N, AH = A.shape[0], A.conj().T
    q = fam.space.unit_weights / fam.space.grid_size
    fold = np.empty((N, N), A.dtype)
    for start in range(0, N, PAIRING_BLOCK):
        blk = slice(start, start + PAIRING_BLOCK)
        np.matmul(A[blk] * q, AH, out=fold[blk])
    return fold


def _gram_spectrum(fold: np.ndarray, space: WeightedSpace) -> np.ndarray:
    """Ascending synthesis-Gram spectrum: the eigenvalues of the fold (tiny
    negative ones from zero-weight nodes included), multiplied back by the
    unit 2^e of ``space``, each ``space.fiber_dim`` times.

    A real fold is the real symmetric U gs U^H of the weighted scalar Gram
    gs, with U the sparse unitary of the basis's Hartley form, so
    it has the spectrum of gs and ``eigvalsh`` runs in real arithmetic on
    the family entries.  The fold is not an FFT: for the discrete Fourier
    family an FFT would diagonalize gs and read back the weights, and check
    nothing.
    """
    spec = np.ldexp(np.linalg.eigvalsh(fold), space.unit_exponent)
    return np.repeat(spec, space.fiber_dim)


def _extremes(spec: np.ndarray) -> tuple:
    return (float(spec[0]), float(spec[-1]))


def _multiset_gap(values: np.ndarray, eig: np.ndarray) -> float:
    """max |values - eig| over the largest of either (at least tiny), for
    ascending ``values`` and the ascending eigenvalues that must reproduce
    them: the relative gap between two whole sorted multisets, the one rule
    of every spectral ``_vs_`` residual."""
    scale = max(float(values[-1]), float(eig[-1]), np.finfo(float).tiny)
    return float(np.max(np.abs(values - eig)) / scale)


def witness_ratio(fam: OperatorFamily, field: Field) -> float:
    """Total coefficient energy sum |Lambda_{m,n} f|^2 of ``field``, through
    ``lambda_all``, over its squared norm.

    The ratio is 2^e, the space's unit, times that of the energies and the
    squared norm of ``_unit_energy``.  Zero-norm fields (supported where
    the weight vanishes) report 0.
    """
    energy, norm_sq = _unit_energy(fam, field, skip_null=True)
    if energy is None:
        return 0.0
    return float(np.ldexp(float(energy.sum()) / norm_sq, fam.space.unit_exponent))


def _indicator_field(fam: OperatorFamily, nodes) -> Field:
    """The first fiber vector e_0 on ``nodes`` (a mask or an index), else 0."""
    vals = np.zeros((fam.space.grid_size, fam.space.fiber_dim), dtype=complex)
    vals[nodes, 0] = 1.0
    return Field(vals)


def witness_lower_failure(fam: OperatorFamily, a_claimed: float):
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
    return _lower_witness(fam, a_claimed, False)


def _verdict(values: np.ndarray, tol: float) -> Verdict:
    """The verdict rule for weights, or squared Zak magnitudes: not_frame
    unless every value exceeds ``tol``, else onb when every value is within
    ``tol`` of 1, else riesz_basis; a ``tol`` not positive and finite is
    refused."""
    if not 0 < tol < np.inf:  # NaN is refused too
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not values.min() > tol:
        return Verdict.NOT_FRAME
    if np.max(np.abs(values - 1.0)) <= tol:
        return Verdict.ONB
    return Verdict.RIESZ_BASIS


def _lower_witness(fam: OperatorFamily, claim: float, band: bool) -> Field | None:
    """Indicator field of the nodes whose weight undercuts ``claim``, of the
    support only with ``band``; None when no node undercuts it."""
    if not claim > 0:
        raise ValueError("claimed lower bound must be positive")
    mask = fam.space.weights < claim
    if band:
        mask &= fam.space.support
    return _indicator_field(fam, mask) if mask.any() else None


def _onb_residuals(fam: OperatorFamily, fold: np.ndarray) -> dict:
    """ONB defects of the synthesis Gram kron(I_M, gs): the largest
    off-diagonal modulus (onb_cross) and the largest deviation of a
    diagonal entry from 1 (onb_norm), those of gs, whose moduli and
    diagonal the basis's form reads off ``fold`` (a real fold a few row
    blocks at a time), multiplied back by the space's unit."""
    e = fam.space.unit_exponent
    diag, off = fam.basis._form.moduli(fold)
    onb_norm = float(np.max(np.abs(np.ldexp(diag, e) - 1.0)))
    return {"onb_cross": float(np.ldexp(off, e)), "onb_norm": onb_norm}


def _parseval_checks(fam: OperatorFamily, verdict: Verdict, rng) -> tuple:
    """Energy preservation on ``PARSEVAL_FIELDS`` random fields
    (onb_parseval) and, unless the verdict is onb, the defect field at the
    node whose weight is farthest from 1 with its energy ratio
    (onb_defect_ratio), each through ``witness_ratio``.  The fields are
    drawn from ``rng``, any object with ``standard_normal(shape)``; None
    draws from the seed-0 ``wspace._Normals``, which imports nothing.

    Returns:
        (defect field or None, residuals).
    """
    if rng is None:
        rng = _Normals(0)
    gaps = [
        abs(witness_ratio(fam, random_field(fam.space, rng)) - 1.0)
        for _ in range(PARSEVAL_FIELDS)
    ]
    residuals = {"onb_parseval": float(np.max(gaps))}  # a NaN gap propagates
    if verdict is Verdict.ONB:
        return None, residuals
    defect = _indicator_field(fam, int(np.argmax(np.abs(fam.space.weights - 1.0))))
    residuals["onb_defect_ratio"] = witness_ratio(fam, defect)
    return defect, residuals


def _onb_half(fam: OperatorFamily, tol: float, rng) -> FrameReport:
    """``decide_onb`` for a family that holds its hypotheses: the fold of
    the synthesis Gram, its spectrum against all the weights
    (gram_vs_weight) and its ONB defects, then the Parseval probes and the
    defect field."""
    fold, w = _gram_fold(fam), np.sort(fam.space.weights)
    spec = _gram_spectrum(fold, fam.space)
    gap = _multiset_gap(np.repeat(w, fam.space.fiber_dim), spec)
    residuals = {"gram_vs_weight": gap, **_onb_residuals(fam, fold)}
    verdict = _verdict(w, tol)
    defect, probes = _parseval_checks(fam, verdict, rng)
    gb = _extremes(spec)
    return FrameReport(verdict, _extremes(w), gb, {**residuals, **probes}, defect)


def decide_frame(
    fam: OperatorFamily, tol: float = VERDICT_TOL, claim=None, *, band: bool = False
) -> FrameReport:
    """Frame verdict from the weight minimum, cross-checked spectrally.

    The family is a frame by the rule of ``_verdict``, weight above ``tol``;
    the frame-operator spectrum on the support (nodes with positive weight)
    must reproduce the support weights, each M times (spectrum_vs_weight, a
    ``_multiset_gap``).  The bounds and the witness are taken over the
    whole grid or, with ``band``, over the support.  The witness undercuts
    ``claim``, else, for a non-frame, the smallest claim above ``tol``,
    which holds the nodes of weight <= tol; its ``witness_ratio`` is
    reported.
    """
    spec = frame_spectrum(fam)
    sw = fam.space.weights[fam.space.support]
    gap = _multiset_gap(np.repeat(np.sort(sw), fam.space.fiber_dim), spec)
    residuals = {"spectrum_vs_weight": gap}
    w = sw if band else fam.space.weights
    lo, hi = float(w.min()), float(w.max())
    frame = _verdict(w, tol) is not Verdict.NOT_FRAME
    witness = None if claim is None else _lower_witness(fam, claim, band)
    if witness is None and not frame:  # no claim witness for a non-frame
        witness = _lower_witness(fam, float(np.nextafter(tol, np.inf)), band)
    if witness is not None:
        residuals["witness_ratio"] = witness_ratio(fam, witness)
    verdict = Verdict.FRAME if frame else Verdict.NOT_FRAME
    return FrameReport(verdict, (lo, hi), None, residuals, witness, spec)


def decide_onb(fam: OperatorFamily, tol: float = VERDICT_TOL, rng=None) -> FrameReport:
    """Orthonormal-basis verdict: holds exactly when the weight is 1 to
    within ``tol`` and, as for every ONB, the family is a frame, i.e. the
    weight exceeds ``tol``.

    The synthesis-Gram spectrum must reproduce the weights, each M times
    (gram_vs_weight, a ``_multiset_gap``), and three independent conditions
    are verified and reported: cross orthogonality of the synthesis images
    (onb_cross), unit norm of the synthesis images (onb_norm), and energy
    preservation on random fields
    (onb_parseval), drawn from ``rng``: any object with
    ``standard_normal(shape)``, such as a numpy ``Generator``; None uses a
    fixed seed-0 source.  Unless the verdict is onb, the node whose weight
    is farthest from 1 yields an explicit defect field whose energy ratio
    equals its weight.
    """
    _support_gram(fam)  # the isometry hypothesis, which no ONB route reads
    return _onb_half(fam, tol, rng)


def classify(fam: OperatorFamily, tol: float = VERDICT_TOL, rng=None) -> FrameReport:
    """Strongest verdict with all cross checks merged into one report.

    Note the family is square, so the two-sided bound and the basis
    property coincide; the merged verdict is onb, riesz_basis or not_frame.
    ``decide_frame``, whose frame route checks the family hypotheses, and
    the ONB half of ``decide_onb`` run and their residuals are merged.  The
    Parseval probes are drawn from ``rng`` as in ``decide_onb``.  The
    verdict is that of ``decide_onb``; the witness is the lower-bound one,
    else the defect field.
    """
    fr = decide_frame(fam, tol)
    onb = _onb_half(fam, tol, rng)
    residuals = {**fr.residuals, **onb.residuals}
    witness = onb.witness if fr.witness is None else fr.witness
    gb = onb.gram_bounds
    return replace(
        fr, verdict=onb.verdict, gram_bounds=gb, residuals=residuals, witness=witness
    )
