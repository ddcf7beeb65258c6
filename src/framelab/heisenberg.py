"""Center-translate analysis for a dilated window over the reduced band.

A fixed cube window, dilated by alpha^(d/2) across scales alpha in (0, 1],
produces a rank-one operator field whose squared fiber norm is the
indicator of the band (eps, 1].  Periodizing the field over integer center
translates collapses this to an explicit scalar weight alpha^d above the
cutoff, so frame questions for the translate family reduce to two-sided
bounds on that weight over its support.

Everything here is one-dimensional in the scale variable; the ambient
dimension d enters only through the weight exponent and the window
normalization.  The isometry from translate coefficients c to fields S(c)
is checked along two routes: the weighted norm of S(c), evaluated with one
FFT, against the quadratic form c^H T c of the Toeplitz translate Gram T,
read from the inverse DFT of the weight.

The frame verdict is the analyzer's frame decision on the family alone,
over the positive-weight band, the span of the translates.  The family is
orthonormal by construction, so no hypothesis check or quadrature adds a
second R x R array: the witness ratio is read off the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analyzer import FrameReport, _decide_frame
from .errors import ConsistencyError
from .operators import OperatorFamily
from .tensor_onb import TensorBasis, fourier_family
from .wspace import WeightedSpace, _readonly

__all__ = [
    "hs_weight",
    "psi_norm_sq",
    "weight_envelope_check",
    "midpoint_grid",
    "CenterTranslateModel",
    "s_map",
    "isometry_residual",
    "frame_report",
]

CLOSED_FORM_TOL = 1e-12
MASS_TOL = 1e-9
ISOMETRY_TOL = 1e-8
LATTICE_WINDOW = 3  # integer shifts j in [-3, 3] cover every alpha in (0, 1]
QUAD_NODES = 64


def _check_params(eps: float, d: int) -> tuple[float, int]:
    eps = float(eps)
    d = int(d)
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    if d < 0:
        raise ValueError("d must be a nonnegative integer")
    return eps, d


def _lattice_profile(eps: float, d: int, x: np.ndarray, window: int) -> np.ndarray:
    """sum_j 1_((eps, 1])(x + j) |x + j|^d over integer j in [-window, window]."""
    total = np.zeros_like(x, dtype=float)
    for j in range(-window, window + 1):
        y = x + j
        total += np.where((y > eps) & (y <= 1.0), np.abs(y) ** d, 0.0)
    return total


def hs_weight(eps: float, d: int, alpha) -> np.ndarray:
    """Periodized squared fiber norm of the dilated window at scale alpha.

    For alpha in (0, 1] exactly one lattice point can land in the band, so
    the sum collapses to alpha^d above the cutoff and 0 at or below it.
    The collapse is verified against the defining sum on every call.

    Raises:
        ValueError: for alpha outside (0, 1].
        ConsistencyError: if the lattice sum drifts from the closed form.
    """
    eps, d = _check_params(eps, d)
    a = np.asarray(alpha, dtype=float)
    if not np.all((a > 0.0) & (a <= 1.0)):
        raise ValueError("alpha must lie in (0, 1]")
    summed = _lattice_profile(eps, d, a, LATTICE_WINDOW)
    closed = np.where(a > eps, a ** d, 0.0)
    drift = float(np.max(np.abs(summed - closed))) if a.size else 0.0
    if drift > CLOSED_FORM_TOL:
        raise ConsistencyError(
            f"periodized weight differs from closed form by {drift:.3e}"
        )
    return closed if a.ndim else float(closed)


def psi_norm_sq(eps: float, d: int) -> float:
    """Squared model norm of the window field: integral of the weight.

    Evaluated by Gauss-Legendre quadrature of the defining lattice sum
    over (eps, 1), then checked against (1 - eps^(d+1)) / (d + 1).

    Raises:
        ConsistencyError: if quadrature and closed form differ beyond 1e-9.
    """
    eps, d = _check_params(eps, d)
    # enough nodes to integrate alpha^d exactly, whatever d is
    x, w = np.polynomial.legendre.leggauss(max(QUAD_NODES, (d + 3) // 2))
    half = (1.0 - eps) / 2.0
    t = eps + (x + 1.0) * half
    quad = float((w * _lattice_profile(eps, d, t, LATTICE_WINDOW)).sum() * half)
    closed = (1.0 - eps ** (d + 1)) / (d + 1)
    if abs(quad - closed) > MASS_TOL:
        raise ConsistencyError(
            f"mass quadrature {quad!r} differs from closed form {closed!r}"
        )
    return quad


def _envelope(eps: float, d: int, w: np.ndarray) -> tuple[float, float]:
    """Extremes of the support weights ``w``, which must lie in [eps^d, 1]."""
    lo, hi = float(w.min()), float(w.max())
    if lo < eps ** d - 1e-12 or hi > 1.0 + 1e-12:
        raise ConsistencyError(
            f"supported weight range ({lo}, {hi}) escapes [{eps ** d}, 1]"
        )
    return lo, hi


def weight_envelope_check(eps: float, d: int, grid) -> tuple[float, float]:
    """Extremes of the weight over the support points of a scale grid.

    Every supported value must land in [eps^d, 1]; the observed extremes
    are returned as the effective two-sided bounds.

    Raises:
        ValueError: when no grid point carries positive weight, or one
            carries a positive weight that ``WeightedSpace`` refuses.
        ConsistencyError: if a value escapes the guaranteed sandwich.
    """
    eps, d = _check_params(eps, d)
    w = np.atleast_1d(hs_weight(eps, d, grid))
    space = WeightedSpace(w.size, 1, w)
    return _envelope(eps, d, space.weights[space.support])


def midpoint_grid(resolution: int) -> np.ndarray:
    """Midpoint scale grid (i + 1/2) / resolution on (0, 1)."""
    R = int(resolution)
    if R < 2:
        raise ValueError("resolution must be >= 2")
    return (np.arange(R) + 0.5) / R


def _check_band(eps: float, d: int, resolution: int) -> None:
    """Refuse the weights of the midpoint grid of ``resolution`` as
    ``WeightedSpace`` would, from the smallest positive one alone.

    The weight alpha^d grows with alpha, so the first midpoint above eps
    carries the smallest positive weight.  The space that holds only that
    weight is refused exactly when the whole grid's space is (no positive
    weight, or a positive one whose quadrature weight is subnormal), and it
    costs no pass over the grid.

    Raises:
        ValueError: the refusal of ``WeightedSpace``.
    """
    a = midpoint_grid(resolution)
    first = int(np.searchsorted(a, eps, side="right"))
    w = np.zeros(a.size)
    w[first : first + 1] = hs_weight(eps, d, a[first : first + 1])
    WeightedSpace(a.size, 1, w)


@dataclass(frozen=True)
class CenterTranslateModel:
    """Discretized coefficient model for center translates of the window.

    Scale grid, collapsed weight, and its support are precomputed; the
    model space is the span of the translates, i.e. fields supported on
    the positive-weight band.  ``weights`` and ``support`` are those of the
    ``WeightedSpace`` of the scale grid: the support is the nodes of
    positive weight, and a positive weight whose quadrature weight w/R is
    subnormal is refused.
    """

    eps: float
    d: int
    resolution: int = 4096
    k_max: int = 4
    alpha: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    support: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        eps, d = _check_params(self.eps, self.d)
        if not 0.0 < eps:
            raise ValueError("eps must be positive for the band model")
        if d < 1:
            raise ValueError("d must be >= 1 for the band model")
        if int(self.k_max) < 0:
            raise ValueError("k_max must be nonnegative")
        a = midpoint_grid(self.resolution)
        space = WeightedSpace(a.size, 1, hs_weight(eps, d, a))
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "resolution", int(self.resolution))
        object.__setattr__(self, "k_max", int(self.k_max))
        object.__setattr__(self, "alpha", _readonly(a))
        object.__setattr__(self, "weights", space.weights)
        object.__setattr__(self, "support", space.support)

    def envelope(self) -> tuple[float, float]:
        """``weight_envelope_check`` over the model grid, from the stored weights."""
        return _envelope(self.eps, self.d, self.weights[self.support])

    def _coeffs(self, a) -> np.ndarray:
        c = np.asarray(a, dtype=complex)
        if c.shape != (2 * self.k_max + 1,):
            raise ValueError(
                f"coefficients must have shape ({2 * self.k_max + 1},) "
                "for translates -k_max..k_max"
            )
        return c


def s_map(model: CenterTranslateModel, a) -> np.ndarray:
    """Samples of the synthesized field S(a) = 1_E sum_k a_k e^(-2 pi i k alpha).

    One R-point FFT: alpha_i = (i + 1/2) / R, so a_k e^(-pi i k / R) goes to
    bin k mod R (the fold keeps 2 k_max + 1 > R exact).
    """
    c = model._coeffs(a)
    R = model.resolution
    ks = np.arange(-model.k_max, model.k_max + 1)
    bins = np.zeros(R, dtype=complex)
    np.add.at(bins, ks % R, c * np.exp(-1j * np.pi * ks / R))
    return np.where(model.support, np.fft.fft(bins), 0.0)


def isometry_residual(model: CenterTranslateModel, a) -> float:
    """Relative gap between the weighted norm of S(a) and a^H T a, where
    T[k, k'] = (1/R) sum_i w_i e^(2 pi i (k - k') alpha_i) over the support:
    at lag l, the inverse DFT of the weight at l mod R times e^(pi i l / R).

    Raises:
        ConsistencyError: when the gap exceeds 1e-8 relative.
    """
    c = model._coeffs(a)
    R, n = model.resolution, c.size
    field = float((np.abs(s_map(model, c)) ** 2 * model.weights).sum() / R)
    lags = np.arange(1 - n, n)
    t = np.fft.ifft(model.weights)[lags % R] * np.exp(1j * np.pi * lags / R)
    k = np.arange(n)
    gram = float(np.real(c.conj() @ t[k[:, None] - k + n - 1] @ c))
    rel = abs(field - gram) / max(gram, np.finfo(float).tiny)
    if rel > ISOMETRY_TOL:
        raise ConsistencyError(f"synthesis norm routes disagree: {field!r} vs {gram!r}")
    return rel


def frame_report(
    eps: float, d: int, resolution: int = 256, tol: float = 1e-9
) -> FrameReport:
    """Frame verdict for the center-translate family on its own span.

    The model space is the closed span of the translates, the fields
    supported on the positive-weight band, so the report is the frame
    decision over the band, plus its share of the grid as
    ``support_fraction``.
    """
    w = hs_weight(eps, d, midpoint_grid(resolution))
    return _band_report(WeightedSpace(int(resolution), 1, w), tol)


def _band_report(space: WeightedSpace, tol: float) -> FrameReport:
    """``frame_report`` on its weighted space.  The family e^(-2 pi i k alpha),
    k = -R//2 .. R - R//2 - 1, is orthonormal, so its R x R check is skipped."""
    R = space.grid_size
    n = np.arange(R)
    scal = fourier_family(R // 2 - n, 2 * n + 1, 2 * R)  # alpha_i = (2i + 1) / 2R
    fam = OperatorFamily(space, TensorBasis(scal, np.eye(1, dtype=complex)))
    rep = _decide_frame(fam, tol, None, band=True)
    rep.residuals["support_fraction"] = float(space.support.mean())
    return rep
