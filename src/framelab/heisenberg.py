"""Center-translate analysis for a dilated window over the reduced band.

A fixed cube window, dilated by alpha^(d/2) across scales alpha in (0, 1],
produces a rank-one operator field whose squared fiber norm is the
indicator of the band (eps, 1].  Periodizing the field over integer center
translates collapses this to an explicit scalar weight alpha^d above the
cutoff, so frame questions for the translate family reduce to two-sided
bounds on that weight over its support.

Everything here is one-dimensional in the scale variable; the ambient
dimension d enters only through the weight exponent and the window
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analyzer import SUPPORT_ETA, FrameReport, Verdict
from .errors import ConsistencyError
from .operators import OperatorFamily, frame_spectrum
from .tensor_onb import TensorBasis
from .wspace import WeightedSpace, _readonly

__all__ = [
    "hs_weight",
    "psi_norm_sq",
    "weight_envelope_check",
    "midpoint_grid",
    "CenterTranslateModel",
    "s_map",
    "norm_sq_periodization",
    "isometry_residual",
    "scalar_family",
    "frame_problem",
    "frame_report",
]

CLOSED_FORM_TOL = 1e-12
MASS_TOL = 1e-9
ISOMETRY_TOL = 1e-8


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


def hs_weight(eps: float, d: int, alpha, window: int = 3) -> np.ndarray:
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
    summed = _lattice_profile(eps, d, a, window)
    closed = np.where(a > eps, a ** d, 0.0)
    drift = float(np.max(np.abs(summed - closed))) if a.size else 0.0
    if drift > CLOSED_FORM_TOL:
        raise ConsistencyError(
            f"periodized weight differs from closed form by {drift:.3e}"
        )
    return closed if a.ndim else float(closed)


def psi_norm_sq(eps: float, d: int, nodes: int = 64) -> float:
    """Squared model norm of the window field: integral of the weight.

    Evaluated by Gauss-Legendre quadrature of the defining lattice sum
    over (eps, 1), then checked against (1 - eps^(d+1)) / (d + 1).

    Raises:
        ConsistencyError: if quadrature and closed form differ beyond 1e-9.
    """
    eps, d = _check_params(eps, d)
    # enough nodes to integrate alpha^d exactly, whatever d is
    x, w = np.polynomial.legendre.leggauss(max(int(nodes), (d + 3) // 2))
    half = (1.0 - eps) / 2.0
    t = eps + (x + 1.0) * half
    quad = float((w * _lattice_profile(eps, d, t, window=3)).sum() * half)
    closed = (1.0 - eps ** (d + 1)) / (d + 1)
    if abs(quad - closed) > MASS_TOL:
        raise ConsistencyError(
            f"mass quadrature {quad!r} differs from closed form {closed!r}"
        )
    return quad


def weight_envelope_check(eps: float, d: int, grid) -> tuple[float, float]:
    """Extremes of the weight over the support points of a scale grid.

    Every supported value must land in [eps^d, 1]; the observed extremes
    are returned as the effective two-sided bounds.

    Raises:
        ValueError: when no grid point carries positive weight.
        ConsistencyError: if a value escapes the guaranteed sandwich.
    """
    eps, d = _check_params(eps, d)
    g = np.asarray(grid, dtype=float)
    w = np.asarray(hs_weight(eps, d, g))
    supported = w > SUPPORT_ETA
    if not supported.any():
        raise ValueError("no grid point carries positive weight")
    lo = float(w[supported].min())
    hi = float(w[supported].max())
    if lo < eps ** d - 1e-12 or hi > 1.0 + 1e-12:
        raise ConsistencyError(
            f"supported weight range ({lo}, {hi}) escapes [{eps ** d}, 1]"
        )
    return lo, hi


def midpoint_grid(resolution: int) -> np.ndarray:
    """Midpoint scale grid (i + 1/2) / resolution on (0, 1)."""
    R = int(resolution)
    if R < 2:
        raise ValueError("resolution must be >= 2")
    return (np.arange(R) + 0.5) / R


@dataclass(frozen=True)
class CenterTranslateModel:
    """Discretized coefficient model for center translates of the window.

    Scale grid, collapsed weight, and its support are precomputed; the
    model space is the span of the translates, i.e. fields supported on
    the positive-weight band.
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
        w = np.asarray(hs_weight(eps, d, a))
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "resolution", int(self.resolution))
        object.__setattr__(self, "k_max", int(self.k_max))
        object.__setattr__(self, "alpha", _readonly(a))
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "support", _readonly(w > SUPPORT_ETA))

    def _coeffs(self, a) -> np.ndarray:
        c = np.asarray(a, dtype=complex)
        if c.shape != (2 * self.k_max + 1,):
            raise ValueError(
                f"coefficients must have shape ({2 * self.k_max + 1},) "
                "for translates -k_max..k_max"
            )
        return c


def s_map(model: CenterTranslateModel, a) -> np.ndarray:
    """Samples of the synthesized field S(a) = 1_E sum_k a_k e^(-2 pi i k alpha)."""
    c = model._coeffs(a)
    ks = np.arange(-model.k_max, model.k_max + 1)
    p = (c[:, None] * np.exp(-2j * np.pi * np.outer(ks, model.alpha))).sum(axis=0)
    return np.where(model.support, p, 0.0)


def norm_sq_periodization(model: CenterTranslateModel, a) -> float:
    """Squared norm of S(a) recomputed through the defining lattice sum.

    Independent route from the weighted quadrature: the polynomial is
    squared against the periodized profile rather than the stored weight.
    """
    c = model._coeffs(a)
    ks = np.arange(-model.k_max, model.k_max + 1)
    p = (c[:, None] * np.exp(-2j * np.pi * np.outer(ks, model.alpha))).sum(axis=0)
    profile = _lattice_profile(model.eps, model.d, model.alpha, window=3)
    return float((np.abs(p) ** 2 * profile).sum() / model.resolution)


def isometry_residual(model: CenterTranslateModel, a) -> float:
    """Relative gap between the weighted norm of S(a) and the lattice route.

    Raises:
        ConsistencyError: when the gap exceeds 1e-8 relative.
    """
    sf = s_map(model, a)
    direct = float((np.abs(sf) ** 2 * model.weights).sum() / model.resolution)
    lattice = norm_sq_periodization(model, a)
    rel = abs(direct - lattice) / max(lattice, np.finfo(float).tiny)
    if rel > ISOMETRY_TOL:
        raise ConsistencyError(
            f"synthesis norm routes disagree: {direct!r} vs {lattice!r}"
        )
    return rel


def scalar_family(resolution: int) -> np.ndarray:
    """Orthonormal exponential family e^(-2 pi i k alpha) on the midpoint grid.

    Rows are indexed by k = -R//2 .. R - R//2 - 1; R consecutive integer
    frequencies are exactly orthonormal under unit-weight quadrature.
    """
    R = int(resolution)
    alpha = midpoint_grid(R)
    ks = np.arange(R) - R // 2
    return np.exp(-2j * np.pi * np.outer(ks, alpha))


def frame_problem(eps: float, d: int, resolution: int):
    """Weighted space plus scalar family for the center-translate system."""
    eps, d = _check_params(eps, d)
    alpha = midpoint_grid(resolution)
    w = np.asarray(hs_weight(eps, d, alpha))
    space = WeightedSpace(int(resolution), 1, w)
    return space, scalar_family(resolution)


def frame_report(
    eps: float, d: int, resolution: int = 256, tol: float = 1e-9
) -> FrameReport:
    """Frame verdict for the center-translate family on its own span.

    The model space is the closed span of the translates, which consists
    of the fields supported on the positive-weight band, so the verdict
    and the reported weight bounds are taken over that support.  The
    analysis-operator spectrum restricted to the support is the oracle, and
    the report carries it as ``spectrum``.
    """
    space, scal = frame_problem(eps, d, resolution)
    basis = TensorBasis(scal, np.eye(1, dtype=complex))
    fam = OperatorFamily(space, basis)
    supp = space.weights > SUPPORT_ETA
    if not supp.any():
        raise ValueError("weight vanishes on the whole grid")
    spec = frame_spectrum(fam, support=supp)
    lo = float(space.weights[supp].min())
    hi = float(space.weights[supp].max())
    residual = max(abs(float(spec[0]) - lo), abs(float(spec[-1]) - hi))
    verdict = Verdict.FRAME if lo > tol else Verdict.NOT_FRAME
    residuals = {
        "spectrum_vs_weight": residual,
        "support_fraction": float(supp.mean()),
    }
    return FrameReport(
        verdict,
        (lo, hi),
        (float(spec[0]), float(spec[-1])),
        None,
        residuals,
        None,
        spec,
    )
