"""Center-translate analysis for a dilated window over the reduced band.

A fixed cube window, dilated by alpha^(d/2) across scales alpha in (0, 1],
produces a rank-one operator field whose squared fiber norm is the
indicator of the band (eps, 1].  Periodizing the field over integer center
translates collapses this to an explicit scalar weight alpha^d above the
cutoff, so frame questions for the translate family reduce to two-sided
bounds on that weight over its support.

Everything here is one-dimensional in the scale variable; the ambient
dimension d enters only through the weight exponent and the window
normalization.  Three checks take two routes and return their gap for the
caller to judge: the weight's lattice sum against its closed form, the
band-mass quadrature against its closed form, and the isometry from
coefficients c to fields S(c), the weighted norm of S(c) by one FFT
against c^H T c, T the Toeplitz translate Gram read from the inverse DFT
of the weight.

The frame verdict is ``analyzer.decide_frame`` on the family alone, with
``band``: its bounds and witness over the positive-weight band, the span of
the translates.  The family is the discrete Fourier family
``build_default(R)``: on the midpoint grid its row n is the translate
exponential e^(2 pi i n alpha) times a constant of unit modulus, which
moves no frame bound, spectrum or coefficient modulus.  Its rows pair with
their conjugates, so the basis gathers the rows n <= p(n) from its table
of roots in one pass, writes its Hartley form Re F + Im F from them and
keeps only that real form; the table bounds its unimodularity gap.  The
family is orthonormal by construction, and the decision checks so on the
band's frame operator X^T X before the weight scales it: the isometry
costs no copy and no product beyond the one the frame route takes anyway.
The witness ratio goes through the coefficient functionals, which form no
R x R array either.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .analyzer import VERDICT_TOL, FrameReport, decide_frame
from .operators import OperatorFamily
from .tensor_onb import build_default
from .wspace import WeightedSpace, _integer

__all__ = [
    "hs_weight",
    "psi_norm_sq",
    "lattice_residual",
    "band_mass_residual",
    "weight_envelope_check",
    "midpoint_grid",
    "CenterTranslateModel",
    "s_map",
    "isometry_residual",
    "frame_report",
]

LATTICE_WINDOW = 3  # integer shifts j in [-3, 3] cover every alpha in (0, 1]
QUAD_NODES = 64
# Default scale grid, translate range and spectral grid of a model and a report.
RESOLUTION = 4096
K_MAX = 4
SPECTRAL_RESOLUTION = 256


def _check_params(eps: float, d: int) -> tuple[float, int]:
    eps = float(eps)
    d = _integer("d", d, 0)
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    return eps, d


def _lattice_profile(eps: float, d: int, x: np.ndarray, window: int) -> np.ndarray:
    """sum_j 1_((eps, 1])(x + j) |x + j|^d over integer j in [-window, window]."""
    total = np.zeros_like(x, dtype=float)
    term = np.empty_like(total)
    for j in range(-window, window + 1):
        y = x + j
        band = (y > eps) & (y <= 1.0)  # y > eps >= 0, so |y| = y on the band
        term.fill(0.0)
        np.power(y, d, out=term, where=band)
        total += term
    return total


def hs_weight(eps: float, d: int, alpha) -> np.ndarray:
    """Periodized squared fiber norm of the dilated window at scale alpha.

    For alpha in (0, 1] exactly one lattice point can land in the band, so
    the sum collapses to alpha^d above the cutoff and 0 at or below it;
    ``lattice_residual`` measures the collapse against the defining sum.

    Raises:
        ValueError: for alpha outside (0, 1].
    """
    eps, d = _check_params(eps, d)
    a = np.asarray(alpha, dtype=float)
    if not np.all((a > 0.0) & (a <= 1.0)):
        raise ValueError("alpha must lie in (0, 1]")
    closed = np.where(a > eps, a ** d, 0.0)
    return closed if a.ndim else float(closed)


def lattice_residual(eps: float, d: int, alpha, weight) -> float:
    """Largest gap between the defining lattice sum at the scales ``alpha``
    and ``weight``, the closed form ``hs_weight`` there, relative to the
    largest closed-form value; NaN when a route is.  One lattice pass."""
    eps, d = _check_params(eps, d)
    summed = _lattice_profile(eps, d, np.asarray(alpha, dtype=float), LATTICE_WINDOW)
    w = np.asarray(weight, dtype=float)
    return float(np.max(np.abs(summed - w)) / max(np.max(w), np.finfo(float).tiny))


def psi_norm_sq(eps: float, d: int) -> float:
    """Squared model norm of the window field: integral of the weight, by
    Gauss-Legendre quadrature of the defining lattice sum over (eps, 1)."""
    eps, d = _check_params(eps, d)
    # enough nodes to integrate alpha^d exactly, whatever d is
    x, w = np.polynomial.legendre.leggauss(max(QUAD_NODES, (d + 3) // 2))
    half = (1.0 - eps) / 2.0
    t = eps + (x + 1.0) * half
    return float((w * _lattice_profile(eps, d, t, LATTICE_WINDOW)).sum() * half)


def band_mass_residual(eps: float, d: int, mass: float) -> float:
    """Gap between ``mass``, the quadrature ``psi_norm_sq``, and the closed
    form (1 - eps^(d+1)) / (d + 1), relative to the closed form; NaN when
    ``mass`` is."""
    eps, d = _check_params(eps, d)
    closed = (1.0 - eps ** (d + 1)) / (d + 1)
    return abs(mass - closed) / closed


def _envelope(space: WeightedSpace) -> tuple[float, float]:
    """Extremes of the weight over the support of ``space``."""
    w = space.weights[space.support]
    return float(w.min()), float(w.max())


def weight_envelope_check(eps: float, d: int, grid) -> tuple[float, float]:
    """Extremes of the weight over the support points of a scale grid, the
    effective two-sided bounds.

    Every supported value lies in [eps^d, 1] by construction: ``hs_weight``
    returns the closed form alpha^d on alpha in (eps, 1].

    Raises:
        ValueError: when no grid point carries positive weight, or one
            carries a positive weight that ``WeightedSpace`` refuses.
    """
    w = np.atleast_1d(hs_weight(eps, d, grid))
    return _envelope(WeightedSpace(w.size, 1, w))


def midpoint_grid(resolution: int) -> np.ndarray:
    """Midpoint scale grid (i + 1/2) / resolution on (0, 1)."""
    R = _integer("resolution", resolution, 2)
    return (np.arange(R) + 0.5) / R


@dataclass(frozen=True, eq=False)
class CenterTranslateModel:
    """Discretized coefficient model for center translates of the window.

    ``space`` is the ``WeightedSpace`` of the midpoint scale grid
    (``_band_space``): the collapsed weight, positive on the band that the
    translates span, refused where its quadrature weight w/R is subnormal.
    The grid itself is ``midpoint_grid(resolution)``.
    """

    eps: float
    d: int
    resolution: int = RESOLUTION
    k_max: int = K_MAX
    space: WeightedSpace = field(init=False, repr=False)

    def __post_init__(self):
        eps, d = _check_params(self.eps, self.d)
        if not 0.0 < eps:
            raise ValueError("eps must be positive for the band model")
        if d < 1:
            raise ValueError("d must be >= 1 for the band model")
        k_max = _integer("k_max", self.k_max, 0)
        space = _band_space(eps, d, self.resolution)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "resolution", space.grid_size)
        object.__setattr__(self, "k_max", k_max)
        object.__setattr__(self, "space", space)

    def _coeffs(self, a) -> np.ndarray:
        c = np.asarray(a, dtype=complex)
        if c.shape != (2 * self.k_max + 1,):
            raise ValueError(
                f"coefficients must have shape ({2 * self.k_max + 1},) "
                "for translates -k_max..k_max"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
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
    samples = np.fft.fft(bins)
    samples[~model.space.support] = 0.0
    return samples


def isometry_residual(model: CenterTranslateModel, a) -> float:
    """Relative gap between the weighted norm of S(a) and a^H T a, where
    T[k, k'] = (1/R) sum_i w_i e^(2 pi i (k - k') alpha_i) over the support:
    at lag l, the inverse DFT of the weight at l mod R times e^(pi i l / R).
    The gap is returned, NaN when a route is, for the caller to judge (the
    CLI by ``tolerances.consistency``, as ``isometry_vs_translate_gram``).
    """
    c = model._coeffs(a)
    R, n, w = model.resolution, c.size, model.space.weights
    field = float((np.abs(s_map(model, c)) ** 2 * w).sum() / R)
    lags = np.arange(1 - n, n)
    t = np.fft.ifft(w)[lags % R] * np.exp(1j * np.pi * lags / R)
    k = np.arange(n)
    gram = float(np.real(c.conj() @ t[k[:, None] - k + n - 1] @ c))
    return abs(field - gram) / max(gram, np.finfo(float).tiny)


def frame_report(
    eps: float, d: int, resolution: int = SPECTRAL_RESOLUTION, tol: float = VERDICT_TOL
) -> FrameReport:
    """Frame verdict for the center-translate family on its own span.

    The model space is the closed span of the translates, the fields
    supported on the positive-weight band, so the report is the frame
    decision over the band, plus its share of the grid as
    ``support_fraction``.
    """
    return _band_report(_band_space(eps, d, resolution), tol)


def _band_space(eps: float, d: int, resolution: int) -> WeightedSpace:
    """The weighted space of the midpoint grid of ``resolution``."""
    return WeightedSpace(int(resolution), 1, hs_weight(eps, d, midpoint_grid(resolution)))


def _band_report(space: WeightedSpace, tol: float) -> FrameReport:
    """``frame_report`` on its weighted space, for the discrete Fourier
    family ``build_default(R)``: on alpha_i = (i + 1/2) / R its row n is the
    translate exponential e^(2 pi i n alpha_i) times the constant
    e^(-pi i n / R), which moves no bound, spectrum or coefficient modulus."""
    fam = OperatorFamily(space, build_default(space.grid_size))
    rep = decide_frame(fam, tol, band=True)
    share = {"support_fraction": float(space.support.mean())}
    return replace(rep, residuals={**rep.residuals, **share})
