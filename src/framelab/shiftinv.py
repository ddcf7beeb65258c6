"""Integer-translate systems on the line, read through a periodized weight.

A generator is given by frequency samples on [-R, R) at spacing 1/N, so
integer translates of the unit grid land on sample points.  Folding the
squared modulus over integer shifts produces a node weight on [0, 1) that
carries the frame character of the translate family.  The module also
provides the spectrum of the time-side Gram of the translates, the finite
Zak transform, and a Gabor basis check at critical density, which returns
the gap between its Zak and Gram routes for the caller to judge.

The discrete model is periodic: time samples live on a cyclic grid of
period N with spacing 1/(2R), the exact transform pair of the frequency
grid, which makes the time-side translate Gram and the frequency-side
weight agree up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analyzer import VERDICT_TOL, FrameReport, _multiset_gap, _verdict
from .errors import TruncationError
from .wspace import _integer, _readonly

__all__ = [
    "Generator",
    "make_generator",
    "periodized_weight",
    "translate_gram_spectrum",
    "ZakGrid",
    "zak_transform",
    "gabor_window",
    "gabor_gram_spectrum",
    "gabor_riesz_check",
]

TAIL_LIMIT = 1e-6
# Complex entries of one chunk of shifted window products in the Gabor Gram.
ZAK_CHUNK = 1 << 16
# Default band half-width R of each built-in generator preset.
GENERATOR_RADIUS = {"indicator": 1, "wide-indicator": 2, "gaussian": 4}


@dataclass(frozen=True, eq=False)
class Generator:
    """Frequency samples of a generator on [-radius, radius).

    Attributes:
        fhat: 2 * radius * grid_size complex samples at spacing
            1/grid_size, index j at frequency -radius + j/grid_size.
        radius: half-width R of the sampled band, a positive integer.
        grid_size: nodes N per unit interval.
        decay_tail: caller-supplied bound on the squared-modulus mass of
            the generator outside the sampled band.
    """

    fhat: np.ndarray
    radius: int
    grid_size: int
    decay_tail: float = 0.0

    def __post_init__(self):
        R = _integer("radius", self.radius, 1)
        N = _integer("grid_size", self.grid_size, 1)
        f = np.asarray(self.fhat, dtype=complex)
        expect = 2 * R * N
        if f.shape != (expect,):
            raise ValueError(f"fhat must have shape ({expect},), got {f.shape}")
        if not np.all(np.isfinite(f)):
            raise ValueError("fhat must be finite")
        # sum |fhat|^2 bounds every periodized weight, so none overflows
        with np.errstate(over="ignore"):
            energy = float(np.sum(np.abs(f) ** 2))
        if not np.isfinite(energy):
            raise ValueError("fhat energy sum |fhat|^2 overflows")
        if not self.decay_tail >= 0:  # NaN too
            raise ValueError("decay_tail must be nonnegative")
        object.__setattr__(self, "fhat", _readonly(f))
        object.__setattr__(self, "radius", R)
        object.__setattr__(self, "grid_size", N)

    @cached_property
    def time_samples(self) -> np.ndarray:
        """Read-only samples on the cyclic time grid t_s = s/(2R), period N,
        made on first read: every time-side route of a run reads these."""
        P = self.fhat.size
        signs = np.where(np.arange(P) % 2 == 0, 1.0, -1.0)
        phi = 2 * self.radius * signs * np.fft.ifft(self.fhat)
        phi.setflags(write=False)
        return phi


def make_generator(preset: str, grid_size: int, radius: int | None = None) -> Generator:
    """Built-in generators, sampled on the frequency grid.

    indicator: unit indicator of [0, 1); folds to unit weight.
    wide-indicator: indicator of [0, 2) scaled by 1/sqrt(2); same mass.
    gaussian: normalized Gaussian bump, with a computed band tail bound.

    Without ``radius`` the band half-width is ``GENERATOR_RADIUS[preset]``.
    """
    if preset not in GENERATOR_RADIUS:
        raise ValueError(f"unknown generator preset {preset!r}")
    N = _integer("grid_size", grid_size, 1)
    R = _integer("radius", GENERATOR_RADIUS[preset] if radius is None else radius, 1)
    xi = -R + np.arange(2 * R * N) / N
    if preset == "indicator":
        fhat = ((xi >= 0) & (xi < 1)).astype(complex)
        return Generator(fhat, R, N)
    if preset == "wide-indicator":
        if R < 2:
            raise ValueError("wide-indicator needs radius >= 2")
        fhat = ((xi >= 0) & (xi < 2)).astype(complex) / np.sqrt(2.0)
        return Generator(fhat, R, N)
    fhat = (2.0 ** 0.25) * np.exp(-np.pi * xi ** 2) + 0j
    # translates not covered by the band: n >= R and n <= -(R + 1)
    n = np.arange(R, R + 24, dtype=float)
    tail = np.sqrt(2.0) * (np.exp(-2 * np.pi * n ** 2).sum() * 2.0)
    return Generator(fhat, R, N, decay_tail=float(tail))


def periodized_weight(gen: Generator) -> np.ndarray:
    """Node weight w(x_i) = sum_n |fhat(x_i + n)|^2 over the sampled band.

    Raises:
        TruncationError: when the declared band tail exceeds ``TAIL_LIMIT``,
            since the fold would silently drop that much weight.
    """
    if gen.decay_tail > TAIL_LIMIT:
        raise TruncationError(
            f"band tail bound {gen.decay_tail:.3e} exceeds {TAIL_LIMIT:.0e}; "
            "enlarge the sampled band"
        )
    sq = np.abs(gen.fhat) ** 2
    return sq.reshape(2 * gen.radius, gen.grid_size).sum(axis=0)


def translate_gram_spectrum(gen: Generator) -> np.ndarray:
    """Ascending eigenvalues of the Gram matrix of the N translates, by
    time-side quadrature; they reproduce the periodized weight exactly.

    With phi the P = 2RN time samples and step = 2R, translate k is
    phi[s - step k] and the Gram is
    G[k, k'] = (1/step) sum_s conj(phi[s - step k]) phi[s - step k'].
    Substituting s -> s + step k', G[k, k'] = c[(k - k') mod N] with

        c[k] = (1/step) sum_s conj(phi[s - step k]) phi[s],

    so G is circulant: the DFT over the lag k diagonalizes it, and its
    spectrum is fft(c), real because G is Hermitian.  Each c[k] is a direct
    inner product of the samples with one cyclic shift of them, taken on
    the two slices the shift wraps into, so the route does O(N P) work in
    O(P) memory and copies no samples: it forms no N x P or N x N array.
    It transforms neither the samples nor across the translates, either of
    which would read the weight back; as in ``gabor_gram_spectrum`` the
    only DFT is over the lag.
    """
    step = 2 * gen.radius
    phi = gen.time_samples
    P = phi.size
    column = np.empty(gen.grid_size, dtype=complex)
    for k in range(gen.grid_size):
        m = step * k  # phi[s - m] is phi[s - m + P] for s < m
        column[k] = np.vdot(phi[: P - m], phi[m:]) + np.vdot(phi[P - m :], phi[:m])
    column /= step
    return np.sort(np.fft.fft(column).real)


@dataclass(frozen=True, eq=False)
class ZakGrid:
    """Finite Zak transform values Z[j, m] at (x_j, xi_m) = (j/N, m/L), an
    N x L array whose shape gives both sizes."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2:
            raise ValueError("values must be a 2-d array (time x frequency)")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def time_resolution(self) -> int:
        """N, the samples per period."""
        return self.values.shape[0]

    @property
    def translates(self) -> int:
        """L, the periods of the window."""
        return self.values.shape[1]


def _sizes(time_resolution: int, translates: int) -> tuple:
    """(N, L) as ints of at least 1, a non-integral size refused."""
    N = _integer("time_resolution", time_resolution, 1)
    return N, _integer("translates", translates, 1)


def _check_window(phi, time_resolution: int, translates: int) -> tuple:
    """(phi, N, L): the finite window of N * L samples and its sizes.

    L * sum |phi|^2 must be finite too: it bounds every squared Zak
    magnitude and every Gabor Gram eigenvalue, so neither route overflows.
    """
    N, L = _sizes(time_resolution, translates)
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (N * L,):
        raise ValueError(f"window must have {N * L} samples, got {phi.shape}")
    if not np.all(np.isfinite(phi)):
        raise ValueError("window must be finite")
    with np.errstate(over="ignore"):
        energy = L * float(np.sum(np.abs(phi) ** 2))
    if not np.isfinite(energy):
        raise ValueError("window energy translates * sum |phi|^2 overflows")
    return phi, N, L


def zak_transform(phi, time_resolution: int, translates: int) -> ZakGrid:
    """Finite Zak transform of a window sampled at rate N over L periods.

    Z[j, m] = sum_k phi[j + N k] exp(2 pi i m k / L), a length-L transform
    across the translate index for each time offset j.
    """
    phi, N, L = _check_window(phi, time_resolution, translates)
    return ZakGrid(L * np.fft.ifft(phi.reshape(L, N), axis=0).T)


def _quasiperiodicity_residual(zak: ZakGrid, phi) -> float:
    """Defect of Z(x + 1, xi) = exp(-2 pi i xi) Z(x, xi) on wrapped indices,
    given ``zak``, the Zak transform of ``phi``.  The shifted side is a
    transform of its own, of the rolled window: reading it off ``zak`` by the
    shift theorem would check nothing."""
    N, L = zak.time_resolution, zak.translates
    shifted = zak_transform(np.roll(np.asarray(phi, dtype=complex), -N), N, L).values
    phase = np.exp(-2j * np.pi * np.arange(L) / L)
    return float(np.max(np.abs(shifted - phase[None, :] * zak.values)))


def gabor_window(preset: str, time_resolution: int, translates: int) -> np.ndarray:
    """Built-in windows of length N * L: first-period indicator, or a
    centered normalized Gaussian."""
    N, L = _sizes(time_resolution, translates)
    if preset == "indicator":
        phi = np.zeros(N * L, dtype=complex)
        phi[:N] = 1.0
        return phi
    if preset == "gaussian":
        t = np.arange(N * L) / N
        return (2.0 ** 0.25) * np.exp(-np.pi * (t - L / 2) ** 2) + 0j
    raise ValueError(f"unknown window preset {preset!r}")


def gabor_gram_spectrum(phi, time_resolution: int, translates: int) -> np.ndarray:
    """Ascending eigenvalues of the Gabor Gram under quadrature pairing.

    The system holds the P = N*L time-frequency shifts
    g_{a,b}[s] = exp(2 pi i a s / N) phi[s - b N] for a < N, b < L, and its
    Gram is G[(a,b), (a',b')] = (1/N) sum_s g_{a,b}[s] conj(g_{a',b'}[s]).
    Substituting u = s - b'N, the phase exp(2 pi i (a-a') b' N / N) is 1, so

        G[(a,b), (a',b')] = c[(a-a') mod N, (b-b') mod L],
        c[a, b] = (1/N) sum_u exp(2 pi i a u / N) phi[u - b N] conj(phi[u]).

    At critical density the Gram is therefore block-circulant with
    circulant blocks (BCCB): the 2-D DFT diagonalizes it, and its spectrum
    is fft2(c), real because G is Hermitian.  The column c is formed by
    direct inner products: the L products roll(phi, bN) * conj(phi), each
    folded mod N and sent through an N-point inverse FFT.  The products
    are taken a chunk of shifts at a time, at most ``ZAK_CHUNK`` complex
    entries each (one shift if a single one is larger), so the route holds
    O(P) memory and no P x P array; every shape with L * P <= ZAK_CHUNK
    runs as one chunk.

    The route never forms the Zak transform: it pairs shifted copies of the
    window in time, while ``zak_transform`` transforms across the translate
    index.  The two meet only through the Zak criterion itself, which is
    what ``gabor_riesz_check`` compares.
    """
    phi, N, L = _check_window(phi, time_resolution, translates)
    blocks = phi.reshape(L, N)
    conj, periods = blocks.conj(), np.arange(L)
    folded = np.empty((L, N), dtype=complex)
    step = max(1, ZAK_CHUNK // phi.size)
    for start in range(0, L, step):
        chunk = slice(start, start + step)
        # shifted[b, k] is period k of roll(phi, b N), i.e. period (k - b) mod L
        shifted = blocks[(periods[None, :] - periods[chunk, None]) % L]
        shifted *= conj
        shifted.sum(axis=1, out=folded[chunk])
    column = np.fft.ifft(folded, axis=1).T
    return np.sort(np.fft.fft2(column).real, axis=None)


def gabor_riesz_check(
    phi,
    time_resolution: int,
    translates: int,
    tol: float = VERDICT_TOL,
) -> FrameReport:
    """Classify the critical-density Gabor system through its Zak range.

    The squared Zak magnitudes play the role the node weights play on the
    unit grid: they give the verdict by the analyzer's rule, their extremes
    are the candidate frame bounds, and the Gram spectrum of the full
    time-frequency system must reproduce their whole sorted multiset.  The
    relative gap is returned as ``residuals["zak_vs_gram"]``, for the
    caller to judge (the CLI by ``tolerances.consistency``), and the
    spectrum is kept on the report.
    """
    zak = zak_transform(phi, time_resolution, translates)
    return _gabor_riesz_check(zak, phi, tol)


def _gabor_riesz_check(zak: ZakGrid, phi, tol: float) -> FrameReport:
    """``gabor_riesz_check`` given ``zak``, the Zak transform of ``phi``."""
    zsq = np.sort(np.abs(zak.values) ** 2, axis=None)
    eig = gabor_gram_spectrum(phi, zak.time_resolution, zak.translates)
    bounds = (float(zsq[0]), float(zsq[-1]))
    residuals = {"zak_vs_gram": _multiset_gap(zsq, eig)}
    return FrameReport(_verdict(zsq, tol), bounds, None, residuals, None, eig)
