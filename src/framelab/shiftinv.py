"""Integer-translate systems on the line, read through a periodized weight.

A generator is given by frequency samples on [-R, R) at spacing 1/N, so
integer translates of the unit grid land on sample points.  Folding the
squared modulus over integer shifts produces a node weight on [0, 1) that
carries the frame character of the translate family.  The module also
provides the time-side Gram of the translates, the finite Zak transform,
and a Gabor basis check at critical density.

The discrete model is periodic: time samples live on a cyclic grid of
period N with spacing 1/(2R), the exact transform pair of the frequency
grid, which makes the time-side translate Gram and the frequency-side
weight agree up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analyzer import FrameReport, Verdict
from .errors import ConsistencyError, TruncationError
from .wspace import _readonly

__all__ = [
    "Generator",
    "make_generator",
    "periodized_weight",
    "time_samples",
    "translate_gram",
    "ZakGrid",
    "zak_transform",
    "zak_quasiperiodicity_residual",
    "gabor_window",
    "gabor_gram_spectrum",
    "gabor_riesz_check",
]

TAIL_LIMIT = 1e-6
ZAK_GRAM_TOL = 1e-6
# Default band half-width R of each built-in generator preset.
GENERATOR_RADIUS = {"indicator": 1, "wide-indicator": 2, "gaussian": 4}


@dataclass(frozen=True)
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
        if int(self.radius) < 1:
            raise ValueError("radius must be a positive integer")
        if int(self.grid_size) < 1:
            raise ValueError("grid_size must be >= 1")
        f = np.asarray(self.fhat, dtype=complex)
        expect = 2 * self.radius * self.grid_size
        if f.shape != (expect,):
            raise ValueError(f"fhat must have shape ({expect},), got {f.shape}")
        if not np.all(np.isfinite(f)):
            raise ValueError("fhat must be finite")
        if self.decay_tail < 0:
            raise ValueError("decay_tail must be nonnegative")
        object.__setattr__(self, "fhat", _readonly(f))


def make_generator(preset: str, grid_size: int, radius: int | None = None) -> Generator:
    """Built-in generators, sampled on the frequency grid.

    indicator: unit indicator of [0, 1); folds to unit weight.
    wide-indicator: indicator of [0, 2) scaled by 1/sqrt(2); same mass.
    gaussian: normalized Gaussian bump, with a computed band tail bound.

    Without ``radius`` the band half-width is ``GENERATOR_RADIUS[preset]``.
    """
    if preset not in GENERATOR_RADIUS:
        raise ValueError(f"unknown generator preset {preset!r}")
    N = grid_size
    R = GENERATOR_RADIUS[preset] if radius is None else radius
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
        TruncationError: when the declared band tail exceeds 1e-6, since
            the fold would silently drop that much weight.
    """
    if gen.decay_tail > TAIL_LIMIT:
        raise TruncationError(
            f"band tail bound {gen.decay_tail:.3e} exceeds {TAIL_LIMIT:.0e}; "
            "enlarge the sampled band"
        )
    sq = np.abs(gen.fhat) ** 2
    return sq.reshape(2 * gen.radius, gen.grid_size).sum(axis=0)


def time_samples(gen: Generator) -> np.ndarray:
    """Generator samples on the cyclic time grid t_s = s/(2R), period N."""
    P = gen.fhat.size
    signs = np.where(np.arange(P) % 2 == 0, 1.0, -1.0)
    return 2 * gen.radius * signs * np.fft.ifft(gen.fhat)


def translate_gram(gen: Generator, count: int | None = None) -> np.ndarray:
    """Gram matrix of the first ``count`` translates, by time-side quadrature.

    With count equal to the grid size the spectrum reproduces the
    periodized weight exactly.
    """
    N = gen.grid_size
    count = N if count is None else int(count)
    if not 1 <= count <= N:
        raise ValueError(f"count must lie in [1, {N}]")
    step = 2 * gen.radius
    phi_t = time_samples(gen)
    V = np.stack([np.roll(phi_t, step * k) for k in range(count)])
    return (V.conj() @ V.T) / step


@dataclass(frozen=True)
class ZakGrid:
    """Finite Zak transform values Z[j, m] at (x_j, xi_m) = (j/N, m/L)."""

    values: np.ndarray
    time_resolution: int
    translates: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.time_resolution, self.translates):
            raise ValueError(
                f"values must have shape ({self.time_resolution}, {self.translates})"
            )
        object.__setattr__(self, "values", _readonly(v))


def _check_window(phi, time_resolution: int, translates: int) -> np.ndarray:
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (time_resolution * translates,):
        raise ValueError(
            f"window must have {time_resolution * translates} samples, got {phi.shape}"
        )
    return phi


def zak_transform(phi, time_resolution: int, translates: int) -> ZakGrid:
    """Finite Zak transform of a window sampled at rate N over L periods.

    Z[j, m] = sum_k phi[j + N k] exp(2 pi i m k / L), a length-L transform
    across the translate index for each time offset j.
    """
    N, L = int(time_resolution), int(translates)
    phi = _check_window(phi, N, L)
    folded = phi.reshape(L, N)
    return ZakGrid(L * np.fft.ifft(folded, axis=0).T, N, L)


def zak_quasiperiodicity_residual(phi, time_resolution: int, translates: int) -> float:
    """Defect of Z(x + 1, xi) = exp(-2 pi i xi) Z(x, xi) on wrapped indices."""
    N, L = int(time_resolution), int(translates)
    z = zak_transform(phi, N, L).values
    shifted = zak_transform(np.roll(np.asarray(phi, dtype=complex), -N), N, L).values
    phase = np.exp(-2j * np.pi * np.arange(L) / L)
    return float(np.max(np.abs(shifted - phase[None, :] * z)))


def gabor_window(preset: str, time_resolution: int, translates: int) -> np.ndarray:
    """Built-in windows of length N * L: first-period indicator, or a
    centered normalized Gaussian."""
    N, L = int(time_resolution), int(translates)
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
    folded mod N and sent through an N-point inverse FFT, with O(L * P)
    memory and no P x P array.

    The route never forms the Zak transform: it pairs shifted copies of the
    window in time, while ``zak_transform`` transforms across the translate
    index.  The two meet only through the Zak criterion itself, which is
    what ``gabor_riesz_check`` compares.
    """
    N, L = int(time_resolution), int(translates)
    blocks = _check_window(phi, N, L).reshape(L, N)
    # shifted[b, k] is period k of roll(phi, b N), i.e. period (k - b) mod L
    shifted = blocks[(np.arange(L)[None, :] - np.arange(L)[:, None]) % L]
    folded = (shifted * blocks.conj()[None]).sum(axis=1)
    column = np.fft.ifft(folded, axis=1).T
    return np.sort(np.fft.fft2(column).real, axis=None)


def gabor_riesz_check(
    phi,
    time_resolution: int,
    translates: int,
    tol: float = 1e-9,
    onb_tol: float = 1e-9,
) -> FrameReport:
    """Classify the critical-density Gabor system through its Zak range.

    The squared Zak magnitudes play the role the node weights play on the
    unit grid: their extremes are the candidate frame bounds, and the Gram
    spectrum of the full time-frequency system must reproduce their whole
    sorted multiset to 1e-6 relative.  The spectrum is kept on the report.

    Raises:
        ConsistencyError: if the Zak magnitudes and the Gram spectrum
            disagree.
    """
    N, L = int(time_resolution), int(translates)
    z = zak_transform(phi, N, L).values
    zsq = np.sort(np.abs(z) ** 2, axis=None)
    az, bz = float(zsq[0]), float(zsq[-1])
    eig = gabor_gram_spectrum(phi, N, L)
    scale = max(bz, float(eig[-1]), np.finfo(float).tiny)
    res = float(np.max(np.abs(zsq - eig)) / scale)
    if res > ZAK_GRAM_TOL:
        raise ConsistencyError(
            f"Zak magnitudes in ({az:.6e}, {bz:.6e}) disagree with Gram spectrum "
            f"in ({eig[0]:.6e}, {eig[-1]:.6e}): max relative gap {res:.3e}"
        )
    if max(abs(az - 1.0), abs(bz - 1.0)) <= onb_tol:
        verdict = Verdict.ONB
    elif az > tol:
        verdict = Verdict.RIESZ_BASIS
    else:
        verdict = Verdict.NOT_FRAME
    return FrameReport(
        verdict,
        (az, bz),
        (float(eig[0]), float(eig[-1])),
        None,
        {"zak_vs_gram": res},
        None,
        eig,
    )
