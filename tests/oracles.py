"""Dense reference constructions that the package itself never forms, the
per-value CSV writer that the CLI's one-format-per-table writer replaced,
the one-expression forms of the family arrays that the package now builds in
place, without extra N x N copies, the complex coefficient product, the
whole-grid lattice sum and the ``np.where`` field samples that the
real-form, in-band and in-place routes replaced, and
the single-member fields and pointwise coefficients that only the tests take
apart, the unscaled forms of the inner product and the Bessel excess, and a
family that breaks unimodularity alone."""

import csv
import io

import numpy as np

from framelab import Field, lambda_all, norm, total_mass
from framelab.heisenberg import midpoint_grid
from framelab.tensor_onb import PAIRING_BLOCK
from framelab.wspace import _conform


def _check_index(fam, m: int, n: int) -> None:
    M, N = fam.space.fiber_dim, fam.space.grid_size
    if not (0 <= m < M and 0 <= n < N):
        raise IndexError(f"(m, n) = ({m}, {n}) out of range for ({M}, {N})")


def tensor_field(fam, m: int, n: int) -> Field:
    """The field G_{m,n}(x_i) = f_n(x_i) e_m of the fiber C^M of the space."""
    _check_index(fam, m, n)
    values = np.zeros((fam.space.grid_size, fam.space.fiber_dim), dtype=complex)
    values[:, m] = fam.basis.scalar_family[n]
    return Field(values)


def lambda_tilde(fam, m: int, n: int, field: Field) -> np.ndarray:
    """Pointwise coefficient x_i -> <f(x_i), G_{m,n}(x_i)>_fiber.

    Returns a length-N complex array, conj(f_n(x_i)) f(x_i)[m].
    """
    _check_index(fam, m, n)
    _conform(fam.space, field)
    return fam.basis.scalar_family[n].conj() * field.values[:, m]


def complex_lambda_all(fam, field: Field) -> np.ndarray:
    """``lambda_all`` as one complex product with the family,
    conj(F conj((w/N) V)) with V the field values, the route before the
    real form."""
    space = fam.space
    _conform(space, field)
    V = field.values * (space.weights / space.grid_size)[:, None]
    return np.conj(fam.basis.scalar_family @ V.conj()).T


def lattice_profile(eps: float, d: int, x: np.ndarray, window: int) -> np.ndarray:
    """``heisenberg._lattice_profile`` with the power taken at every shift of
    every node and the out-of-band values dropped by ``np.where``."""
    total = np.zeros_like(x, dtype=float)
    for j in range(-window, window + 1):
        y = x + j
        total += np.where((y > eps) & (y <= 1.0), np.abs(y) ** d, 0.0)
    return total


def analysis_matrix(fam) -> np.ndarray:
    """Matrix of all coefficient functionals in weighted coordinates.

    Columns correspond to the orthonormal coordinate fields of the weighted
    space (delta at node i, fiber direction j, scaled by sqrt(N / w_i)).
    Rows are indexed (m, n) m-major, columns (i, j) i-major over the support,
    the nodes of positive weight.

    Column (i, j) is ``complex_lambda_all`` applied to that coordinate field,
    in closed form delta_{mj} * quad[n, i] * sqrt(N / w_i): the scalar factor
    q, whose Gram q^H q ``frame_spectrum`` diagonalizes in real form, on
    each diagonal block m = j.  It is the dense NM x NM reference for that
    factored route.
    """
    q, M = analysis_factor(fam), fam.space.fiber_dim
    (N, S), m = q.shape, np.arange(M)
    T = np.zeros((M, N, S, M), dtype=complex)
    T[m, :, :, m] = q
    return T.reshape(M * N, S * M)


def s_map(model, a) -> np.ndarray:
    """S(a) on the model grid as the dense sum over k of a_k e^(-2 pi i k alpha):
    the (2 k_max + 1) x R reference for the FFT evaluation in ``heisenberg``."""
    ks = np.arange(-model.k_max, model.k_max + 1)
    alpha = midpoint_grid(model.resolution)
    p = np.asarray(a, dtype=complex) @ np.exp(-2j * np.pi * np.outer(ks, alpha))
    return np.where(model.space.support, p, 0.0)


def where_s_map(model, a) -> np.ndarray:
    """``heisenberg.s_map`` with the off-band samples dropped by ``np.where``
    into a third R-point complex array, not zeroed in the FFT output."""
    R, ks = model.resolution, np.arange(-model.k_max, model.k_max + 1)
    bins = np.zeros(R, dtype=complex)
    np.add.at(bins, ks % R, np.asarray(a, dtype=complex) * np.exp(-1j * np.pi * ks / R))
    return np.where(model.space.support, np.fft.fft(bins), 0.0)


def translate_gram(model) -> np.ndarray:
    """T[k, k'] = (1/R) sum_i w_i e^(2 pi i (k - k') alpha_i) over the support,
    formed entry by entry from the dense exponentials."""
    ks = np.arange(-model.k_max, model.k_max + 1)
    e = np.exp(2j * np.pi * np.outer(ks, midpoint_grid(model.resolution)))
    w = np.where(model.space.support, model.space.weights, 0.0)
    return (e * w) @ e.conj().T / model.resolution


def generator_translate_gram(gen) -> np.ndarray:
    """The N x N Gram of the translates of a ``shiftinv`` generator, by
    time-side quadrature, with every shifted copy of the time samples
    stacked into one N x P array: the dense reference for
    ``shiftinv.translate_gram_spectrum``."""
    step = 2 * gen.radius
    phi_t = gen.time_samples
    V = np.stack([np.roll(phi_t, step * k) for k in range(gen.grid_size)])
    return (V.conj() @ V.T) / step


def unscaled_inner(space, f, g) -> complex:
    """``wspace.inner`` summed under the weights themselves, as it was
    before the sum was taken in power-of-two units."""
    val = np.einsum("ij,ij,i->", f.values, g.values.conj(), space.weights)
    return complex(val / space.grid_size)


def unscaled_bessel_excess(fam, field) -> float:
    """``operators.bessel_excess`` with both terms taken unscaled, as it
    was before they were taken in power-of-two units."""
    per_n = (np.abs(lambda_all(fam, field)) ** 2).sum(axis=0)
    return float(per_n.max() - total_mass(fam.space) * norm(fam.space, field) ** 2)


def csv_text(header, columns) -> str:
    """A table as ``csv.writer`` writes it row by row, each value formatted
    on its own: floats with ``.17g``, anything else with ``str``."""

    def fmt(v) -> str:
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.17g}"
        return str(v)

    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(header)
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    wr.writerows([fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def table_family(freqs, numer, denom: int) -> np.ndarray:
    """exp(2 pi i k m / denom) in one expression, with k m reduced mod
    ``denom`` in integers before the exponential."""
    return np.exp(2j * np.pi * (np.outer(freqs, numer) % denom) / denom)


def dft_family(n: int) -> np.ndarray:
    """The discrete Fourier scalar family of ``build_default`` in one
    expression, with the phase divided by N after the integer product."""
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n)


def grid_family(n: int) -> np.ndarray:
    """``build_default``'s family as exp(2 pi i k x) on the grid x = i/N."""
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k / n))


def translate_family(n: int) -> np.ndarray:
    """The translate family e^(-2 pi i k x) of a ``shiftinv`` run on the grid
    x = i/N in one expression."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k / n))


def midpoint_family(resolution: int) -> np.ndarray:
    """The center-translate family e^(-2 pi i k alpha) on the midpoint grid,
    k = -R//2 .. R - R//2 - 1, in one expression."""
    alpha = (np.arange(resolution) + 0.5) / resolution
    ks = np.arange(resolution) - resolution // 2
    return np.exp(-2j * np.pi * np.outer(ks, alpha))


def walsh_family(n: int) -> np.ndarray:
    """The Sylvester Walsh-Hadamard family of order ``n``, a power of 2: real,
    +-1 and orthonormal, every row its own conjugate."""
    H = np.ones((1, 1))
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def mixed_row_family(n: int) -> np.ndarray:
    """The discrete Fourier family of even order ``n`` with rows 0 and n/2
    replaced by (f_0 +- f_(n/2)) / sqrt(2).  Both new rows are real, so the
    family is closed under conjugation, and a rotation of two orthonormal
    rows keeps it an isometry, but its entries there are 0 and sqrt(2): it
    is not unimodular, with residual max abs(|F| - 1) = 1."""
    F = dft_family(n)
    h = n // 2
    F[0], F[h] = (F[0] + F[h]) / np.sqrt(2.0), (F[0] - F[h]) / np.sqrt(2.0)
    return F


def scalar_gram_defect(F: np.ndarray) -> np.ndarray:
    """(F/N) F^H - I, the unweighted scalar Gram's deviation from the identity."""
    N = F.shape[0]
    return (F / N) @ F.conj().T - np.eye(N)


def weighted_scalar_gram(F: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(F w/N) F^H, the weighted scalar Gram factor of the synthesis Gram."""
    return (F * (w / F.shape[0])) @ F.conj().T


def analysis_factor(fam) -> np.ndarray:
    """The scalar analysis factor q: the support columns of conj(F), each
    scaled by sqrt(N / w_i) (w_i / N), the factor that ``lambda_all`` puts
    on the coordinate field of node i."""
    idx = np.flatnonzero(fam.space.support)
    N, w = fam.space.grid_size, fam.space.weights[idx]
    return fam.basis.scalar_family[:, idx].conj() * (np.sqrt(N / w) * (w / N))


def off_diagonal(a: np.ndarray) -> np.ndarray:
    """``a`` with its diagonal set to zero."""
    return a - np.diag(np.diag(a))


def conjugate_partner(freqs, modulus: int) -> np.ndarray:
    """p(n): the row whose frequency is -freqs[n] mod ``modulus``, the
    conjugate of row n of a Fourier family."""
    r = np.asarray(freqs) % modulus
    row = np.empty(modulus, dtype=int)
    row[r] = np.arange(r.size)
    return row[-r % modulus]


def real_form(F: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """The Hartley form of a family with conjugate row pairing ``partner``:
    Re f_n + Im f_n on each row n, and Re f_n - Im f_n on row p(n) for each
    pair n < p(n), as the basis writes it from the lower row alone."""
    n = np.arange(partner.size)
    lower = n[n < partner]
    R = F.real + F.imag
    R[partner[lower]] = F[lower].real - F[lower].imag
    return R


def hartley_unitary(partner: np.ndarray) -> np.ndarray:
    """U = ((1 - i) I + (1 + i) P) / 2, P the permutation of ``partner``,
    the unitary that maps a family to its Hartley form, R = U F."""
    eye = np.eye(partner.size)
    return ((1 - 1j) * eye + (1 + 1j) * eye[partner]) / 2


def real_gram(R: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(R w/N) R^T, the weighted scalar Gram of a real form."""
    return (R * (w / R.shape[0])) @ R.T


def moduli(form, g: np.ndarray) -> tuple:
    """``_HartleyForm.moduli`` on the whole real Gram ``g`` at once: the
    diagonal and the largest off-diagonal modulus of H = U^H g U, whose
    entry [n, m] has the modulus hypot(g[n, m] + g[p(n), p(m)],
    g[n, p(m)] - g[p(n), m]) / 2."""
    p = form.partner
    d = np.diag(g)
    off = np.hypot(g + g[p][:, p], g[:, p] - g[p])
    np.fill_diagonal(off, 0.0)
    return (d + d[p]) / 2, float(np.max(off, initial=0.0)) / 2


def gram_by_row_blocks(R: np.ndarray, w) -> np.ndarray:
    """(R w/N) R^T formed ``PAIRING_BLOCK`` rows at a time from the first,
    as R[idx] w/N times R^T."""
    N = R.shape[0]
    g = np.empty((N, N))
    for start in range(0, N, PAIRING_BLOCK):
        idx = slice(start, start + PAIRING_BLOCK)
        g[idx] = (R[idx] * (w / N)) @ R.T
    return g


def complex_frame_spectrum(fam) -> np.ndarray:
    """The frame spectrum from a complex SVD of the scalar analysis factor,
    each value M times: an oracle by another algorithm than the eigvalsh
    of the real frame operator that ``frame_spectrum`` takes."""
    s = np.linalg.svd(analysis_factor(fam), compute_uv=False)
    return np.sort(np.tile(s, fam.space.fiber_dim)) ** 2


def complex_gram_spectrum(fam) -> np.ndarray:
    """The synthesis-Gram spectrum from a complex ``eigvalsh`` of the
    weighted scalar Gram, each value M times, the route before the real
    conjugate-pair fold."""
    gs = weighted_scalar_gram(fam.basis.scalar_family, fam.space.weights)
    return np.repeat(np.linalg.eigvalsh(gs), fam.space.fiber_dim)


def gabor_gram_spectrum(phi, N: int, L: int) -> np.ndarray:
    """The Gabor Gram spectrum with the L x L x N products of all shifts
    formed at once: the one-chunk form of ``shiftinv.gabor_gram_spectrum``."""
    blocks = np.asarray(phi, dtype=complex).reshape(L, N)
    shifted = blocks[(np.arange(L)[None, :] - np.arange(L)[:, None]) % L]
    folded = (shifted * blocks.conj()[None]).sum(axis=1)
    column = np.fft.ifft(folded, axis=1).T
    return np.sort(np.fft.fft2(column).real, axis=None)
