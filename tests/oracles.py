"""Dense reference constructions that the package itself never forms, the
per-value CSV writer that the CLI's one-format-per-table writer replaced, and
the one-expression forms of the family arrays that the package now builds in
place, without extra N x N copies."""

import csv
import io

import numpy as np


def analysis_matrix(fam) -> np.ndarray:
    """Matrix of all coefficient functionals in weighted coordinates.

    Columns correspond to the orthonormal coordinate fields of the weighted
    space (delta at node i, fiber direction j, scaled by sqrt(N / w_i)).
    Rows are indexed (m, n) m-major, columns (i, j) i-major over the support,
    the nodes of positive weight.

    Column (i, j) is ``lambda_all`` applied to that coordinate field, in
    closed form conj(g_m[j]) * quad[n, i] * sqrt(N / w_i): one outer product
    of the two Kronecker factors that ``frame_spectrum`` takes its SVDs of.
    It is the dense NM x NM reference for that factored route.
    """
    fiber, q = fam.basis.fiber_family.conj(), analysis_factor(fam)
    M, (N, S) = fiber.shape[0], q.shape
    return np.einsum("mj,ni->mnij", fiber, q).reshape(M * N, S * M)


def s_map(model, a) -> np.ndarray:
    """S(a) on the model grid as the dense sum over k of a_k e^(-2 pi i k alpha):
    the (2 k_max + 1) x R reference for the FFT evaluation in ``heisenberg``."""
    ks = np.arange(-model.k_max, model.k_max + 1)
    p = np.asarray(a, dtype=complex) @ np.exp(-2j * np.pi * np.outer(ks, model.alpha))
    return np.where(model.support, p, 0.0)


def translate_gram(model) -> np.ndarray:
    """T[k, k'] = (1/R) sum_i w_i e^(2 pi i (k - k') alpha_i) over the support,
    formed entry by entry from the dense exponentials."""
    ks = np.arange(-model.k_max, model.k_max + 1)
    e = np.exp(2j * np.pi * np.outer(ks, model.alpha))
    w = np.where(model.support, model.weights, 0.0)
    return (e * w) @ e.conj().T / model.resolution


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
    """The center-translate family e^(-2 pi i k alpha) of ``heisenberg`` on
    the midpoint grid, k = -R//2 .. R - R//2 - 1, in one expression."""
    alpha = (np.arange(resolution) + 0.5) / resolution
    ks = np.arange(resolution) - resolution // 2
    return np.exp(-2j * np.pi * np.outer(ks, alpha))


def scalar_gram_defect(F: np.ndarray) -> np.ndarray:
    """(F/N) F^H - I, the unweighted scalar Gram's deviation from the identity."""
    N = F.shape[0]
    return (F / N) @ F.conj().T - np.eye(N)


def weighted_scalar_gram(F: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(F w/N) F^H, the weighted scalar Gram factor of the synthesis Gram."""
    return (F * (w / F.shape[0])) @ F.conj().T


def quadrature(fam) -> np.ndarray:
    """The weighted quadrature conj(F) w/N in one expression."""
    return fam.basis.scalar_family.conj() * (fam.space.weights / fam.space.grid_size)


def analysis_factor(fam) -> np.ndarray:
    """The scalar analysis factor q: the full N x N weighted quadrature,
    then its support columns, each scaled by sqrt(N / w_i)."""
    idx = np.flatnonzero(fam.space.support)
    q = quadrature(fam)[:, idx]
    q *= np.sqrt(fam.space.grid_size / fam.space.weights[idx])
    return q


def off_diagonal(a: np.ndarray) -> np.ndarray:
    """``a`` with its diagonal set to zero."""
    return a - np.diag(np.diag(a))


def conjugate_partner(freqs, modulus: int) -> np.ndarray:
    """p(n): the row whose frequency is -freqs[n] mod ``modulus``, the
    conjugate of row n of a dephased Fourier family."""
    r = np.asarray(freqs) % modulus
    row = np.empty(modulus, dtype=int)
    row[r] = np.arange(r.size)
    return row[-r % modulus]


def real_form(F: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """The real form U D F of a family with conjugate row pairing
    ``partner`` in one expression: the dephased self-paired rows, then the
    dephased lower row of each pair, real parts then imaginary parts, each
    paired one times sqrt(2)."""
    n = np.arange(partner.size)
    D = F * np.exp(-1j * np.angle(F[:, :1]))
    fixed, lower = n[partner == n], n[n < partner]
    return np.concatenate(
        [D[fixed].real, np.sqrt(2.0) * D[lower].real, np.sqrt(2.0) * D[lower].imag]
    )


def real_gram(R: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(R w/N) R^T, the weighted scalar Gram of a real form."""
    return (R * (w / R.shape[0])) @ R.T


def complex_frame_spectrum(fam) -> np.ndarray:
    """The frame spectrum from complex SVDs of the two analysis factors, the
    route before the real conjugate-pair fold."""
    s = np.outer(
        np.linalg.svd(fam.basis.fiber_family.conj(), compute_uv=False),
        np.linalg.svd(analysis_factor(fam), compute_uv=False),
    )
    return np.sort(s.ravel()) ** 2


def complex_gram_spectrum(fam) -> np.ndarray:
    """The synthesis-Gram spectrum from complex ``eigvalsh`` of its two
    factors, the route before the real conjugate-pair fold."""
    gf = fam.basis.fiber_family @ fam.basis.fiber_family.conj().T
    gs = weighted_scalar_gram(fam.basis.scalar_family, fam.space.weights)
    return np.sort(np.outer(np.linalg.eigvalsh(gf), np.linalg.eigvalsh(gs)).ravel())
