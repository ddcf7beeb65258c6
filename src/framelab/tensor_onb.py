"""Tensor families built from a scalar function family and a fiber basis.

A scalar family {f_n} on the grid and a vector family {g_m} in the fiber
combine into the fields G_{m,n}(x_i) = f_n(x_i) g_m.  With the discrete
Fourier family and the standard fiber basis this is a unimodular
orthonormal system of the unweighted space, and it is the family the
analyzer works with: the node weight enters through the quadrature, not
through the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .wspace import Field, _readonly

__all__ = ["TensorBasis", "build_default", "fourier_family", "tensor_field"]

HYPOTHESIS_TOL = 1e-9
# Rows of the family dephased, checked and folded at a time, so that building
# the real form adds no N x N complex temporary to the family.
PAIRING_BLOCK = 128


@dataclass(frozen=True)
class TensorBasis:
    """Scalar family (rows f_n over the grid) and fiber family (rows g_m).

    The first use of the scalar family's real form (``_pairs``, needed by
    ``scalar_gram_residual`` and by both spectral routes) finds its
    conjugate row pairing, checks it on every entry and builds the
    read-only real form R = U D F once; the basis keeps it, so every N x N
    product of a run takes the real form, at a quarter of the flops of a
    complex one.

    Attributes:
        scalar_family: (N, N) complex array, entry [n, i] = f_n(x_i).
        fiber_family: (M, M) complex array, row m = g_m.
    """

    scalar_family: np.ndarray
    fiber_family: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scalar_family, dtype=complex)
        g = np.asarray(self.fiber_family, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("scalar_family must be a square 2-d array")
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("fiber_family must be a square 2-d array")
        object.__setattr__(self, "scalar_family", _readonly(s))
        object.__setattr__(self, "fiber_family", _readonly(g))

    @property
    def grid_size(self) -> int:
        return self.scalar_family.shape[0]

    @property
    def fiber_dim(self) -> int:
        return self.fiber_family.shape[0]

    def unimodularity_residual(self) -> float:
        """max_i,n abs(|f_n(x_i)| - 1)."""
        r = np.abs(self.scalar_family)
        r -= 1.0
        return float(np.max(np.abs(r, out=r)))

    def scalar_gram_residual(self) -> float:
        """Deviation of the scalar Gram from the identity under the
        unweighted quadrature (1/N) sum_i f_n conj(f_n'): the largest modulus
        of an entry of (F/N) F^H - I, read off the real Gram R R^T / N of
        the real form R.

        Raises:
            ValueError: if the family is not closed under conjugation.
        """
        pairs = self._pairs
        gram = pairs.real @ pairs.real.T
        gram /= self.grid_size
        diag, off = pairs.moduli(gram)
        return max(float(np.max(np.abs(diag - 1.0))), off)

    def fiber_gram_residual(self) -> float:
        G = self.fiber_family
        gram = G @ G.conj().T
        return float(np.max(np.abs(gram - np.eye(self.fiber_dim))))

    @cached_property
    def _pairs(self) -> _ConjugatePairs:
        """The conjugate row pairing of the scalar family and its real form,
        found, verified and built once per basis."""
        return _conjugate_pairs(self.scalar_family)


@dataclass(frozen=True)
class _ConjugatePairs:
    """The real form of a scalar family F closed under conjugation.

    Once each row is dephased by its first entry (D, a diagonal of unit
    moduli), the family has for each row n a row p(n) equal to its
    conjugate.  U is the unitary that keeps a self-paired row and sends a
    pair n < p to (e_n + e_p)/sqrt(2) and (e_n - e_p)/(i sqrt(2)), so
    R = U D F is real, and R^T R = F^H F: R has the singular values of F on
    every column set, and under node weights w its Gram R w R^T has the
    spectrum of F w F^H.  U and D regroup entries and diagonalize nothing,
    so a spectrum taken on R is still a dense decomposition of the family.

    Attributes:
        real: read-only N x N array R.  Its rows are the real parts of the
            ``n_self`` dephased self-paired rows, then sqrt(2) times the
            real parts of the dephased lower rows n of the pairs, then
            sqrt(2) times their imaginary parts, in the same order.
        n_self: the number of self-paired rows.
    """

    real: np.ndarray
    n_self: int

    def moduli(self, g: np.ndarray) -> tuple:
        """(diagonal, largest off-diagonal modulus) of the complex Gram
        H = D F w F^H D^H whose real fold U H U^H is the symmetric ``g``.

        Dephasing changes no modulus and no diagonal entry, so these are the
        diagonal and the off-diagonal moduli of F w F^H itself.  H = U^H g U
        is read off the 2 x 2 blocks of ``g`` in O(N^2): with a, b the real
        rows of a pair (n, p) and s a self-paired row, H[s, s'] = g[s, s'],
        |H[n, s]| = |g[a, s] + i g[b, s]| / sqrt(2), and for two pairs
        H[n, n'] = (g[a, a'] + g[b, b'] + i (g[b, a'] - g[a, b'])) / 2 and
        H[n, p'] = (g[a, a'] - g[b, b'] + i (g[b, a'] + g[a, b'])) / 2;
        the rows p are their conjugates.  The diagonal follows the rows of
        the real form: the self-paired rows, then each pair twice, as
        H[n, n] = H[p, p].
        """
        ns = self.n_self
        k = (g.shape[0] + ns) // 2  # the first imaginary-part row
        s, a, b = slice(0, ns), slice(ns, k), slice(k, None)
        gaa, gbb, gab, gba = g[a, a], g[b, b], g[a, b], g[b, a]
        pair_diag = (np.diag(gaa) + np.diag(gbb)) / 2
        diag = np.concatenate([np.diag(g)[s], pair_diag, pair_diag])
        # With max|g| < 2^e, each x, y below is under 2^(e+1) in modulus:
        # scaled by 2^-(e+1), which rounds nothing, no square overflows.
        scale = np.ldexp(1.0, -1 - int(np.frexp(max(g.max(), -g.min()))[1]))

        def largest(x: np.ndarray, y: np.ndarray, skip_diagonal=False) -> float:
            """max |x + i y| over two arrays, which it overwrites."""
            x *= scale
            x *= x
            y *= scale
            y *= y
            x += y
            if skip_diagonal:
                np.fill_diagonal(x, 0.0)
            return float(np.sqrt(np.max(x, initial=0.0))) / scale

        selfs = np.abs(g[s, s])
        np.fill_diagonal(selfs, 0.0)
        off = max(
            float(np.max(selfs, initial=0.0)),
            largest(np.array(g[a, s]), np.array(g[b, s])) * np.sqrt(0.5),
            largest(gaa + gbb, gba - gab, skip_diagonal=True) / 2,
            largest(gaa - gbb, gba + gab) / 2,
        )
        return diag, off


def _conjugate_pairs(F: np.ndarray) -> _ConjugatePairs:
    """Find the conjugate row pairing of F, verify it on every entry and
    fold F to its real form, ``PAIRING_BLOCK`` rows at a time.

    The partner p(n) of each row is matched on one column, the second, of
    the dephased family.  The match is then checked on every entry: dephased
    row p(n) against the conjugate of dephased row n, for each self-paired
    row and the lower row of each pair (the upper row's difference is minus
    the conjugate of it).  For the Fourier families
    f_k(x_i) = exp(2 pi i k x_i) on R nodes spaced 1/R apart with R
    consecutive frequencies, p is k -> -k mod R.

    Raises:
        ValueError: if the family is not closed under conjugation.
    """
    N = F.shape[0]
    phase = np.exp(-1j * np.angle(F[:, 0]))
    z = F[:, min(1, N - 1)] * phase
    # the partner's entry has the opposite angle: take the nearer of its two
    # neighbours among the sorted angles, wrapping around at +-pi
    ang = np.angle(z)
    order = np.argsort(ang)
    pos = np.searchsorted(ang[order], -ang)
    cand = order[np.stack([(pos - 1) % N, pos % N])]
    n = np.arange(N)
    p = cand[np.argmin(np.abs(z[cand] - z.conj()), axis=0), n]
    if not np.array_equal(p[p], n):  # p must be an involution
        raise ValueError("family violates conjugate symmetry (residual inf)")
    fixed, lower = np.flatnonzero(p == n), np.flatnonzero(n < p)
    rows, ns = np.concatenate([fixed, lower]), fixed.size
    k, res = rows.size, []
    real = np.empty(F.shape)
    for start in range(0, k, PAIRING_BLOCK):
        blk = rows[start : start + PAIRING_BLOCK]
        h = F[blk] * phase[blk, None]
        d = F[p[blk]] * phase[p[blk], None]
        d.real -= h.real  # d - conj(h), which is 2i Im(h) on a self-paired row
        d.imag += h.imag
        res.append(np.max(np.abs(d)))
        stop, first = start + blk.size, max(start, ns)  # first paired row
        real[start:stop] = h.real
        real[first:stop] *= np.sqrt(2.0)
        imag = real[k + first - ns : k + stop - ns]
        np.multiply(h[first - start :].imag, np.sqrt(2.0), out=imag)
    res = float(np.max(res))
    if not res <= HYPOTHESIS_TOL:  # a NaN residual fails too
        raise ValueError(f"family violates conjugate symmetry (residual {res:.3e})")
    real.setflags(write=False)
    return _ConjugatePairs(real, ns)


def fourier_family(freqs, numer, denom: int) -> np.ndarray:
    """The exponential family exp(2 pi i k m / denom), row k over the node
    numerators m, for integer frequencies ``freqs`` and numerators ``numer``.

    Each product k m is reduced mod ``denom`` in int64 and the entry is read
    from one table of the ``denom`` roots of unity exp(2 pi i j / denom),
    0 <= j < denom, so no phase argument exceeds 2 pi and every entry is a
    root of unity to rounding, whatever the size of k m.  R consecutive
    frequencies on R nodes spaced 1/R apart are orthonormal under the
    unweighted quadrature.  The array is formed in one buffer and is
    read-only, so a ``TensorBasis`` holds it without a copy.
    """
    idx = np.multiply.outer(np.asarray(freqs, np.int64), np.asarray(numer, np.int64))
    np.remainder(idx, denom, out=idx)
    roots = np.exp(2j * np.pi * np.arange(denom) / denom)
    family = roots[idx]
    family.setflags(write=False)
    return family


def build_default(grid_size: int, fiber_dim: int) -> TensorBasis:
    """Discrete Fourier scalar family with the standard fiber basis.

    f_n(x_i) = exp(2 pi i n i / N) on the grid x_i = i/N, and g_m is the
    standard basis of C^M.
    """
    n = np.arange(grid_size)
    scalar = fourier_family(n, n, grid_size)
    return TensorBasis(scalar, np.eye(fiber_dim, dtype=complex))


def tensor_field(basis: TensorBasis, m: int, n: int) -> Field:
    """The field G_{m,n}(x_i) = f_n(x_i) g_m."""
    N, M = basis.grid_size, basis.fiber_dim
    if not (0 <= m < M and 0 <= n < N):
        raise IndexError(f"(m, n) = ({m}, {n}) out of range for ({M}, {N})")
    return Field(np.outer(basis.scalar_family[n], basis.fiber_family[m]))


def _field_matrix(basis: TensorBasis) -> np.ndarray:
    """All G_{m,n} flattened: row (m, n) m-major, column (i, j) i-major."""
    N, M = basis.grid_size, basis.fiber_dim
    stack = np.einsum("mj,ni->mnij", basis.fiber_family, basis.scalar_family)
    return stack.reshape(M * N, N * M)
