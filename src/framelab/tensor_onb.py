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
# Rows of the family compared at a time when the conjugate pairing is verified.
PAIRING_BLOCK = 128


@dataclass(frozen=True)
class TensorBasis:
    """Scalar family (rows f_n over the grid) and fiber family (rows g_m).

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
        unweighted quadrature (1/N) sum_i f_n conj(f_n')."""
        N = self.grid_size
        gram = _weighted_gram(self.scalar_family, 1.0 / N)
        gram[np.diag_indices(N)] -= 1.0
        return float(np.max(np.abs(gram)))

    def fiber_gram_residual(self) -> float:
        G = self.fiber_family
        gram = G @ G.conj().T
        return float(np.max(np.abs(gram - np.eye(self.fiber_dim))))

    @cached_property
    def _pairs(self) -> _ConjugatePairs:
        """The conjugate row pairing of the scalar family, found and verified
        once per basis."""
        return _conjugate_pairs(self.scalar_family)


@dataclass(frozen=True)
class _ConjugatePairs:
    """Row pairing n <-> p(n) of a scalar family closed under conjugation.

    Attributes:
        phase: conj(f_n(x_0)) / |f_n(x_0)|; row n times its phase is the
            dephased row, and dephased row p(n) is the conjugate of
            dephased row n.
        rows: the self-paired rows (real once dephased), then the lower row
            of each pair.
        partners: p(n) for the paired rows, in the order of ``rows``.
        n_self: the number of self-paired rows.
    """

    phase: np.ndarray
    rows: np.ndarray
    partners: np.ndarray
    n_self: int

    def fold(self, h: np.ndarray, out: np.ndarray, start: int = 0) -> None:
        """Write into ``out`` the real rows U h of a dephased array whose row
        p(n) is the conjugate of row n, given as its ``rows``, or as the
        block ``rows[start : start + len(h)]`` of them.

        U is the unitary that keeps a self-paired row and sends a pair to
        (e_n + e_p)/sqrt(2) and (e_n - e_p)/(i sqrt(2)).  Row j of U h is
        the real part of h[j] for a self-paired row, else sqrt(2) times
        it, and row len(rows) + j - n_self is sqrt(2) times the imaginary
        part of a paired h[j].
        """
        stop, k, ns = start + h.shape[0], self.rows.size, self.n_self
        first = max(start, ns)  # the first paired row of the block
        out[start:stop] = h.real
        out[first:stop] *= np.sqrt(2.0)
        imag = out[k + first - ns : k + stop - ns]
        np.multiply(h[first - start :].imag, np.sqrt(2.0), out=imag)


def _conjugate_pairs(F: np.ndarray) -> _ConjugatePairs:
    """Find the conjugate row pairing of F and verify it over the whole array.

    Once each row is dephased by its first entry, a family closed under
    conjugation has for each row n a row p(n) equal to its conjugate.  The
    partner is matched on one column, the second, and the match is then
    checked on every entry, ``PAIRING_BLOCK`` rows at a time.  For the
    Fourier families f_k(x_i) = exp(2 pi i k x_i) on R nodes spaced 1/R
    apart with R consecutive frequencies, p is k -> -k mod R.

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
    res = 0.0 if np.array_equal(p[p], n) else np.inf  # p must be an involution
    for r0 in range(0, N, PAIRING_BLOCK):
        blk = slice(r0, r0 + PAIRING_BLOCK)
        d = F[p[blk]] * phase[p[blk], None]
        d -= np.conj(F[blk] * phase[blk, None])
        res = max(res, float(np.max(np.abs(d))))
    if not res <= HYPOTHESIS_TOL:  # a NaN residual fails too
        raise ValueError(f"family violates conjugate symmetry (residual {res:.3e})")
    fixed, lower = np.flatnonzero(p == n), np.flatnonzero(n < p)
    return _ConjugatePairs(phase, np.concatenate([fixed, lower]), p[lower], fixed.size)


def _weighted_gram(F: np.ndarray, s) -> np.ndarray:
    """(F s) @ F^H for a scalar or per-column weight s, formed as
    conj((conj(F) s) @ F^T): the same bits, without a conjugated copy of F."""
    a = np.conj(F)
    a *= s
    g = a @ F.T
    return np.conjugate(g, out=g)


def fourier_family(freqs, nodes) -> np.ndarray:
    """The exponential family exp(2 pi i k x), row k over the nodes x.

    R consecutive integer frequencies on R nodes spaced 1/R apart are
    orthonormal under the unweighted quadrature.  The array is formed in one
    buffer and is read-only, so a ``TensorBasis`` holds it without a copy.
    """
    family = 2j * np.pi * np.outer(freqs, nodes)
    np.exp(family, out=family)
    family.setflags(write=False)
    return family


def build_default(grid_size: int, fiber_dim: int) -> TensorBasis:
    """Discrete Fourier scalar family with the standard fiber basis.

    f_n(x_i) = exp(2 pi i n x_i) on the grid x_i = i/N, and g_m is the
    standard basis of C^M.
    """
    n = np.arange(grid_size)
    scalar = fourier_family(n, n / grid_size)
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
