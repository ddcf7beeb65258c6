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

import numpy as np

from .wspace import Field, _readonly

__all__ = ["TensorBasis", "build_default", "fourier_family", "tensor_field"]


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
