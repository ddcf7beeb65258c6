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

from .wspace import Field, WeightedSpace, _conform, _readonly

__all__ = [
    "TensorBasis",
    "build_default",
    "tensor_field",
    "coefficients",
    "verify_tensor_onb",
]


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
        return float(np.max(np.abs(np.abs(self.scalar_family) - 1.0)))

    def scalar_gram_residual(self) -> float:
        """Deviation of the scalar Gram from the identity under the
        unweighted quadrature (1/N) sum_i f_n conj(f_n')."""
        F = self.scalar_family
        N = self.grid_size
        gram = (F / N) @ F.conj().T
        return float(np.max(np.abs(gram - np.eye(N))))

    def fiber_gram_residual(self) -> float:
        G = self.fiber_family
        gram = G @ G.conj().T
        return float(np.max(np.abs(gram - np.eye(self.fiber_dim))))


def build_default(grid_size: int, fiber_dim: int) -> TensorBasis:
    """Discrete Fourier scalar family with the standard fiber basis.

    f_n(x_i) = exp(2 pi i n i / N) is unimodular and orthonormal under the
    unweighted quadrature; g_m is the standard basis of C^M.
    """
    n = np.arange(grid_size)
    scalar = np.exp(2j * np.pi * np.outer(n, n) / grid_size)
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


def coefficients(space: WeightedSpace, basis: TensorBasis, field: Field) -> np.ndarray:
    """Weighted inner products <field, G_{m,n}> as an (M, N) array."""
    _conform(space, field)
    return np.einsum(
        "ij,ni,mj,i->mn",
        field.values,
        basis.scalar_family.conj(),
        basis.fiber_family.conj(),
        space.weights,
    ) / space.grid_size


def verify_tensor_onb(space: WeightedSpace, basis: TensorBasis) -> float:
    """Largest deviation of the full tensor Gram from the identity.

    Brute-forces the (N*M) x (N*M) Gram of all G_{m,n} under the unweighted
    quadrature inner product.

    Raises:
        ValueError: unless the space carries unit weight everywhere.
    """
    if np.max(np.abs(space.weights - 1.0)) > 1e-12:
        raise ValueError("verify_tensor_onb expects unit weight at every node")
    if (basis.grid_size, basis.fiber_dim) != (space.grid_size, space.fiber_dim):
        raise ValueError("basis dimensions do not match the space")
    V = _field_matrix(basis)
    gram = V @ V.conj().T / space.grid_size
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
