"""Doubly indexed coefficient operators attached to a tensor family.

For a field f, the pointwise coefficient against G_{m,n} is a scalar grid
function; integrating it against the node weights gives a complex
coefficient functional.  Stacking all the functionals, applied to a
weighted orthonormal coordinate system, yields the analysis matrix whose
singular values squared are the frame-operator spectrum.  With a complete
orthonormal scalar family that spectrum is the weight multiset, each value
repeated once per fiber dimension.  The matrix is a Kronecker product of a
fiber factor and a scalar factor, and the spectrum is computed from the
factors; the dense matrix itself is built only by the tests, as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_onb import TensorBasis
from .wspace import Field, WeightedSpace, _conform, norm, total_mass

__all__ = [
    "OperatorFamily",
    "lambda_tilde",
    "lambda_all",
    "frame_spectrum",
    "parseval_residual",
    "bessel_excess",
]


@dataclass(frozen=True)
class OperatorFamily:
    """A tensor basis bound to the space it analyzes.

    Index ranges: m in [0, M), n in [0, N).
    """

    space: WeightedSpace
    basis: TensorBasis

    def __post_init__(self):
        N, M = self.space.grid_size, self.space.fiber_dim
        if self.basis.scalar_family.shape != (N, N):
            raise ValueError(
                f"scalar family shape {self.basis.scalar_family.shape} "
                f"does not match grid size {N}"
            )
        if self.basis.fiber_family.shape != (M, M):
            raise ValueError(
                f"fiber family shape {self.basis.fiber_family.shape} "
                f"does not match fiber dimension {M}"
            )


def _check_index(fam: OperatorFamily, m: int, n: int) -> None:
    M, N = fam.space.fiber_dim, fam.space.grid_size
    if not (0 <= m < M and 0 <= n < N):
        raise IndexError(f"(m, n) = ({m}, {n}) out of range for ({M}, {N})")


def lambda_tilde(fam: OperatorFamily, m: int, n: int, field: Field) -> np.ndarray:
    """Pointwise coefficient x_i -> <f(x_i), G_{m,n}(x_i)>_fiber.

    Returns a length-N complex array, conj(f_n(x_i)) <f(x_i), g_m>.
    """
    _check_index(fam, m, n)
    _conform(fam.space, field)
    fiber_part = field.values @ fam.basis.fiber_family[m].conj()
    return fam.basis.scalar_family[n].conj() * fiber_part


def _quadrature(fam: OperatorFamily) -> np.ndarray:
    """Entry [n, i] = conj(f_n(x_i)) w_i / N: the weighted quadrature that
    turns fiber coefficients at the nodes into the functional for n."""
    quad = np.conj(fam.basis.scalar_family)
    quad *= fam.space.weights / fam.space.grid_size
    return quad


def _lambda_all(fam: OperatorFamily, quad: np.ndarray, field: Field) -> np.ndarray:
    """``lambda_all`` given the quadrature of ``fam``, so that several fields
    can share one."""
    _conform(fam.space, field)
    V = field.values @ fam.basis.fiber_family.conj().T
    return (quad @ V).T


def lambda_all(fam: OperatorFamily, field: Field) -> np.ndarray:
    """All coefficients at once as an (M, N) array; single-route, vectorized."""
    return _lambda_all(fam, _quadrature(fam), field)


def frame_spectrum(fam: OperatorFamily) -> np.ndarray:
    """Ascending frame-operator spectrum (squared singular values of the
    analysis matrix) on the support of the space, the nodes of positive
    weight: M |S| values, the weight multiset of the support repeated once
    per fiber dimension for a complete orthonormal family.

    The analysis matrix is conj(G) (x) q up to a column permutation, with q
    the N x |S| scalar factor of entries conj(f_n(x_i)) w_i / N scaled by
    sqrt(N / w_i), so its singular values are the pairwise products of
    those of the M x M fiber basis and of F[:, S] sqrt(w_S / N): two small
    SVDs instead of one of the NM x |S|M matrix.  The scalar SVD runs in
    real arithmetic, on the support columns of the basis's real form R,
    which has the singular values of the family on every column set.  R
    is a fixed sparse unitary (the conjugate row pairing, after each row is
    dephased) applied to the family: it diagonalizes nothing, so the SVD
    still checks the weights independently.

    Raises:
        ValueError: if the scalar family is not closed under conjugation.
    """
    idx = np.flatnonzero(fam.space.support)
    real = fam.basis._pairs.real[:, idx]
    real *= np.sqrt(fam.space.weights[idx] / fam.space.grid_size)
    s = np.outer(
        np.linalg.svd(fam.basis.fiber_family, compute_uv=False),
        np.linalg.svd(real, compute_uv=False),
    )
    return np.sort(s.ravel()) ** 2


def parseval_residual(fam: OperatorFamily, field: Field) -> float:
    """Worst relative defect, over n, of sum_m ||lambda_tilde_{m,n} f||^2
    against ||f||^2."""
    space = fam.space
    ns = norm(space, field) ** 2
    if ns == 0.0:
        return 0.0
    V = field.values @ fam.basis.fiber_family.conj().T
    worst = 0.0
    for n in range(space.grid_size):
        lt = fam.basis.scalar_family[n].conj()[:, None] * V
        s = float(
            ((np.abs(lt) ** 2).sum(axis=1) * space.weights).sum() / space.grid_size
        )
        worst = max(worst, abs(s - ns))
    return worst / ns


def bessel_excess(fam: OperatorFamily, field: Field) -> float:
    """Largest amount, over n, by which sum_m |coefficient|^2 exceeds the
    mass bound total_mass * ||f||^2.  Nonpositive means the bound holds."""
    coeffs = lambda_all(fam, field)
    per_n = (np.abs(coeffs) ** 2).sum(axis=0)
    cap = total_mass(fam.space) * norm(fam.space, field) ** 2
    return float(per_n.max() - cap)
