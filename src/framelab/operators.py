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

from .errors import ConsistencyError
from .tensor_onb import TensorBasis, tensor_field
from .wspace import Field, WeightedSpace, _conform, inner, norm, total_mass

__all__ = [
    "OperatorFamily",
    "lambda_tilde",
    "lambda_coeff",
    "lambda_all",
    "frame_spectrum",
    "parseval_residual",
    "bessel_excess",
]

DUAL_FORMULA_TOL = 1e-12


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


def lambda_coeff(fam: OperatorFamily, m: int, n: int, field: Field) -> complex:
    """Coefficient functional: quadrature of lambda_tilde against the weight.

    Computes the value two ways, as the weighted integral of the pointwise
    coefficient and as the weighted inner product <f, G_{m,n}>, and requires
    them to agree.

    Raises:
        ConsistencyError: if the two routes differ beyond 1e-12 (scaled).
    """
    space = fam.space
    v_int = complex(
        (lambda_tilde(fam, m, n, field) * space.weights).sum() / space.grid_size
    )
    v_ip = inner(space, field, tensor_field(fam.basis, m, n))
    scale = max(
        1.0,
        float(
            (np.linalg.norm(field.values, axis=1) * space.weights).sum()
            / space.grid_size
        ),
    )
    if abs(v_int - v_ip) > DUAL_FORMULA_TOL * scale:
        raise ConsistencyError(
            f"coefficient routes disagree at (m, n) = ({m}, {n}): {v_int} vs {v_ip}"
        )
    return v_int


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


def _analysis_factors(fam: OperatorFamily, rows=None) -> tuple:
    """Kronecker factors of the analysis matrix.

    Returns the fiber factor conj(G) (M x M, entry [m, j] = conj(g_m[j]))
    and the scalar factor q (N x |S|, entry [n, i] = quad[n, i] *
    sqrt(N / w_i) over the support S, the nodes of positive weight), with
    ``quad`` the weighted quadrature ``lambda_all`` uses, formed on the
    support columns only and on the scalar ``rows`` only, all of them by
    default.  The analysis matrix is their Kronecker product up to a
    permutation of its columns.
    """
    idx = np.flatnonzero(fam.space.support)
    N, w = fam.space.grid_size, fam.space.weights[idx]
    F = fam.basis.scalar_family
    q = F[:, idx] if rows is None else F[np.ix_(rows, idx)]
    np.conjugate(q, out=q)
    q *= w / N
    q *= np.sqrt(N / w)
    return fam.basis.fiber_family.conj(), q


def frame_spectrum(fam: OperatorFamily) -> np.ndarray:
    """Ascending frame-operator spectrum (squared singular values of the
    analysis matrix) on the support of the space, the nodes of positive
    weight: M |S| values, the weight multiset of the support repeated once
    per fiber dimension for a complete orthonormal family.

    The analysis matrix is conj(G) (x) q up to a column permutation, so its
    singular values are the pairwise products of those of the M x M fiber
    factor and the N x |S| scalar factor: two small SVDs instead of one of
    the NM x |S|M matrix.  The scalar family is closed under conjugation,
    so a fixed sparse unitary (the basis's conjugate row pairing, after
    each row is dephased) turns q into a real matrix with the same singular
    values, built from half its rows: the SVD runs in real arithmetic, on
    the entries of q themselves.  It is not an FFT route: the fold never
    diagonalizes anything, so the SVD still checks the weights
    independently.

    Raises:
        ValueError: if the scalar family is not closed under conjugation.
    """
    pairs = fam.basis._pairs
    fiber, q = _analysis_factors(fam, pairs.rows)
    q *= np.conj(pairs.phase[pairs.rows, None])
    real = np.empty((fam.space.grid_size, q.shape[1]))
    pairs.fold(q, real)
    del q
    s = np.outer(
        np.linalg.svd(fiber, compute_uv=False), np.linalg.svd(real, compute_uv=False)
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
