"""Doubly indexed coefficient operators attached to a tensor family.

For a field f, the pointwise coefficient against G_{m,n} is a scalar grid
function; integrating it against the node weights gives a complex
coefficient functional.  Stacking all the functionals, applied to a
weighted orthonormal coordinate system, yields the analysis matrix T; the
eigenvalues of the frame operator S = T*T are the frame-operator spectrum.
With a complete orthonormal scalar family that spectrum is the weight
multiset, each value repeated once per fiber dimension.  The fiber only
repeats each scalar value M times, so the spectrum is computed from the
scalar factor alone; the dense matrix itself is built only by the tests,
as an oracle.
``lambda_all`` and ``frame_spectrum`` read the basis's form alone, the real
fold R of a Fourier basis whose integers pair its rows or else the family
F itself; of this module only the reference check ``parseval_residual``
reads ``scalar_family``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_onb import TensorBasis, _check_hypothesis, _isometry_residual
from .wspace import Field, WeightedSpace, _conform, _scaled_norm, total_mass

__all__ = [
    "OperatorFamily",
    "lambda_all",
    "frame_spectrum",
    "parseval_residual",
    "bessel_excess",
]


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """A scalar basis bound to the space it analyzes, whose fiber C^M the
    basis is tensored with.

    Index ranges: m in [0, M), n in [0, N), with M the space's fiber_dim.
    """

    space: WeightedSpace
    basis: TensorBasis

    def __post_init__(self):
        N, n = self.space.grid_size, self.basis.grid_size  # the family is square
        if n != N:
            raise ValueError(f"scalar family shape {(n, n)} does not match grid size {N}")


def lambda_all(fam: OperatorFamily, field: Field) -> np.ndarray:
    """All coefficient functionals at once, as an (M, N) array: entry [m, n]
    is (1/N) sum_i conj(f_n(x_i)) w_i f(x_i)[m].

    With V the N x M field values, this is conj(F W) with
    W = conj((w/N) V), and F W is the basis's form applied to W: one real
    product y = R W on the float64 view of W, then U^H y in O(N M), for a
    Hartley form R = U F (``_HartleyForm.apply``), else the complex
    product F W.  No N x N array beside the form is read or
    made.  Every coefficient energy of the package (witness ratios,
    Parseval probes, the Bessel bound) goes through here.

    Raises:
        ValueError: if the family is not unimodular.
    """
    space = fam.space
    _conform(space, field)
    # C order, since the real fold reads the float64 view of W
    scale = (space.weights / space.grid_size)[:, None]
    W = np.multiply(field.values, scale, order="C")
    np.conj(W, out=W)
    return np.conj(fam.basis._form.apply(W)).T


def _unit_energy(fam: OperatorFamily, field: Field, skip_null: bool = False) -> tuple:
    """(|c|^2, ||g||^2) for g the field divided by 2^(e//4), 2^e the space's
    unit, and c its ``lambda_all`` coefficients divided by 2^e: (M, N)
    energies and a squared norm in range for every weight the space
    accepts.  With ``skip_null`` a zero norm forms no coefficient (None)."""
    e = fam.space.unit_exponent
    scaled = Field(field.values * np.ldexp(1.0, -(e // 4)))
    norm_sq = _scaled_norm(fam.space, scaled) ** 2
    if skip_null and norm_sq == 0.0:
        return None, norm_sq
    coeffs = lambda_all(fam, scaled) * np.ldexp(1.0, -e)
    return np.abs(coeffs) ** 2, norm_sq


def frame_spectrum(fam: OperatorFamily) -> np.ndarray:
    """Ascending frame-operator spectrum (the eigenvalues of S = T*T, T the
    analysis matrix) on the support of the space, the nodes of positive
    weight: M |S| values, the weight multiset of the support repeated once
    per fiber dimension for a complete orthonormal family.

    The analysis matrix is I_M (x) q up to a column permutation, with q
    the N x |S| scalar factor of entries conj(f_n(x_i)) w_i / N scaled by
    sqrt(N / w_i), so S is I_M (x) q^H q: one |S| x |S| eigensolve, each
    value repeated M times.  It runs on the support columns X of the
    basis's form, which has the Gram of the family on every column set:
    q^H q = conj(D X^H X D) with D = diag(sqrt(w_S / N)), which has the
    same spectrum.  X^H X (``_support_gram``, which checks the isometry on
    it first) is one product, and ``eigvalsh`` reads its lower triangle
    once D has scaled its rows and columns in place.  A real fold R is a
    fixed sparse unitary (the Hartley form of the conjugate row pairing)
    applied to the family, so the product runs in real arithmetic; it
    diagonalizes nothing, so the eigensolve still checks the weights
    independently.

    D is taken from the space's unit weights w_S / 2^e, and the eigenvalues
    are multiplied back by 2^e, so the eigensolve sees a matrix of norm
    near 1.

    Raises:
        ValueError: if the family is not unimodular or not an isometry on
            the support columns.
    """
    space = fam.space
    gram, idx = _support_gram(fam)
    d = np.sqrt(space.unit_weights[idx] / space.grid_size)
    gram *= d
    gram *= d[:, None]
    spec = np.ldexp(np.linalg.eigvalsh(gram), space.unit_exponent)
    return np.repeat(spec, space.fiber_dim)


def _support_gram(fam: OperatorFamily) -> tuple:
    """(X^H X, idx): the column Gram of the support columns X = A[:, idx] of
    the basis's form A, the frame operator before the weight, once the
    family has passed the isometry hypothesis on it, max |X^H X / N - I|
    <= ``HYPOTHESIS_TOL`` (``_isometry_residual``).  A real fold R has
    R^T R = F^H F, so this is the column Gram of the family itself.  Every
    quantity of a run lives on the support (a zero-weight column enters no
    coefficient, Gram entry or spectrum), so the hypothesis is needed there
    only.  On a real fold ``conj`` returns X itself, so X^T X is one
    symmetric product (BLAS syrk), of R itself on a full support, so no
    scaled copy of R is made, and the check reads it in place.

    Raises:
        ValueError: if the family is not unimodular or not an isometry on
            the support columns.
    """
    space = fam.space
    A = fam.basis._form.matrix
    idx = np.flatnonzero(space.support)
    cols = A if idx.size == A.shape[1] else A[:, idx]
    gram = cols.conj().T @ cols
    del cols  # the support copy goes before the eigensolve
    residual = _isometry_residual(gram, space.grid_size)
    _check_hypothesis("scalar orthonormality", residual)
    return gram, idx


def parseval_residual(fam: OperatorFamily, field: Field) -> float:
    """Worst relative defect, over n, of the energy sum_m ||c_{m,n}||^2 of the
    pointwise coefficients c_{m,n}(x_i) = conj(f_n(x_i)) f(x_i)[m]
    against ||f||^2, both taken under the space's unit weights, so its
    energies stay in range for every weight the space accepts."""
    space = fam.space
    ns = _scaled_norm(space, field) ** 2
    if ns == 0.0:
        return 0.0
    w = space.unit_weights
    F, worst = fam.basis.scalar_family, 0.0
    for n in range(space.grid_size):
        lt = F[n].conj()[:, None] * field.values
        s = float(((np.abs(lt) ** 2).sum(axis=1) * w).sum() / space.grid_size)
        worst = max(worst, abs(s - ns))
    return worst / ns


def bessel_excess(fam: OperatorFamily, field: Field) -> float:
    """Largest amount, over n, by which sum_m |coefficient|^2 exceeds the
    mass bound total_mass * ||f||^2.  Nonpositive means the bound holds.

    Both terms come from ``_unit_energy``, the mass divided by 2^e, 2^e the
    space's unit: in units of 2^(2e + 2(e//4)), in range for every weight
    the space accepts.  The excess is multiplied back by that unit, so one
    beyond the float range is infinite, never NaN.
    """
    space = fam.space
    e = space.unit_exponent
    energy, norm_sq = _unit_energy(fam, field)
    cap = np.ldexp(total_mass(space), -e) * norm_sq
    with np.errstate(over="ignore"):
        return float(np.ldexp(energy.sum(axis=0).max() - cap, 2 * (e + e // 4)))
