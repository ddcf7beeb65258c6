"""Scalar function families on the grid, tensored with the fiber of a space.

A scalar family {f_n} on the grid and the standard basis {e_m} of the
fiber C^M of the space combine into the fields G_{m,n}(x_i) = f_n(x_i) e_m.
With the discrete Fourier family this is a unimodular orthonormal system
of the unweighted space, and it is the family the analyzer works with: the
node weight enters through the quadrature, not through the family.  The
fiber dimension M belongs to the space alone; no verdict depends on the
fiber basis, so the fiber only repeats each value M times.

A family must be unimodular and an isometry, F^H F = N I; closure under
conjugation is no hypothesis.  A Fourier basis whose integers pair its
rows with their conjugates holds the Hartley form R = Re F + Im F of its
family, which runs every N x N product in real arithmetic; every other
basis holds F itself.  A constant phase per row moves no frame bound, so
no runner needs a family whose rows pair only up to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .wspace import _integer, _readonly

__all__ = ["TensorBasis", "build_default", "fourier_family"]

HYPOTHESIS_TOL = 1e-9
# Rows of a family gathered and folded at a time, and of a Gram read at a
# time, so that neither building a family nor folding it nor reading its
# moduli holds another N x N temporary.
PAIRING_BLOCK = 32


def _check_hypothesis(name: str, residual: float) -> None:
    """Refuse a family whose residual for the hypothesis ``name`` exceeds
    ``HYPOTHESIS_TOL``; a NaN residual fails too."""
    if not residual <= HYPOTHESIS_TOL:
        raise ValueError(f"family violates {name} (residual {residual:.3e})")


def _isometry_residual(gram: np.ndarray, n: int) -> float:
    """max |G/n - I| for the column Gram G = X^H X of n-row columns X of a
    form: the isometry F^H F = n I on those columns.  The off-diagonal
    extremes are taken on the float64 view of G, so on a complex Gram they
    are the larger of max |Re| and max |Im|; the diagonal defects are
    moduli.  G is read in place, with its diagonal set aside, zeroed for
    the off-diagonal extremes and written back, so it keeps its bits and is
    not copied."""
    diag = gram.diagonal().copy()
    np.fill_diagonal(gram, 0.0)
    flat = gram.view(float)
    off = max(float(flat.max(initial=0.0)), -float(flat.min(initial=0.0))) / n
    np.fill_diagonal(gram, diag)
    return max(float(np.max(np.abs(diag / n - 1.0), initial=0.0)), off)


def _integers(name: str, a) -> np.ndarray:
    """``a`` as a 1-d int64 array; another shape is refused, and so is a
    value that is non-integral, non-real, non-finite or outside int64, not
    truncated.  An array of a dtype that casts safely to int64 is not
    scanned."""
    a = np.asarray(a)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {a.shape}")
    if not np.can_cast(a.dtype, np.int64):
        x = np.asarray(np.real(a), dtype=float)
        bad = ~((np.floor(x) == x) & (-(2.0**63) <= x) & (x < 2.0**63))
        bad |= np.imag(a) != 0
        if bad.any():
            raise ValueError(f"{name} must hold int64 integers, got {a[bad][0]}")
    return np.asarray(np.real(a), np.int64)


def _checked_recipe(freqs, numer, denom) -> tuple:
    """``freqs`` and ``numer`` as 1-d int64 arrays and ``denom`` an integer
    from 1 to 2^20, so the table of roots holds at most 16 MiB and every
    ``_root_index`` product stays below 2^40."""
    freqs, numer = _integers("freqs", freqs), _integers("numer", numer)
    denom = _integer("denom", denom, 1)
    if denom > 2**20:
        raise ValueError(f"denom must be <= 2**20, got {denom}")
    return freqs, numer, denom


@dataclass(frozen=True, eq=False, init=False)
class TensorBasis:
    """Scalar family (rows f_n over the grid), tensored with the fiber C^M
    of the space it is bound to.

    A basis built as ``TensorBasis(scalar_family)`` holds the array it is
    given.  One built by ``TensorBasis.fourier(freqs, numer, denom)`` holds
    its integers and no complex N x N array: each read of
    ``scalar_family`` builds ``fourier_family(freqs, numer, denom)``.

    ``_form`` holds the form the N x N products of a run take, built once:
    the read-only Hartley form R = U F of a Fourier basis whose integers
    pair its rows (``_HartleyForm``), at a quarter of the flops of a
    complex product, and F itself for every other basis (``_ComplexForm``).
    Both spectral routes, the isometry check on the frame operator and
    ``lambda_all`` read the form alone, through one code path for either
    kind.  Unimodularity is checked before the form is built: a
    Fourier basis checks its table of roots, whose largest deviation from
    unit modulus bounds every entry it gathers, and any other basis every
    entry of its family.

    Attributes:
        grid_size: N, the number of rows and of nodes of the scalar family.
    """

    grid_size: int
    _family: np.ndarray | None = field(repr=False)
    _recipe: tuple | None = field(repr=False)

    def __init__(self, scalar_family):
        s = np.asarray(scalar_family, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("scalar_family must be a square 2-d array")
        self._bind(s.shape[0], _readonly(s), None)

    @classmethod
    def fourier(cls, freqs, numer, denom: int) -> TensorBasis:
        """The basis of ``fourier_family(freqs, numer, denom)``, which holds
        its integers; ``freqs`` and ``numer`` must have one length."""
        freqs, numer, denom = _checked_recipe(freqs, numer, denom)
        if freqs.shape != numer.shape:
            raise ValueError("freqs and numer must have one length")
        basis = cls.__new__(cls)
        basis._bind(freqs.size, None, (_readonly(freqs), _readonly(numer), denom))
        return basis

    def _bind(self, grid_size: int, family, recipe) -> None:
        object.__setattr__(self, "grid_size", grid_size)
        object.__setattr__(self, "_family", family)
        object.__setattr__(self, "_recipe", recipe)

    @property
    def scalar_family(self) -> np.ndarray:
        """(N, N) read-only complex array, entry [n, i] = f_n(x_i)."""
        if self._recipe is None:
            return self._family
        return fourier_family(*self._recipe)

    @cached_property
    def _form(self) -> _HartleyForm | _ComplexForm:
        """The form of the family, built once per basis.

        Raises:
            ValueError: if the family is not unimodular.
        """
        if self._recipe is not None:
            partner = _recipe_partner(*self._recipe)
            if partner is not None:
                return _recipe_fold(*self._recipe, partner)
        F = self.scalar_family
        _check_hypothesis("unimodularity", float(np.max(np.abs(np.abs(F) - 1.0))))
        return _ComplexForm(F)


@dataclass(frozen=True, eq=False)
class _ComplexForm:
    """The form of a family whose rows no recipe pairs: F itself, so every
    product runs in complex arithmetic.

    Attributes:
        matrix: the read-only N x N family F.
    """

    matrix: np.ndarray

    def apply(self, W: np.ndarray) -> np.ndarray:
        """F W."""
        return self.matrix @ W

    def moduli(self, g: np.ndarray) -> tuple:
        """(real diagonal, largest off-diagonal modulus) of the complex Gram
        ``g``."""
        off = np.abs(g)
        np.fill_diagonal(off, 0.0)
        return g.diagonal().real, float(np.max(off, initial=0.0))


@dataclass(frozen=True, eq=False)
class _HartleyForm:
    """The Hartley form of a Fourier family F whose integers pair its rows.

    The family has for each row n a row p(n) equal to its conjugate, and
    row n of R is Re f_n + Im f_n, the cas = cos + sin of its phase
    (Bracewell, "Discrete Hartley transform", J. Opt. Soc. Am. 73, 1983),
    so row p(n) is Re f_n - Im f_n and a self-paired row is f_n itself.
    Then R = U F with U = ((1 - i) I + (1 + i) P) / 2, P the permutation
    of p, which is unitary since P^2 = I.  So R^T R = F^H F: R has the
    Gram, and so the singular values, of F on every column set, and under
    node weights w its Gram R w R^T has the spectrum of F w F^H.  So the
    isometry hypothesis F^H F = N I is read off R^T R
    (``_isometry_residual``), and the moduli of a weighted Gram F w F^H off
    its real form (``moduli``).  U mixes each row with its partner and
    diagonalizes nothing, so a spectrum taken on R is still a dense
    decomposition of the family.

    Attributes:
        matrix: read-only N x N array R, in the row order of the family.
        partner: p(n) for every family row n.
    """

    matrix: np.ndarray
    partner: np.ndarray

    def apply(self, W: np.ndarray) -> np.ndarray:
        """F W = U^H y for a C-ordered complex W, with y = R W one real
        product on the float64 view of W: (F W)[n] = ((y[n] + y[p(n)])
        + i (y[n] - y[p(n)])) / 2, so a self-paired row is y itself."""
        y = (self.matrix @ W.view(float)).view(complex)
        yp = y[self.partner]
        return ((y + yp) + 1j * (y - yp)) / 2

    def moduli(self, g: np.ndarray) -> tuple:
        """(diagonal, largest off-diagonal modulus) of the complex Gram
        H = F w F^H whose real form U H U^H is the symmetric ``g``.

        H = U^H g U is H[n, m] = (g[n, m] + g[p(n), p(m)]
        + i (g[n, p(m)] - g[p(n), m])) / 2, so its diagonal is
        (g[n, n] + g[p(n), p(n)]) / 2 and row p(n) is row n conjugated,
        with its columns permuted by p.  So the moduli are read off the
        rows n <= p(n) alone, in O(N^2): ``PAIRING_BLOCK`` rows of ``g`` at
        a time, half of them rows n and half their partners.  Each entry is
        read as written above, never from its transpose, so it keeps its
        bits when ``g`` is symmetric only to rounding; each modulus is one
        ``np.hypot``, which neither overflows nor underflows short of its
        result.
        """
        p = self.partner
        d = np.diagonal(g)
        diag, off = (d + d[p]) / 2, 0.0
        lower = np.flatnonzero(np.arange(p.size) <= p)
        step = PAIRING_BLOCK // 2
        for start in range(0, lower.size, step):
            n = lower[start : start + step]
            gn, gp = g[n], g[p[n]]
            re = gp.take(p, axis=1)  # g[p(n), p(m)]
            re += gn
            im = gn.take(p, axis=1)  # g[n, p(m)]
            im -= gp
            np.hypot(re, im, out=re)
            re[np.arange(n.size), n] = 0.0  # the diagonal H[n, n]
            off = max(off, float(np.max(re, initial=0.0)))
        return diag, off / 2


def _recipe_partner(freqs: np.ndarray, numer: np.ndarray, denom: int):
    """The conjugate row pairing of ``fourier_family(freqs, numer, denom)``
    from its integers, or None unless each row has exactly one partner.

    Row k is exp(2 pi i k m / denom) over the numerators m, which depends
    on k mod P alone, with P = denom / gcd(denom, every m), and its
    conjugate is the row of -k: so p(n) is the row whose frequency is
    -freqs[n] mod P.  A negated frequency that is missing or held by two
    rows pairs nothing, and a family whose rows pair only up to a constant
    phase per row gets no real form.  For R consecutive frequencies on R
    nodes spaced 1/R apart, p is k -> -k mod R.
    """
    period = denom // int(np.gcd.reduce(numer, initial=denom))
    key = np.mod(freqs, period)
    order = np.argsort(key, kind="stable")
    want = np.mod(-freqs, period)
    lo, hi = (np.searchsorted(key[order], want, side) for side in ("left", "right"))
    return order[lo] if np.all(hi - lo == 1) else None


def _recipe_fold(freqs, numer, denom: int, partner: np.ndarray) -> _HartleyForm:
    """The Hartley form of a Fourier basis paired by ``partner``, in one pass
    over its rows n <= p(n), ``PAIRING_BLOCK`` at a time: each is gathered
    once from the one table of roots as h, and gives R[p(n)] = Re h - Im h
    and then R[n] = Re h + Im h, so a self-paired row keeps the latter.
    Every entry of the family is a table entry, so the table's largest
    deviation from unit modulus bounds its unimodularity gap, which is
    checked first.
    """
    roots = _roots(denom)
    _check_hypothesis("unimodularity", float(np.max(np.abs(np.abs(roots) - 1.0))))
    lower = np.flatnonzero(np.arange(partner.size) <= partner)
    real = np.empty((partner.size, partner.size))
    for start in range(0, lower.size, PAIRING_BLOCK):
        n = lower[start : start + PAIRING_BLOCK]
        h = roots[_root_index(freqs[n], numer, denom)]
        real[partner[n]] = h.real - h.imag
        real[n] = h.real + h.imag
    real.setflags(write=False)
    return _HartleyForm(real, partner)


def _roots(denom: int) -> np.ndarray:
    """The table of the ``denom`` roots of unity exp(2 pi i j / denom)."""
    return np.exp(2j * np.pi * np.arange(denom) / denom)


def _root_index(freqs: np.ndarray, numer: np.ndarray, denom: int) -> np.ndarray:
    """The table index (k m) mod ``denom`` of each entry of the rows of the
    frequencies ``freqs`` over the numerators ``numer``, in int64, each
    factor reduced first, so a product stays below denom^2 <= 2^40."""
    k, m = np.remainder(freqs, denom), np.remainder(numer, denom)
    return np.remainder(k[:, None] * m, denom)


def fourier_family(freqs, numer, denom: int) -> np.ndarray:
    """The exponential family exp(2 pi i k m / denom), row k over the node
    numerators m, for integer frequencies ``freqs`` and numerators ``numer``.

    Each product k m is reduced mod ``denom`` in int64, its factors first,
    and the entry is read from one table of the ``denom`` roots of unity
    exp(2 pi i j / denom), 0 <= j < denom, so no phase argument exceeds
    2 pi and every entry is a root of unity to rounding; the integers are
    checked by ``_checked_recipe``.  R consecutive frequencies on R nodes
    spaced 1/R apart are orthonormal under the unweighted quadrature.  The
    array is formed in one buffer, ``PAIRING_BLOCK`` rows at a time, so no
    N x N index is held, and is read-only, so a ``TensorBasis`` holds it
    without a copy.
    """
    freqs, numer, denom = _checked_recipe(freqs, numer, denom)
    roots = _roots(denom)
    family = np.empty((freqs.size, numer.size), dtype=complex)
    for start in range(0, freqs.size, PAIRING_BLOCK):
        rows = slice(start, start + PAIRING_BLOCK)
        family[rows] = roots[_root_index(freqs[rows], numer, denom)]
    family.setflags(write=False)
    return family


def build_default(grid_size: int) -> TensorBasis:
    """Discrete Fourier scalar family f_n(x_i) = exp(2 pi i n i / N) on the
    grid x_i = i/N."""
    n = np.arange(grid_size)
    return TensorBasis.fourier(n, n, grid_size)
