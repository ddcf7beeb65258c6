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

from collections.abc import Callable
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
    diag = np.array(np.diagonal(gram))
    view = gram.reshape(-1)[:: gram.shape[0] + 1]  # the diagonal, writable
    view[:] = 0.0
    flat = gram.view(float)
    off = max(float(flat.max(initial=0.0)), -float(flat.min(initial=0.0))) / n
    view[:] = diag
    return max(float(np.max(np.abs(diag / n - 1.0), initial=0.0)), off)


def _integers(name: str, a) -> np.ndarray:
    """``a`` as an int64 array; a value that is non-integral, non-real,
    non-finite or outside int64 is refused, not truncated.  An array of a
    dtype that casts safely to int64 is not scanned."""
    a = np.asarray(a)
    if not np.can_cast(a.dtype, np.int64):
        x = np.asarray(np.real(a), dtype=float)
        bad = ~((np.floor(x) == x) & (-(2.0**63) <= x) & (x < 2.0**63))
        bad |= np.imag(a) != 0
        if bad.any():
            raise ValueError(f"{name} must hold int64 integers, got {a[bad][0]}")
    return np.asarray(np.real(a), np.int64)


@dataclass(frozen=True, eq=False, init=False)
class TensorBasis:
    """Scalar family (rows f_n over the grid), tensored with the fiber C^M
    of the space it is bound to.

    A basis built as ``TensorBasis(scalar_family)`` holds the array it is
    given.  One built by ``TensorBasis.fourier(freqs, numer, denom)`` holds
    its integers, and generates the rows
    ``fourier_family(freqs[idx], numer, denom)`` as they are read, bit for
    bit those of the whole family, so it holds no complex N x N array.

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
    _rows: Callable = field(repr=False)
    _recipe: tuple | None = field(repr=False)

    def __init__(self, scalar_family):
        s = np.asarray(scalar_family, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("scalar_family must be a square 2-d array")
        self._bind(_readonly(s).__getitem__, s.shape[0], None)

    @classmethod
    def fourier(cls, freqs, numer, denom: int) -> TensorBasis:
        """The basis of ``fourier_family(freqs, numer, denom)``, which generates
        its rows as they are read; ``freqs`` and ``numer`` must have one length."""
        freqs, numer = _integers("freqs", freqs), _integers("numer", numer)
        freqs, numer = _readonly(freqs), _readonly(numer)
        if freqs.ndim != 1 or freqs.shape != numer.shape:
            raise ValueError("freqs and numer must be 1-d and of one length")
        denom = _integer("denom", denom, 1)
        basis = cls.__new__(cls)
        recipe = (freqs, numer, denom)
        basis._bind(lambda i: fourier_family(freqs[i], numer, denom), freqs.size, recipe)
        return basis

    def _bind(self, rows, grid_size: int, recipe) -> None:
        object.__setattr__(self, "grid_size", grid_size)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_recipe", recipe)

    @property
    def scalar_family(self) -> np.ndarray:
        """(N, N) read-only complex array, entry [n, i] = f_n(x_i)."""
        return self._rows(slice(None))

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
        out = y + yp
        out += 1j * np.subtract(y, yp, out=yp)
        out /= 2
        return out

    def moduli(self, g: np.ndarray) -> tuple:
        """(diagonal, largest off-diagonal modulus) of the complex Gram
        H = F w F^H whose real form U H U^H is the symmetric ``g``.

        H = U^H g U is H[n, m] = (g[n, m] + g[p(n), p(m)]
        + i (g[n, p(m)] - g[p(n), m])) / 2, so its diagonal is
        (g[n, n] + g[p(n), p(n)]) / 2 and row p(n) is row n conjugated,
        with its columns permuted by p.  So the moduli are read off the
        rows n <= p(n) alone, in O(N^2): ``PAIRING_BLOCK`` rows of ``g`` at
        a time, half of them rows n and half their partners, gathered and
        permuted into three reused half blocks, so the temporaries stay
        smaller than two row blocks.  Each entry is read as written above,
        never from its transpose, so it keeps its bits when ``g`` is
        symmetric only to rounding; each modulus is one ``np.hypot``, which
        neither overflows nor underflows short of its result.
        """
        p = self.partner
        d = np.diagonal(g)
        diag, off = (d + d[p]) / 2, 0.0
        lower = np.flatnonzero(np.arange(p.size) <= p)
        step = PAIRING_BLOCK // 2
        bufs = np.empty((3, min(step, lower.size), p.size))
        for start in range(0, lower.size, step):
            n = lower[start : start + step]
            a, b, c = bufs[:, : n.size]
            # mode="wrap" makes take write to out unbuffered
            np.take(g, n, axis=0, out=a, mode="wrap")
            np.take(g, p[n], axis=0, out=b, mode="wrap")
            np.take(b, p, axis=1, out=c, mode="wrap")  # g[p(n), p(m)]
            re = np.add(a, c, out=b)
            np.subtract(a, c, out=c)
            im = np.take(c, p, axis=1, out=a, mode="wrap")  # g[n, p(m)] - g[p(n), m]
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
        h = np.take(roots, _root_index(freqs[n], numer, denom), mode="wrap")
        real[partner[n]] = h.real - h.imag
        real[n] = h.real + h.imag
    real.setflags(write=False)
    return _HartleyForm(real, partner)


def _roots(denom: int) -> np.ndarray:
    """The table of the ``denom`` roots of unity exp(2 pi i j / denom)."""
    return np.exp(2j * np.pi * np.arange(denom) / denom)


def _root_index(freqs: np.ndarray, numer: np.ndarray, denom: int, out=None):
    """The table index (k m) mod ``denom`` of each entry of the rows of the
    frequencies ``freqs`` over the numerators ``numer``, in int64, each
    factor reduced first, so no product wraps while denom < 2^31.5."""
    k, m = np.remainder(freqs, denom), np.remainder(numer, denom)
    out = np.multiply(k[:, None], m, out=out)
    return np.remainder(out, denom, out=out)


def fourier_family(freqs, numer, denom: int) -> np.ndarray:
    """The exponential family exp(2 pi i k m / denom), row k over the node
    numerators m, for integer frequencies ``freqs`` and numerators ``numer``.

    Each product k m is reduced mod ``denom`` in int64, its factors first,
    and the entry is read from one table of the ``denom`` roots of unity
    exp(2 pi i j / denom), 0 <= j < denom, so no phase argument exceeds
    2 pi and every entry is a root of unity to rounding; ``denom`` must be
    an integer of at least 1.  R consecutive
    frequencies on R nodes spaced 1/R apart are orthonormal under the
    unweighted quadrature.  The array is formed in one buffer and is
    read-only, so a ``TensorBasis`` holds it without a copy.  The index is
    formed and gathered ``PAIRING_BLOCK`` rows at a time in one reused
    buffer, straight into the family: ``np.take`` with ``mode="wrap"``
    writes to ``out`` unbuffered, where the default ``mode="raise"`` gathers
    into a temporary first.
    """
    freqs, numer = _integers("freqs", freqs), _integers("numer", numer)
    denom = _integer("denom", denom, 1)
    roots = _roots(denom)
    family = np.empty((freqs.size, numer.size), dtype=complex)
    block = np.empty((min(PAIRING_BLOCK, freqs.size), numer.size), np.int64)
    for start in range(0, freqs.size, PAIRING_BLOCK):
        k = freqs[start : start + PAIRING_BLOCK]
        idx = _root_index(k, numer, denom, out=block[: k.size])
        np.take(roots, idx, mode="wrap", out=family[start : start + k.size])
    family.setflags(write=False)
    return family


def build_default(grid_size: int) -> TensorBasis:
    """Discrete Fourier scalar family f_n(x_i) = exp(2 pi i n i / N) on the
    grid x_i = i/N."""
    n = np.arange(grid_size)
    return TensorBasis.fourier(n, n, grid_size)
