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
rows with their conjugates holds the real fold R of its family, which runs
every N x N product in real arithmetic; every other basis holds F itself.
A constant phase per row moves no frame bound, so no runner needs a
family whose rows pair only up to one.
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
    the read-only real fold R = U F of a Fourier basis whose integers
    pair its rows (``_ConjugatePairs``), at a quarter of the flops of a
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
    def _form(self) -> _ConjugatePairs | _ComplexForm:
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
class _ConjugatePairs:
    """The real form of a Fourier family F whose integers pair its rows.

    The family has for each row n a row p(n) equal to its conjugate.  U
    is the unitary that keeps a self-paired row and sends a pair n < p to
    (e_n + e_p)/sqrt(2) and (e_n - e_p)/(i sqrt(2)), so R = U F is real,
    and R^T R = F^H F: R has the Gram, and so the singular values, of F on
    every column set, and under node weights w its Gram R w R^T has the
    spectrum of F w F^H.  So the isometry hypothesis F^H F = N I is read
    off R^T R (``_isometry_residual``), and the moduli of a weighted Gram
    F w F^H off its real fold (``moduli``).  U regroups entries and
    diagonalizes nothing, so a spectrum taken on R is still a dense
    decomposition of the family.

    Attributes:
        matrix: read-only N x N array R.  Its rows are the real parts of the
            ``n_self`` self-paired rows, then sqrt(2) times the real parts
            of the lower rows n of the pairs, then sqrt(2) times their
            imaginary parts, in the same order.
        n_self: the number of self-paired rows.
        rows: the family row of each of the first ``rows.size`` rows of R,
            the self-paired rows and then the lower rows of the pairs.
        partner: p(n) for every family row n.
    """

    matrix: np.ndarray
    n_self: int
    rows: np.ndarray
    partner: np.ndarray

    def apply(self, W: np.ndarray) -> np.ndarray:
        """F W for a C-ordered complex W, as one real product R W on its
        float64 view, unfolded: with y = R W = U F W, whose rows are
        (F W)[s] for a self-paired row s, and (F W)[n] = (y[a] + i y[b])
        / sqrt(2) and (F W)[p(n)] = (y[a] - i y[b]) / sqrt(2) for a pair
        n < p(n) with real rows a, b.  The unfold is O(N M)."""
        y = (self.matrix @ W.view(float)).view(complex)
        ns, k = self.n_self, self.rows.size
        lower = self.rows[ns:]
        # dividing by sqrt(2) undoes the fold's scaling more often than
        # multiplying by sqrt(0.5), whose product with sqrt(2) rounds to 1 + 2^-52
        a, b = y[ns:k] / np.sqrt(2.0), y[k:] / np.sqrt(2.0) * 1j
        out = np.empty_like(y)
        out[self.rows[:ns]] = y[:ns]
        out[lower] = a + b
        out[self.partner[lower]] = a - b
        return out

    def moduli(self, g: np.ndarray) -> tuple:
        """(diagonal, largest off-diagonal modulus) of the complex Gram
        H = F w F^H whose real fold U H U^H is the symmetric ``g``.

        H = U^H g U is read off the 2 x 2 blocks of ``g`` in O(N^2): with
        a, b the real rows of a pair (n, p) and s a self-paired row,
        H[s, s'] = g[s, s'], |H[n, s]| = |g[a, s] + i g[b, s]| / sqrt(2),
        and for two pairs
        H[n, n'] = (g[a, a'] + g[b, b'] + i (g[b, a'] - g[a, b'])) / 2 and
        H[n, p'] = (g[a, a'] - g[b, b'] + i (g[b, a'] + g[a, b'])) / 2;
        the rows p are their conjugates.  The diagonal follows the rows of
        the real form: the self-paired rows, then each pair twice, as
        H[n, n] = H[p, p].

        Each row of ``g`` is read once, ``PAIRING_BLOCK`` rows at a time, so
        the temporaries stay a few row blocks: the self-paired rows, which
        give every H[s, s'], then each block of lower rows a together with
        their imaginary-part rows b, which give every entry in a row n of a
        pair.  Each entry is read from the rows it is written with above,
        never from its transpose, so it keeps its bits when ``g`` is
        symmetric only to rounding; each modulus is one ``np.hypot``, which
        neither overflows nor underflows short of its result.
        """
        ns = self.n_self
        N = self.matrix.shape[0]
        k = (N + ns) // 2  # the first imaginary-part row
        diag, off = np.empty(N), 0.0
        for start in range(0, ns, PAIRING_BLOCK):
            h = g[start : min(start + PAIRING_BLOCK, ns), :ns]
            i = np.arange(h.shape[0])
            diag[start + i] = h[i, start + i]
            selfs = np.abs(h)
            selfs[i, start + i] = 0.0
            off = max(off, float(np.max(selfs, initial=0.0)))
        for start in range(ns, k, PAIRING_BLOCK):
            stop = min(start + PAIRING_BLOCK, k)
            ga, gb = g[start:stop], g[start + k - ns : stop + k - ns]
            gaa, gbb, gab, gba = ga[:, ns:k], gb[:, k:], ga[:, k:], gb[:, ns:k]
            i = np.arange(stop - start)
            j = i + (start - ns)  # the pair of row i among the pairs
            pair_diag = (gaa[i, j] + gbb[i, j]) / 2
            diag[start:stop] = diag[start + k - ns : stop + k - ns] = pair_diag
            pair = gaa + gbb  # 2 |H[n, n']|, then 2 |H[n, p']|, in one buffer
            np.hypot(pair, gba - gab, out=pair)
            pair[i, j] = 0.0  # the diagonal H[n, n]
            off = max(off, float(np.max(pair, initial=0.0)) / 2)
            np.hypot(np.subtract(gaa, gbb, out=pair), gba + gab, out=pair)
            off = max(
                off,
                float(np.max(pair, initial=0.0)) / 2,
                float(np.max(np.hypot(ga[:, :ns], gb[:, :ns]), initial=0.0))
                * np.sqrt(0.5),
            )
        return diag, off


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


def _recipe_fold(freqs, numer, denom: int, partner: np.ndarray) -> _ConjugatePairs:
    """The real form of a Fourier basis paired by ``partner``, in one pass of
    ``PAIRING_BLOCK`` rows of R at a time, the self-paired rows and then
    the lower rows of the pairs: each is gathered once from the one table
    of roots and folded.  Every entry of the family is a table entry, so
    the table's largest deviation from unit modulus bounds its
    unimodularity gap, which is checked first.
    """
    roots = _roots(denom)
    _check_hypothesis("unimodularity", float(np.max(np.abs(np.abs(roots) - 1.0))))
    n = np.arange(partner.size)
    fixed, lower = np.flatnonzero(partner == n), np.flatnonzero(n < partner)
    rows, ns = np.concatenate([fixed, lower]), fixed.size
    k = rows.size
    real = np.empty((n.size, n.size))
    for start in range(0, k, PAIRING_BLOCK):
        blk = rows[start : start + PAIRING_BLOCK]
        stop, first = start + blk.size, max(start, ns)  # first paired row
        h = np.take(roots, _root_index(freqs[blk], numer, denom), mode="wrap")
        real[start:stop] = h.real
        real[first:stop] *= np.sqrt(2.0)
        imag = real[k + first - ns : k + stop - ns]
        np.multiply(h[first - start :].imag, np.sqrt(2.0), out=imag)
    real.setflags(write=False)
    return _ConjugatePairs(real, ns, rows, partner)


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
    2 pi and every entry is a root of unity to rounding.  R consecutive
    frequencies on R nodes spaced 1/R apart are orthonormal under the
    unweighted quadrature.  The array is formed in one buffer and is
    read-only, so a ``TensorBasis`` holds it without a copy.  The index is
    formed and gathered ``PAIRING_BLOCK`` rows at a time in one reused
    buffer, straight into the family: ``np.take`` with ``mode="wrap"``
    writes to ``out`` unbuffered, where the default ``mode="raise"`` gathers
    into a temporary first.
    """
    freqs, numer = _integers("freqs", freqs), _integers("numer", numer)
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
