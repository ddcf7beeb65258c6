"""Scalar function families on the grid, tensored with the fiber of a space.

A scalar family {f_n} on the grid and the standard basis {e_m} of the
fiber C^M of the space combine into the fields G_{m,n}(x_i) = f_n(x_i) e_m.
With the discrete Fourier family this is a unimodular orthonormal system
of the unweighted space, and it is the family the analyzer works with: the
node weight enters through the quadrature, not through the family.  The
fiber dimension M belongs to the space alone; no verdict depends on the
fiber basis, so the fiber only repeats each value M times.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .wspace import _integer, _readonly

__all__ = ["TensorBasis", "build_default", "fourier_family"]

HYPOTHESIS_TOL = 1e-9
# Rows of the family read, dephased, checked and folded at a time, so that
# neither building a family nor folding it holds another N x N temporary.
PAIRING_BLOCK = 32


@dataclass(frozen=True, eq=False, init=False)
class TensorBasis:
    """Scalar family (rows f_n over the grid), tensored with the fiber C^M
    of the space it is bound to.

    The scalar family is read through one row reader, which alone knows the
    kind of basis and returns the rows F[idx]: a basis built as
    ``TensorBasis(scalar_family)`` indexes the array it holds,
    and one built by ``TensorBasis.fourier`` generates the rows
    ``fourier_family(freqs[idx], numer, denom)``, bit for bit those of the
    whole family, so it holds no complex N x N array.

    Two passes read the family ``PAIRING_BLOCK`` rows at a time: ``_scan``
    (for ``unimodularity_residual``) raises nothing, and ``_pairs`` (for
    ``scalar_gram_residual``, both spectral routes and ``lambda_all``)
    checks the conjugate row pairing and builds the read-only real form
    R = U D F once.  The basis keeps R, so every N x N product of a run
    takes the real form, at a quarter of the flops of a complex one.

    Attributes:
        grid_size: N, the number of rows and of nodes of the scalar family.
    """

    grid_size: int
    _rows: Callable = field(repr=False)

    def __init__(self, scalar_family):
        s = np.asarray(scalar_family, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("scalar_family must be a square 2-d array")
        self._bind(_readonly(s).__getitem__, s.shape[0])

    @classmethod
    def fourier(cls, freqs, numer, denom: int) -> TensorBasis:
        """The basis of ``fourier_family(freqs, numer, denom)``, which generates
        its rows as they are read; ``freqs`` and ``numer`` must have one length."""
        freqs, numer = (_readonly(np.asarray(a, np.int64)) for a in (freqs, numer))
        if freqs.ndim != 1 or freqs.shape != numer.shape:
            raise ValueError("freqs and numer must be 1-d and of one length")
        denom = _integer("denom", denom)
        basis = cls.__new__(cls)
        basis._bind(lambda i: fourier_family(freqs[i], numer, denom), freqs.size)
        return basis

    def _bind(self, rows, grid_size: int) -> None:
        object.__setattr__(self, "grid_size", grid_size)
        object.__setattr__(self, "_rows", rows)

    @property
    def scalar_family(self) -> np.ndarray:
        """(N, N) read-only complex array, entry [n, i] = f_n(x_i)."""
        return self._rows(slice(None))

    def unimodularity_residual(self) -> float:
        """max_i,n abs(|f_n(x_i)| - 1), measured by the first pass."""
        return self._scan[2]

    def scalar_gram_residual(self) -> float:
        """Deviation of the scalar Gram from the identity under the
        unweighted quadrature (1/N) sum_i f_n conj(f_n'): the largest modulus
        of an entry of (F/N) F^H - I, read off the real Gram R R^T / N of
        the real form R, which is formed a block of rows R[idx] R^T / N at
        a time as ``moduli`` reads it, and never whole.

        Raises:
            ValueError: if the family is not closed under conjugation.
        """
        pairs = self._pairs
        R = pairs.real

        def rows(idx: slice) -> np.ndarray:
            g = R[idx] @ R.T
            g /= self.grid_size
            return g

        diag, off = pairs.moduli(rows)
        return max(float(np.max(np.abs(diag - 1.0))), off)

    @cached_property
    def _scan(self) -> tuple:
        """(phase, key, gap): the diagonal of D, which dephases each row by
        its first entry, the key z = D F r of ``_conjugate_pairs`` and max
        abs(|F| - 1), which refuses a non-finite row, so its key warns nothing."""
        N = self.grid_size
        r = np.sin(np.arange(1.0, N + 1) ** 2)
        phase, z, gap = np.empty(N, complex), np.empty(N, complex), []
        with np.errstate(invalid="ignore", over="ignore"):
            for start in range(0, N, PAIRING_BLOCK):
                blk = slice(start, start + PAIRING_BLOCK)
                h = self._rows(blk)
                phase[blk] = np.exp(-1j * np.angle(h[:, 0]))
                z[blk] = h @ r
                gap.append(np.max(np.abs(np.abs(h) - 1.0)))
            z *= phase
        return phase, z, float(np.max(gap))

    @cached_property
    def _pairs(self) -> _ConjugatePairs:
        """The conjugate row pairing and the real form, built once per basis."""
        return _conjugate_pairs(self)


@dataclass(frozen=True, eq=False)
class _ConjugatePairs:
    """The real form of a scalar family F closed under conjugation.

    Once each row is dephased by its first entry (D, a diagonal of unit
    moduli), the family has for each row n a row p(n) equal to its
    conjugate.  U is the unitary that keeps a self-paired row and sends a
    pair n < p to (e_n + e_p)/sqrt(2) and (e_n - e_p)/(i sqrt(2)), so
    R = U D F is real, and R^T R = F^H F: R has the Gram, and so the
    singular values, of F on every column set, and under node weights w
    its Gram R w R^T has the spectrum of F w F^H.  U and D regroup entries
    and diagonalize nothing, so a spectrum taken on R is still a dense
    decomposition of the family.

    Attributes:
        real: read-only N x N array R.  Its rows are the real parts of the
            ``n_self`` dephased self-paired rows, then sqrt(2) times the
            real parts of the dephased lower rows n of the pairs, then
            sqrt(2) times their imaginary parts, in the same order.
        n_self: the number of self-paired rows.
        rows: the family row of each of the first ``rows.size`` rows of R,
            the self-paired rows and then the lower rows of the pairs.
        partner: p(n) for every family row n.
        phase: the diagonal of D, one unit modulus per family row.
    """

    real: np.ndarray
    n_self: int
    rows: np.ndarray
    partner: np.ndarray
    phase: np.ndarray

    def unfold(self, y: np.ndarray) -> np.ndarray:
        """F x from y = R x, for any complex x with one column per column of
        ``y``: y holds U D F x, whose rows are (D F x)[s] for a self-paired
        row s, and (D F x)[n] = (y[a] + i y[b]) / sqrt(2) and
        (D F x)[p(n)] = (y[a] - i y[b]) / sqrt(2) for a pair n < p(n) with
        real rows a, b; undoing D is one conjugate phase per row.  O(N M)."""
        ns, k = self.n_self, self.rows.size
        lower = self.rows[ns:]
        # dividing by sqrt(2) undoes the fold's scaling more often than
        # multiplying by sqrt(0.5), whose product with sqrt(2) rounds to 1 + 2^-52
        a, b = y[ns:k] / np.sqrt(2.0), y[k:] / np.sqrt(2.0) * 1j
        out = np.empty_like(y)
        out[self.rows[:ns]] = y[:ns]
        out[lower] = a + b
        out[self.partner[lower]] = a - b
        out *= self.phase.conj()[:, None]
        return out

    def moduli(self, g) -> tuple:
        """(diagonal, largest off-diagonal modulus) of the complex Gram
        H = D F w F^H D^H whose real fold U H U^H is the symmetric ``g``:
        the fold itself, or a reader ``rows(idx)`` that returns g[idx, :]
        for a slice of rows idx, so that a Gram formed by rows is never
        formed whole.

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

        Each row of ``g`` is read once, ``PAIRING_BLOCK`` rows at a time:
        the self-paired rows, which give every H[s, s'], then each block of
        lower rows a together with their imaginary-part rows b, which give
        every entry in a row n of a pair.  Each entry is read from the rows
        it is written with above, never from its transpose, so it keeps its
        bits when ``g`` is symmetric only to rounding.
        """
        rows = g if callable(g) else g.__getitem__
        ns = self.n_self
        N = self.real.shape[0]
        k = (N + ns) // 2  # the first imaginary-part row
        diag, off = np.empty(N), 0.0
        for start in range(0, ns, PAIRING_BLOCK):
            h = rows(slice(start, min(start + PAIRING_BLOCK, ns)))[:, :ns]
            i = np.arange(h.shape[0])
            diag[start + i] = h[i, start + i]
            selfs = np.abs(h)
            selfs[i, start + i] = 0.0
            off = max(off, float(np.max(selfs, initial=0.0)))
        for start in range(ns, k, PAIRING_BLOCK):
            stop = min(start + PAIRING_BLOCK, k)
            ga, gb = rows(slice(start, stop)), rows(slice(start + k - ns, stop + k - ns))
            gaa, gbb, gab, gba = ga[:, ns:k], gb[:, k:], ga[:, k:], gb[:, ns:k]
            i = np.arange(stop - start)
            j = i + (start - ns)  # the pair of row i among the pairs
            pair_diag = (gaa[i, j] + gbb[i, j]) / 2
            diag[start:stop] = diag[start + k - ns : stop + k - ns] = pair_diag
            # With max|g| < 2^e over the rows read, each x, y below is under
            # 2^(e+1) in modulus: scaled by 2^-(e+1), which rounds nothing,
            # no square overflows.  A power of two scales every normal square
            # exactly, so the moduli do not depend on which rows were read
            # unless a square falls below the normal range.
            top = max(ga.max(), -ga.min(), gb.max(), -gb.min())
            scale = np.ldexp(1.0, -1 - int(np.frexp(top)[1]))
            off = max(
                off,
                _largest(np.array(ga[:, :ns]), np.array(gb[:, :ns]), scale)
                * np.sqrt(0.5),
                _largest(gaa + gbb, gba - gab, scale, (i, j)) / 2,
                _largest(gaa - gbb, gba + gab, scale) / 2,
            )
        return diag, off


def _largest(x: np.ndarray, y: np.ndarray, scale: float, skip=None) -> float:
    """max |x + i y| over two arrays, which it overwrites, but at the entries
    ``skip`` (an index pair), computed as sqrt((scale x)^2 + (scale y)^2) /
    scale for a power of two ``scale``."""
    x *= scale
    x *= x
    y *= scale
    y *= y
    x += y
    if skip is not None:
        x[skip] = 0.0
    return float(np.sqrt(np.max(x, initial=0.0))) / scale


def _conjugate_pairs(basis: TensorBasis) -> _ConjugatePairs:
    """Find the conjugate row pairing of the scalar family F of ``basis``,
    verify it on every entry and fold F to its real form, reading
    ``PAIRING_BLOCK`` rows and their partners at a time, each row once.

    The partner p(n) of each row is matched on the key z = D F r of
    ``basis._scan``, with r_i = sin(i^2), i = 1..N: no rational combination
    of the r_i vanishes (Lindemann-Weierstrass), so distinct rows of a +-1
    family get distinct keys, and so do those of any family in general.
    The partner's key is the conjugate, with the same real part, so p(n) is
    the one of row n and its two neighbours in the order of Re z whose key
    is nearest to conj(z_n): a real row (every Walsh-Hadamard row, say)
    pairs with itself.  The match is then checked on every entry: dephased
    row p(n) against the conjugate of dephased row n, for each self-paired
    row and the lower row of each pair (the upper row's difference is minus
    the conjugate of it).  For the Fourier families
    f_k(x_i) = exp(2 pi i k x_i) on R nodes spaced 1/R apart with R
    consecutive frequencies, p is k -> -k mod R.

    Raises:
        ValueError: if the family is not closed under conjugation.
    """
    N = basis.grid_size
    phase, z, _ = basis._scan
    order = np.argsort(z.real)
    rank = np.empty(N, dtype=np.intp)
    rank[order] = np.arange(N)
    cand = order[np.clip(rank + np.arange(-1, 2)[:, None], 0, N - 1)]
    n = np.arange(N)
    p = cand[np.argmin(np.abs(z[cand] - z.conj()), axis=0), n]
    if not np.array_equal(p[p], n):  # p must be an involution
        raise ValueError("family violates conjugate symmetry (residual inf)")
    fixed, lower = np.flatnonzero(p == n), np.flatnonzero(n < p)
    rows, ns = np.concatenate([fixed, lower]), fixed.size
    k, res = rows.size, []
    real = np.empty((N, N))
    for start in range(0, k, PAIRING_BLOCK):
        blk = rows[start : start + PAIRING_BLOCK]
        stop, first = start + blk.size, max(start, ns)  # first paired row
        h = basis._rows(blk) * phase[blk, None]
        # a self-paired row is its own partner, so the rows blk and the
        # partners of the paired ones cover every row of F once
        q = p[blk[first - start :]]
        d = np.concatenate([h[: first - start], basis._rows(q) * phase[q, None]])
        d.real -= h.real  # d - conj(h), which is 2i Im(h) on a self-paired row
        d.imag += h.imag
        res.append(np.max(np.abs(d)))
        real[start:stop] = h.real
        real[first:stop] *= np.sqrt(2.0)
        imag = real[k + first - ns : k + stop - ns]
        np.multiply(h[first - start :].imag, np.sqrt(2.0), out=imag)
    res = float(np.max(res))
    if not res <= HYPOTHESIS_TOL:  # a NaN residual fails too
        raise ValueError(f"family violates conjugate symmetry (residual {res:.3e})")
    real.setflags(write=False)
    return _ConjugatePairs(real, ns, rows, p, phase)


def fourier_family(freqs, numer, denom: int) -> np.ndarray:
    """The exponential family exp(2 pi i k m / denom), row k over the node
    numerators m, for integer frequencies ``freqs`` and numerators ``numer``.

    Each product k m is reduced mod ``denom`` in int64 and the entry is read
    from one table of the ``denom`` roots of unity exp(2 pi i j / denom),
    0 <= j < denom, so no phase argument exceeds 2 pi and every entry is a
    root of unity to rounding, whatever the size of k m.  R consecutive
    frequencies on R nodes spaced 1/R apart are orthonormal under the
    unweighted quadrature.  The array is formed in one buffer and is
    read-only, so a ``TensorBasis`` holds it without a copy.  The index is
    formed and gathered ``PAIRING_BLOCK`` rows at a time in one reused
    buffer, straight into the family: ``np.take`` with ``mode="wrap"``
    writes to ``out`` unbuffered, where the default ``mode="raise"`` gathers
    into a temporary first.
    """
    freqs, numer = np.asarray(freqs, np.int64), np.asarray(numer, np.int64)
    roots = np.exp(2j * np.pi * np.arange(denom) / denom)
    family = np.empty((freqs.size, numer.size), dtype=complex)
    block = np.empty((min(PAIRING_BLOCK, freqs.size), numer.size), np.int64)
    for start in range(0, freqs.size, PAIRING_BLOCK):
        k = freqs[start : start + PAIRING_BLOCK]
        idx = block[: k.size]
        np.multiply(k[:, None], numer, out=idx)
        np.remainder(idx, denom, out=idx)
        np.take(roots, idx, mode="wrap", out=family[start : start + k.size])
    family.setflags(write=False)
    return family


def build_default(grid_size: int) -> TensorBasis:
    """Discrete Fourier scalar family f_n(x_i) = exp(2 pi i n i / N) on the
    grid x_i = i/N."""
    n = np.arange(grid_size)
    return TensorBasis.fourier(n, n, grid_size)
