"""Weighted Hilbert space of vector-valued functions on a uniform grid.

The domain is the unit interval sampled at the nodes x_i = i/N with
quadrature weight 1/N per node, so the underlying measure has total mass
one.  A nonnegative node weight w rescales the inner product, and values
live in a complex M-dimensional fiber.  Everything here but the seeded
draw source ``_Normals`` is a pure function of immutable inputs, safe to
call concurrently.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "WeightedSpace",
    "Field",
    "inner",
    "norm",
    "total_mass",
    "random_field",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    """Read-only array holding the values of ``a``.

    A plain ndarray that is already read-only and owns its data is adopted
    as it is: its maker has handed it over (the family builders return their
    arrays this way), so the N x N families are not copied.  Anything else
    is copied, so later writes through the caller's array cannot reach it.
    """
    if type(a) is np.ndarray and a.flags.owndata and not a.flags.writeable:
        return a
    out = np.array(a)
    out.setflags(write=False)
    return out


def _integer(name: str, x, least: int | None = None) -> int:
    """``x`` as an int; a value that is not a real number or is non-integral
    is refused, not truncated, and so is one below ``least``."""
    if not isinstance(x, numbers.Real) or not float(x).is_integer():  # NaN, inf too
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if least is not None and x < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(x)


@dataclass(frozen=True, eq=False)
class WeightedSpace:
    """Uniform grid, fiber dimension and node weights.

    The support is the set of nodes whose weight is positive; it is decided
    here, once, and every spectrum, bound and witness restricted to the
    support reads ``support``.  A positive weight must keep its quadrature
    weight w_i / N a normal float (at least ``np.finfo(float).tiny``), so
    that the coordinate scale sqrt(N / w_i) of the support stays finite; a
    smaller positive weight is refused, not dropped.

    The unit 2^e of the weights is stated here alone: e is even and
    max(w) / 2^e lies in [1/4, 1).  Every energy, norm and spectrum of the
    package is taken under the unit weights w / 2^e, far from overflow, and
    multiplied back by the matching power of 2^e, which is exact in binary,
    so scaling the weight by a power of 4 scales it bit for bit.

    Attributes:
        grid_size: number N of grid nodes x_i = i/N in [0, 1).
        fiber_dim: dimension M of the value space, stated here alone: a
            ``TensorBasis`` holds the scalar family and no M.
        weights: N nonnegative node weights, at least one positive.
        support: read-only mask of the nodes with positive weight.
        unit_exponent: the even exponent e of the unit 2^e.
    """

    grid_size: int
    fiber_dim: int
    weights: np.ndarray
    support: np.ndarray = field(init=False, repr=False)
    unit_exponent: int = field(init=False, repr=False)

    def __post_init__(self):
        n = _integer("grid_size", self.grid_size, 1)
        m = _integer("fiber_dim", self.fiber_dim, 1)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        support = w > 0
        if not support.any():
            raise ValueError("at least one weight must be positive")
        low, tiny = float(w[support].min()), np.finfo(float).tiny
        if low / n < tiny:
            raise ValueError(
                f"positive weight {low:.3e} is below grid_size * tiny = "
                f"{n * tiny:.3e}, so its quadrature weight is subnormal"
            )
        object.__setattr__(self, "grid_size", n)
        object.__setattr__(self, "fiber_dim", m)
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "support", _readonly(support))
        e = int(np.frexp(w.max())[1])
        object.__setattr__(self, "unit_exponent", e + (e & 1))

    @cached_property
    def unit_weights(self) -> np.ndarray:
        """Read-only w / 2^e, made on first read, not by every space."""
        u = np.ldexp(self.weights, -self.unit_exponent)
        u.setflags(write=False)
        return u

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.grid_size) / self.grid_size


@dataclass(frozen=True, eq=False)
class Field:
    """Grid function with fiber values, stored as an N x M complex array."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2:
            raise ValueError("values must be a 2-d array (grid x fiber)")
        object.__setattr__(self, "values", _readonly(v))


def _conform(space: WeightedSpace, field: Field) -> None:
    expect = (space.grid_size, space.fiber_dim)
    if field.values.shape != expect:
        raise ValueError(
            f"field shape {field.values.shape} does not match space {expect}"
        )


def inner(space: WeightedSpace, f: Field, g: Field) -> complex:
    """Weighted quadrature inner product, linear in the first argument.

    <f, g> = (1/N) sum_i <f(x_i), g(x_i)>_fiber * w_i, with the fiber
    pairing conjugating its second slot.

    The sum is taken under the space's unit weights, and its real and
    imaginary parts are multiplied back by 2^e, so one beyond the float
    range is infinite in that part rather than NaN in the other.
    """
    _conform(space, f)
    _conform(space, g)
    e = space.unit_exponent
    val = _inner(f, g, space.unit_weights, space.grid_size)
    with np.errstate(over="ignore"):
        return complex(np.ldexp(val.real, e), np.ldexp(val.imag, e))


def _inner(f: Field, g: Field, weights: np.ndarray, grid_size: int) -> complex:
    val = np.einsum("ij,ij,i->", f.values, g.values.conj(), weights) / grid_size
    return complex(val)


def norm(space: WeightedSpace, f: Field) -> float:
    """Norm induced by ``inner``; zero exactly when f vanishes on the
    positive-weight nodes.  It is ``_scaled_norm`` multiplied back by
    2^(e/2), so no weight the space accepts overflows its square."""
    return float(np.ldexp(_scaled_norm(space, f), space.unit_exponent // 2))


def _scaled_norm(space: WeightedSpace, f: Field) -> float:
    """||f|| / 2^(e/2): the norm under the space's unit weights."""
    _conform(space, f)
    sq = _inner(f, f, space.unit_weights, space.grid_size).real
    return float(np.sqrt(max(sq, 0.0)))


def total_mass(space: WeightedSpace) -> float:
    """Quadrature integral of the weight, (1/N) sum_i w_i, summed under the
    unit weights, so a sum above the float range that the mean is not does
    not overflow."""
    unit_mass = space.unit_weights.sum() / space.grid_size
    return float(np.ldexp(unit_mass, space.unit_exponent))


class _Normals:
    """Seeded standard normal draws: the one source of random probes in
    framelab.

    The uniforms are ``random.Random(seed).random()``, the stdlib Mersenne
    Twister, whose stream for a given seed Python keeps the same across
    releases; they are read into numpy with ``np.fromiter``, so no list is
    built and ``numpy.random`` is never imported.  Box-Muller turns them into
    normals: with u, v uniform on [0, 1), sqrt(-2 log(1 - u)) times
    cos(2 pi v) and sin(2 pi v) are two independent standard normals.
    """

    def __init__(self, seed: int):
        self._random = random.Random(seed).random

    def standard_normal(self, shape) -> np.ndarray:
        """Array of the given shape (an int or a tuple) of standard
        normals; the first half of the uniforms drawn gives the radii and
        the second half the angles."""
        n = int(np.prod(shape))
        pairs = (n + 1) // 2
        u = np.fromiter(iter(self._random, None), float, count=2 * pairs)
        radius = np.sqrt(-2.0 * np.log1p(-u[:pairs]))
        angle = 2.0 * np.pi * u[pairs:]
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        return z[:n].reshape(shape)


def random_field(space: WeightedSpace, rng) -> Field:
    """Standard complex Gaussian field, for sweeps and spot checks; ``rng``
    is any object with ``standard_normal(shape)``, a numpy ``Generator``
    say."""
    shape = (space.grid_size, space.fiber_dim)
    return Field(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
