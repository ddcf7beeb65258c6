"""Tensor families: structure, orthonormality, expansion round trips."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framelab import (
    Field,
    OperatorFamily,
    WeightedSpace,
    build_default,
    classify,
    decide_frame,
    decide_onb,
    lambda_all,
    random_field,
    synthesis_gram,
)
from framelab.analyzer import _field_matrix
from framelab import tensor_onb
from framelab.tensor_onb import TensorBasis, _isometry_residual, fourier_family
from oracles import tensor_field, walsh_family


def test_basis_validation():
    with pytest.raises(ValueError):
        TensorBasis(np.ones((3, 4)))
    with pytest.raises(ValueError):
        TensorBasis(np.ones(3))


def test_non_integer_denominator_is_refused():
    k = np.arange(4)
    with pytest.raises(ValueError, match="^denom must be an integer"):
        TensorBasis.fourier(k, k, 4.5)
    for denom in (4.0, np.int64(4)):
        basis = TensorBasis.fourier(k, k, denom)
        assert basis.grid_size == 4 and type(basis.grid_size) is int
        assert np.array_equal(basis.scalar_family, build_default(4).scalar_family)


def test_basis_adopts_readonly_family_and_copies_writable_one():
    fam = fourier_family(np.arange(16), np.arange(16), 16)
    assert not fam.flags.writeable
    assert np.shares_memory(TensorBasis(fam).scalar_family, fam)
    assert not build_default(8).scalar_family.flags.writeable
    mine = np.array(fam)
    basis = TensorBasis(mine)
    assert not np.shares_memory(basis.scalar_family, mine)
    mine[0, 0] = 0.0
    assert basis.scalar_family[0, 0] == fam[0, 0]


def test_fourier_family_gathers_in_row_blocks():
    # The two families the runners build (analyze and heisenberg, shiftinv)
    # and the translate family of the midpoint grid equal a gather through
    # the whole N x N index, and building one holds the family plus one
    # block of index rows, not an N x N int64 index (8 N^2 bytes, 0.5 of
    # the family).
    n = 512
    k = np.arange(n)
    for args in ((k, k, n), (-k, k, n), (n // 2 - k, 2 * k + 1, 2 * n)):
        tracemalloc.start()
        try:
            fam = fourier_family(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 16 * n * n
        freqs, numer, denom = args
        roots = np.exp(2j * np.pi * np.arange(denom) / denom)
        np.testing.assert_array_equal(fam, roots[np.multiply.outer(freqs, numer) % denom])
        assert not fam.flags.writeable


def test_recipe_basis_keeps_only_the_real_form():
    # A basis built from a Fourier recipe generates its family in the fold
    # and keeps the real form R (8 N^2 bytes) with O(N) pairing data, not
    # the complex family (16 N^2 bytes); scalar_family generates the family
    # again on each read, bit for bit and read-only.
    n = 512
    k = np.arange(n)
    for args in ((k, k, n), (-k, k, n)):
        basis = TensorBasis.fourier(*args)
        assert basis.grid_size == n
        tracemalloc.start()
        try:
            basis._form
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 8 * n * n + 64 * n
        fam = basis.scalar_family
        np.testing.assert_array_equal(fam, fourier_family(*args))
        assert not fam.flags.writeable
        assert not np.shares_memory(fam, basis.scalar_family)
    with pytest.raises(ValueError, match="one length"):
        TensorBasis.fourier(k, k[:-1], n)


def test_default_family_is_unimodular_orthonormal():
    for n in (1, 2, 8, 16):
        basis = build_default(n)
        assert np.max(np.abs(np.abs(basis.scalar_family) - 1.0)) < 1e-12
        R = basis._form.matrix  # which the basis writes once it holds its hypotheses
        assert _isometry_residual(R.T @ R, n) < 1e-12


def test_fourier_family_reduces_each_factor_before_the_product():
    # (2^40 + 1)(2^40 + 3) is past 2^63, so its int64 product would wrap and
    # read the wrong root; Python's integers give the exact index.
    k, m, denom = 2**40 + 1, 2**40 + 3, 7
    roots = np.exp(2j * np.pi * np.arange(denom) / denom)
    assert fourier_family([k], [m], denom)[0, 0] == roots[k * m % denom]
    # a recipe basis gathers its rows through the same index: integers
    # shifted by multiples of denom far past 2^32 give the family and the
    # real form of the reduced ones, bit for bit
    n = 16
    i = np.arange(n)
    big = TensorBasis.fourier(i + 2**40 * n, i - 2**41 * n, n)
    small = build_default(n)
    assert big.scalar_family.tobytes() == small.scalar_family.tobytes()
    assert big._form.matrix.tobytes() == small._form.matrix.tobytes()


@st.composite
def _closed_recipes(draw):
    """(freqs, numer, denom) of a family closed under conjugation, and in
    three draws of four an isometry: numerators g times a complete residue
    set mod n, each shifted by a random multiple of denom = g n, so the
    period is n; else random numerators and denominator.  The frequencies
    have residues mod the period P = denom / gcd(denom, numer) that are
    distinct and closed under negation, each shifted by a random multiple
    of P."""
    n = draw(st.integers(1, 12))
    shifts = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    if draw(st.integers(0, 3)):
        g = draw(st.integers(1, 5))
        denom = g * n
        numer = g * np.array(draw(st.permutations(range(n)))) + denom * np.array(draw(shifts))
    else:
        denom = draw(st.integers(1, 60))
        numer = np.array(draw(st.lists(st.integers(-99, 99), min_size=n, max_size=n)))
    period = denom // int(np.gcd.reduce(numer, initial=denom))
    orbits = {frozenset({r, -r % period}) for r in range(period)}
    orbits = draw(st.permutations(sorted(orbits, key=sorted)))
    residues = []
    for orbit in orbits:
        if len(residues) + len(orbit) <= n:
            residues += sorted(orbit)
    assume(len(residues) == n)
    freqs = np.array(draw(st.permutations(residues))) + period * np.array(draw(shifts))
    return freqs, numer, denom


def _decision(decide, fam):
    """The report of ``decide`` on ``fam``, or the message of its refusal."""
    try:
        return decide(fam)
    except ValueError as err:
        return str(err)


def _assert_same_report(got, want, tol=1e-13):
    """One verdict, and spectrum, Gram bounds and every residual within ``tol``."""
    assert got.verdict is want.verdict
    for name in ("spectrum", "gram_bounds"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.max(np.abs(np.subtract(a, b))) <= tol, name
    assert got.residuals.keys() == want.residuals.keys()
    for key, value in want.residuals.items():
        assert abs(got.residuals[key] - value) <= tol, key


@settings(max_examples=150)
@given(_closed_recipes(), st.data())
def test_recipe_and_its_array_twin_give_one_decision(recipe, data):
    # A Fourier basis pairs its rows from its integers and decides on its
    # real fold; its array twin holds the family as given and decides on it
    # in complex arithmetic.  The twin's unimodularity gap, measured on
    # every entry, is within the gap of the recipe's table of roots, which
    # the recipe checks instead.  Every decider gives both one verdict, with
    # spectra and residuals within 1e-13, or refuses both on the isometry
    # with residuals within 1e-13.  With one negated frequency dropped or
    # held twice the recipe pairs no rows, and every decider refuses it and
    # its twin, which hold the same family, with one message.
    checks = []
    check = tensor_onb._check_hypothesis

    def record(name, residual):
        checks.append((name, residual))
        check(name, residual)

    basis = TensorBasis.fourier(*recipe)
    n = basis.grid_size
    space = WeightedSpace(n, 1, np.linspace(0.5, 2.0, n))
    bases = (basis, TensorBasis(basis.scalar_family))
    with mock.patch.object(tensor_onb, "_check_hypothesis", record):
        forms = [b._form for b in bases]
    (table_check, table_gap), (twin_check, twin_gap) = checks
    assert table_check == twin_check == "unimodularity"
    assert twin_gap == float(np.max(np.abs(np.abs(bases[1].scalar_family) - 1.0)))
    assert twin_gap <= table_gap <= 1e-15
    residuals = [_isometry_residual(f.matrix.conj().T @ f.matrix, n) for f in forms]
    assert abs(residuals[0] - residuals[1]) <= 1e-13
    for decide in (classify, decide_frame, decide_onb):
        got, want = (_decision(decide, OperatorFamily(space, b)) for b in bases)
        if isinstance(want, str):
            assert isinstance(got, str)
            for message in (got, want):
                assert message.startswith("family violates scalar orthonormality ")
        else:
            _assert_same_report(got, want)
    freqs, numer, denom = recipe
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.sampled_from(np.flatnonzero(freqs != freqs[i]).tolist() or [i]))
    broken = freqs.copy()
    broken[j] = freqs[i]  # -freqs[j] loses its row, or freqs[i] gains one
    assume(not np.array_equal(broken, freqs))
    basis = TensorBasis.fourier(broken, numer, denom)
    fams = [OperatorFamily(space, b) for b in (basis, TensorBasis(basis.scalar_family))]
    for decide in (classify, decide_frame, decide_onb):
        messages = []
        for fam in fams:
            with pytest.raises(ValueError) as err:
                decide(fam)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("family violates scalar orthonormality ")


def test_non_integral_recipe_integers_are_refused():
    # Frequencies and numerators are integers: a non-integral, non-real,
    # non-finite or out-of-int64 value is refused by both entry points,
    # naming its argument, where it used to be truncated or to raise another
    # error; a complex value is refused on its imaginary part, whichever
    # warning the cast to float would raise.
    k = np.arange(4)
    bad = (
        [0, 1.5, 2.7, 3],
        [0.5, 1, 2, 3],
        [0, 1, 2, 1e300],
        [0, 1, 2, np.inf],
        [0, 1, 2, -np.inf],
        [0, 1, 2, np.nan],
        [0, 1, 2, 2.0**63],
        [0, 1 + 0.5j, 2, 3],
    )
    for values in bad:
        with pytest.raises(ValueError, match="^freqs must hold int64 integers"):
            TensorBasis.fourier(values, k, 4)
        with pytest.raises(ValueError, match="^numer must hold int64 integers"):
            TensorBasis.fourier(k, values, 4)
        with pytest.raises(ValueError, match="^freqs must hold int64 integers"):
            fourier_family(values, k, 4)
        with pytest.raises(ValueError, match="^numer must hold int64 integers"):
            fourier_family(k, values, 4)
    with pytest.raises(ValueError, match=r"^freqs must hold int64 integers, got 0\.5$"):
        fourier_family([0.5], [1], 4)
    with pytest.raises(ValueError, match=r"^numer must hold int64 integers, got 1j$"):
        TensorBasis.fourier([0], [1j], 4)
    with pytest.raises(ValueError, match="^freqs must hold int64 integers"):
        fourier_family([2**70], [1], 4)
    # the denominator is one integer of at least 1, refused by name where it
    # used to raise a ufunc casting, division or index error
    for denom, message in (
        (2.5, r"^denom must be an integer, got 2\.5$"),
        (np.nan, r"^denom must be an integer, got nan$"),
        (0, r"^denom must be >= 1$"),
        (-4, r"^denom must be >= 1$"),
    ):
        with pytest.raises(ValueError, match=message):
            TensorBasis.fourier(k, k, denom)
        with pytest.raises(ValueError, match=message):
            fourier_family(k, k, denom)
    # the integers are 1-d and the table of roots at most 2^20 long: a 2-d
    # or 0-d argument used to raise a broadcast or an index error, or to
    # give a family of the wrong shape, and denom 2^34 asked for 128 GiB
    for args, message in (
        (([[1, 2]], [0, 1], 4), r"^freqs must be 1-d, got shape \(1, 2\)$"),
        (([0, 1], [[0, 1]], 4), r"^numer must be 1-d, got shape \(1, 2\)$"),
        ((1, 1, 4), r"^freqs must be 1-d, got shape \(\)$"),
        (([0], [0], 2**34), r"^denom must be <= 2\*\*20, got 17179869184$"),
        (([0], [0], 2**20 + 1), r"^denom must be <= 2\*\*20, got 1048577$"),
    ):
        with pytest.raises(ValueError, match=message):
            TensorBasis.fourier(*args)
        with pytest.raises(ValueError, match=message):
            fourier_family(*args)
    assert fourier_family([1], [1], 2**20)[0, 0] == np.exp(2j * np.pi / 2**20)
    # integral values of any dtype give the family of their int64 values
    want = build_default(4).scalar_family
    for values in (
        k, k.astype(float), k.tolist(), k.astype(np.uint8), [0.0, 1.0, 2, 3], k + 0j
    ):
        assert np.array_equal(TensorBasis.fourier(values, values, 4).scalar_family, want)
        assert np.array_equal(fourier_family(values, values, 4), want)
    assert fourier_family([-(2**63)], [1], 4)[0, 0] == 1.0


@pytest.mark.parametrize("weight", ["ramp", "step", "constant"])
@pytest.mark.parametrize("name", ["dft64", "walsh16"])
def test_decisions_ignore_column_phases_and_row_order(name, weight):
    # F diag(u) for unit u is an isometry with the moduli of F, though no
    # row of it is the conjugate of another, even up to a constant phase,
    # and so is F with its rows permuted.  Each array is taken as given:
    # classify gives each the verdict of F, and its spectrum, Gram bounds
    # and every residual within 1e-13 (onb_parseval too, since F is
    # orthonormal: the energies of its random probes do not move).
    F = build_default(64).scalar_family if name == "dft64" else walsh_family(16)
    n = F.shape[0]
    w = {
        "ramp": np.linspace(0.5, 2.0, n),
        "step": np.where(np.arange(n) < n // 4, 0.0, 1.0),
        "constant": np.ones(n),
    }[weight]
    rng = np.random.default_rng(36)
    space = WeightedSpace(n, 1, w)
    want = classify(OperatorFamily(space, TensorBasis(F)))
    for _ in range(5):
        u, perm = np.exp(2j * np.pi * rng.random(n)), rng.permutation(n)
        for G in (F * u, F[perm], F[perm] * u):
            got = classify(OperatorFamily(space, TensorBasis(G)))
            _assert_same_report(got, want)


def test_tensor_field_values():
    fam = OperatorFamily(WeightedSpace(4, 2, np.ones(4)), build_default(4))
    g = tensor_field(fam, 1, 1)
    # f_1(x_i) = i^i along the grid, g_1 = e_1
    expect = np.zeros((4, 2), dtype=complex)
    expect[:, 1] = [1, 1j, -1, -1j]
    assert np.allclose(g.values, expect, atol=1e-15)
    with pytest.raises(IndexError):
        tensor_field(fam, 2, 0)
    with pytest.raises(IndexError):
        tensor_field(fam, 0, 4)


def test_field_matrix_layout():
    fam = OperatorFamily(WeightedSpace(3, 2, np.ones(3)), build_default(3))
    V = _field_matrix(fam)
    assert V.shape == (6, 6)
    # row (m, n) m-major must flatten tensor_field(m, n) with i-major columns
    for m in range(2):
        for n in range(3):
            row = V[m * 3 + n]
            assert np.array_equal(row, tensor_field(fam, m, n).values.reshape(-1))


def test_verify_tensor_onb_brute_force():
    # the full (N*M) x (N*M) Gram of all G_{m,n} under unit weight
    sp = WeightedSpace(8, 2, np.ones(8))
    gram = synthesis_gram(OperatorFamily(sp, build_default(8)))
    assert np.max(np.abs(gram - np.eye(16))) < 1e-12


def test_expansion_round_trip():
    rng = np.random.default_rng(5)
    sp = WeightedSpace(8, 3, np.ones(8))
    fam = OperatorFamily(sp, build_default(8))
    for _ in range(10):
        f = random_field(sp, rng)
        c = lambda_all(fam, f)
        assert c.shape == (3, 8)


def test_coefficients_pick_out_members():
    sp = WeightedSpace(6, 2, np.ones(6))
    fam = OperatorFamily(sp, build_default(6))
    c = lambda_all(fam, tensor_field(fam, 1, 4))
    expect = np.zeros((2, 6))
    expect[1, 4] = 1.0
    assert np.max(np.abs(c - expect)) < 1e-12
