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
    # The three families the runners build (analyze, shiftinv, the
    # heisenberg midpoint grid) equal a gather through the whole N x N
    # index, and building one holds the family plus one block of index rows,
    # not an N x N int64 index (8 N^2 bytes, 0.5 of the family).
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
    for args in ((k, k, n), (-k, k, n), (n // 2 - k, 2 * k + 1, 2 * n)):
        basis = TensorBasis.fourier(*args)
        assert basis.grid_size == n
        tracemalloc.start()
        try:
            basis._pairs
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
        R = basis._pairs.real  # which the basis writes once it holds its hypotheses
        assert _isometry_residual(R.T @ R, n) < 1e-12


def test_fourier_family_reduces_each_factor_before_the_product():
    # (2^40 + 1)(2^40 + 3) is past 2^63, so its int64 product would wrap and
    # read the wrong root; Python's integers give the exact index.
    k, m, denom = 2**40 + 1, 2**40 + 3, 7
    roots = np.exp(2j * np.pi * np.arange(denom) / denom)
    assert fourier_family([k], [m], denom)[0, 0] == roots[k * m % denom]
    # a recipe basis gathers its rows and their phases through the same
    # index: integers shifted by multiples of denom far past 2^32 give the
    # family and the real form of the reduced ones, bit for bit
    n = 16
    i = np.arange(n)
    big = TensorBasis.fourier(i + 2**40 * n, i - 2**41 * n, n)
    small = build_default(n)
    assert big.scalar_family.tobytes() == small.scalar_family.tobytes()
    assert big._pairs.real.tobytes() == small._pairs.real.tobytes()


@st.composite
def _closed_recipes(draw):
    """(freqs, numer, denom) of a family closed under conjugation: random
    numerators and denominator, and frequencies whose residues mod the
    period P = denom / gcd(denom, numer - numer[0]) are distinct and closed
    under negation, each shifted by a random multiple of P."""
    denom = draw(st.integers(1, 60))
    n = draw(st.integers(1, 12))
    numer = np.array(draw(st.lists(st.integers(-99, 99), min_size=n, max_size=n)))
    period = denom // int(np.gcd.reduce(numer - numer[0], initial=denom))
    orbits = {frozenset({r, -r % period}) for r in range(period)}
    orbits = draw(st.permutations(sorted(orbits, key=sorted)))
    residues = []
    for orbit in orbits:
        if len(residues) + len(orbit) <= n:
            residues += sorted(orbit)
    assume(len(residues) == n)
    shifts = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    freqs = np.array(draw(st.permutations(residues))) + period * np.array(shifts)
    return freqs, numer, denom


@settings(max_examples=150, deadline=None)
@given(_closed_recipes(), st.data())
def test_recipe_pairs_match_their_array_twin_bit_for_bit(recipe, data):
    # A Fourier basis pairs its rows from its integers and gathers the real
    # form from its table; its array twin finds the pairing on its keys and
    # checks it on every entry.  Both give the same pairs, bit for bit, and
    # the twin's unimodularity gap, measured on every entry, is within the
    # gap of the recipe's table of roots, which the recipe checks instead.
    # With one negated frequency dropped or held twice, every decider
    # refuses the recipe as it refuses its twin.
    checks = []
    check = tensor_onb._check_hypothesis

    def record(name, residual):
        checks.append((name, residual))
        check(name, residual)

    basis = TensorBasis.fourier(*recipe)
    twin = TensorBasis(basis.scalar_family)
    with mock.patch.object(tensor_onb, "_check_hypothesis", record):
        pairs, twin_pairs = basis._pairs, twin._pairs
    for name in ("real", "rows", "partner", "phase"):
        got, want = getattr(pairs, name), getattr(twin_pairs, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert pairs.n_self == twin_pairs.n_self
    (table_check, table_gap), (twin_check, twin_gap) = checks[:2]
    assert table_check == twin_check == "unimodularity"
    assert twin_gap == float(np.max(np.abs(np.abs(twin.scalar_family) - 1.0)))
    assert twin_gap <= table_gap <= 1e-15
    freqs, numer, denom = recipe
    n = freqs.size
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.sampled_from(np.flatnonzero(freqs != freqs[i]).tolist() or [i]))
    broken = freqs.copy()
    broken[j] = freqs[i]  # -freqs[j] loses its row, or freqs[i] gains one
    assume(not np.array_equal(broken, freqs))
    space = WeightedSpace(n, 1, np.linspace(0.5, 2.0, n))
    basis = TensorBasis.fourier(broken, numer, denom)
    fams = [OperatorFamily(space, b) for b in (basis, TensorBasis(basis.scalar_family))]
    # mostly a conjugate symmetry refusal; two rows on one self-conjugate
    # frequency still pair, and are refused as no isometry
    for decide in (classify, decide_frame, decide_onb):
        messages = []
        for fam in fams:
            with pytest.raises(ValueError) as err:
                decide(fam)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("family violates ")


# (recipe, tied rows, coefficient c, its partner) of two families whose
# rows a sort on Re z + c |Im z| of their keys z cannot tell apart: seven
# repeated nodes give four rows one real part (c = 0), and in a family of
# denominator 16 four rows, two pairs, share the key for c = tan(pi/8).
TIE_RECIPES = {
    "re": (
        ([0, 1, 14, 2, 13, 3, 12, 4, 11], [34, 1, 1, 1, 1, 1, 1, 1, -1], 15),
        [1, 2, 7, 8],
        0.0,
        [0, 2, 1, 4, 3, 6, 5, 8, 7],
    ),
    "tan": (
        ([5, 3, 11, 13], [0, 2, 1, 1], 16),
        [0, 1, 2, 3],
        np.tan(np.pi / 8),
        [2, 3, 0, 1],
    ),
}


@pytest.mark.parametrize("name", sorted(TIE_RECIPES))
def test_array_twin_pairs_rows_whose_keys_tie(name):
    # The tied rows share Re z + c |Im z| of their keys z = D F r to
    # rounding, so in the order of that key a row's partner need not be
    # its neighbour.  The array twin still pairs the rows as the recipe
    # does, and folds them to the same pairs, bit for bit.
    recipe, rows, c, partner = TIE_RECIPES[name]
    basis = TensorBasis.fourier(*recipe)
    F = basis.scalar_family
    r = np.sin(np.arange(1.0, F.shape[0] + 1) ** 2)
    z = (F * np.exp(-1j * np.angle(F[:, :1]))) @ r
    assert np.ptp((z.real + c * np.abs(z.imag))[rows]) <= 1e-14
    pairs, twin = basis._pairs, TensorBasis(F)._pairs
    assert pairs.partner.tolist() == partner
    for attr in ("real", "rows", "partner", "phase"):
        got, want = getattr(twin, attr), getattr(pairs, attr)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _outcome(fam) -> str:
    """The verdict of ``classify``, or the message of its refusal."""
    try:
        return classify(fam).verdict.value
    except ValueError as err:
        return str(err)


def _permutation_case(name: str):
    """(family, its conjugate row pairing) of the named case: the pairing of
    a Fourier family from its integers, and the identity for the real rows
    of the Walsh-Hadamard family."""
    if name == "walsh16":
        return walsh_family(16), np.arange(16)
    if name in TIE_RECIPES:
        basis = TensorBasis.fourier(*TIE_RECIPES[name][0])
    else:
        basis = build_default(64)
    return basis.scalar_family, basis._pairs.partner


@pytest.mark.parametrize("name", ["re", "tan", "dft64", "walsh16"])
def test_array_pairing_commutes_with_row_permutations(name):
    # Permuting the rows of an array basis permutes its pairing: row i of
    # F[perm] is row perm[i] of F, so its partner is the row of F[perm]
    # that holds p(perm[i]), inv[p[perm]] with inv the inverse permutation.
    # The verdict, or the refusal, of classify does not move, and for the
    # families it accepts neither do its spectrum, Gram bounds and residuals.
    family, partner = _permutation_case(name)
    n = family.shape[0]
    space = WeightedSpace(n, 1, np.linspace(0.5, 2.0, n))
    want = _outcome(OperatorFamily(space, TensorBasis(family)))
    kept = name in ("dft64", "walsh16")
    if kept:
        rep = classify(OperatorFamily(space, TensorBasis(family)))
    rng = np.random.default_rng(33)
    for _ in range(40):
        perm = rng.permutation(n)
        basis = TensorBasis(family[perm])
        assert np.array_equal(basis._pairs.partner, np.argsort(perm)[partner[perm]])
        fam = OperatorFamily(space, basis)
        assert _outcome(fam) == want
        if kept:
            got = classify(fam)
            assert np.max(np.abs(got.spectrum - rep.spectrum)) <= 1e-13
            assert np.max(np.abs(np.subtract(got.gram_bounds, rep.gram_bounds))) <= 1e-13
            assert got.residuals.keys() == rep.residuals.keys()
            for key, value in rep.residuals.items():
                assert abs(got.residuals[key] - value) <= 1e-13, key


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
