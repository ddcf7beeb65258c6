"""Tensor families: structure, orthonormality, expansion round trips."""

import numpy as np
import pytest

from framelab import (
    Field,
    OperatorFamily,
    WeightedSpace,
    build_default,
    lambda_all,
    random_field,
    synthesis_gram,
    tensor_field,
)
from framelab.tensor_onb import TensorBasis, _field_matrix, fourier_family


def test_basis_validation():
    with pytest.raises(ValueError):
        TensorBasis(np.ones((3, 4)), np.eye(2))
    with pytest.raises(ValueError):
        TensorBasis(np.ones((3, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        TensorBasis(np.ones(3), np.eye(2))


def test_basis_adopts_readonly_family_and_copies_writable_one():
    fam = fourier_family(np.arange(16), np.arange(16), 16)
    assert not fam.flags.writeable
    assert np.shares_memory(TensorBasis(fam, np.eye(1)).scalar_family, fam)
    assert not build_default(8, 1).scalar_family.flags.writeable
    mine = np.array(fam)
    basis = TensorBasis(mine, np.eye(1))
    assert not np.shares_memory(basis.scalar_family, mine)
    mine[0, 0] = 0.0
    assert basis.scalar_family[0, 0] == fam[0, 0]


def test_default_family_is_unimodular_orthonormal():
    for n, m in [(1, 1), (2, 3), (8, 2), (16, 1)]:
        basis = build_default(n, m)
        assert basis.unimodularity_residual() < 1e-12
        assert basis.scalar_gram_residual() < 1e-12
        assert basis.fiber_gram_residual() == 0.0


def test_tensor_field_values():
    basis = build_default(4, 2)
    g = tensor_field(basis, 1, 1)
    # f_1(x_i) = i^i along the grid, g_1 = e_1
    expect = np.zeros((4, 2), dtype=complex)
    expect[:, 1] = [1, 1j, -1, -1j]
    assert np.allclose(g.values, expect, atol=1e-15)
    with pytest.raises(IndexError):
        tensor_field(basis, 2, 0)
    with pytest.raises(IndexError):
        tensor_field(basis, 0, 4)


def test_field_matrix_layout():
    basis = build_default(3, 2)
    V = _field_matrix(basis)
    assert V.shape == (6, 6)
    # row (m, n) m-major must flatten tensor_field(m, n) with i-major columns
    for m in range(2):
        for n in range(3):
            row = V[m * 3 + n]
            assert np.array_equal(row, tensor_field(basis, m, n).values.reshape(-1))


def test_verify_tensor_onb_brute_force():
    # the full (N*M) x (N*M) Gram of all G_{m,n} under unit weight
    sp = WeightedSpace.uniform(8, 2)
    gram = synthesis_gram(OperatorFamily(sp, build_default(8, 2)))
    assert np.max(np.abs(gram - np.eye(16))) < 1e-12


def test_expansion_round_trip():
    rng = np.random.default_rng(5)
    sp = WeightedSpace.uniform(8, 3)
    fam = OperatorFamily(sp, build_default(8, 3))
    for _ in range(10):
        f = random_field(sp, rng)
        c = lambda_all(fam, f)
        assert c.shape == (3, 8)


def test_coefficients_pick_out_members():
    sp = WeightedSpace.uniform(6, 2)
    basis = build_default(6, 2)
    c = lambda_all(OperatorFamily(sp, basis), tensor_field(basis, 1, 4))
    expect = np.zeros((2, 6))
    expect[1, 4] = 1.0
    assert np.max(np.abs(c - expect)) < 1e-12
