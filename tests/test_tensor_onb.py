"""Tensor families: structure, orthonormality, expansion round trips."""

import numpy as np
import pytest

from framelab import (
    Field,
    WeightedSpace,
    build_default,
    coefficients,
    random_field,
    tensor_field,
    verify_tensor_onb,
)
from framelab.tensor_onb import TensorBasis, _field_matrix


def test_basis_validation():
    with pytest.raises(ValueError):
        TensorBasis(np.ones((3, 4)), np.eye(2))
    with pytest.raises(ValueError):
        TensorBasis(np.ones((3, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        TensorBasis(np.ones(3), np.eye(2))


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
    sp = WeightedSpace.uniform(8, 2)
    basis = build_default(8, 2)
    assert verify_tensor_onb(sp, basis) < 1e-12
    bad = WeightedSpace(8, 2, np.linspace(0.5, 1.5, 8))
    with pytest.raises(ValueError):
        verify_tensor_onb(bad, basis)


def test_expansion_round_trip():
    rng = np.random.default_rng(5)
    sp = WeightedSpace.uniform(8, 3)
    basis = build_default(8, 3)
    for _ in range(10):
        f = random_field(sp, rng)
        c = coefficients(sp, basis, f)
        assert c.shape == (3, 8)


def test_coefficients_pick_out_members():
    sp = WeightedSpace.uniform(6, 2)
    basis = build_default(6, 2)
    c = coefficients(sp, basis, tensor_field(basis, 1, 4))
    expect = np.zeros((2, 6))
    expect[1, 4] = 1.0
    assert np.max(np.abs(c - expect)) < 1e-12
