"""Two-site scattering matrix: structure, scalar identities, local terms.

Reference constants are frozen from 50-digit evaluations of the element
formulas (sinh/cosh/exp combinations), so every numeric assertion has an
oracle independent of the implementation under test.
"""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from spintorus.monodromy import fd4_derivative
from spintorus.rmatrix import (crossing_residual, crossing_scalar,
                               fusion_rank, initial_condition_residual,
                               permutation_matrix, qybe_residual, r_matrix,
                               twist_invariance_residual, twist_matrix,
                               unitarity_residual, unitarity_scalar)

from oracles import local_hamiltonian

ETA = 0.5

# 50-digit evaluations at u = 0.3, eta = 0.5, n = 3
SINH_08 = 0.88810598218762301        # sinh(u + eta)
SINH_03 = 0.30452029344714262        # sinh(u)
EXCH_PLUS = 0.57589937717743484      # e^{+u/3} sinh(eta)
EXCH_MINUS = 0.47150653077362194     # e^{-u/3} sinh(eta)
RHO1_03 = 0.17880770828648804        # -sinh(u + eta) sinh(u - eta)
RHO2_03 = -0.89595177758353433       # -sinh(u) sinh(u + 3 eta)


def test_zero_argument_is_scaled_permutation():
    for n in (2, 3, 4):
        assert_allclose(r_matrix(0.0, n, ETA),
                        np.sinh(ETA) * permutation_matrix(n), atol=1e-15)
        assert initial_condition_residual(n, ETA) < 1e-13


def test_element_values_frozen():
    # <a b|R|c d> sits at row 3(a-1) + (b-1), column 3(c-1) + (d-1)
    r = r_matrix(0.3, 3, ETA)
    assert abs(r[0, 0] - SINH_08) < 1e-15
    assert abs(r[1, 1] - SINH_03) < 1e-15
    exchange = {complex(r[1, 3]), complex(r[3, 1])}
    for got, want in zip(sorted(exchange, key=lambda z: z.real),
                         sorted((EXCH_PLUS, EXCH_MINUS))):
        assert abs(got - want) < 1e-15


def test_dense_matrix_matches_elements(rng):
    # every element against the printed formulas, zero where none applies
    u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    mat = r_matrix(u, 3, ETA)
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                for d in range(1, 4):
                    want = 0.0
                    if (a, b) == (c, d):
                        want = np.sinh(u + ETA) if a == b else np.sinh(u)
                    elif (a, b) == (d, c):
                        alpha = (3 - 2 * abs(b - a)) / 3 * (1 if a < b else -1)
                        want = np.sinh(ETA) * np.exp(alpha * u)
                    got = mat[3 * (a - 1) + (b - 1), 3 * (c - 1) + (d - 1)]
                    assert abs(got - want) < 1e-15


def test_qybe_random_triples(rng):
    for n in (2, 3, 4):
        for _ in range(5):
            u1, u2, u3 = (complex(a, b) for a, b in
                          zip(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)))
            assert qybe_residual(n, ETA, u1, u2, u3) < 1e-13


def test_unitarity_scalar_and_residual(rng):
    assert abs(unitarity_scalar(0.3, ETA) - RHO1_03) < 1e-15
    for n in (2, 3, 4):
        for _ in range(4):
            u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert unitarity_residual(u, n, ETA) < 1e-13


def test_crossing_scalar_and_residual(rng):
    assert abs(crossing_scalar(0.3, 3, ETA) - RHO2_03) < 1e-15
    for n in (2, 3, 4):
        for _ in range(4):
            u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert crossing_residual(u, n, ETA) < 1e-12


def test_cyclic_twist_structure():
    g3 = twist_matrix(3)
    assert_allclose(g3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]], atol=0)
    assert_allclose(np.linalg.matrix_power(g3, 3), np.eye(3), atol=0)
    g2 = twist_matrix(2)
    assert_allclose(g2, [[0, 1], [1, 0]], atol=0)
    assert_allclose(g2 @ g2, np.eye(2), atol=0)


def test_twist_invariance(rng):
    for n in (2, 3):
        for _ in range(4):
            u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert twist_invariance_residual(u, n, ETA) < 1e-13


def test_swap_conjugation(rng):
    # R21(u), its two spaces exchanged elementwise, equals P R12(u) P
    u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    for n in (2, 3):
        r = r_matrix(u, n, ETA)
        r21 = r.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)
        p = permutation_matrix(n)
        assert np.abs(r21 - p @ r @ p).max() < 1e-13


def test_fusion_rank_matches_antisymmetriser():
    assert fusion_rank(2, ETA) == 1
    assert fusion_rank(3, ETA) == 3
    assert fusion_rank(4, ETA) == 6


def test_fusion_point_is_projector_multiple():
    # non-contract sanity: R(-eta)/(-2 sinh eta) squares to itself for n = 3
    proj = r_matrix(-ETA, 3, ETA) / (-2 * np.sinh(ETA))
    assert np.abs(proj @ proj - proj).max() < 1e-13


def test_local_term_diagonal_entries():
    h = local_hamiltonian(3, ETA)
    # aligned pairs differentiate sinh(u + eta) at u = 0
    for a in range(3):
        k = 3 * a + a
        assert abs(h[k, k] - np.cosh(ETA)) < 1e-14


def test_local_term_against_difference_oracle():
    for n in (2, 3):
        perm = permutation_matrix(n)
        dr = fd4_derivative(lambda u: perm @ r_matrix(u, n, ETA), 0.0)
        assert np.abs(local_hamiltonian(n, ETA) - dr).max() < 1e-9
