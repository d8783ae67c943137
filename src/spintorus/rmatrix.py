"""Trigonometric rank-n R-matrix in the principal gradation, with the cyclic
twist and the derived two-site Hamiltonian density.

Entry layout on V x V follows the site ordering of tensor_core: basis
|a b> with the first factor slowest, so R[(a-1)n + (b-1), (c-1)n + (d-1)]
is the element <a b|R|c d>.

The nonzero elements are, for 1-indexed a != b,

    <a a|R(u)|a a> = sinh(u + eta)
    <a b|R(u)|a b> = sinh(u)
    <a b|R(u)|b a> = sinh(eta) exp(+((n - 2(b-a))/n) u)   for a < b
    <a b|R(u)|b a> = sinh(eta) exp(-((n - 2(a-b))/n) u)   for a > b

so the off-diagonal weights carry fractional exponential dressing instead of
being constant; that dressing is what makes the cyclic twist a symmetry.
"""
from __future__ import annotations

import numpy as np

from .tensor_core import embed_two_site


def r_matrix(u: complex, n: int, eta: complex) -> np.ndarray:
    """Dense n^2 x n^2 R-matrix R(u)."""
    r = np.zeros((n * n, n * n), dtype=complex)
    sh_eta = np.sinh(eta)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            row = (a - 1) * n + (b - 1)
            if a == b:
                r[row, row] = np.sinh(u + eta)
                continue
            r[row, row] = np.sinh(u)
            col = (b - 1) * n + (a - 1)
            if a < b:
                w = sh_eta * np.exp((n - 2 * (b - a)) / n * u)
            else:
                w = sh_eta * np.exp(-(n - 2 * (a - b)) / n * u)
            r[row, col] = w
    return r


def r_element(u: complex, n: int, eta: complex, a: int, b: int, c: int, d: int) -> complex:
    """Single element <a b|R(u)|c d> (1-indexed)."""
    return complex(r_matrix(u, n, eta)[(a - 1) * n + (b - 1), (c - 1) * n + (d - 1)])


def permutation_matrix(n: int) -> np.ndarray:
    """Exchange operator P|a b> = |b a> on V x V."""
    p = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            p[a * n + b, b * n + a] = 1.0
    return p


def twist_matrix(n: int) -> np.ndarray:
    """Cyclic shift g|k> = |k+1 mod n>; g^n = 1 and (g x g) commutes with R."""
    g = np.zeros((n, n), dtype=complex)
    for k in range(n):
        g[(k + 1) % n, k] = 1.0
    return g


def partial_transpose_first(m: np.ndarray, n: int) -> np.ndarray:
    """Transpose in the first tensor factor of an n^2 x n^2 matrix."""
    return m.reshape(n, n, n, n).transpose(2, 1, 0, 3).reshape(n * n, n * n)


def r_matrix_swapped(u: complex, n: int, eta: complex) -> np.ndarray:
    """R with its two spaces exchanged: P R(u) P."""
    p = permutation_matrix(n)
    return p @ r_matrix(u, n, eta) @ p


def unitarity_scalar(u: complex, eta: complex) -> complex:
    """rho_1(u) = -sinh(u + eta) sinh(u - eta)."""
    return -np.sinh(u + eta) * np.sinh(u - eta)


def crossing_scalar(u: complex, n: int, eta: complex) -> complex:
    """rho_2(u) = -sinh(u) sinh(u + n eta)."""
    return -np.sinh(u) * np.sinh(u + n * eta)


def local_hamiltonian(n: int, eta: complex) -> np.ndarray:
    """Two-site Hamiltonian density h = d/du [P R(u)] at u = 0, analytically.

    Diagonal |a b> entries differentiate to cosh-type terms; the exchange
    entries differentiate the exponential dressing only, since sinh(eta) is
    constant in u.
    """
    rp = np.zeros((n * n, n * n), dtype=complex)
    sh_eta = np.sinh(eta)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            row = (a - 1) * n + (b - 1)
            if a == b:
                rp[row, row] = np.cosh(eta)
                continue
            rp[row, row] = 1.0  # d/du sinh(u) at 0
            col = (b - 1) * n + (a - 1)
            if a < b:
                alpha = (n - 2 * (b - a)) / n
            else:
                alpha = -(n - 2 * (a - b)) / n
            rp[row, col] = alpha * sh_eta
    return permutation_matrix(n) @ rp


# ---------------------------------------------------------------------------
# Property residuals.  Each returns a max-abs residual already divided by
# max(|LHS| scale, 1), so values compare directly against tolerances.
# ---------------------------------------------------------------------------

def _rel_resid(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(float(np.abs(lhs).max()), 1.0)
    return float(np.abs(lhs - rhs).max()) / scale


def qybe_residual(n: int, eta: complex, u1: complex, u2: complex, u3: complex) -> float:
    """Yang-Baxter residual on V x V x V at spectral points u1, u2, u3."""
    r12 = embed_two_site(r_matrix(u1 - u2, n, eta), 1, 2, n, 3)
    r13 = embed_two_site(r_matrix(u1 - u3, n, eta), 1, 3, n, 3)
    r23 = embed_two_site(r_matrix(u2 - u3, n, eta), 2, 3, n, 3)
    return _rel_resid(r12 @ r13 @ r23, r23 @ r13 @ r12)


def initial_condition_residual(n: int, eta: complex) -> float:
    """R(0) = sinh(eta) P."""
    return _rel_resid(r_matrix(0.0, n, eta), np.sinh(eta) * permutation_matrix(n))


def unitarity_residual(u: complex, n: int, eta: complex) -> float:
    """R12(u) R21(-u) = rho_1(u) id."""
    lhs = r_matrix(u, n, eta) @ r_matrix_swapped(-u, n, eta)
    rhs = unitarity_scalar(u, eta) * np.eye(n * n, dtype=complex)
    return _rel_resid(lhs, rhs)


def crossing_residual(u: complex, n: int, eta: complex) -> float:
    """R12^{t1}(u) R21^{t1}(-u - n eta) = rho_2(u) id."""
    lhs = (partial_transpose_first(r_matrix(u, n, eta), n)
           @ partial_transpose_first(r_matrix_swapped(-u - n * eta, n, eta), n))
    rhs = crossing_scalar(u, n, eta) * np.eye(n * n, dtype=complex)
    return _rel_resid(lhs, rhs)


def fusion_rank(n: int, eta: complex) -> int:
    """Rank of R(-eta); the degeneration point projects on n(n-1)/2 states."""
    return int(np.linalg.matrix_rank(r_matrix(-eta, n, eta)))


def twist_invariance_residual(u: complex, n: int, eta: complex) -> float:
    """(g x g) R(u) (g x g)^{-1} = R(u)."""
    g = twist_matrix(n)
    gg = np.kron(g, g)
    r = r_matrix(u, n, eta)
    return _rel_resid(gg @ r @ np.linalg.inv(gg), r)


def swap_conjugation_residual(u: complex, n: int, eta: complex) -> float:
    """R21(u) agrees with P R12(u) P computed elementwise."""
    p = permutation_matrix(n)
    r4 = r_matrix(u, n, eta).reshape(n, n, n, n)
    r21 = r4.transpose(1, 0, 3, 2).reshape(n * n, n * n)
    return _rel_resid(r21, p @ r_matrix(u, n, eta) @ p)
