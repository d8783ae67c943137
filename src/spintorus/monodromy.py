"""Monodromy matrix, antiperiodic transfer matrix, and derived operators.

The monodromy matrix is the ordered product of R-matrices over sites N..1
acting on auxiliary x quantum space; it is held as the n x n array of its
auxiliary blocks, each a dense operator on the chain.  The blocks are built
by appending one site per step: the site being appended is a fresh (fastest)
tensor factor, and each new block is assembled from the old blocks times
the R-matrix's nonzero weights only, so no Kronecker product and no
n^(N+1)-dimensional object is ever materialized.  A transfer matrix builds
on its last site only the blocks its twisted trace reads.  ``apply_entry``
acts with one entry on a vector site by site, as a matrix product operator,
unbuilt.

Entry naming: A = block (1,1), B_i = block (1,i), C^i = block (i,1),
D^i_j = block (i,j) for i, j >= 2.  The antiperiodic transfer matrix is the
twisted auxiliary trace; for rank 3 it reads B_2(u) + D^2_3(u) + C^3(u).
"""
from __future__ import annotations

import numpy as np

from .chain import ChainSpec
from .rmatrix import local_hamiltonian, r_matrix, twist_matrix
from .tensor_core import embed_two_site, kron_chain

__all__ = [
    "scalar_a", "scalar_d", "scalar_d_l", "monodromy_blocks", "apply_entry",
    "apply_entry_bra", "transfer", "twist_operator",
    "vacuum_ket", "vacuum_bra", "conjugate_vacuum_ket", "conjugate_vacuum_bra",
    "product_identity_residual", "global_hamiltonian", "fd4_derivative",
    "transfer_log_derivative_residual", "exchange_relation_residuals",
]


def scalar_a(u: complex, spec: ChainSpec) -> complex:
    """Vacuum eigenvalue of the (1,1) entry: prod_l sinh(u - theta_l + eta)."""
    return complex(np.prod([np.sinh(u - t + spec.eta) for t in spec.theta]))


def scalar_d(u: complex, spec: ChainSpec) -> complex:
    """Vacuum weight of the lower-diagonal entries: prod_l sinh(u - theta_l)."""
    return complex(np.prod([np.sinh(u - t) for t in spec.theta]))


def scalar_d_l(u: complex, l: int, spec: ChainSpec) -> complex:
    """scalar_d with the factor for site l (1-indexed) removed."""
    if not (1 <= l <= spec.N):
        raise ValueError(f"site {l} outside 1..{spec.N}")
    return complex(np.prod([np.sinh(u - t)
                            for j, t in enumerate(spec.theta, start=1) if j != l]))


def _blocks_raw(u: complex, n: int, eta: complex, thetas,
                last_step=None) -> list:
    """Auxiliary blocks of R_{0N}(u - theta_N) ... R_{01}(u - theta_1).

    Appending a site to block T_kj gives the block of T_kj (x) <i c|R|k d>
    over the new site's (c, d).  The R-matrix obeys the ice rule, so each
    (i, c, d) has at most one nonzero weight: each new block is written as
    an (m, n, m, n) array, one slab T_kj * weight per nonzero weight, with
    the operands in ``np.kron``'s order.  ``last_step`` names the (i, j)
    blocks the final site builds; the other blocks of that step are None.
    """
    blocks = None
    for step, theta in enumerate(thetas, start=1):  # site 1 first, fastest
        rb = r_matrix(u - theta, n, eta).reshape(n, n, n, n)
        if blocks is None:
            blocks = [[np.ascontiguousarray(rb[i, :, j, :]) for j in range(n)]
                      for i in range(n)]
            continue
        m = blocks[0][0].shape[0]
        wanted = (last_step if last_step is not None and step == len(thetas)
                  else [(i, j) for i in range(n) for j in range(n)])
        new = [[None] * n for _ in range(n)]
        for i, j in wanted:
            acc = np.zeros((m, n, m, n), dtype=complex)
            for k in range(n):
                for c, d in zip(*np.nonzero(rb[i, :, k, :])):
                    acc[:, c, :, d] += blocks[k][j] * rb[i, c, k, d]
            new[i][j] = acc.reshape(m * n, m * n)
        blocks = new
    return blocks


def monodromy_blocks(u: complex, spec: ChainSpec) -> list:
    """All n^2 auxiliary blocks at u: the dense oracle for ``apply_entry``."""
    return _blocks_raw(complex(u), spec.n, spec.eta, spec.theta)


def _sweep(u: complex, i: int, j: int, vec: np.ndarray, spec: ChainSpec,
           site_transpose: bool) -> np.ndarray:
    """Entry (i, j) of the monodromy, a matrix product operator of bond
    dimension n, applied site by site: the auxiliary index enters as a bond
    in state j next to site 1, each site's R-matrix acts on the (bond, site)
    pair, the bond is swapped past the site, and after site N it is read at i."""
    if not (1 <= i <= spec.n and 1 <= j <= spec.n):
        raise ValueError(f"entry ({i},{j}) outside 1..{spec.n}")
    n = spec.n
    w = np.zeros((n, spec.dim), dtype=complex)
    w[j - 1] = vec
    for l, theta in enumerate(spec.theta):
        r = r_matrix(u - theta, n, spec.eta)
        if site_transpose:
            r = r.reshape(n, n, n, n).transpose(0, 3, 2, 1).reshape(n * n, n * n)
        w = r @ w.reshape(n ** l, n * n, -1)
        w = w.reshape(n ** l, n, n, -1).swapaxes(1, 2)
    return w.reshape(spec.dim, n)[:, i - 1]


def apply_entry(u: complex, i: int, j: int, vec: np.ndarray,
                spec: ChainSpec) -> np.ndarray:
    """T_ij(u) @ vec for the monodromy entry (i, j), 1-indexed."""
    return _sweep(u, i, j, vec, spec, site_transpose=False)


def apply_entry_bra(u: complex, i: int, j: int, vec: np.ndarray,
                    spec: ChainSpec) -> np.ndarray:
    """vec @ T_ij(u); the transpose transposes each R-matrix on its site."""
    return _sweep(u, i, j, vec, spec, site_transpose=True)


def _twisted_trace(u: complex, n: int, eta: complex, thetas) -> np.ndarray:
    """sum_{i,k} g[i, k] T[k][i] over the monodromy blocks T, g the cyclic
    twist; the last site builds only the blocks T[k][i] that the sum reads."""
    g = twist_matrix(n)
    terms = [(k, i, g[i, k]) for i, k in zip(*np.nonzero(g))]
    blocks = _blocks_raw(u, n, eta, thetas, [(k, i) for k, i, _ in terms])
    t = np.zeros((n ** len(thetas),) * 2, dtype=complex)
    for k, i, weight in terms:
        t += weight * blocks[k][i]
    return t


def transfer(u: complex, spec: ChainSpec) -> np.ndarray:
    """Antiperiodic transfer matrix: twisted trace of the monodromy blocks."""
    return _twisted_trace(complex(u), spec.n, spec.eta, spec.theta)


def twist_operator(spec: ChainSpec) -> np.ndarray:
    """Global twist: the cyclic shift applied at every site."""
    g = twist_matrix(spec.n)
    return kron_chain([g] * spec.N)


def vacuum_ket(spec: ChainSpec) -> np.ndarray:
    v = np.zeros(spec.dim, dtype=complex)
    v[0] = 1.0
    return v


def conjugate_vacuum_ket(spec: ChainSpec) -> np.ndarray:
    """All-sites-highest state; the image of the vacuum under the twist."""
    v = np.zeros(spec.dim, dtype=complex)
    v[-1] = 1.0
    return v


# Pairings are bilinear, so each reference bra has the entries of its ket.
vacuum_bra, conjugate_vacuum_bra = vacuum_ket, conjugate_vacuum_ket


def product_identity_residual(spec: ChainSpec) -> float:
    """prod_j t(theta_j) = prod_j scalar_a(theta_j) * twist_operator."""
    prod = np.eye(spec.dim, dtype=complex)
    for t in spec.theta:
        prod = prod @ transfer(t, spec)
    rhs = complex(np.prod([scalar_a(t, spec) for t in spec.theta])) * twist_operator(spec)
    scale = max(float(np.abs(prod).max()), float(np.abs(rhs).max()), 1e-30)
    return float(np.abs(prod - rhs).max()) / scale


# ---------------------------------------------------------------------------
# Hamiltonian at the homogeneous point
# ---------------------------------------------------------------------------

def global_hamiltonian(n: int, N: int, eta: complex) -> np.ndarray:
    """Nearest-neighbour Hamiltonian with the twisted closure bond.

    Bulk bonds embed the two-site density directly; the closure bond couples
    site N to the twist-conjugated site 1.  Defined at the homogeneous point
    (all inhomogeneities zero), which is where the transfer-matrix
    log-derivative reproduces it.
    """
    h2 = local_hamiltonian(n, eta)
    ham = np.zeros((n ** N, n ** N), dtype=complex)
    for j in range(1, N):
        ham += embed_two_site(h2, j, j + 1, n, N)
    g = twist_matrix(n)
    h_twisted = kron_chain([np.eye(n, dtype=complex), g]) @ h2 @ \
        kron_chain([np.eye(n, dtype=complex), np.linalg.inv(g)])
    return ham + embed_two_site(h_twisted, N, 1, n, N)


def fd4_derivative(f, u0: complex, h: float = 1e-4):
    """Fourth-order central difference derivative of a matrix-valued map."""
    return (-f(u0 + 2 * h) + 8 * f(u0 + h) - 8 * f(u0 - h) + f(u0 - 2 * h)) / (12 * h)


def homogeneous_transfer(u: complex, n: int, N: int, eta: complex) -> np.ndarray:
    """Transfer matrix of the homogeneous chain (all theta = 0)."""
    return _twisted_trace(complex(u), n, eta, (0.0,) * N)


def transfer_log_derivative_residual(n: int, N: int, eta: complex) -> float:
    """Check H = sinh(eta) t'(0) t(0)^{-1} at the homogeneous point.

    t'(0) comes from the fourth-order difference oracle so the comparison is
    independent of the analytic derivative inside local_hamiltonian.
    """
    t0 = homogeneous_transfer(0.0, n, N, eta)
    tp = fd4_derivative(lambda u: homogeneous_transfer(u, n, N, eta), 0.0)
    lhs = np.sinh(eta) * tp @ np.linalg.inv(t0)
    rhs = global_hamiltonian(n, N, eta)
    scale = max(float(np.abs(rhs).max()), 1.0)
    return float(np.abs(lhs - rhs).max()) / scale


# ---------------------------------------------------------------------------
# Exchange relations
# ---------------------------------------------------------------------------

def exchange_relation_residuals(u: complex, v: complex, spec: ChainSpec) -> dict:
    """Residuals of the quadratic exchange relations at spectral points (u, v).

    Every relation is instantiated as a dense operator identity for all valid
    index combinations; the value reported per family is the worst elementwise
    residual divided by max(|LHS|, |RHS|, 1).
    """
    n, eta = spec.n, spec.eta
    Tu = monodromy_blocks(u, spec)
    Tv = monodromy_blocks(v, spec)
    x = u - v
    shx = np.sinh(x)
    shxe = np.sinh(x + eta)

    def T(at, i, j):
        return (Tu if at == "u" else Tv)[i - 1][j - 1]

    # R(x) and R(-x) as (a, b, c, d) arrays; R(r, a, b, c, d) = <a b|r|c d>
    rx, rmx = (r_matrix(s, n, eta).reshape(n, n, n, n) for s in (x, -x))

    def R(r, a, b, c, d):
        return r[a - 1, b - 1, c - 1, d - 1]

    out: dict = {}

    def record(family, lhs, rhs):
        scale = max(float(np.abs(lhs).max()), float(np.abs(rhs).max()), 1.0)
        resid = float(np.abs(lhs - rhs).max()) / scale
        out[family] = max(out.get(family, 0.0), resid)

    rng2 = range(2, n + 1)

    # C D
    for l in rng2:
        for k in rng2:
            for i in rng2:
                lhs = T("v", l, 1) @ T("u", k, i)
                rhs = sum(R(rx, k, l, al, be) / shx * (T("u", al, i) @ T("v", be, 1))
                          for al in rng2 for be in rng2)
                rhs = rhs - R(rx, 1, i, i, 1) / shx * (T("v", l, i) @ T("u", k, 1))
                record("CD", lhs, rhs)

    # C A
    for k in rng2:
        lhs = T("v", k, 1) @ T("u", 1, 1)
        rhs = (np.sinh(x - eta) / shx * (T("u", 1, 1) @ T("v", k, 1))
               + R(rmx, k, 1, 1, k) / shx * (T("v", 1, 1) @ T("u", k, 1)))
        record("CA", lhs, rhs)

    # [C, B], both printed forms
    for i in rng2:
        for l in rng2:
            lhs = T("u", i, 1) @ T("v", 1, l) - T("v", 1, l) @ T("u", i, 1)
            rhs1 = (R(rx, l, 1, 1, l) * (T("v", 1, 1) @ T("u", i, l))
                    - R(rx, i, 1, 1, i) * (T("u", 1, 1) @ T("v", i, l))) / shx
            rhs2 = (R(rmx, 1, l, l, 1) * (T("u", i, l) @ T("v", 1, 1))
                    - R(rmx, 1, i, i, 1) * (T("v", i, l) @ T("u", 1, 1))) / shx
            record("CB-a", lhs, rhs1)
            record("CB-b", lhs, rhs2)

    # A B
    for i in rng2:
        lhs = T("u", 1, 1) @ T("v", 1, i)
        rhs = (np.sinh(x - eta) / shx * (T("v", 1, i) @ T("u", 1, 1))
               + R(rmx, 1, i, i, 1) / shx * (T("u", 1, i) @ T("v", 1, 1)))
        record("AB", lhs, rhs)

    # D B
    for j in rng2:
        for i in rng2:
            for l in rng2:
                lhs = T("u", j, i) @ T("v", 1, l)
                rhs = sum(R(rx, al, be, i, l) / shx * (T("v", 1, be) @ T("u", j, al))
                          for al in rng2 for be in rng2)
                rhs = rhs - R(rx, j, 1, 1, j) / shx * (T("u", 1, i) @ T("v", j, l))
                record("DB", lhs, rhs)

    # B B
    for i in rng2:
        for j in rng2:
            lhs = T("u", 1, i) @ T("v", 1, j)
            rhs = sum(R(rx, al, be, i, j) / shxe * (T("v", 1, be) @ T("u", 1, al))
                      for al in rng2 for be in rng2)
            record("BB", lhs, rhs)

    # C C
    for i in rng2:
        for j in rng2:
            lhs = T("v", j, 1) @ T("u", i, 1)
            rhs = sum(R(rx, i, j, al, be) / shxe * (T("u", al, 1) @ T("v", be, 1))
                      for al in rng2 for be in rng2)
            record("CC", lhs, rhs)

    # T T
    for al in range(1, n + 1):
        for be in range(1, n + 1):
            lhs = T("u", al, be) @ T("v", al, be) - T("v", al, be) @ T("u", al, be)
            record("TT1", lhs, np.zeros_like(lhs))
            if al == be:
                continue
            lhs = T("u", al, al) @ T("v", be, be) - T("v", be, be) @ T("u", al, al)
            rhs = (R(rx, be, al, al, be) * (T("v", be, al) @ T("u", al, be))
                   - R(rx, al, be, be, al) * (T("u", be, al) @ T("v", al, be))) / shx
            record("TT2", lhs, rhs)
            lhs = T("u", al, be) @ T("v", be, al) - T("v", be, al) @ T("u", al, be)
            rhs = R(rx, al, be, be, al) / shx * (
                T("v", be, be) @ T("u", al, al) - T("u", be, be) @ T("v", al, al))
            record("TT3", lhs, rhs)

    return out
