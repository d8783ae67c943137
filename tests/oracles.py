"""Test-only references that the production routes in ``spintorus`` are
compared against; none of them is called by a command, a check or the
library.

- ``embed_site_operator``: a one-site operator as a dense Kronecker chain.
- ``left_state`` and ``right_state``: one basis state at a time, entry by
  entry, the oracle of the stacked sweeps in ``sov_basis.basis_states``.
- ``monodromy_blocks``: the dense monodromy blocks, the oracle of
  ``apply_entry``, of the weight tiles and of the separated-basis actions.
- ``tiles_dense``: a ``monodromy._Tiles`` as the dense array it stands for.
- ``local_hamiltonian``, ``global_hamiltonian`` and
  ``transfer_log_derivative_residual``: the Hamiltonian identity
  H = sinh(eta) t'(0) t(0)^{-1} of the uniform chain.
- ``full_space_eigen`` and ``_full_space_spectrum``: one joint
  diagonalization on the whole 3^N space, each eigenvalue read by its own
  matvec and the Z3 charge read back from the twist eigenvalue by
  ``_z_charge``; ``spectrum._sector_spectrum`` and
  ``brute_force_spectrum`` split the same problem by Z3 charge.
"""
import numpy as np

from spintorus.chain import DEFAULT_SEED, ChainSpec
from spintorus.errors import InconsistencyError, require_three_flavors
from spintorus.monodromy import (_a_product, _dense, _sparse_blocks,
                                 apply_entry, apply_entry_bra, fd4_derivative,
                                 homogeneous_transfer, transfer, vacuum_bra,
                                 vacuum_ket)
from spintorus.rmatrix import permutation_matrix, twist_matrix
from spintorus.sov_basis import BasisIndex, _steps
from spintorus.spectrum import (U_PROBES, Z_CHARGE_TOL, SpectralRecord,
                                _twist_charge)
from spintorus.tensor_core import (_rel_resid, embed_two_site, kron_chain,
                                   simultaneous_eigen)


def embed_site_operator(a: np.ndarray, site: int, spec: ChainSpec) -> np.ndarray:
    """Embed a single-site operator at 1-indexed ``site``, identity elsewhere."""
    n, N = spec.n, spec.N
    if not (1 <= site <= N):
        raise ValueError(f"site {site} outside 1..{N}")
    a = np.asarray(a, dtype=complex)
    if a.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} site operator, got shape {a.shape}")
    left = np.eye(n ** (site - 1), dtype=complex)
    right = np.eye(n ** (N - site), dtype=complex)
    return kron_chain([left, a, right])


def left_state(idx: BasisIndex, spec: ChainSpec) -> np.ndarray:
    """Bra <0| C^2(theta_p) ... (flavor-2 block) C^3(...) ... C^n(...) as a row."""
    bra = vacuum_bra(spec)
    for f, p in _steps(idx):
        bra = apply_entry_bra(spec.theta[p - 1], f, 1, bra, spec)
    return bra


def right_state(idx: BasisIndex, spec: ChainSpec) -> np.ndarray:
    """Ket B_n(...) ... B_3(...) B_2(theta_p) ... |0>, the mirrored product."""
    ket = vacuum_ket(spec)
    for f, p in _steps(idx):
        ket = apply_entry(spec.theta[p - 1], 1, f, ket, spec)
    return ket


def monodromy_blocks(u: complex, spec: ChainSpec) -> list:
    """All n^2 auxiliary blocks at u: the dense oracle for ``apply_entry``."""
    return [[_dense(keys, vals, spec.dim) for keys, vals in row]
            for row in _sparse_blocks(complex(u), spec.n, spec.eta, spec.theta)]


def tiles_dense(tiled) -> np.ndarray:
    dim = sum(len(states) for states in tiled.sectors)
    out = np.zeros((dim, dim), dtype=complex)
    for (r, c), t in tiled.tiles.items():
        out[np.ix_(tiled.sectors[r], tiled.sectors[c])] = t
    return out


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


def transfer_log_derivative_residual(n: int, N: int, eta: complex) -> float:
    """Check H = sinh(eta) t'(0) t(0)^{-1} at the homogeneous point.

    t'(0) comes from the fourth-order difference oracle so the comparison is
    independent of the analytic derivative inside local_hamiltonian.
    """
    t0 = homogeneous_transfer(0.0, n, N, eta)
    tp = fd4_derivative(lambda u: homogeneous_transfer(u, n, N, eta), 0.0)
    lhs = np.sinh(eta) * tp @ np.linalg.inv(t0)
    return _rel_resid(global_hamiltonian(n, N, eta), lhs)


def _eigenvalue_of(dual: np.ndarray, vec: np.ndarray, tv: np.ndarray) -> complex:
    """Eigenvalue of an operator t on its eigenvector vec, read through the
    dual row from the product tv = t @ vec."""
    return complex((dual @ tv) / (dual @ vec))


def _z_charge(record: SpectralRecord, a_prod, tol: float = Z_CHARGE_TOL) -> int:
    """Z3 charge of the twist eigenvalue, cross-checked against the charge
    of prod_j lambda(theta_j) / a_prod, where a_prod = prod_j a(theta_j)."""
    z_twist = _twist_charge(record.mu[-1], tol)
    ratio = complex(np.prod([lam for lam in record.lambda_theta]) / a_prod)
    z_prod = _twist_charge(ratio, tol, "eigenvalue product ratio")
    if z_twist != z_prod:
        raise InconsistencyError(
            f"charge mismatch: twist route gives {z_twist}, "
            f"eigenvalue-product route gives {z_prod}")
    return z_twist


def full_space_eigen(build, N: int, points, rng_seed: int = DEFAULT_SEED):
    """The oracle of ``_sector_spectrum(build, N, points, rng_seed)``, with
    the same ``(mus, lam, vmat, wmat, resid)`` and no sector label: one joint
    diagonalization of {build(u_1), build(u_2), twist} on the full space,
    and the eigenvalue at each of ``points`` read record by record through
    its dual row."""
    records_raw, vmat, wmat, resid = simultaneous_eigen(
        [build(U_PROBES[0]), build(U_PROBES[1]),
         kron_chain([twist_matrix(3)] * N)], rng_seed=rng_seed)
    lam = np.empty((len(records_raw), len(points)), dtype=complex)
    for j, u in enumerate(points):
        t = build(u)  # one dense t(u) alive at a time
        for k, (vec, _) in enumerate(records_raw):
            lam[k, j] = _eigenvalue_of(wmat[k], vec, t @ vec)
        del t
    mus = np.array([mu for _, mu in records_raw])
    return mus, lam, vmat, wmat, resid


def _full_space_spectrum(spec, rng_seed: int = DEFAULT_SEED):
    """The oracle of ``brute_force_spectrum``: all 3^N transfer eigenstates
    by ``full_space_eigen`` on ``transfer``, each lambda(theta_j) read by its
    own matvec, with the same records and charges."""
    require_three_flavors("brute_force_spectrum", spec.n)
    mus, lam, vmat, wmat, resid = full_space_eigen(
        lambda u: transfer(u, spec), spec.N, spec.theta, rng_seed)
    records = [SpectralRecord(vector=vmat[:, k].copy(), dual=wmat[k],
                              mu=tuple(mus[k]),
                              lambda_theta=tuple(complex(x) for x in lam[k]),
                              z_charge=-1, residual=float(resid[k]))
               for k in range(spec.dim)]
    a_prod = _a_product(spec)
    for rec in records:
        rec.z_charge = _z_charge(rec, a_prod)
    return records
