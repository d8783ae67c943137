"""Full-space spectral oracles: one joint diagonalization on the whole 3^N
space, each eigenvalue read by its own matvec.  ``spectrum._sector_spectrum``
and ``brute_force_spectrum`` split the same problem by Z3 charge; the tests
compare them against these.
"""
import numpy as np

from spintorus.chain import DEFAULT_SEED
from spintorus.errors import require_three_flavors
from spintorus.monodromy import _a_product, transfer
from spintorus.rmatrix import twist_matrix
from spintorus.spectrum import U_PROBES, SpectralRecord, _z_charge
from spintorus.tensor_core import kron_chain, simultaneous_eigen


def _eigenvalue_of(dual: np.ndarray, vec: np.ndarray, tv: np.ndarray) -> complex:
    """Eigenvalue of an operator t on its eigenvector vec, read through the
    dual row from the product tv = t @ vec."""
    return complex((dual @ tv) / (dual @ vec))


def full_space_eigen(build, N: int, points, rng_seed: int = DEFAULT_SEED):
    """The oracle of ``_sector_spectrum(build, N, points, rng_seed)``, with
    the same ``(mus, lam, vmat, wmat, resid)``: one joint diagonalization of
    {build(u_1), build(u_2), twist} on the full space, and the eigenvalue
    at each of ``points`` read record by record through its dual row."""
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
