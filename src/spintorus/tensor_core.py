"""Dense complex tensor algebra on the chain Hilbert space.

Site ordering convention: the product basis is |i_1, ..., i_N> with site 1
slowest, i.e. the full-space index is sum_k (i_k - 1) n^(N-k).  Nested
numpy.kron with the site-1 factor leftmost realises exactly this ordering.

All pairings between bra and ket vectors are bilinear (plain transpose):
no complex conjugation anywhere.  Left eigenvectors below are dual rows of
the right-eigenvector matrix, which keeps the bilinear convention exact.
"""
from __future__ import annotations

import warnings
from functools import reduce

import numpy as np
import scipy.linalg

from .chain import ChainSpec
from .errors import DegeneracyError, NonGenericSpecError

# Condition of the joint eigenvector matrix above which results are suspect.
EIGENBASIS_COND_WARN = 1e8


def kron_chain(mats) -> np.ndarray:
    """Kronecker product of a list of matrices, leftmost factor slowest."""
    return reduce(np.kron, mats)


def site_matrix_unit(n: int, k: int, l: int) -> np.ndarray:
    """Single-site matrix unit E^{k,l} (1-indexed): |k><l|."""
    e = np.zeros((n, n), dtype=complex)
    e[k - 1, l - 1] = 1.0
    return e


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


def embed_two_site(op: np.ndarray, i: int, j: int, n: int, N: int) -> np.ndarray:
    """sum_{abcd} op[ab, cd] E^{ac}_i E^{bd}_j on an N-site chain.

    The first tensor factor of the n^2 x n^2 operator ``op`` acts on site i,
    the second on site j (1-indexed); for i == j the two matrix units
    multiply on that one site.
    """
    if not (1 <= i <= N and 1 <= j <= N):
        raise ValueError(f"sites ({i}, {j}) outside 1..{N}")
    op4 = np.asarray(op, dtype=complex).reshape(n, n, n, n)
    eye = np.eye(n, dtype=complex)
    out = np.zeros((n ** N, n ** N), dtype=complex)
    for a, b, c, d in zip(*np.nonzero(op4)):
        mats = [eye] * N
        mats[j - 1] = site_matrix_unit(n, b + 1, d + 1)
        mats[i - 1] = site_matrix_unit(n, a + 1, c + 1) @ mats[i - 1]
        out += op4[a, b, c, d] * kron_chain(mats)
    return out


def basis_vector(occupations, spec: ChainSpec) -> np.ndarray:
    """Product state |i_1, ..., i_N> as a dense vector (entries 1-indexed)."""
    if len(occupations) != spec.N:
        raise ValueError("one occupation label per site required")
    idx = 0
    for i in occupations:
        if not (1 <= i <= spec.n):
            raise ValueError(f"occupation {i} outside 1..{spec.n}")
        idx = idx * spec.n + (i - 1)
    v = np.zeros(spec.dim, dtype=complex)
    v[idx] = 1.0
    return v


def bilinear_pair(bra: np.ndarray, ket: np.ndarray) -> complex:
    """Transpose pairing <bra|ket> = sum_i bra_i ket_i, no conjugation."""
    bra = np.asarray(bra)
    ket = np.asarray(ket)
    if bra.shape != ket.shape or bra.ndim != 1:
        raise ValueError("bilinear_pair expects two vectors of equal length")
    return complex(np.dot(bra, ket))


def _operator_scale(op: np.ndarray) -> float:
    return max(float(np.abs(op).max()), 1.0)


def simultaneous_eigen(family, rng_seed: int = 20240229, max_retries: int = 5,
                       commute_tol: float = 1e-10, resid_tol: float = 1e-8):
    """Joint eigenbasis of a commuting family of diagonalizable matrices.

    Diagonalizes one random complex linear combination of the family (fresh
    combination on retry, up to ``max_retries``); for a commuting family a
    generic combination separates every joint eigenspace.  Eigenvalues of the
    individual members are read off through the dual (inverse-transpose) rows,
    so the pairing stays bilinear throughout.

    Returns ``(records, vmat, wmat)`` where ``records`` is a list of
    ``(eigenvector, eigenvalue_tuple)`` pairs, ``vmat`` has the eigenvectors
    as columns and ``wmat = inv(vmat)`` holds the dual rows.  Record k
    satisfies ``O v_k = mu_k v_k`` for every family member to ``resid_tol``
    relative accuracy.

    Raises ``NonGenericSpecError`` if the family does not commute and
    ``DegeneracyError`` if no random combination yields a clean eigenbasis.
    """
    ops = [np.asarray(o, dtype=complex) for o in family]
    if not ops:
        raise ValueError("empty operator family")
    dim = ops[0].shape[0]
    for o in ops:
        if o.shape != (dim, dim):
            raise ValueError("family members must share one square shape")
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            comm = ops[i] @ ops[j] - ops[j] @ ops[i]
            scale = _operator_scale(ops[i]) * _operator_scale(ops[j])
            if np.abs(comm).max() > commute_tol * scale:
                raise NonGenericSpecError(
                    f"family members {i} and {j} do not commute: "
                    f"max|[A,B]| = {np.abs(comm).max():.3e} vs scale {scale:.3e}"
                )

    rng = np.random.default_rng(rng_seed)
    last_failure = "no attempt"
    for _ in range(max_retries):
        coeff = rng.standard_normal(len(ops)) + 1j * rng.standard_normal(len(ops))
        mix = sum(c * o for c, o in zip(coeff, ops))
        _, vmat = scipy.linalg.eig(mix)
        cond = np.linalg.cond(vmat)
        if not np.isfinite(cond):
            last_failure = "singular eigenvector matrix"
            continue
        if cond > EIGENBASIS_COND_WARN:
            warnings.warn(
                f"joint eigenbasis is ill-conditioned (cond = {cond:.3e}); "
                "eigenvalues may lose accuracy", RuntimeWarning, stacklevel=2)
        wmat = np.linalg.inv(vmat)
        mus = np.empty((dim, len(ops)), dtype=complex)
        ok = True
        for oi, o in enumerate(ops):
            mus[:, oi] = np.einsum("kd,dc,ck->k", wmat, o, vmat)
        for oi, o in enumerate(ops):
            resid = np.abs(o @ vmat - vmat * mus[:, oi][None, :]).max(axis=0)
            norms = np.abs(vmat).max(axis=0)
            if np.any(resid > resid_tol * _operator_scale(o) * norms):
                ok = False
                last_failure = (
                    f"member {oi}: worst eigen-residual {resid.max():.3e} "
                    f"(tol {resid_tol * _operator_scale(o):.3e})")
                break
        if not ok:
            continue
        order = np.lexsort(tuple(
            key for oi in reversed(range(len(ops)))
            for key in (mus[:, oi].imag.round(9), mus[:, oi].real.round(9))
        ))
        vmat = vmat[:, order]
        wmat = np.linalg.inv(vmat)
        mus = mus[order]
        records = [(vmat[:, k].copy(), tuple(mus[k])) for k in range(dim)]
        return records, vmat, wmat
    raise DegeneracyError(
        f"no random combination produced a clean joint eigenbasis in "
        f"{max_retries} attempts (last failure: {last_failure})")
