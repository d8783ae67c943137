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

from .chain import DEFAULT_SEED
from .errors import DegeneracyError, NonGenericSpecError

# Condition of the joint eigenvector matrix above which results are suspect.
EIGENBASIS_COND_WARN = 1e8

# simultaneous_eigen: random combinations tried, the commutator bound and the
# eigen-residual bound, both relative to the operator scales.
EIGEN_RETRIES = 5
COMMUTE_TOL = 1e-10
EIGEN_RESID_TOL = 1e-8


def kron_chain(mats) -> np.ndarray:
    """Kronecker product of a list of matrices, leftmost factor slowest."""
    return reduce(np.kron, mats)


def site_matrix_unit(n: int, k: int, l: int) -> np.ndarray:
    """Single-site matrix unit E^{k,l} (1-indexed): |k><l|."""
    e = np.zeros((n, n), dtype=complex)
    e[k - 1, l - 1] = 1.0
    return e


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


def _operator_scale(op) -> float:
    """max(|op|_inf, 1) of a dense array or of any operator with ``abs``."""
    return max(float(abs(op).max()), 1.0)


def _worst(values) -> float:
    """Largest of the values, NaN when any of them is NaN (the builtin
    ``max`` keeps a NaN only when it comes first)."""
    return float(np.max(np.fromiter(values, dtype=float)))


def _rel_resid(lhs, rhs) -> float:
    """|lhs - rhs|_inf / max(|lhs|_inf, 1)."""
    return float(abs(lhs - rhs).max()) / _operator_scale(lhs)


def relative_residual(ov: np.ndarray, mu, v: np.ndarray, scale: float):
    """|O v - mu v|_inf / (scale |v|_inf) per column of v, from ``ov = O @ v``."""
    return np.abs(ov - mu * v).max(axis=0) / (scale * np.abs(v).max(axis=0))


def eigen_order(mus: np.ndarray) -> np.ndarray:
    """Record order of a joint eigenvalue table (records x members):
    lexicographic in the real, then the imaginary part of member 0, then of
    member 1 and so on, each rounded to 9 decimals."""
    return np.lexsort(tuple(
        key for oi in reversed(range(mus.shape[1]))
        for key in (mus[:, oi].imag.round(9), mus[:, oi].real.round(9))))


def _inverse_and_condition(vmat: np.ndarray):
    """``(inv(vmat), |V|_F |V^-1|_F)``, the figure never below the 2-norm
    condition number; ``(None, inf)`` when ``vmat`` cannot be inverted."""
    try:
        wmat = np.linalg.inv(vmat)
    except np.linalg.LinAlgError:
        return None, np.inf
    return wmat, float(np.linalg.norm(vmat) * np.linalg.norm(wmat))


def _joint_eigen(family, rng_seed: int):
    """``simultaneous_eigen`` without the per-record copies: returns
    ``(mus, vmat, wmat, resid)`` with ``mus[k, oi]`` record k's eigenvalue
    on member oi, all in ``eigen_order``."""
    ops = [np.asarray(o, dtype=complex) for o in family]
    if not ops:
        raise ValueError("empty operator family")
    dim = ops[0].shape[0]
    if any(o.shape != (dim, dim) for o in ops):
        raise ValueError("family members must share one square shape")
    if not all(np.isfinite(o).all() for o in ops):
        raise ValueError("family members must be finite")
    scales = [_operator_scale(o) for o in ops]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            comm = ops[i] @ ops[j] - ops[j] @ ops[i]
            scale = scales[i] * scales[j]
            if np.abs(comm).max() > COMMUTE_TOL * scale:
                raise NonGenericSpecError(
                    f"family members {i} and {j} do not commute: "
                    f"max|[A,B]| = {np.abs(comm).max():.3e} vs scale {scale:.3e}")

    rng = np.random.default_rng(rng_seed)
    last_failure = "no attempt"
    for _ in range(EIGEN_RETRIES):
        coeff = rng.standard_normal(len(ops)) + 1j * rng.standard_normal(len(ops))
        mix = sum(c * o for c, o in zip(coeff, ops))
        _, vmat = np.linalg.eig(mix)
        wmat, cond = _inverse_and_condition(vmat)
        if not np.isfinite(cond):
            last_failure = "singular eigenvector matrix"
            continue
        if cond > EIGENBASIS_COND_WARN:
            warnings.warn(
                f"joint eigenbasis is ill-conditioned (cond = {cond:.3e}); "
                "eigenvalues may lose accuracy", RuntimeWarning, stacklevel=3)
        mus = np.empty((dim, len(ops)), dtype=complex)
        resid = np.zeros(dim)
        for oi, (o, scale) in enumerate(zip(ops, scales)):
            ov = o @ vmat
            mus[:, oi] = (wmat * ov.T).sum(axis=1)
            member = relative_residual(ov, mus[:, oi], vmat, scale)
            if np.any(member > EIGEN_RESID_TOL):
                last_failure = (f"member {oi}: worst eigen-residual "
                                f"{member.max():.3e} (tol {EIGEN_RESID_TOL:.3e})")
                break
            resid = np.maximum(resid, member)
        else:
            order = eigen_order(mus)
            vmat = vmat[:, order]
            return mus[order], vmat, np.linalg.inv(vmat), resid[order]
    raise DegeneracyError(
        f"no random combination produced a clean joint eigenbasis in "
        f"{EIGEN_RETRIES} attempts (last failure: {last_failure})")


def simultaneous_eigen(family, rng_seed: int = DEFAULT_SEED):
    """Joint eigenbasis of a commuting family of diagonalizable matrices.

    Diagonalizes one random complex linear combination of the family (fresh
    combination on retry, up to ``EIGEN_RETRIES``); for a commuting family a
    generic combination separates every joint eigenspace.  Eigenvalues of the
    individual members are read off through the dual (inverse-transpose) rows,
    so the pairing stays bilinear throughout.  The eigenvector matrix V is
    inverted first, and its condition is read as |V|_F |V^-1|_F from that
    inverse; this figure is never below the 2-norm condition number, so
    every basis whose 2-norm condition exceeds ``EIGENBASIS_COND_WARN``
    warns.  A V that cannot be inverted, or whose figure is not finite, is
    a singular eigenvector matrix and takes the next combination.

    Returns ``(records, vmat, wmat, residuals)`` where ``records`` is a list
    of ``(eigenvector, eigenvalue_tuple)`` pairs, ``vmat`` has the
    eigenvectors as columns, ``wmat = inv(vmat)`` holds the dual rows and
    ``residuals[k]`` is the worst ``relative_residual`` of record k over the
    family.  Each member's eigenvalues and residuals come from one product
    ``O @ vmat``; every residual is at most ``EIGEN_RESID_TOL``.  Records
    come in ``eigen_order``.

    Raises ``ValueError`` for an empty, mis-shaped or non-finite family,
    ``NonGenericSpecError`` if the family does not commute and
    ``DegeneracyError`` if no random combination yields a clean eigenbasis.
    """
    mus, vmat, wmat, resid = _joint_eigen(family, rng_seed)
    records = [(vmat[:, k].copy(), tuple(mus[k])) for k in range(len(mus))]
    return records, vmat, wmat, resid
