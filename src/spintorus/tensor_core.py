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

OMEGA = np.exp(2j * np.pi / 3)

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


def _refined(mix: np.ndarray, vmat: np.ndarray, wmat: np.ndarray):
    """One first-order refinement step of an eigenvector matrix V of ``mix``
    with inverse W (Dongarra, Moler & Wilkinson, SIAM J. Numer. Anal. 20
    (1983) 23): E = W mix V, F_ij = E_ij / (E_jj - E_ii) off the diagonal,
    V <- V (1 + F)."""
    e = wmat @ (mix @ vmat)
    d = e.diagonal()
    with np.errstate(divide="ignore", invalid="ignore"):
        f = e / (d[None, :] - d[:, None])
        np.fill_diagonal(f, 0.0)
        return vmat + vmat @ f


def _cyclic_eigenvectors(mix: np.ndarray, grading):
    """Eigenvector matrix of a mix that is block-cyclic over a grading: the
    index groups ``grading[c]``, c = 0, 1, 2, of equal size, with ``mix``
    zero except on the blocks a_c from group c to group c + 1 (mod 3).
    ``None`` when a cube nu below is zero or not finite, or when a group's
    block of V cannot be inverted.

    An eigenpair (nu, x) of the cyclic product a_2 a_1 a_0 gives three
    eigenvectors (x, a_0 x / lam, a_1 a_0 x / lam^2) on the groups, one per
    cube root lam = nu^(1/3) OMEGA^k.  Column 3j + k holds the k-th of
    eigenpair j, so V on group c is Y_c (x) P[c], with Y_c the group's block
    for k = 0 and P[c, k] = OMEGA^(-ck), and the inverse on group c is
    Y_c^-1 (x) conj(P[c]) / 3: three inverses of a third of the size.
    With each eigenpair's three columns side by side, the inverse that
    ``_joint_eigen`` takes next is about twice as accurate (|w_k v_k - 1|
    at N=6) as with the columns grouped by k.
    Forming the product costs accuracy, which one ``_refined`` step on the
    whole mix restores.
    """
    g0, g1, g2 = grading
    a0, a1, a2 = mix[np.ix_(g1, g0)], mix[np.ix_(g2, g1)], mix[np.ix_(g0, g2)]
    nu, x = np.linalg.eig(a2 @ a1 @ a0)
    if not np.all(np.isfinite(nu) & (nu != 0)):
        return None
    root = nu ** (1 / 3)
    y1 = (a0 @ x) / root
    blocks = (x, y1, (a1 @ y1) / root)
    dim = mix.shape[0]
    phases = OMEGA ** (-np.outer(np.arange(3), np.arange(3)) % 3)
    vmat = np.empty((dim, dim), dtype=complex)
    wmat = np.empty((dim, dim), dtype=complex)
    for group, y, phase in zip(grading, blocks, phases):
        yinv, _ = _inverse_and_condition(y)
        if yinv is None:
            return None
        vmat[group] = np.kron(y, phase)
        wmat[:, group] = np.kron(yinv, phase.conj()[:, None] / 3)
    return _refined(mix, vmat, wmat)


def _joint_eigen(family, rng_seed: int, grading=None):
    """``simultaneous_eigen`` without the per-record copies: returns
    ``(mus, vmat, wmat, resid)`` with ``mus[k, oi]`` record k's eigenvalue
    on member oi, all in ``eigen_order``.

    With ``grading``, three index groups over which every member is
    block-cyclic, the random mix's eigenvectors come from
    ``_cyclic_eigenvectors``, and the duals after the sort are the rows of
    the inverse already in hand; everything else, the gate and the retries
    included, is the same.  Without it, V is inverted again after the sort,
    since the inverse of the permuted V is not bitwise the permuted inverse.
    """
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
        if grading is None:
            _, vmat = np.linalg.eig(mix)
        else:
            vmat = _cyclic_eigenvectors(mix, grading)
        wmat, cond = ((None, np.inf) if vmat is None
                      else _inverse_and_condition(vmat))
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
            wmat = np.linalg.inv(vmat) if grading is None else wmat[order]
            return mus[order], vmat, wmat, resid[order]
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
