"""Transfer-matrix spectrum: brute-force diagonalization, the five-term
functional parametrization of eigenvalues, its algebraic constraint system,
and a damped multi-start Newton solver for that system.

The functional form carries 4N + 4 unknowns: four families of N roots, three
exponential coefficients, and one global exponent entering as e^{phi_1}.
Residual ordering everywhere: the four root families first (N equations
each), then the four discrete constraints.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import DEFAULT_SEED, ChainSpec
from .errors import (InconsistencyError, NonGenericSpecError,
                     PoleProximityError, require_three_flavors)
from .monodromy import _a, _a_product, _q, transfer
from .tensor_core import (COMMUTE_TOL, OMEGA, _joint_eigen, _operator_scale,
                          _worst, eigen_order, relative_residual)

# Fixed generic probe points whose transfer matrices are jointly diagonalized.
U_PROBES = (0.377 + 0.511j, -0.291 + 0.173j)

DENOM_TOL = 1e-12

# Distance from a cube root of unity within which a Z3 charge is read.
Z_CHARGE_TOL = 1e-6

# Rows per ``_residuals`` call inside the Newton search (see _chunked_residuals).
RESIDUAL_CHUNK = 4096

# Newton iterations per start, and the real step of the differenced Jacobian.
NEWTON_MAX_ITER = 60
NEWTON_FD_STEP = 1e-7

# Why a Newton start stopped: the keys of BaeSolveResult.newton_exits.
NEWTON_EXITS = ("converged", "nonfinite_start", "nonfinite_jacobian",
                "singular_jacobian", "stalled", "max_iter")


@dataclass(frozen=True)
class TQSolution:
    """Roots and coefficients of the five-term eigenvalue parametrization."""

    lambdas: tuple  # four tuples of N complex roots
    f1_plus: complex
    f1_minus: complex
    f2_minus: complex
    phi1: complex

    def __post_init__(self):
        lams = tuple(tuple(complex(x) for x in fam) for fam in self.lambdas)
        if len(lams) != 4 or len({len(fam) for fam in lams}) != 1:
            raise ValueError("expected four root families of equal length")
        object.__setattr__(self, "lambdas", lams)
        for name in ("f1_plus", "f1_minus", "f2_minus", "phi1"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @property
    def exp_phi1(self) -> complex:
        return complex(np.exp(self.phi1))


def tq_lambda(u: complex, sol: TQSolution, spec: ChainSpec) -> complex:
    """Eigenvalue candidate at spectral point u from roots and coefficients."""
    eta = spec.eta
    theta = np.asarray(spec.theta)
    x = np.array([complex(u)])
    l1, l2, l3, l4 = np.array(sol.lambdas)
    q1, q2, q3, q4 = (complex(_q(x, fam)[0]) for fam in (l1, l2, l3, l4))
    for name, q in (("Q1", q1), ("Q2", q2), ("Q3", q3), ("Q4", q4)):
        if abs(q) < DENOM_TOL:
            raise PoleProximityError(f"{name}(u) ~ 0 at u = {u}; evaluation refused")
    a = complex(_a(x, theta, eta)[0])
    d = complex(_q(x, theta)[0])
    qm1, qp2, qm3, qp4 = (complex(_q(x + s, fam)[0]) for s, fam in
                          ((-eta, l1), (eta, l2), (-eta, l3), (eta, l4)))
    f1 = sol.f1_plus * np.exp(u) + sol.f1_minus * np.exp(-u)
    f2 = sol.f2_minus * np.exp(-u)
    ephi = np.exp(sol.phi1)
    terms = (
        ephi * np.exp(u) * a * qm1 / q2,
        OMEGA / ephi * np.exp(-u - 2 * eta / 3) * d * qp2 * qm3 / (q1 * q4),
        OMEGA ** 2 * np.exp(-u - 4 * eta / 3) * d * qp4 / q3,
        a * d * qm3 * f1 / (q1 * q2),
        a * d * qp2 * f2 / (q3 * q4),
    )
    return complex(np.exp(u / 3) * sum(terms))


def _vector(sol: TQSolution) -> np.ndarray:
    """The 4N + 4 unknowns as one complex row: roots by family, then
    f1_plus, f1_minus, f2_minus, phi1."""
    return np.array([x for fam in sol.lambdas for x in fam]
                    + [sol.f1_plus, sol.f1_minus, sol.f2_minus, sol.phi1],
                    dtype=complex)


def _root_factors(z: np.ndarray, spec: ChainSpec, family=None) -> dict:
    """The root-dependent factors of the constraint system for rows z laid
    out as ``_vector``, each (B, N): its 13 sinh-table products (q1e2 is
    q(l1 + eta, l2)) and each family's exponentials; with ``family`` given,
    only those that read root family ``family`` (0..3)."""
    eta, N = spec.eta, spec.N
    theta = np.asarray(spec.theta)
    lam = z[:, :4 * N].reshape(-1, 4, N)
    l1, l2, l3, l4 = (lam[:, i, :] for i in range(4))
    fams = {0, 1, 2, 3} if family is None else {family}

    def pair(x, y):
        # q(x, y) and q(y, x) from one table (sinh is odd); a product over
        # the strided transpose would round differently, so it is copied
        s = np.sinh(x[..., :, None] - y[..., None, :])
        return (s.prod(axis=-1),
                np.negative(s.swapaxes(-1, -2), order="C").prod(axis=-1))

    g = {}
    if fams & {0, 1}:
        g["q1e2"], g["q2e1"] = _q(l1 + eta, l2), _q(l2 - eta, l1)
        g["q12"], g["q21"] = pair(l1, l2)
    if fams & {0, 3}:
        g["q14"], g["q41"] = pair(l1, l4)
    if fams & {1, 2}:
        g["q2e3"], g["q3e2"] = _q(l2 - eta, l3), _q(l3 + eta, l2)
    if fams & {2, 3}:
        g["q3e4"], g["q4e3"] = _q(l3 + eta, l4), _q(l4 - eta, l3)
        g["q34"], g["q43"] = pair(l3, l4)
    if 0 in fams:
        g["a1"], g["g1"] = _a(l1, theta, eta), np.exp(-l1 - 2 * eta / 3)
        g["e1"], g["em1"] = np.exp(l1), np.exp(-l1)
    if 1 in fams:
        g["d2"], g["e2"], g["em2"] = _q(l2, theta), np.exp(l2), np.exp(-l2)
    if 2 in fams:
        g["a3"], g["g3"] = _a(l3, theta, eta), np.exp(-l3 - 4 * eta / 3)
        g["em3"] = np.exp(-l3)
    if 3 in fams:
        g["a4"], g["g4"] = _a(l4, theta, eta), np.exp(-l4 - 2 * eta / 3)
        g["em4"] = np.exp(-l4)
    return g


def _residuals(z: np.ndarray, spec: ChainSpec, g=None) -> np.ndarray:
    """Constraint values for a batch of unknown rows laid out as ``_vector``:
    (B, 4N + 4) complex in, (B, 4N + 4) complex out.

    ``g(name)`` reads the rows' ``_root_factors``, each built once per row;
    the differenced Jacobian (``_difference_residuals``) passes its own.
    """
    eta = spec.eta
    N = spec.N
    theta = np.asarray(spec.theta)
    g = _root_factors(z, spec).__getitem__ if g is None else g
    lam = z[:, :4 * N].reshape(-1, 4, N)                  # (B, 4, N)
    f1p, f1m, f2m, phi = (z[:, 4 * N + i] for i in range(4))
    ephi = np.exp(phi)

    def f1(e, em):   # f1(x) from e^x and e^-x
        return f1p[:, None] * e + f1m[:, None] * em

    def f2(em):
        return f2m[:, None] * em

    out = np.empty((z.shape[0], 4 * N + 4), dtype=complex)
    out[:, 0:N] = (OMEGA / ephi[:, None] * g("g1") * g("q1e2") / g("q14")
                   + g("a1") * f1(g("e1"), g("em1")) / g("q12"))
    out[:, N:2 * N] = (ephi[:, None] * g("e2") * g("q2e1")
                       + g("d2") * g("q2e3") * f1(g("e2"), g("em2")) / g("q21"))
    out[:, 2 * N:3 * N] = (OMEGA ** 2 * g("g3") * g("q3e4")
                           + g("a3") * g("q3e2") * f2(g("em3")) / g("q34"))
    out[:, 3 * N:4 * N] = (OMEGA / ephi[:, None] * g("g4") * g("q4e3") / g("q41")
                           + g("a4") * f2(g("em4")) / g("q43"))
    ts = np.sum(theta)
    c1, c2, c3, c4 = lam.sum(axis=2).T
    out[:, 4 * N] = (ephi * np.exp(-ts - c1 + c2)
                     + np.exp(-2 * ts + c1 + c2 - c3) * f1p)
    out[:, 4 * N + 1] = (OMEGA / ephi * np.exp(-2 * eta / 3 + ts - c1 + c2 + c3 - c4)
                         + OMEGA ** 2 * np.exp(-4 * eta / 3 + ts - c3 + c4 - N * eta)
                         + np.exp(2 * ts - N * eta)
                         * (np.exp(-c1 - c2 + c3 + N * eta) * f1m
                            + np.exp(c2 - c3 - c4 - N * eta) * f2m))
    out[:, 4 * N + 2] = (OMEGA * np.exp(-ts - c3 + c4)
                         + OMEGA ** 2 * ephi
                         * np.exp(-2 * eta / 3 - ts - c1 + c2 + c3 - c4 + N * eta)
                         + np.exp(-2 * ts + N * eta)
                         * (OMEGA ** 2 * np.exp(-2 * eta / 3 + c1 + c2 - c4) * f1p
                            + ephi * np.exp(2 * eta / 3 - c1 + c3 + c4 + N * eta) * f2m))
    out[:, 4 * N + 3] = (np.exp(-4 * eta / 3 + ts - c1 + c2 - N * eta) / ephi
                         + OMEGA ** 2
                         * np.exp(-2 * eta / 3 + 2 * ts - c1 - c2 + c4 - N * eta) * f1m)
    return out


def bae_residuals(sol: TQSolution, spec: ChainSpec) -> np.ndarray:
    """The 4N + 4 constraint values; all vanish on a true solution.

    Root-family equations come first (N per family), then the four discrete
    constraints tying together the root sums and the coefficients.
    """
    return _residuals(_vector(sol)[None, :], spec)[0]


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SpectralRecord:
    """One joint eigenvector of {t(u_1), t(u_2), twist} with derived data."""

    vector: np.ndarray
    dual: np.ndarray
    mu: tuple              # eigenvalues on the probe family
    lambda_theta: tuple    # transfer eigenvalue at each inhomogeneity point
    z_charge: int
    residual: float


def _twist_charge(mu_u: complex, tol: float = Z_CHARGE_TOL,
                  what: str = "twist eigenvalue") -> int:
    """Exponent z of mu_u = OMEGA**z, read within tol: the Z3 charge of a
    twist eigenvalue, or of any value named by ``what`` in the refusal."""
    if not np.isfinite(mu_u):
        raise InconsistencyError(f"{what} {mu_u} is not finite")
    z = int(np.round(np.angle(mu_u) / (2 * np.pi / 3))) % 3
    if not (abs(mu_u - OMEGA ** z) <= tol):
        raise InconsistencyError(
            f"{what} {mu_u} is not a cube root of unity within {tol}")
    return z


def _twist_orbits(N: int) -> np.ndarray:
    """Orbits of the global twist g|k> = |k+1> (labels mod 3 on every site),
    as 3 rows of 3^(N-1) basis indices: row m holds g^m applied to the
    representatives, the states whose site-1 label is 0.  Site 1 is the
    slowest, so the representatives are the first 3^(N-1) indices."""
    labels = np.indices((3,) * N).reshape(N, -1)[:, :3 ** (N - 1)]
    return np.array([np.ravel_multi_index((labels + m) % 3, (3,) * N)
                     for m in range(3)])


def _clock_charges(N: int) -> np.ndarray:
    """Clock charge sum_k i_k mod 3 of each twist-orbit representative (the
    first 3^(N-1) indices): the exponent of its eigenvalue OMEGA^c under the
    clock H = diag(1, OMEGA, OMEGA^2) on every site."""
    return np.indices((3,) * N).reshape(N, -1)[:, :3 ** (N - 1)].sum(axis=0) % 3


def _sector_spectrum(build, N: int, points, rng_seed: int = DEFAULT_SEED):
    """All 3^N joint eigenstates of {build(u_1), build(u_2), twist},
    diagonalized one Z3 charge sector at a time; build(u) is a dense 3^N
    transfer matrix that commutes with the twist.

    The twist g permutes the basis in orbits g^m|r>, m = 0, 1, 2, of the
    representatives r (``_twist_orbits``).  The states
    sum_m OMEGA^(-z m) |g^m r> span the sector where g is OMEGA^z, and t(u)
    commutes with g, so its block there is T_z = sum_m OMEGA^(-z m)
    t[r, g^m r']: three column gathers of t.  Each sector's blocks of
    t(u_1), t(u_2) at the fixed probe points are jointly diagonalized, which
    separates the spectrum for generic chains, and the twist eigenvalue is
    the sector's OMEGA^z.  The eigenvalue of t(u) at each of ``points`` is
    read with one GEMM per sector on T_z(u).  Eigenvectors and duals are
    mapped back to the site basis; the duals are rows of the inverse
    eigenvector matrix, so bilinear pairings with the eigenvectors are
    Kronecker deltas.  The residual is the full-space relative residual over
    t(u_1), t(u_2) and the twist, taken sector by sector on the sector's
    site-basis eigenvectors; t(u_i) acts on them as its sector columns over
    every row of t, the orbit gathers summed with their phases, times the
    sector's eigenvectors.  A probe that does not commute
    with the twist raises ``NonGenericSpecError``.

    The clock H = diag(1, OMEGA, OMEGA^2) on every site gives
    H t H^-1 = OMEGA t and H g H^-1 = OMEGA^N g.  For N = 0 mod 3 it
    commutes with the twist, every state of an orbit has its
    representative's clock charge (``_clock_charges``), and each T_z maps
    charge c to c + 1: it is block-cyclic over the three charge groups of
    3^(N-2) representatives.  ``_joint_eigen`` then solves each sector
    through the cyclic product of its three blocks (``grading``), and a
    probe whose sector block is not zero off that cycle raises
    ``NonGenericSpecError``.

    Returns ``(mus, lam, vmat, wmat, resid, sector)``, sorted by
    ``eigen_order`` of the rows of ``mus`` = (mu_1, mu_2, twist eigenvalue):
    ``lam[k, j]`` is record k's eigenvalue at ``points[j]``, ``vmat`` holds
    the eigenvectors as columns, ``wmat`` the duals as rows and
    ``sector[k]`` the charge z of the sector record k was solved in.
    """
    dim = 3 ** N
    size = dim // 3
    orbits = _twist_orbits(N)
    back = np.empty(dim, dtype=int)        # (twist @ v) = v[back]
    back[orbits] = np.roll(orbits, 1, axis=0)
    phases = [OMEGA ** (-z * np.arange(3) % 3) for z in range(3)]

    def sector_blocks(t, rows=size):
        cols = [t[:rows, orbit] for orbit in orbits]
        return [sum(p * c for p, c in zip(phase, cols)) for phase in phases]

    grading = None
    if N % 3 == 0:
        charge = _clock_charges(N)
        grading = [np.flatnonzero(charge == c) for c in range(3)]
        off_cycle = (charge[:, None] - charge[None, :]) % 3 != 1

    probes = []     # (scale, the sector columns over every row) per probe
    for i, u in enumerate(U_PROBES):
        t = build(u)
        # t g^k = g^k t iff t[g^k a, g^k b] = t[a, b]; the rows a may stay
        # on the representatives, since every row is g^j of one of them
        leak = _worst(np.abs(t[perm[:size]][:, perm] - t[:size]).max()
                      for perm in (back, back[back]))
        scale = _operator_scale(t)
        if not leak <= COMMUTE_TOL * scale:
            raise NonGenericSpecError(
                f"probe {i} does not commute with the twist: largest "
                f"entry change {leak:.3e} vs scale {scale:.3e}")
        probes.append((scale, sector_blocks(t, dim)))
        if grading is not None:
            off = _worst(np.abs(cols[:size][off_cycle]).max()
                         for cols in probes[-1][1])
            if not off <= COMMUTE_TOL * scale:
                raise NonGenericSpecError(
                    f"probe {i} is not cyclic over the clock charge: largest "
                    f"off-cycle entry {off:.3e} vs scale {scale:.3e}")
    del t
    # sector z holds rows z * size .. (z + 1) * size - 1 until the sort
    rows = [slice(z * size, (z + 1) * size) for z in range(3)]
    mus = np.empty((dim, 3), dtype=complex)
    resid = np.empty(dim)
    solved = []     # (vmat, wmat) per sector, in the orbit basis
    for z, (row, phase) in enumerate(zip(rows, phases)):
        mus[row, :2], vmat, wmat, _ = _joint_eigen(
            [cols[z][:size] for _, cols in probes], rng_seed, grading)
        mus[row, 2] = OMEGA ** z
        solved.append((vmat, wmat))
        # the sector's eigenvectors in the site basis, for its residuals
        vecs = np.empty((dim, size), dtype=complex)
        for p, orbit in zip(phase, orbits):
            vecs[orbit] = p * vmat
        resid[row] = relative_residual(vecs[back], mus[row, 2], vecs, 1.0)
        for i, (scale, cols) in enumerate(probes):
            resid[row] = np.maximum(resid[row], relative_residual(
                cols[z] @ vmat, mus[row, i], vecs, scale))
    del probes, cols, vecs
    lam = np.empty((dim, len(points)), dtype=complex)
    for j, u in enumerate(points):
        tz = sector_blocks(build(u))
        lam[:, j] = np.concatenate([
            (wmat * (block @ vmat).T).sum(axis=1)
            for block, (vmat, wmat) in zip(tz, solved)])
        del tz  # no block of t(points[j]) alive while the next one is built
    order = eigen_order(mus)
    place = np.empty(dim, dtype=int)
    place[order] = np.arange(dim)
    vmat_site = np.empty((dim, dim), dtype=complex)
    wmat_site = np.empty((dim, dim), dtype=complex)
    for row, phase, (vmat, wmat) in zip(rows, phases, solved):
        for p, orbit in zip(phase, orbits):
            vmat_site[np.ix_(orbit, place[row])] = p * vmat
            wmat_site[np.ix_(place[row], orbit)] = p.conjugate() / 3 * wmat
    return (mus[order], lam[order], vmat_site, wmat_site, resid[order],
            order // size)


def brute_force_spectrum(spec: ChainSpec, rng_seed: int = DEFAULT_SEED):
    """All 3^N transfer eigenstates, diagonalized one Z3 charge sector at a
    time by ``_sector_spectrum`` on ``transfer``, with lambda read at the
    inhomogeneity points theta_j.

    Each record's charge z is its sector's label, cross-checked against the
    charge of prod_j lambda(theta_j) / prod_j a(theta_j).  Records come in
    ``eigen_order`` of (mu_1, mu_2, twist eigenvalue).  The tests' oracle
    is ``tests/oracles.py``'s ``_full_space_spectrum``, one joint
    diagonalization on the full space with each lambda(theta_j) read by its
    own matvec.  A probe that does not commute with the twist raises
    ``NonGenericSpecError``; other ranks than n = 3 are refused up front.
    """
    require_three_flavors("brute_force_spectrum", spec.n)
    mus, lam, vmat, wmat, resid, sector = _sector_spectrum(
        lambda u: transfer(u, spec), spec.N, spec.theta, rng_seed)
    a_prod = _a_product(spec)
    records = []
    for k in range(spec.dim):
        rec = SpectralRecord(vector=vmat[:, k].copy(), dual=wmat[k],
                             mu=tuple(mus[k]),
                             lambda_theta=tuple(complex(x) for x in lam[k]),
                             z_charge=int(sector[k]), residual=float(resid[k]))
        z_prod = _twist_charge(complex(np.prod(rec.lambda_theta) / a_prod),
                               what="eigenvalue product ratio")
        if z_prod != rec.z_charge:
            raise InconsistencyError(
                f"charge mismatch: sector {rec.z_charge}, "
                f"eigenvalue-product route gives {z_prod}")
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------

def _unpack(z: np.ndarray, N: int) -> TQSolution:
    """Inverse of ``_vector``."""
    lams = tuple(tuple(z[i * N:(i + 1) * N]) for i in range(4))
    return TQSolution(lambdas=lams, f1_plus=z[4 * N], f1_minus=z[4 * N + 1],
                      f2_minus=z[4 * N + 2], phi1=z[4 * N + 3])


def _strip_period(z: complex) -> complex:
    return complex(z.real, z.imag - 2 * np.pi * np.round(z.imag / (2 * np.pi)))


def _canonical(sol: TQSolution) -> TQSolution:
    lams = tuple(
        tuple(sorted((_strip_period(x) for x in fam), key=lambda c: (c.real, c.imag)))
        for fam in sol.lambdas)
    return TQSolution(lambdas=lams, f1_plus=sol.f1_plus, f1_minus=sol.f1_minus,
                      f2_minus=sol.f2_minus, phi1=_strip_period(sol.phi1))


def _same_solution(a: TQSolution, b: TQSolution) -> bool:
    return bool(np.abs(_vector(a) - _vector(b)).max() <= 1e-7)


def _denominators_clear(sol: TQSolution) -> bool:
    l1, l2, l3, l4 = np.array(sol.lambdas)
    pairs = ((l1, l2), (l1, l4), (l2, l1), (l3, l4), (l4, l1), (l4, l3))
    return all(np.all(np.abs(_q(x, fam)) > 1e-8) for x, fam in pairs)


def _roots_separated(sol: TQSolution) -> bool:
    """Reject root sets with a collision inside one family.

    A repeated root makes two residue-cancellation conditions identical, so
    the counting argument behind the constraint system breaks down and the
    eigenvalue function keeps an uncancelled pole.  Multi-start Newton lands
    on such collapsed configurations frequently; they are never physical.
    """
    for fam in sol.lambdas:
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                if abs(_strip_period(fam[i] - fam[j])) < 1e-6:
                    return False
    return True


def _chunked_residuals(z: np.ndarray, spec: ChainSpec) -> np.ndarray:
    """``_residuals`` on rows laid out as ``_vector``, at most
    ``RESIDUAL_CHUNK`` rows per call: up to that size every row is
    bit-identical to the same row evaluated alone, so a start's trajectory
    does not depend on which other starts share its batch (numpy 2.4 drifts
    at the last bit from 16384 rows on).
    """
    # wild trial steps overflow exp/sinh freely; a non-finite row just marks
    # the step as rejected
    with np.errstate(all="ignore"):
        return np.concatenate([_residuals(z[lo:lo + RESIDUAL_CHUNK], spec)
                               for lo in range(0, len(z), RESIDUAL_CHUNK)])


def _difference_residuals(z: np.ndarray, spec: ChainSpec) -> np.ndarray:
    """``_residuals`` at z[s] + NEWTON_FD_STEP e_j for every row s and unknown
    j, (S, 4N + 4, 4N + 4), bit-identical to full evaluations.  The rows of a
    start share its unshifted factors; a family's rows rebuild only the 5 or
    6 sinh tables that read it, the coefficient rows none.  A chunk holds
    RESIDUAL_CHUNK // (4N + 4) starts (341 at N=2), so each ``_residuals``
    call reads at most ``RESIDUAL_CHUNK`` rows."""
    S, dim = z.shape
    N = spec.N
    per_chunk = max(1, RESIDUAL_CHUNK // dim)
    out = np.empty((S, dim, dim), dtype=complex)
    with np.errstate(all="ignore"):
        for lo in range(0, S, per_chunk):
            zc = z[lo:lo + per_chunk]
            zs = zc[:, None, :] + NEWTON_FD_STEP * np.eye(dim)
            # off its shift a row holds zc + 0.0: a -0.0 there is +0.0, and
            # the sign can show in a residual that is exactly zero
            base = _root_factors(zc + 0.0, spec)
            rebuilt = [_root_factors(zs[:, k * N:(k + 1) * N].reshape(-1, dim),
                                     spec, family=k) for k in range(4)]

            def spread(name):   # built when read, so few copies live at once
                v = np.repeat(base[name], dim, axis=0).reshape(-1, dim, N)
                for k, fam in enumerate(rebuilt):
                    if name in fam:
                        v[:, k * N:(k + 1) * N] = fam[name].reshape(-1, N, N)
                return v.reshape(-1, N)

            out[lo:lo + per_chunk] = _residuals(
                zs.reshape(-1, dim), spec, spread).reshape(-1, dim, dim)
    return out


def _max_norm(f: np.ndarray) -> np.ndarray:
    """Largest |Re| or |Im| over each row of a complex stack."""
    return np.maximum(np.abs(f.real), np.abs(f.imag)).max(axis=1)


def _newton_steps(jac: np.ndarray, rhs: np.ndarray):
    """Solve a stack of Newton systems; returns the steps and a mask of the
    systems that were solvable.  A singular system fails only itself."""
    try:
        return (np.linalg.solve(jac, rhs[:, :, None])[:, :, 0],
                np.ones(len(rhs), dtype=bool))
    except np.linalg.LinAlgError:
        steps = np.zeros_like(rhs)
        solved = np.ones(len(rhs), dtype=bool)
        for k in range(len(rhs)):
            try:
                steps[k] = np.linalg.solve(jac[k], rhs[k])
            except np.linalg.LinAlgError:
                solved[k] = False
        return steps, solved


def _newton(spec: ChainSpec, z0: np.ndarray, max_iter: int):
    """Damped Newton on a stack of complex rows (S, 4N + 4) laid out as
    ``_vector``, all starts in lockstep.

    Each start runs the arithmetic it would run alone: a forward-difference
    Jacobian with one column per unknown (the residuals are holomorphic, so
    a step of ``NEWTON_FD_STEP`` along the real axis gives dF/dz; see
    ``_difference_residuals`` for the factors its rows share), a full step
    halved up to 14 times until the residual max-norm drops by the factor
    (1 - 1e-4 t), and a stop below 1e-13.  The max-norm is the largest |Re|
    or |Im| of any component.  The line search evaluates two halvings, t
    and t/2, in one stacked residual call; a start takes the first that
    passes, so it follows the path of one halving per call.  A start leaves
    the batch when it stops.
    Returns the final rows, their residual max-norms (inf for a non-finite
    start) and each start's exit class from ``NEWTON_EXITS``.
    """
    z = np.array(z0, dtype=complex)
    f = _chunked_residuals(z, spec)
    fnorm = _max_norm(f)
    exits = np.full(len(z), "max_iter", dtype=object)
    finite = np.isfinite(f).all(axis=1)
    fnorm[~finite] = np.inf
    exits[~finite] = "nonfinite_start"
    active = np.flatnonzero(finite)
    for _ in range(max_iter):
        done = fnorm[active] < 1e-13
        exits[active[done]] = "converged"
        active = active[~done]
        if not active.size:
            break
        fa = f[active]
        fp = _difference_residuals(z[active], spec)
        ok = np.isfinite(fp).all(axis=(1, 2))
        exits[active[~ok]] = "nonfinite_jacobian"
        active, fa, fp = active[ok], fa[ok], fp[ok]
        jac = (fp - fa[:, None, :]).transpose(0, 2, 1) / NEWTON_FD_STEP
        step, solved = _newton_steps(jac, -fa)
        exits[active[~solved]] = "singular_jacobian"
        active, step = active[solved], step[solved]
        # backtracking line search: each batched call tries two halvings, t
        # and t/2, and a start takes the first of them that passes
        searching = np.arange(len(active))
        t = 1.0
        for _ in range(7):
            if not searching.size:
                break
            rows = active[searching]
            trials = [z[rows] + s * step[searching] for s in (t, t / 2)]
            fns = _chunked_residuals(np.concatenate(trials), spec)
            took = np.zeros(len(rows), dtype=bool)
            for s, zn, fn in zip((t, t / 2), trials, fns.reshape(2, len(rows), -1)):
                fn_norm = _max_norm(fn)
                good = ~took & np.isfinite(fn).all(axis=1)
                good[good] = fn_norm[good] < (1 - 1e-4 * s) * fnorm[rows[good]]
                z[rows[good]], f[rows[good]] = zn[good], fn[good]
                fnorm[rows[good]] = fn_norm[good]
                took |= good
            searching = searching[~took]
            t /= 4
        exits[active[searching]] = "stalled"
        active = np.delete(active, searching)
    exits[active[fnorm[active] < 1e-13]] = "converged"
    return z, fnorm, exits


@dataclass
class BaeSolveResult:
    """Converged, deduplicated, spectrum-validated root sets plus diagnostics."""

    solutions: list = field(default_factory=list)
    matches: list = field(default_factory=list)   # (solution idx, record idx, mismatch)
    coverage: float = 0.0
    matched_records: list = field(default_factory=list)
    seed_residuals: list = field(default_factory=list)
    rng_seed: int = 0
    n_seeds: int = 0
    n_converged: int = 0
    n_collided: int = 0      # converged onto a repeated-root configuration
    newton_exits: dict = field(default_factory=dict)  # NEWTON_EXITS -> count


def solve_bae(spec: ChainSpec, n_seeds: int = 200, rng_seed: int = DEFAULT_SEED,
              accept_tol: float = 1e-10, match_tol: float = 1e-7,
              records=None) -> BaeSolveResult:
    """Multi-start damped Newton on the full constraint system.

    Root families are seeded around the inhomogeneity centroid, cycling
    through a narrow box, a full-period strip, and an intermediate shape so
    distinct basins get sampled; the three linear coefficients are started
    at their least-squares value for the drawn roots.  Converged root sets
    (max constraint residual below ``accept_tol``) are deduplicated and kept
    only if their eigenvalue function reproduces a brute-force record at
    every inhomogeneity point; the fraction of records so covered is
    reported, not asserted.  Exhaustive coverage is only attempted for
    N <= 2.  All starts are drawn first and then advance in lockstep; each
    ends exactly where it would end alone.  ``newton_exits`` counts why the
    starts stopped.
    """
    require_three_flavors("solve_bae", spec.n)
    if spec.N > 2:
        raise ValueError("root search is limited to N <= 2 chains")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be at least 1, got {n_seeds}")
    if records is None:
        records = brute_force_spectrum(spec)
    rng = np.random.default_rng(rng_seed)
    centroid = complex(np.mean(spec.theta))
    result = BaeSolveResult(rng_seed=rng_seed, n_seeds=n_seeds)
    lam_scale = max(max(abs(l) for r in records for l in r.lambda_theta), 1.0)

    def disk():
        while True:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if 1e-3 < abs(z) <= 1.0:
                return z

    def family(imag_hw):
        # spread-out starting roots; collapsed pairs attract Newton into the
        # repeated-root trap that _roots_separated later rejects
        while True:
            fam = [centroid + complex(rng.uniform(-1, 1),
                                      rng.uniform(-imag_hw, imag_hw))
                   for _ in range(spec.N)]
            if all(abs(a - b) > 0.3 for i, a in enumerate(fam)
                   for b in fam[i + 1:]):
                return tuple(fam)

    def phase(style):
        if style == 0:
            return np.log(disk())
        return complex(rng.uniform(-1.5, 1.5), rng.uniform(-np.pi, np.pi))

    def seed_coefficients(lams, phi1):
        # the residual system is affine in (f1+, f1-, f2-); start each run at
        # the least-squares coefficient choice for its random roots so only
        # the root positions have to be corrected.  Probe rows: all three
        # coefficients zero, then each one set to 1.
        probes = np.tile(_vector(TQSolution(lambdas=lams, f1_plus=0, f1_minus=0,
                                            f2_minus=0, phi1=phi1)), (4, 1))
        probes[1:, 4 * spec.N:4 * spec.N + 3] = np.eye(3)
        with np.errstate(all="ignore"):
            r = _residuals(probes, spec)
        if not np.all(np.isfinite(r)):
            return None
        f, *_ = np.linalg.lstsq((r[1:] - r[0]).T, -r[0], rcond=None)
        return f if np.all(np.isfinite(f)) else None

    # (imag half-width, phase style) triples cycled per seed
    styles = ((1.0, 0), (np.pi, 1), (1.0, 1))
    starts = []
    for s in range(n_seeds):
        imag_hw, style = styles[s % len(styles)]
        lams = tuple(family(imag_hw) for _ in range(4))
        phi1 = phase(style)
        f = seed_coefficients(lams, phi1)
        if f is None:
            f = np.array([disk(), disk(), disk()])
        starts.append(_vector(TQSolution(lambdas=lams, f1_plus=complex(f[0]),
                                         f1_minus=complex(f[1]),
                                         f2_minus=complex(f[2]), phi1=phi1)))
    zs, resids, exits = _newton(spec, np.array(starts), NEWTON_MAX_ITER)
    result.seed_residuals = [float(r) for r in resids]
    result.newton_exits = {name: int(np.count_nonzero(exits == name))
                           for name in NEWTON_EXITS}
    for z, resid in zip(zs, resids):
        if not (resid < accept_tol):
            continue
        result.n_converged += 1
        sol = _canonical(_unpack(z, spec.N))
        if not _roots_separated(sol):
            result.n_collided += 1
            continue
        if not _denominators_clear(sol):
            continue
        if any(_same_solution(sol, s) for s in result.solutions):
            continue
        # keep only root sets that reproduce a brute-force eigenvalue
        best = (None, np.inf)
        try:
            lam_sol = [tq_lambda(t, sol, spec) for t in spec.theta]
        except PoleProximityError:
            continue
        for ridx, rec in enumerate(records):
            mis = max(abs(a - b) for a, b in zip(lam_sol, rec.lambda_theta))
            if mis < best[1]:
                best = (ridx, mis)
        if best[1] < match_tol * lam_scale:
            result.solutions.append(sol)
            result.matches.append((len(result.solutions) - 1, best[0], best[1]))
    covered = {ridx for _, ridx, _ in result.matches}
    result.matched_records = sorted(covered)
    result.coverage = len(covered) / len(records)
    return result
