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

from .chain import ChainSpec
from .errors import InconsistencyError, PoleProximityError
from .monodromy import scalar_a, transfer, twist_operator
from .tensor_core import _operator_scale, relative_residual, simultaneous_eigen

OMEGA = np.exp(2j * np.pi / 3)

# Fixed generic probe points whose transfer matrices are jointly diagonalized.
U_PROBES = (0.377 + 0.511j, -0.291 + 0.173j)

DENOM_TOL = 1e-12

# Distance from a cube root of unity within which a Z3 charge is read.
Z_CHARGE_TOL = 1e-6

# Rows per ``_residuals`` call inside the Newton search (see _packed_residuals).
RESIDUAL_CHUNK = 4096

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


def _q(x: np.ndarray, fam: np.ndarray) -> np.ndarray:
    """prod_k sinh(x - fam_k) at every point of x: (..., M) by (..., K) -> (..., M)."""
    return np.prod(np.sinh(x[..., :, None] - fam[..., None, :]), axis=-1)


def _a(x: np.ndarray, theta: np.ndarray, eta: complex) -> np.ndarray:
    """Vacuum eigenvalue a(x) = prod_l sinh(x - theta_l + eta) at every point of x."""
    return np.prod(np.sinh(x[..., :, None] - theta + eta), axis=-1)


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


def _residuals(z: np.ndarray, spec: ChainSpec) -> np.ndarray:
    """Constraint values for a batch of unknown rows laid out as ``_vector``:
    (B, 4N + 4) complex in, (B, 4N + 4) complex out.

    One array sweep per call, so the differenced Jacobian costs a single
    call for all of its columns.
    """
    eta = spec.eta
    N = spec.N
    theta = np.asarray(spec.theta)
    lam = z[:, :4 * N].reshape(-1, 4, N)                  # (B, 4, N)
    f1p, f1m, f2m, phi = (z[:, 4 * N + i] for i in range(4))
    ephi = np.exp(phi)
    l1, l2, l3, l4 = (lam[:, i, :] for i in range(4))     # (B, N) each

    def a(x):
        return _a(x, theta, eta)

    def d(x):
        return _q(x, theta)

    def f1(x):
        return f1p[:, None] * np.exp(x) + f1m[:, None] * np.exp(-x)

    def f2(x):
        return f2m[:, None] * np.exp(-x)

    out = np.empty((z.shape[0], 4 * N + 4), dtype=complex)
    out[:, 0:N] = (OMEGA / ephi[:, None] * np.exp(-l1 - 2 * eta / 3)
                   * _q(l1 + eta, l2) / _q(l1, l4)
                   + a(l1) * f1(l1) / _q(l1, l2))
    out[:, N:2 * N] = (ephi[:, None] * np.exp(l2) * _q(l2 - eta, l1)
                       + d(l2) * _q(l2 - eta, l3) * f1(l2) / _q(l2, l1))
    out[:, 2 * N:3 * N] = (OMEGA ** 2 * np.exp(-l3 - 4 * eta / 3)
                           * _q(l3 + eta, l4)
                           + a(l3) * _q(l3 + eta, l2) * f2(l3) / _q(l3, l4))
    out[:, 3 * N:4 * N] = (OMEGA / ephi[:, None] * np.exp(-l4 - 2 * eta / 3)
                           * _q(l4 - eta, l3) / _q(l4, l1)
                           + a(l4) * f2(l4) / _q(l4, l3))
    ts = np.sum(theta)
    c1, c2, c3, c4 = (np.sum(lam[:, i, :], axis=1) for i in range(4))
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


def _eigenvalue_of(record: SpectralRecord, t: np.ndarray) -> complex:
    return complex((record.dual @ (t @ record.vector)) / (record.dual @ record.vector))


def eigenvalue_at(record: SpectralRecord, u: complex, spec: ChainSpec) -> complex:
    """Transfer eigenvalue of this record at any spectral point."""
    return _eigenvalue_of(record, transfer(u, spec))


def _eigen_residual(record: SpectralRecord, t: np.ndarray, scale: float) -> float:
    tv = t @ record.vector
    lam = complex((record.dual @ tv) / (record.dual @ record.vector))
    return float(relative_residual(tv, lam, record.vector, scale))


def eigen_residual_at(record: SpectralRecord, u: complex, spec: ChainSpec) -> float:
    t = transfer(u, spec)
    return _eigen_residual(record, t, _operator_scale(t))


def z_charge(record: SpectralRecord, spec: ChainSpec, tol: float = Z_CHARGE_TOL) -> int:
    """Cyclic charge: twist eigenvalue exponent, cross-checked against the
    product of transfer eigenvalues over the inhomogeneity points."""
    return _z_charge(record, np.prod([scalar_a(t, spec) for t in spec.theta]), tol)


def _z_charge(record: SpectralRecord, a_prod, tol: float = Z_CHARGE_TOL) -> int:
    """``z_charge`` given a_prod = prod_j a(theta_j), a function of the chain."""
    mu_u = record.mu[-1]
    z_twist = int(np.round(np.angle(mu_u) / (2 * np.pi / 3))) % 3
    if abs(mu_u - OMEGA ** z_twist) > tol:
        raise InconsistencyError(
            f"twist eigenvalue {mu_u} is not a cube root of unity within {tol}")
    ratio = complex(np.prod([lam for lam in record.lambda_theta]) / a_prod)
    z_prod = int(np.round(np.angle(ratio) / (2 * np.pi / 3))) % 3
    if abs(ratio - OMEGA ** z_prod) > tol:
        raise InconsistencyError(
            f"eigenvalue product ratio {ratio} is not a cube root of unity "
            f"within {tol}")
    if z_twist != z_prod:
        raise InconsistencyError(
            f"charge mismatch: twist route gives {z_twist}, "
            f"eigenvalue-product route gives {z_prod}")
    return z_twist


def brute_force_spectrum(spec: ChainSpec, rng_seed: int = 20240229):
    """All 3^N transfer eigenstates via joint diagonalization.

    The family {t(u_1), t(u_2), twist} at the fixed probe points separates
    the spectrum for generic chains; duals are rows of the inverse
    eigenvector matrix, so bilinear pairings with the eigenvectors are exact
    Kronecker deltas.
    """
    records_raw, _, wmat, resid = simultaneous_eigen(
        [transfer(U_PROBES[0], spec), transfer(U_PROBES[1], spec),
         twist_operator(spec)], rng_seed=rng_seed)
    denom = [complex(wmat[k] @ vec) for k, (vec, _) in enumerate(records_raw)]
    lam_theta = [[] for _ in records_raw]
    for theta in spec.theta:
        tt = transfer(theta, spec)  # one dense t(theta_j) alive at a time
        for k, (vec, _) in enumerate(records_raw):
            lam_theta[k].append(complex((wmat[k] @ (tt @ vec)) / denom[k]))
        del tt
    records = [SpectralRecord(vector=vec, dual=wmat[k], mu=mu,
                              lambda_theta=tuple(lam_theta[k]), z_charge=-1,
                              residual=float(resid[k]))
               for k, (vec, mu) in enumerate(records_raw)]
    a_prod = np.prod([scalar_a(t, spec) for t in spec.theta])
    for rec in records:
        rec.z_charge = _z_charge(rec, a_prod)
    return records


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------

def _pack(sol: TQSolution) -> np.ndarray:
    z = _vector(sol)
    return np.concatenate([z.real, z.imag])


def _unpack(x: np.ndarray, N: int) -> TQSolution:
    half = len(x) // 2
    z = x[:half] + 1j * x[half:]
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


def _same_solution(a: TQSolution, b: TQSolution, tol: float = 1e-7) -> bool:
    for fa, fb in zip(a.lambdas, b.lambdas):
        if max(abs(x - y) for x, y in zip(fa, fb)) > tol:
            return False
    return (abs(a.f1_plus - b.f1_plus) <= tol
            and abs(a.f1_minus - b.f1_minus) <= tol
            and abs(a.f2_minus - b.f2_minus) <= tol
            and abs(a.exp_phi1 - b.exp_phi1) <= tol)


def _denominators_clear(sol: TQSolution, floor: float = 1e-8) -> bool:
    l1, l2, l3, l4 = np.array(sol.lambdas)
    pairs = ((l1, l2), (l1, l4), (l2, l1), (l3, l4), (l4, l1), (l4, l3))
    return all(np.all(np.abs(_q(x, fam)) > floor) for x, fam in pairs)


def _roots_separated(sol: TQSolution, floor: float = 1e-6) -> bool:
    """Reject root sets with a collision inside one family.

    A repeated root makes two residue-cancellation conditions identical, so
    the counting argument behind the constraint system breaks down and the
    eigenvalue function keeps an uncancelled pole.  Multi-start Newton lands
    on such collapsed configurations frequently; they are never physical.
    """
    for fam in sol.lambdas:
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                if abs(_strip_period(fam[i] - fam[j])) < floor:
                    return False
    return True


def _packed_residuals(xs: np.ndarray, spec: ChainSpec) -> np.ndarray:
    """``_residuals`` on packed real rows (real parts of the unknowns, then
    their imaginary parts), packed the same way.

    Rows go through ``_residuals`` at most ``RESIDUAL_CHUNK`` at a time: up
    to that size every row is bit-identical to the same row evaluated alone,
    so a start's trajectory does not depend on which other starts share its
    batch (numpy 2.4 drifts at the last bit from 16384 rows on).
    """
    half = xs.shape[1] // 2
    out = np.empty_like(xs)
    # wild trial steps overflow exp/sinh freely; a non-finite row just marks
    # the step as rejected
    with np.errstate(all="ignore"):
        for lo in range(0, len(xs), RESIDUAL_CHUNK):
            chunk = xs[lo:lo + RESIDUAL_CHUNK]
            r = _residuals(chunk[:, :half] + 1j * chunk[:, half:], spec)
            out[lo:lo + RESIDUAL_CHUNK, :half] = r.real
            out[lo:lo + RESIDUAL_CHUNK, half:] = r.imag
    return out


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


def _newton(spec: ChainSpec, x0: np.ndarray, max_iter: int, fd_step: float):
    """Damped Newton on a stack of packed real rows (S, 2m), all starts in
    lockstep; the residuals are packed the same way.

    Each start runs the arithmetic it would run alone: a forward-difference
    Jacobian, a full step halved up to 14 times until the residual max-norm
    drops by the factor (1 - 1e-4 t), and a stop below 1e-13.  A start leaves
    the batch when it stops.  Returns the final rows, their residual
    max-norms (inf for a non-finite start) and each start's exit class from
    ``NEWTON_EXITS``.
    """
    x = np.array(x0, dtype=float)
    dim = x.shape[1]
    f = _packed_residuals(x, spec)
    fnorm = np.abs(f).max(axis=1)
    exits = np.full(len(x), "max_iter", dtype=object)
    finite = np.isfinite(f).all(axis=1)
    fnorm[~finite] = np.inf
    exits[~finite] = "nonfinite_start"
    active = np.flatnonzero(finite)
    shifts = fd_step * np.eye(dim)
    for _ in range(max_iter):
        done = fnorm[active] < 1e-13
        exits[active[done]] = "converged"
        active = active[~done]
        if not active.size:
            break
        fa = f[active]
        fp = _packed_residuals((x[active][:, None, :] + shifts).reshape(-1, dim),
                               spec).reshape(-1, dim, dim)
        ok = np.isfinite(fp).all(axis=(1, 2))
        exits[active[~ok]] = "nonfinite_jacobian"
        active, fa, fp = active[ok], fa[ok], fp[ok]
        jac = (fp - fa[:, None, :]).transpose(0, 2, 1) / fd_step
        step, solved = _newton_steps(jac, -fa)
        exits[active[~solved]] = "singular_jacobian"
        active, step = active[solved], step[solved]
        # backtracking line search, one batched trial per halving
        searching = np.arange(len(active))
        t = 1.0
        for _ in range(14):
            rows = active[searching]
            xn = x[rows] + t * step[searching]
            fn = _packed_residuals(xn, spec)
            fn_norm = np.abs(fn).max(axis=1)
            good = np.isfinite(fn).all(axis=1)
            good[good] = fn_norm[good] < (1 - 1e-4 * t) * fnorm[rows[good]]
            x[rows[good]], f[rows[good]] = xn[good], fn[good]
            fnorm[rows[good]] = fn_norm[good]
            searching = searching[~good]
            if not searching.size:
                break
            t *= 0.5
        exits[active[searching]] = "stalled"
        active = np.delete(active, searching)
    exits[active[fnorm[active] < 1e-13]] = "converged"
    return x, fnorm, exits


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


def solve_bae(spec: ChainSpec, n_seeds: int = 200, rng_seed: int = 20240229,
              max_iter: int = 60, fd_step: float = 1e-7,
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
    if spec.N > 2:
        raise ValueError("root search is limited to N <= 2 chains")
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
        starts.append(_pack(TQSolution(lambdas=lams, f1_plus=complex(f[0]),
                                       f1_minus=complex(f[1]),
                                       f2_minus=complex(f[2]), phi1=phi1)))
    x0 = np.reshape(starts, (n_seeds, 8 * spec.N + 8))
    xs, resids, exits = _newton(spec, x0, max_iter, fd_step)
    result.seed_residuals = [float(r) for r in resids]
    result.newton_exits = {name: int(np.count_nonzero(exits == name))
                           for name in NEWTON_EXITS}
    for x, resid in zip(xs, resids):
        if not (resid < accept_tol):
            continue
        result.n_converged += 1
        sol = _canonical(_unpack(x, spec.N))
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
